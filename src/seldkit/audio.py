"""FOA audio clips and WAV file I/O.

Clips are 4-channel first-order Ambisonics in ACN order (W, X, Y, Z) with
SN3D gain normalization, 24 kHz by default. WAV files are read in PCM
16/24/32-bit or 32-bit float and written as 32-bit float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

FOA_CHANNELS = ("w", "x", "y", "z")


@dataclass(frozen=True)
class AudioClip:
    """Immutable 4-channel FOA waveform, samples shaped (4, n)."""

    samples: np.ndarray
    sample_rate: int = 24000

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] != 4:
            raise ValueError(f"FOA clip needs shape (4, n), got {np.shape(self.samples)}")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


def _normalize_pcm(data: np.ndarray) -> np.ndarray:
    """Scale integer PCM to float in [-1, 1); floats pass through."""
    if data.dtype == np.int16:
        return data.astype(float) / 2.0**15
    if data.dtype == np.int32:
        # scipy left-justifies 24-bit PCM into int32, so one scale covers both
        return data.astype(float) / 2.0**31
    if data.dtype == np.uint8:
        return (data.astype(float) - 128.0) / 128.0
    return data.astype(float)


def read_wav_array(path) -> tuple[np.ndarray, int]:
    """Read a WAV file as a float array shaped (channels, n) plus its rate.

    NaN or infinite samples (possible only in float WAVs) raise ValueError
    naming the path and the first bad (channel, sample).
    """
    sr, data = wavfile.read(str(path))
    data = _normalize_pcm(np.atleast_1d(data))
    if data.ndim == 1:
        data = data[np.newaxis, :]
    else:
        data = data.T
    if not np.isfinite(data).all():
        ch, n = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(f"{path}: non-finite sample at channel {ch}, sample {n}")
    return data, int(sr)


def read_wav(path) -> AudioClip:
    """Read a 4-channel FOA WAV file."""
    data, sr = read_wav_array(path)
    if data.shape[0] != 4:
        raise ValueError(f"{path}: expected 4 FOA channels, found {data.shape[0]}")
    return AudioClip(data, sr)


def write_wav(path, clip: AudioClip) -> None:
    """Write a clip as 32-bit float WAV."""
    wavfile.write(str(path), clip.sample_rate, clip.samples.T.astype(np.float32))


def read_wav_mono(path) -> tuple[np.ndarray, int]:
    """Read a single-channel WAV file as a 1-D float array plus its rate."""
    data, sr = read_wav_array(path)
    if data.shape[0] != 1:
        raise ValueError(f"{path}: expected mono, found {data.shape[0]} channels")
    return data[0], sr


def write_wav_mono(path, samples, sample_rate: int) -> None:
    """Write a 1-D signal as 32-bit float WAV."""
    wavfile.write(str(path), int(sample_rate), np.asarray(samples, dtype=np.float32))
