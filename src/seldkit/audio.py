"""FOA audio clips and WAV file I/O.

Clips are 4-channel first-order Ambisonics in ACN order (W, X, Y, Z) with
SN3D gain normalization, 24 kHz by default. WAV files are read in PCM
16/24/32-bit or 32-bit float and written as 32-bit float.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

FOA_CHANNELS = ("w", "x", "y", "z")


def _check_rate(sample_rate, where: str = "") -> None:
    if int(sample_rate) <= 0:
        raise ValueError(f"{where}sample_rate must be positive, got {sample_rate}")


@dataclass(frozen=True)
class AudioClip:
    """Immutable 4-channel FOA waveform, samples shaped (4, n)."""

    samples: np.ndarray
    sample_rate: int = 24000

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] != 4:
            raise ValueError(f"FOA clip needs shape (4, n), got {np.shape(self.samples)}")
        _check_rate(self.sample_rate)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class WavInfo:
    """The rate and length of a checked FOA WAV file, without its samples.

    It stands in for an ``AudioClip`` where only ``sample_rate`` and
    ``n_samples`` are read: a scoring run or ``tta.run_tta`` with no model
    that reads features.
    """

    sample_rate: int
    n_samples: int


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


def _read_stored(path) -> tuple[np.ndarray, int]:
    """The samples of a WAV file as stored, shaped (n, channels) or (n,) for mono, and its rate.

    A file shorter than its header states, or malformed bytes scipy
    cannot read, raise ValueError naming the path; so do NaN or infinite
    samples (possible only in float WAVs), naming the first bad (channel,
    sample). An OSError is raised as it is.
    """
    try:
        with warnings.catch_warnings():
            # scipy only warns when the data ends early; a chunk it skips stays a warning
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            sr, data = wavfile.read(str(path))
    except UnboundLocalError:  # scipy returns before binding: the RIFF size ends before fmt or data
        raise ValueError(f"{path}: malformed WAV: no fmt or data chunk within the RIFF size") from None
    except (ValueError, TypeError, ZeroDivisionError, struct.error, wavfile.WavFileWarning) as exc:
        raise ValueError(f"{path}: malformed WAV: {exc}") from exc
    data = np.atleast_1d(data)
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        ch, n = np.argwhere(~np.isfinite(np.atleast_2d(data.T)))[0]
        raise ValueError(f"{path}: non-finite sample at channel {ch}, sample {n}")
    return data, int(sr)


def _read_foa(path) -> tuple[np.ndarray, int]:
    """``_read_stored`` for a file that must hold 4 channels at a positive rate."""
    data, sr = _read_stored(path)
    channels = 1 if data.ndim == 1 else data.shape[1]
    if channels != 4:
        raise ValueError(f"{path}: expected 4 FOA channels, found {channels}")
    _check_rate(sr, f"{path}: ")
    return data, sr


def read_wav(path) -> AudioClip:
    """Read a 4-channel FOA WAV file as float64 samples.

    The file is checked on its stored samples first: a NaN or infinite
    sample raises ValueError naming the path and the first bad (channel,
    sample), then a channel count other than 4 or a rate of 0 does. Only
    then are the samples scaled (integer PCM) and converted.
    """
    data, sr = _read_foa(path)
    return AudioClip(_normalize_pcm(data).T, sr)


def read_wav_info(path) -> WavInfo:
    """Check a 4-channel FOA WAV file as ``read_wav`` does, and give only its rate and length.

    Every error ``read_wav`` raises is raised here, with the same
    message; the samples are never converted to float64.
    """
    data, sr = _read_foa(path)
    return WavInfo(sr, len(data))


def write_wav(path, clip: AudioClip) -> None:
    """Write a clip as 32-bit float WAV."""
    wavfile.write(str(path), clip.sample_rate, clip.samples.T.astype(np.float32))


def read_wav_mono(path) -> tuple[np.ndarray, int]:
    """Read a single-channel WAV file as a 1-D float array plus its rate."""
    data, sr = _read_stored(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono, found {data.shape[1]} channels")
    return _normalize_pcm(data), sr


def write_wav_mono(path, samples, sample_rate: int) -> None:
    """Write a 1-D signal as 32-bit float WAV."""
    wavfile.write(str(path), int(sample_rate), np.asarray(samples, dtype=np.float32))
