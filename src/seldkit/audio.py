"""FOA audio clips and WAV file I/O.

Clips are 4-channel first-order Ambisonics in ACN order (W, X, Y, Z) with
SN3D gain normalization, 24 kHz by default.

seldkit reads and writes WAV files itself, with numpy alone. The reader
takes little-endian RIFF/WAVE files of PCM 8/16/24/32-bit or IEEE float
32/64-bit samples, with a plain or ``WAVE_FORMAT_EXTENSIBLE`` fmt chunk,
and rejects RF64, RIFX (big-endian) and compressed formats. It walks the
chunks within the RIFF size and checks each chunk's size against the
bytes left in the file before reading it, so a corrupt size field never
allocates more than the file holds. Files are written as 32-bit float,
byte for byte as ``scipy.io.wavfile.write`` writes a float32 array.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

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


class WavFileWarning(UserWarning):
    """A WAV file holds a chunk seldkit does not read; the chunk is skipped."""


_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the GUID {XXXXXXXX-0000-0010-8000-00AA00389B71} of an extensible fmt chunk's
# subformat ends in these 12 bytes; its first 4 hold the plain format tag
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# the stored dtype of each (format tag, bits per sample) read; 24-bit PCM is read as bytes
_DTYPES = {
    (_PCM, 8): np.dtype("u1"),
    (_PCM, 16): np.dtype("<i2"),
    (_PCM, 24): np.dtype("u1"),
    (_PCM, 32): np.dtype("<i4"),
    (_FLOAT, 32): np.dtype("<f4"),
    (_FLOAT, 64): np.dtype("<f8"),
}
_QUIET_CHUNKS = (b"fact", b"LIST", b"JUNK")  # skipped without a warning


def _normalize_pcm(data: np.ndarray) -> np.ndarray:
    """Scale integer PCM to float in [-1, 1); floats pass through."""
    if data.dtype == np.int16:
        return data.astype(float) / 2.0**15
    if data.dtype == np.int32:
        # 24-bit PCM is left-justified into int32, so one scale covers both
        return data.astype(float) / 2.0**31
    if data.dtype == np.uint8:
        return (data.astype(float) - 128.0) / 128.0
    return data.astype(float)


def _malformed(path, reason: str) -> ValueError:
    return ValueError(f"{path}: malformed WAV: {reason}")


def _read_fmt(path, body: bytes, size: int) -> tuple[int, int, int, np.dtype]:
    """(channels, rate, block align, stored dtype) of a fmt chunk of ``size`` bytes.

    ``body`` is the chunk's first 40 bytes, or all of it when shorter.
    """
    if size < 16:
        raise _malformed(path, f"fmt chunk of {size} bytes, expected at least 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _EXTENSIBLE:
        if size < 40 or int.from_bytes(body[16:18], "little") < 22:
            raise _malformed(path, f"extensible fmt chunk of {size} bytes, expected at least 40")
        if body[28:40] != _GUID_TAIL:
            raise ValueError(f"{path}: unsupported WAV: extensible subformat {body[24:40].hex()}")
        tag = int.from_bytes(body[24:28], "little")
    if (tag, bits) not in _DTYPES:
        raise ValueError(
            f"{path}: unsupported WAV: format tag {tag:#06x} with {bits}-bit samples; "
            "seldkit reads PCM 8/16/24/32-bit and IEEE float 32/64-bit"
        )
    if channels == 0:
        raise _malformed(path, "0 channels")
    if block_align != channels * bits // 8:
        raise _malformed(path, f"block align {block_align} does not fit {channels} channels of {bits} bits")
    if byte_rate != rate * block_align:
        raise _malformed(path, f"byte rate {byte_rate} is not rate {rate} times block align {block_align}")
    return channels, rate, block_align, _DTYPES[tag, bits]


def _read_stored(path, samples: bool = True) -> tuple[np.ndarray | None, int, int, int]:
    """A WAV file's samples as stored, shaped (n, channels) or (n,) for mono, its rate, channels and frames.

    A chunk that runs past the end of the file, malformed or unsupported
    bytes, a missing fmt or data chunk, and NaN or infinite samples
    (possible only in float WAVs, naming the first bad (channel, sample))
    raise ValueError naming the path. A chunk seldkit does not know is
    skipped with a ``WavFileWarning``. An OSError is raised as it is.
    With ``samples`` false, integer PCM is checked from its chunks alone: None stands for its samples.
    """
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if head[:4] in (b"RF64", b"RIFX"):
            raise ValueError(f"{path}: unsupported WAV: {head[:4].decode()} file; only little-endian RIFF is read")
        if len(head) < 12:
            raise _malformed(path, "Reached EOF prematurely")
        if head[:4] != b"RIFF" or head[8:] != b"WAVE":
            raise _malformed(path, f"not a RIFF/WAVE file: starts {head!r}")
        riff_end = 8 + int.from_bytes(head[4:8], "little")
        fmt = data = None
        at = 12
        while at < riff_end:
            chunk = f.read(8)
            chunk_id, size = chunk[:4], int.from_bytes(chunk[4:], "little")
            if len(chunk) < 8 or size > file_size - at - 8:
                raise _malformed(path, "Reached EOF prematurely")
            if chunk_id == b"fmt ":
                if fmt is not None:
                    raise _malformed(path, "a second fmt chunk")
                fmt = _read_fmt(path, f.read(min(size, 40)), size)
            elif chunk_id == b"data":
                if data is not None:
                    raise _malformed(path, "a second data chunk")
                data = (at + 8, size)
            elif chunk_id not in _QUIET_CHUNKS:
                warnings.warn(f"{path}: chunk {chunk_id!r} not understood, skipping it", WavFileWarning)
            at += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
            f.seek(at)
        if fmt is None or data is None:
            raise _malformed(path, "no fmt or data chunk within the RIFF size")
        channels, rate, block_align, dtype = fmt
        offset, size = data
        if size % block_align:
            raise _malformed(path, f"data chunk of {size} bytes is not whole {block_align}-byte frames")
        if not samples and dtype.kind != "f":  # only float samples can be NaN or infinite
            return None, rate, channels, size // block_align
        f.seek(offset)
        stored = np.fromfile(f, dtype, size // dtype.itemsize)
    if stored.nbytes != size:  # the file shrank after its size was taken
        raise _malformed(path, "Reached EOF prematurely")
    if block_align == 3 * channels:  # 24-bit PCM: each sample's 3 bytes become the top of an int32
        wide = np.zeros((size // 3, 4), np.uint8)
        wide[:, 1:] = stored.reshape(-1, 3)
        stored = wide.view("<i4").reshape(-1)
    if channels > 1:
        stored = stored.reshape(-1, channels)
    if stored.dtype.kind == "f" and not np.isfinite(stored).all():
        ch, n = np.argwhere(~np.isfinite(np.atleast_2d(stored.T)))[0]
        raise ValueError(f"{path}: non-finite sample at channel {ch}, sample {n}")
    return stored, rate, channels, size // block_align


def _read_foa(path, samples: bool = True) -> tuple[np.ndarray | None, int, int]:
    """``_read_stored`` for a file that must hold 4 channels at a positive rate: (samples, rate, frames)."""
    data, sr, channels, frames = _read_stored(path, samples)
    if channels != 4:
        raise ValueError(f"{path}: expected 4 FOA channels, found {channels}")
    _check_rate(sr, f"{path}: ")
    return data, sr, frames


def read_wav(path) -> AudioClip:
    """Read a 4-channel FOA WAV file as float64 samples.

    The file is checked on its stored samples first: a NaN or infinite
    sample raises ValueError naming the path and the first bad (channel,
    sample), then a channel count other than 4 or a rate of 0 does. Only
    then are the samples scaled (integer PCM) and converted.
    """
    data, sr, _ = _read_foa(path)
    return AudioClip(_normalize_pcm(data).T, sr)


def read_wav_info(path) -> WavInfo:
    """Check a 4-channel FOA WAV file as ``read_wav`` does, and give only its rate and length.

    Every error ``read_wav`` raises is raised here, with the same message.
    Integer PCM is checked from its chunks alone; float samples are read
    only to check that they are finite, and never converted to float64.
    """
    _, sr, n = _read_foa(path, samples=False)
    return WavInfo(sr, n)


def _write_float32(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write (n,) or (n, channels) samples as a 32-bit float WAV.

    The bytes are those ``scipy.io.wavfile.write`` writes for float32: the
    RIFF header, an 18-byte fmt chunk (IEEE float, a zero cbSize), a fact
    chunk with the frame count, then the data chunk.
    """
    data = np.ascontiguousarray(samples, dtype="<f4")
    channels = 1 if data.ndim == 1 else data.shape[1]
    riff_size = 50 + data.nbytes
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{path}: {data.nbytes} bytes of samples do not fit a RIFF WAV")
    block_align = 4 * channels
    fmt = struct.pack("<HHIIHHH", _FLOAT, channels, sample_rate, sample_rate * block_align, block_align, 32, 0)
    header = (
        b"RIFF" + struct.pack("<I", riff_size) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<II", 4, len(data))
        + b"data" + struct.pack("<I", data.nbytes)
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(data.data)


def write_wav(path, clip: AudioClip) -> None:
    """Write a clip as 32-bit float WAV."""
    _write_float32(path, clip.samples.T, clip.sample_rate)


def read_wav_mono(path) -> tuple[np.ndarray, int]:
    """Read a single-channel WAV file as a 1-D float array plus its rate."""
    data, sr, _, _ = _read_stored(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono, found {data.shape[1]} channels")
    return _normalize_pcm(data), sr


def write_wav_mono(path, samples, sample_rate: int) -> None:
    """Write a 1-D signal as 32-bit float WAV."""
    _write_float32(path, np.asarray(samples), int(sample_rate))
