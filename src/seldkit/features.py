"""Frame-wise features: multichannel log-mel spectrograms + FOA intensity vectors.

The 7-channel feature tensor stacks, on a shared STFT frame grid:
channels 0-3 log-mel power of W,X,Y,Z and channels 4-6 the mel-aggregated
acoustic intensity (x, y, z), normalized to unit norm per (frame, mel) bin.
With the default 600-sample hop at 24 kHz, four STFT frames cover one
100 ms label frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioClip, WavInfo
from .geometry import Direction, unit_to_dir
from .labels import LABEL_FRAME_S

FEATURE_CHANNELS = (
    "logmel_w",
    "logmel_x",
    "logmel_y",
    "logmel_z",
    "intensity_x",
    "intensity_y",
    "intensity_z",
)


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 24000
    nfft: int = 2048
    hop: int = 600
    window: int = 1200
    n_mels: int = 64
    floor_eps: float = 1e-10

    def __post_init__(self):
        if min(self.sample_rate, self.nfft, self.hop, self.window, self.n_mels) < 1:
            raise ValueError("all feature sizes must be positive")
        if self.window > self.nfft:
            raise ValueError(f"window {self.window} exceeds nfft {self.nfft}")
        if self.hop > self.window:
            raise ValueError(f"hop {self.hop} exceeds window {self.window}")
        if self.floor_eps <= 0:
            raise ValueError("floor_eps must be positive")
        label_samples = LABEL_FRAME_S * self.sample_rate
        if label_samples != int(label_samples) or int(label_samples) % self.hop:
            raise ValueError(
                f"hop {self.hop} does not divide one {LABEL_FRAME_S * 1000:g} ms label frame "
                f"({label_samples:g} samples at {self.sample_rate} Hz)"
            )

    @property
    def n_bins(self) -> int:
        return self.nfft // 2 + 1

    @property
    def frames_per_label(self) -> int:
        """STFT frames per 100 ms label frame (4 at the default hop), an exact quotient."""
        return int(LABEL_FRAME_S * self.sample_rate) // self.hop

    def check_rate(self, clip: AudioClip | WavInfo) -> None:
        """Raise ValueError unless ``clip`` is sampled at this config's rate."""
        if clip.sample_rate != self.sample_rate:
            raise ValueError(f"clip rate {clip.sample_rate} != config rate {self.sample_rate}")

    def n_frames(self, n_samples: int) -> int:
        return 1 + n_samples // self.hop

    def label_frames(self, n_samples: int) -> int:
        """Label frames (100 ms) of a clip of ``n_samples`` samples: whole ones of its STFT grid."""
        return self.n_frames(n_samples) // self.frames_per_label


def hann_window(m: int) -> np.ndarray:
    """Periodic Hann window of ``m`` >= 1 samples, as ``get_window("hann", m)`` builds it.

    It is scipy's ``general_cosine`` arithmetic: 0.5 + 0.5 cos over ``m + 1``
    points from -pi to pi, last point dropped; ``m == 1`` gives ``[1.0]``.
    The window bits, and so the ``.feat`` bytes, equal scipy's.
    """
    if m == 1:
        return np.ones(1)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m + 1)))[:-1]


def stft(samples, config: FeatureConfig) -> np.ndarray:
    """Hann-windowed STFT of one channel, shaped (frames, nfft//2 + 1).

    The signal is reflect-padded so frame i is centered on sample i*hop,
    giving 1 + floor(n/hop) frames; each window is zero-padded from the
    window length to nfft before the FFT.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("stft needs a non-empty 1-D signal")
    pad = config.window // 2
    pads = (pad, config.window - pad)
    xp = np.pad(x, pads, mode="reflect") if x.size > 1 else np.pad(x, pads, mode="edge")
    n_frames = config.n_frames(x.size)
    win = hann_window(config.window)
    frames = np.lib.stride_tricks.sliding_window_view(xp, config.window)
    frames = frames[:: config.hop][:n_frames] * win
    return np.fft.rfft(frames, n=config.nfft, axis=1)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mel_band_edges(config: FeatureConfig) -> np.ndarray:
    """The n_mels + 2 band edge frequencies in Hz, equally spaced on the mel scale."""
    mel_pts = np.linspace(0.0, float(_hz_to_mel(config.sample_rate / 2.0)), config.n_mels + 2)
    return _mel_to_hz(mel_pts)


def mel_filterbank(config: FeatureConfig) -> np.ndarray:
    """Triangular mel filterbank, shaped (n_mels, nfft//2 + 1).

    HTK-style triangles from 0 Hz to sr/2, unnormalized. Raises when a
    filter is narrower than the FFT bin spacing (no nonzero weight).
    """
    edges = mel_band_edges(config)
    bin_freqs = np.arange(config.n_bins) * config.sample_rate / config.nfft
    lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs - lower) / np.maximum(center - lower, 1e-30)
    falling = (upper - bin_freqs) / np.maximum(upper - center, 1e-30)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    empty = np.where(~fb.any(axis=1))[0]
    if empty.size:
        raise ValueError(
            f"n_mels={config.n_mels} too large for nfft={config.nfft}: "
            f"mel row {empty[0]} has no FFT bin"
        )
    return fb


def _intensity_component(stft_w, stft_c, fb) -> np.ndarray:
    """One mel-aggregated intensity component: Re(conj(W) * C) per TF bin, through ``fb``."""
    return np.real(np.conj(stft_w) * stft_c) @ fb.T


def _unit_cells(vec, floor_eps: float) -> np.ndarray:
    """Scale the 3-vector of every (frame, mel) cell of ``vec`` (3, frames, n_mels) to unit norm."""
    norm = np.linalg.norm(vec, axis=0)
    scale = np.where(norm > floor_eps, 1.0 / np.maximum(norm, floor_eps), 0.0)
    return vec * scale


def _log_mel(spec, fb, floor_eps: float) -> np.ndarray:
    return np.log(np.abs(spec) ** 2 @ fb.T + floor_eps)


def extract_features(clip: AudioClip, config: FeatureConfig | None = None) -> np.ndarray:
    """Full feature tensor, shaped (7, frames, n_mels): log-mel W/X/Y/Z, then intensity.

    W's spectrum is kept throughout; X, Y and Z are transformed one at a
    time, and each spectrum is released once its log-mel row and intensity
    component are taken, so at most two spectra are held at once.
    """
    config = config or FeatureConfig()
    config.check_rate(clip)
    fb = mel_filterbank(config)
    w = stft(clip.samples[0], config)
    logmel = [_log_mel(w, fb, config.floor_eps)]
    comps = []
    for ch in (1, 2, 3):
        spec = stft(clip.samples[ch], config)
        logmel.append(_log_mel(spec, fb, config.floor_eps))
        comps.append(_intensity_component(w, spec, fb))
        del spec
    return np.concatenate([np.stack(logmel), _unit_cells(np.stack(comps), config.floor_eps)])


def doa_from_features(features, config: FeatureConfig | None = None) -> Direction:
    """Single-source DOA estimate: energy-weighted mean of the intensity field.

    Weights are the W-channel mel power, so quiet bins barely contribute.
    Raises on an all-silent tensor (no direction to estimate).
    """
    config = config or FeatureConfig()
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 3 or feats.shape[0] != len(FEATURE_CHANNELS):
        raise ValueError(f"expected a (7, frames, n_mels) tensor, got {feats.shape}")
    weights = np.exp(feats[0]) - config.floor_eps
    v = (feats[4:7] * np.maximum(weights, 0.0)).sum(axis=(1, 2))
    return unit_to_dir(v)
