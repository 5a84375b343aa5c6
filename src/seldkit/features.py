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
from scipy.signal import get_window

from .audio import AudioClip
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

    @property
    def n_bins(self) -> int:
        return self.nfft // 2 + 1

    @property
    def frames_per_label(self) -> int:
        """STFT frames per 100 ms label frame (4 at the default hop)."""
        f = round(LABEL_FRAME_S * self.sample_rate / self.hop)
        return max(1, int(f))

    def n_frames(self, n_samples: int) -> int:
        return 1 + n_samples // self.hop


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
    win = get_window("hann", config.window, fftbins=True)
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


def intensity_vector(stft_w, stft_x, stft_y, stft_z, fb, floor_eps: float) -> np.ndarray:
    """Mel-aggregated FOA intensity, shaped (3, frames, n_mels).

    Per TF bin the intensity is Re(conj(W) * (X, Y, Z)); each component is
    aggregated through the mel filterbank ``fb`` (see ``mel_filterbank``),
    then the 3-vector of every (frame, mel) cell is scaled to unit norm
    (zero where the norm is below ``floor_eps``), so the cell encodes a
    pure direction.
    """
    specs = [np.asarray(s) for s in (stft_w, stft_x, stft_y, stft_z)]
    if len({s.shape for s in specs}) != 1:
        raise ValueError("spectrogram dims must match")
    w = specs[0]
    comps = [np.real(np.conj(w) * s) @ fb.T for s in specs[1:]]
    vec = np.stack(comps)
    norm = np.linalg.norm(vec, axis=0)
    scale = np.where(norm > floor_eps, 1.0 / np.maximum(norm, floor_eps), 0.0)
    return vec * scale


def extract_features(clip: AudioClip, config: FeatureConfig | None = None) -> np.ndarray:
    """Full feature tensor, shaped (7, frames, n_mels): log-mel W/X/Y/Z, then intensity."""
    config = config or FeatureConfig()
    if clip.sample_rate != config.sample_rate:
        raise ValueError(
            f"clip rate {clip.sample_rate} != config rate {config.sample_rate}"
        )
    specs = [stft(clip.samples[ch], config) for ch in range(4)]
    fb = mel_filterbank(config)
    logmel = np.stack([np.log(np.abs(s) ** 2 @ fb.T + config.floor_eps) for s in specs])
    intensity = intensity_vector(*specs, fb, config.floor_eps)
    return np.concatenate([logmel, intensity])


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
