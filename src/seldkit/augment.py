"""Waveform augmentations (gain, pitch shift, band-pass) and spectrogram masking.

All waveform transforms apply the same coefficients to the four FOA
channels, so the spatial image (and hence the intensity DOA) of a source
is preserved.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audio import AudioClip


@dataclass(frozen=True)
class AugmentConfig:
    """Ranges the waveform augmentation draws its parameters from.

    Each is a [lo, hi] pair of finite numbers (not bools) with lo <= hi,
    and every draw is valid for ``apply_gain``, ``pitch_shift`` and
    ``band_pass``: gains lie within [-120, 120] dB, pitches within
    [-12, 12] semitones, and the low cut-offs start above 0 Hz and end
    below the first high cut-off. The high cut-offs must also stay below
    the clip's Nyquist frequency, which ``band_pass`` checks per clip.
    """

    gain_db_range: tuple = (-6.0, 6.0)
    pitch_semitone_range: tuple = (-2.0, 2.0)
    bandpass_lo_range: tuple = (50.0, 500.0)
    bandpass_hi_range: tuple = (2000.0, 11000.0)

    def __post_init__(self):
        for name in ("gain_db_range", "pitch_semitone_range", "bandpass_lo_range", "bandpass_hi_range"):
            value = getattr(self, name)
            pair = isinstance(value, (tuple, list)) and len(value) == 2
            if not (pair and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
                raise ValueError(f"{name} must be a [lo, hi] pair of numbers, got {value!r}")
            lo, hi = value
            if not all(abs(v) <= sys.float_info.max for v in value):  # also an int no float holds
                raise ValueError(f"{name} must be finite: {(lo, hi)}")
            if lo > hi:
                raise ValueError(f"{name} is not ordered: {(lo, hi)}")
        if max(abs(g) for g in self.gain_db_range) > 120:  # 10 ** (dB / 20) overflows past about 6165 dB
            raise ValueError(f"gain_db_range must lie within [-120, 120] dB: {tuple(self.gain_db_range)}")
        if max(abs(s) for s in self.pitch_semitone_range) > 12:
            raise ValueError(f"pitch_semitone_range must lie within [-12, 12]: {tuple(self.pitch_semitone_range)}")
        if self.bandpass_lo_range[0] <= 0:
            raise ValueError(f"bandpass_lo_range must start above 0 Hz: {tuple(self.bandpass_lo_range)}")
        if self.bandpass_lo_range[1] >= self.bandpass_hi_range[0]:
            raise ValueError(
                f"bandpass_lo_range must end below the start of bandpass_hi_range: "
                f"{tuple(self.bandpass_lo_range)}, {tuple(self.bandpass_hi_range)}"
            )


def apply_gain(clip: AudioClip, gain_db: float) -> AudioClip:
    """Scale all channels by 10^(gain_db/20)."""
    if not np.isfinite(gain_db):
        raise ValueError(f"gain must be finite, got {gain_db}")
    return AudioClip(clip.samples * 10.0 ** (gain_db / 20.0), clip.sample_rate)


def pitch_shift(clip: AudioClip, semitones: float) -> AudioClip:
    """Shift pitch by resampling; output is truncated/zero-padded to the input length.

    A shift of s semitones scales all frequencies by 2^(s/12). Duration is
    preserved so label frame alignment stays valid; the tail freed by an
    upward shift is zero-filled.
    """
    if abs(semitones) > 12:
        raise ValueError(f"|semitones| must be <= 12, got {semitones}")
    from scipy.signal import resample_poly  # here, not at the top: scipy.signal is most of the import time

    factor = 2.0 ** (semitones / 12.0)
    ratio = Fraction(1.0 / factor).limit_denominator(1000)
    shifted = resample_poly(clip.samples, ratio.numerator, ratio.denominator, axis=1)
    n = clip.n_samples
    out = np.zeros((4, n))
    keep = min(n, shifted.shape[1])
    out[:, :keep] = shifted[:, :keep]
    return AudioClip(out, clip.sample_rate)


def band_pass(clip: AudioClip, f_lo: float, f_hi: float) -> AudioClip:
    """2nd-order Butterworth high-pass at f_lo cascaded with low-pass at f_hi."""
    nyquist = clip.sample_rate / 2.0
    if not (0.0 < f_lo < f_hi < nyquist):
        raise ValueError(f"need 0 < f_lo < f_hi < {nyquist}, got ({f_lo}, {f_hi})")
    from scipy.signal import butter, sosfilt  # here, not at the top: scipy.signal is most of the import time

    sos = np.vstack(
        [
            butter(2, f_lo, btype="highpass", fs=clip.sample_rate, output="sos"),
            butter(2, f_hi, btype="lowpass", fs=clip.sample_rate, output="sos"),
        ]
    )
    return AudioClip(sosfilt(sos, clip.samples, axis=1), clip.sample_rate)


def spec_augment(
    features, rng: np.random.Generator, n_time_masks=2, max_time_frames=20, n_freq_masks=2, max_mel_bins=8
) -> np.ndarray:
    """Mask random time spans, then mel bands, of a feature tensor.

    Masks sit at identical positions in all channels and are filled with
    the per-channel mean of the unmasked tensor. Widths are drawn uniformly
    from [0, max] (0 leaves the tensor untouched); a negative setting raises ValueError.
    """
    if min(n_time_masks, max_time_frames, n_freq_masks, max_mel_bins) < 0:
        raise ValueError("mask counts and sizes must be >= 0")
    feats = np.array(features, dtype=float)
    n_ch, n_frames, n_mels = feats.shape
    fill = feats.mean(axis=(1, 2))
    for _ in range(n_time_masks):
        width = min(int(rng.integers(0, max_time_frames + 1)), n_frames)
        if width == 0:
            continue
        start = int(rng.integers(0, n_frames - width + 1))
        feats[:, start : start + width, :] = fill[:, None, None]
    for _ in range(n_freq_masks):
        width = min(int(rng.integers(0, max_mel_bins + 1)), n_mels)
        if width == 0:
            continue
        start = int(rng.integers(0, n_mels - width + 1))
        feats[:, :, start : start + width] = fill[:, None, None]
    return feats


def augment_waveform(clip: AudioClip, config: AugmentConfig, rng: np.random.Generator) -> AudioClip:
    """Apply gain, pitch shift and band-pass with parameters drawn from the config ranges."""
    gain = rng.uniform(*config.gain_db_range)
    semitones = rng.uniform(*config.pitch_semitone_range)
    f_lo = rng.uniform(*config.bandpass_lo_range)
    f_hi = rng.uniform(*config.bandpass_hi_range)
    out = apply_gain(clip, gain)
    out = pitch_shift(out, semitones)
    return band_pass(out, f_lo, f_hi)
