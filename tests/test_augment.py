import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seldkit
from seldkit.audio import AudioClip
from seldkit.augment import (
    AugmentConfig,
    apply_gain,
    augment_waveform,
    band_pass,
    pitch_shift,
    spec_augment,
)
from seldkit.features import doa_from_features, extract_features
from seldkit.geometry import Direction, angular_distance

from conftest import plane_wave_clip

SR = 24000


def tone_clip(freq_hz: float, duration_s: float = 1.0) -> AudioClip:
    t = np.arange(round(duration_s * SR)) / SR
    x = np.sin(2 * np.pi * freq_hz * t)
    return AudioClip(np.stack([x, 0.5 * x, 0.25 * x, 0.1 * x]))


def steady_rms(clip: AudioClip, channel: int = 0, skip_s: float = 0.25) -> float:
    x = clip.samples[channel][round(skip_s * SR) :]
    return float(np.sqrt(np.mean(x**2)))


def analytic_bandpass_gain(f: float, f_lo: float, f_hi: float) -> float:
    """Analog 2nd-order Butterworth high-pass x low-pass magnitude at f."""
    hp = (f / f_lo) ** 2 / math.sqrt(1.0 + (f / f_lo) ** 4)
    lp = 1.0 / math.sqrt(1.0 + (f / f_hi) ** 4)
    return hp * lp


class TestGain:
    def test_zero_db_identity(self, rng):
        clip = AudioClip(rng.standard_normal((4, 300)))
        assert np.array_equal(apply_gain(clip, 0.0).samples, clip.samples)

    def test_doubling(self, rng):
        clip = AudioClip(rng.standard_normal((4, 300)))
        out = apply_gain(clip, 6.0206)
        np.testing.assert_allclose(out.samples, 2.0 * clip.samples, atol=1e-6)

    def test_infinite_gain_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_gain(AudioClip(np.zeros((4, 10))), float("inf"))

    def test_doa_invariant(self):
        d = Direction(-75.0, 25.0)
        clip = plane_wave_clip(d, n_samples=4800)
        for gain in (-12.0, 3.0, 18.0):
            est = doa_from_features(extract_features(apply_gain(clip, gain)))
            assert angular_distance(est, d) < 1e-6


class TestPitchShift:
    def test_zero_shift_passthrough(self, rng):
        clip = AudioClip(rng.standard_normal((4, 1000)))
        out = pitch_shift(clip, 0.0)
        np.testing.assert_allclose(out.samples, clip.samples, atol=1e-12)

    def test_octave_up_doubles_frequency(self):
        clip = tone_clip(440.0)
        out = pitch_shift(clip, 12.0)
        spectrum = np.abs(np.fft.rfft(out.samples[0]))
        peak_hz = spectrum.argmax() * SR / out.n_samples
        assert abs(peak_hz - 880.0) <= SR / out.n_samples  # within one FFT bin

    def test_length_preserved(self, rng):
        clip = AudioClip(rng.standard_normal((4, 12345)))
        for semis in (-7.3, -2.0, 1.5, 12.0):
            assert pitch_shift(clip, semis).n_samples == clip.n_samples

    def test_excessive_shift_rejected(self, rng):
        with pytest.raises(ValueError):
            pitch_shift(AudioClip(np.zeros((4, 100))), 13.0)


class TestBandPass:
    def test_invalid_band_rejected(self):
        clip = AudioClip(np.zeros((4, 100)))
        with pytest.raises(ValueError):
            band_pass(clip, 500.0, 100.0)
        with pytest.raises(ValueError):
            band_pass(clip, 100.0, 13000.0)

    def test_dc_killed(self):
        clip = AudioClip(np.ones((4, SR)))
        out = band_pass(clip, 100.0, 4000.0)
        assert steady_rms(out) < 0.01 * steady_rms(clip)

    def test_band_center_passes(self):
        f_lo, f_hi = 200.0, 2000.0
        center = math.sqrt(f_lo * f_hi)
        clip = tone_clip(center)
        attenuation_db = 20 * math.log10(steady_rms(clip) / steady_rms(band_pass(clip, f_lo, f_hi)))
        assert attenuation_db < 3.0
        analytic_db = -20 * math.log10(analytic_bandpass_gain(center, f_lo, f_hi))
        assert attenuation_db == pytest.approx(analytic_db, abs=1.0)

    def test_stopband_attenuates(self):
        f_lo, f_hi = 200.0, 2000.0
        clip = tone_clip(2 * f_hi)
        attenuation_db = 20 * math.log10(steady_rms(clip) / steady_rms(band_pass(clip, f_lo, f_hi)))
        assert attenuation_db > 10.0
        analytic_db = -20 * math.log10(analytic_bandpass_gain(2 * f_hi, f_lo, f_hi))
        assert attenuation_db == pytest.approx(analytic_db, abs=2.0)  # bilinear warping


class TestSpecAugment:
    def test_zero_masks_identity(self, rng):
        feats = rng.standard_normal((7, 40, 16))
        out = spec_augment(feats, np.random.default_rng(0), n_time_masks=0, n_freq_masks=0)
        assert np.array_equal(out, feats)

    def test_full_width_mask_flattens(self, rng):
        feats = rng.standard_normal((7, 8, 16))
        seed = next(
            s for s in range(100) if np.random.default_rng(s).integers(0, 9) == 8
        )
        out = spec_augment(
            feats, np.random.default_rng(seed), n_time_masks=1, max_time_frames=8, n_freq_masks=0
        )
        for ch in range(7):
            np.testing.assert_allclose(out[ch], feats[ch].mean())

    def test_same_seed_identical(self, rng):
        feats = rng.standard_normal((7, 60, 32))
        a = spec_augment(feats, np.random.default_rng(9))
        b = spec_augment(feats, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, rng):
        feats = rng.standard_normal((7, 60, 32))
        outputs = {spec_augment(feats, np.random.default_rng(s)).tobytes() for s in range(100)}
        assert len(outputs) > 50

    def test_masks_shared_across_channels(self, rng):
        feats = rng.standard_normal((7, 60, 32))
        out = spec_augment(feats, np.random.default_rng(4))
        changed = out != feats
        for ch in range(1, 7):
            assert np.array_equal(changed[0], changed[ch])

    def test_changed_cell_bound(self, rng):
        feats = rng.standard_normal((7, 60, 32))
        masks = dict(n_time_masks=2, max_time_frames=10, n_freq_masks=2, max_mel_bins=5)
        for seed in range(20):
            out = spec_augment(feats, np.random.default_rng(seed), **masks)
            changed = (out[0] != feats[0]).sum()
            assert changed <= 2 * 10 * 32 + 2 * 5 * 60


class TestAugmentWaveform:
    def test_doa_preserved_through_chain(self):
        d = Direction(150.0, -40.0)
        clip = plane_wave_clip(d, n_samples=24000)
        out = augment_waveform(clip, AugmentConfig(), np.random.default_rng(2))
        est = doa_from_features(extract_features(out))
        assert angular_distance(est, d) < 1.0

    def test_config_range_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(gain_db_range=(6.0, -6.0))
        with pytest.raises(ValueError):
            spec_augment(np.zeros((7, 4, 4)), np.random.default_rng(0), n_time_masks=-1)

    @pytest.mark.parametrize("bounds", [(-12.5, 0.0), (0.0, 12.5), (-13.0, 13.0)])
    def test_pitch_range_beyond_an_octave_rejected(self, bounds):
        with pytest.raises(ValueError, match=r"pitch_semitone_range must lie within \[-12, 12\]"):
            AugmentConfig(pitch_semitone_range=bounds)
        assert AugmentConfig(pitch_semitone_range=(-12.0, 12.0)).pitch_semitone_range == (-12.0, 12.0)

    @pytest.mark.parametrize("bounds", [(0.0, 500.0), (-50.0, 500.0)])
    def test_bandpass_low_range_from_zero_rejected(self, bounds):
        with pytest.raises(ValueError, match="bandpass_lo_range must start above 0 Hz"):
            AugmentConfig(bandpass_lo_range=bounds)

    @pytest.mark.parametrize("lo_end", [2000.0, 2500.0])
    def test_bandpass_ranges_that_overlap_rejected(self, lo_end):
        with pytest.raises(ValueError, match="bandpass_lo_range must end below the start of bandpass_hi_range"):
            AugmentConfig(bandpass_lo_range=(50.0, lo_end), bandpass_hi_range=(2000.0, 11000.0))

    @pytest.mark.parametrize(
        "field", ["gain_db_range", "pitch_semitone_range", "bandpass_lo_range", "bandpass_hi_range"]
    )
    @pytest.mark.parametrize("value", [(1.0, 2.0, 3.0), (1.0,), ("a", "b"), (True, False), (0.0, None), 5, None])
    def test_range_that_is_not_a_pair_of_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a \[lo, hi\] pair of numbers, got"):
            AugmentConfig(**{field: value})

    @pytest.mark.parametrize("bounds", [(-120.5, 0.0), (0.0, 121.0), (7000.0, 7000.0)])
    def test_gain_beyond_120_db_rejected(self, bounds):
        # 10 ** (7000 / 20) overflows in apply_gain; the config stops it first
        with pytest.raises(ValueError, match=r"^gain_db_range must lie within \[-120, 120\] dB"):
            AugmentConfig(gain_db_range=bounds)

    @pytest.mark.parametrize("gain", [-120.0, 120.0])
    def test_gain_at_either_bound_runs(self, gain):
        # the chain is linear, so the gain scales the 0 dB output; the same seed draws the same rest
        clip = tone_clip(440.0, duration_s=0.1)
        out = augment_waveform(clip, AugmentConfig(gain_db_range=(gain, gain)), np.random.default_rng(3))
        ref = augment_waveform(clip, AugmentConfig(gain_db_range=(0.0, 0.0)), np.random.default_rng(3))
        scale = 10.0 ** (gain / 20.0)
        np.testing.assert_allclose(out.samples, ref.samples * scale, rtol=1e-9, atol=1e-12 * scale)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=2).map(sorted),
        st.lists(st.floats(1e-3, SR / 2, exclude_max=True), min_size=3, max_size=3, unique=True).map(sorted),
        st.integers(0, 2**32 - 1),
    )
    def test_every_draw_of_a_loaded_config_is_valid(self, pitch, cutoffs, seed):
        # below Nyquist (a run checks that), a config that loads never fails
        # a clip: skipping augmentation for a model that ignores it is exact
        lo_start, lo_end_hi_start, hi_end = cutoffs
        config = AugmentConfig(
            pitch_semitone_range=tuple(pitch),
            bandpass_lo_range=(lo_start, np.nextafter(lo_end_hi_start, 0.0)),
            bandpass_hi_range=(lo_end_hi_start, hi_end),
        )
        clip = tone_clip(440.0, duration_s=0.1)
        out = augment_waveform(clip, config, np.random.default_rng(seed))
        assert out.samples.shape == clip.samples.shape


def test_scipy_signal_loads_only_for_waveform_augmentation():
    # scipy.signal, with the scipy.stats it pulls in, was most of the import
    # time, so no start-up path may load it; band_pass imports it when called
    script = (
        "import sys\n"
        "import seldkit, seldkit.cli, seldkit.pipeline, seldkit.emulate\n"
        "from seldkit.audio import AudioClip\n"
        "from seldkit import augment\n"
        "print('scipy.signal' in sys.modules)\n"
        "augment.band_pass(AudioClip([[0.0] * 100] * 4), 100.0, 1000.0)\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(seldkit.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
