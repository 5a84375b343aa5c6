import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seldkit.audio import AudioClip
from seldkit.emulate import foa_encode_gains
from seldkit.features import (
    FeatureConfig,
    doa_from_features,
    extract_features,
    mel_filterbank,
    stft,
)
from seldkit.geometry import Direction, angular_distance

from conftest import plane_wave_clip, random_direction, two_event_scene

CFG = FeatureConfig()


def extract_features_reference(clip, cfg):
    """``extract_features`` with all four spectra held at once, as it was
    before X, Y and Z were transformed one at a time."""
    specs = [stft(clip.samples[ch], cfg) for ch in range(4)]
    fb = mel_filterbank(cfg)
    logmel = np.stack([np.log(np.abs(s) ** 2 @ fb.T + cfg.floor_eps) for s in specs])
    vec = np.stack([np.real(np.conj(specs[0]) * s) @ fb.T for s in specs[1:]])
    norm = np.linalg.norm(vec, axis=0)
    scale = np.where(norm > cfg.floor_eps, 1.0 / np.maximum(norm, cfg.floor_eps), 0.0)
    return np.concatenate([logmel, vec * scale])


def hz_to_mel(f):
    return 2595.0 * math.log10(1.0 + f / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def expected_mel_bin(freq_hz: float, config: FeatureConfig) -> int:
    """Independent oracle: the filter whose center sits nearest freq_hz.

    Centers are recomputed from the mel formula alone (equal spacing in
    mel between 0 and sr/2); triangles linear in Hz hand the max response
    to the nearest-center filter.
    """
    top = hz_to_mel(config.sample_rate / 2.0)
    centers = [
        mel_to_hz(top * (i + 1) / (config.n_mels + 1)) for i in range(config.n_mels)
    ]
    return min(range(config.n_mels), key=lambda i: abs(centers[i] - freq_hz))


class TestLabelGrid:
    @pytest.mark.parametrize("hop", [700, 128, 1000])
    def test_hop_must_divide_label_frame(self, hop):
        # hop 700 would make one "label frame" 3 x 700 samples = 87.5 ms
        with pytest.raises(ValueError, match=f"hop {hop} does not divide one 100 ms label frame"):
            FeatureConfig(hop=hop)

    def test_label_frame_must_be_whole_samples(self):
        with pytest.raises(ValueError, match="1600.1 samples at 16001 Hz"):
            FeatureConfig(sample_rate=16001, hop=100)

    @pytest.mark.parametrize("hop", [300, 400, 480, 600, 800, 1200])
    @settings(max_examples=25, deadline=None)
    @given(n_samples=st.integers(1, 30000))
    def test_label_frames_are_whole_label_frames_of_the_feature_grid(self, hop, n_samples):
        cfg = FeatureConfig(hop=hop)
        features = extract_features(AudioClip(np.zeros((4, n_samples))), cfg)
        assert cfg.label_frames(n_samples) == features.shape[1] // cfg.frames_per_label


class TestStft:
    def test_zero_input(self):
        spec = stft(np.zeros(6000), CFG)
        assert spec.shape == (11, CFG.nfft // 2 + 1)
        assert np.all(spec == 0)

    def test_frame_count_contract(self):
        assert stft(np.zeros(120000), CFG).shape[0] == 201
        assert stft(np.zeros(599), CFG).shape[0] == 1
        assert stft(np.zeros(600), CFG).shape[0] == 2

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            stft(np.array([]), CFG)

    def test_impulse_at_frame_center_is_flat(self):
        # frame 3 is centered on sample 3 * hop; the periodic Hann window
        # is exactly 1 at its center, so the DFT magnitude is flat at 1
        x = np.zeros(6000)
        x[3 * CFG.hop] = 1.0
        spec = stft(x, CFG)
        np.testing.assert_allclose(np.abs(spec[3]), 1.0, atol=1e-12)

    def test_1khz_peak_bin(self):
        t = np.arange(24000) / CFG.sample_rate
        spec = stft(np.sin(2 * np.pi * 1000.0 * t), CFG)
        expected_bin = round(1000 * CFG.nfft / CFG.sample_rate)
        assert expected_bin == 85
        interior = range(2, spec.shape[0] - 2)
        for frame in interior:
            assert int(np.abs(spec[frame]).argmax()) == expected_bin


class TestMelFilterbank:
    def test_single_filter_spans_band(self):
        fb = mel_filterbank(FeatureConfig(n_mels=1))
        assert fb.shape[0] == 1
        nonzero = np.nonzero(fb[0])[0]
        # one triangle peaking mid-band, support reaching both band edges
        assert nonzero[0] <= 1
        assert nonzero[-1] >= fb.shape[1] - 2
        assert fb[0].max() > 0.99

    def test_row_maxima_strictly_increasing(self):
        fb = mel_filterbank(CFG)
        maxima = fb.argmax(axis=1)
        assert np.all(np.diff(maxima) > 0)

    def test_filters_nonnegative_and_nonempty(self):
        fb = mel_filterbank(CFG)
        assert np.all(fb >= 0)
        assert np.all(fb.max(axis=1) > 0)

    def test_too_many_mels_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            mel_filterbank(FeatureConfig(nfft=256, window=256, hop=120, n_mels=200))

    def test_1khz_bin_matches_mel_inversion(self):
        fb = mel_filterbank(CFG)
        bin_1k = round(1000 * CFG.nfft / CFG.sample_rate)
        assert int(fb[:, bin_1k].argmax()) == expected_mel_bin(1000.0, CFG)


class TestLogMel:
    """The log-mel half of the feature tensor: channels W/X/Y/Z, features[:4]."""

    def test_silence_is_floor(self):
        lm = extract_features(AudioClip(np.zeros((4, 12000))), CFG)[:4]
        np.testing.assert_allclose(lm, math.log(CFG.floor_eps))

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            extract_features(AudioClip(np.zeros((4, 1000)), sample_rate=16000), CFG)

    def test_scaling_adds_log4(self, rng):
        x = rng.standard_normal((4, 12000))
        lm1 = extract_features(AudioClip(x), CFG)[:4]
        lm2 = extract_features(AudioClip(2.0 * x), CFG)[:4]
        above_floor = lm1 > math.log(CFG.floor_eps) + 8
        assert above_floor.mean() > 0.9
        np.testing.assert_allclose(
            lm2[above_floor] - lm1[above_floor], math.log(4.0), atol=1e-6
        )

    def test_1khz_on_w_only(self):
        t = np.arange(24000) / CFG.sample_rate
        samples = np.zeros((4, 24000))
        samples[0] = np.sin(2 * np.pi * 1000.0 * t)
        lm = extract_features(AudioClip(samples), CFG)[:4]
        mid = lm.shape[1] // 2
        assert int(lm[0, mid].argmax()) == expected_mel_bin(1000.0, CFG)
        np.testing.assert_allclose(lm[1:], math.log(CFG.floor_eps))


class TestIntensity:
    """Rows 4-6 of ``extract_features``: the unit intensity vector of each (frame, mel) cell."""

    def test_silence_all_zero(self):
        feats = extract_features(AudioClip(np.zeros((4, 6000))), CFG)
        assert feats[4:7].shape == (3, 11, CFG.n_mels)
        assert np.all(feats[4:7] == 0)

    @pytest.mark.parametrize(
        "direction,expected",
        [(Direction(0, 0), (1.0, 0.0, 0.0)), (Direction(90, 0), (0.0, 1.0, 0.0))],
    )
    def test_plane_wave_axis(self, direction, expected):
        clip = plane_wave_clip(direction)
        feats = extract_features(clip, CFG)
        power = np.abs(stft(clip.samples[0], CFG)) ** 2 @ mel_filterbank(CFG).T
        energized = power > 1e-4 * power.max()
        assert energized.sum() > 50
        for axis in range(3):
            np.testing.assert_allclose(feats[4 + axis][energized], expected[axis], atol=1e-3)

    def test_norms_unit_or_zero(self, rng):
        clip = AudioClip(rng.standard_normal((4, 12000)))
        feats = extract_features(clip, CFG)
        norms = np.linalg.norm(feats[4:7], axis=0).ravel()
        assert np.all((norms == 0) | ((norms > 1 - 1e-6) & (norms <= 1 + 1e-9)))
        assert np.all(np.abs(feats[4:7]) <= 1 + 1e-9)
        assert np.all(feats[0:4] >= math.log(CFG.floor_eps) - 1e-12)


class TestExtract:
    def test_shape_and_frames(self):
        clip = AudioClip(np.zeros((4, 120000)))
        feats = extract_features(clip, CFG)
        assert feats.shape == (7, 201, CFG.n_mels)

    @pytest.mark.parametrize(
        "cfg", [FeatureConfig(), FeatureConfig(hop=300, n_mels=32)], ids=["default", "hop300_mels32"]
    )
    def test_equals_all_spectra_at_once_reference(self, cfg):
        clip, _ = two_event_scene(seed=29)
        samples = clip.samples.copy()
        samples[:, :2400] = 0.0  # a silent stretch exercises the intensity floor
        clip = AudioClip(samples)
        assert np.array_equal(extract_features(clip, cfg), extract_features_reference(clip, cfg))

    def test_deterministic(self, rng):
        clip = AudioClip(rng.standard_normal((4, 6000)))
        a = extract_features(clip, CFG)
        b = extract_features(clip, CFG)
        assert np.array_equal(a, b)

    def test_mel_power_scales_quadratically(self, rng):
        x = rng.standard_normal(12000)
        fb = mel_filterbank(CFG)
        total = (np.abs(stft(x, CFG)) ** 2 @ fb.T).sum()
        total3 = (np.abs(stft(3.0 * x, CFG)) ** 2 @ fb.T).sum()
        assert total3 == pytest.approx(9.0 * total, rel=1e-9)

    def test_doa_recovery_within_1deg(self, rng):
        for trial in range(100):
            d = random_direction(rng)
            clip = plane_wave_clip(d, n_samples=4800, seed=trial)
            est = doa_from_features(extract_features(clip, CFG), CFG)
            assert angular_distance(d, est) < 1.0
