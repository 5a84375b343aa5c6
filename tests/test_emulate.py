import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st
from scipy.signal import fftconvolve

from seldkit.emulate import (
    LibrarySample,
    SampleLibrary,
    SceneEvent,
    SceneSpec,
    SrirSynthConfig,
    _next_fast_len,
    balance_classes,
    foa_encode_gains,
    mix_scene,
    render_event,
    sample_epoch,
    synth_srir,
)
from seldkit.features import FeatureConfig, doa_from_features, extract_features
from seldkit.geometry import Direction, angular_distance
from seldkit.manifest import DatasetManifest, ManifestEntry


def conv_reference(x, h):
    """Direct O(N*M) convolution oracle."""
    out = np.zeros(len(x) + len(h) - 1)
    for i, xi in enumerate(x):
        out[i : i + len(h)] += xi * h
    return out


def make_manifest(n, origin, prefix="clip"):
    return DatasetManifest(
        tuple(
            ManifestEntry(f"{prefix}{i}.wav", f"{prefix}{i}.csv", origin, duration_s=5.0)
            for i in range(n)
        )
    )


class TestEncodeGains:
    def test_front(self):
        np.testing.assert_allclose(foa_encode_gains(Direction(0, 0)), [1, 1, 0, 0], atol=1e-15)

    def test_zenith(self):
        np.testing.assert_allclose(foa_encode_gains(Direction(0, 90)), [1, 0, 0, 1], atol=1e-15)

    def test_diagonal(self):
        gains = foa_encode_gains(Direction(45, 45))
        np.testing.assert_allclose(gains, [1, 0.5, 0.5, 0.70711], atol=5e-6)


class TestSynthSrir:
    def test_tail_disabled_gives_pure_delta(self):
        cfg = SrirSynthConfig(direct_to_diffuse_db=float("inf"))
        d = Direction(30, -10)
        ir = synth_srir(d, cfg, np.random.default_rng(0))
        delay = round(cfg.direct_delay_ms / 1000 * cfg.sample_rate)
        np.testing.assert_allclose(ir[:, delay], foa_encode_gains(d))
        ir[:, delay] = 0
        assert np.all(ir == 0)

    def test_direct_gain_ratio(self):
        d = Direction(50, 20)
        cfg = SrirSynthConfig()
        ir = synth_srir(d, cfg, np.random.default_rng(1))
        delay = round(cfg.direct_delay_ms / 1000 * cfg.sample_rate)
        expected = math.cos(math.radians(50)) * math.cos(math.radians(20))
        assert ir[1, delay] / ir[0, delay] == pytest.approx(expected, abs=1e-12)

    def test_direct_to_diffuse_energy_ratio(self):
        cfg = SrirSynthConfig(direct_to_diffuse_db=20.0)
        ir = synth_srir(Direction(0, 0), cfg, np.random.default_rng(2))
        delay = round(cfg.direct_delay_ms / 1000 * cfg.sample_rate)
        direct = float(np.sum(ir[:, delay] ** 2))
        diffuse = float(np.sum(ir[:, delay + 1 :] ** 2))
        assert 10 * math.log10(direct / diffuse) == pytest.approx(20.0, abs=1e-9)

    def test_tail_decays_60db_over_rt60(self):
        cfg = SrirSynthConfig(rt60_s=0.3, ir_length_s=0.5, direct_to_diffuse_db=10.0)
        ir = synth_srir(Direction(0, 0), cfg, np.random.default_rng(3))
        sr = cfg.sample_rate
        start = round(cfg.direct_delay_ms / 1000 * sr) + 1

        def window_db(offset_s, width_s=0.05):
            lo = start + round(offset_s * sr)
            hi = lo + round(width_s * sr)
            return 10 * math.log10(float(np.mean(ir[:, lo:hi] ** 2)))

        slope_db_per_s = (window_db(0.22) - window_db(0.02)) / 0.2
        assert slope_db_per_s * cfg.rt60_s == pytest.approx(-60.0, abs=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SrirSynthConfig(direct_delay_ms=600.0, ir_length_s=0.5)


class TestRenderEvent:
    def test_impulse_reproduces_ir(self, rng):
        impulse = np.zeros(16)
        impulse[0] = 1.0
        sample = LibrarySample("imp", 0, impulse)
        ir = rng.standard_normal((4, 32))
        out = render_event(sample, ir)
        assert out.n_samples == 16 + 32 - 1
        np.testing.assert_allclose(out.samples[:, :32], ir, atol=1e-12)
        np.testing.assert_allclose(out.samples[:, 32:], 0, atol=1e-12)

    def test_matches_direct_convolution(self, rng):
        for _ in range(5):
            x = rng.standard_normal(int(rng.integers(5, 40)))
            ir = rng.standard_normal((4, int(rng.integers(3, 25))))
            out = render_event(LibrarySample("s", 0, x), ir)
            for ch in range(4):
                np.testing.assert_allclose(out.samples[ch], conv_reference(x, ir[ch]), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(n_sample=st.integers(1, 3000), n_ir=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    @example(n_sample=1, n_ir=500, seed=0)
    @example(n_sample=500, n_ir=1, seed=0)
    @example(n_sample=1, n_ir=1, seed=0)
    @example(n_sample=40, n_ir=2400, seed=0)
    def test_bytes_equal_scipy_fftconvolve(self, n_sample, n_ir, seed):
        rng = np.random.default_rng(seed)
        sample = LibrarySample("s", 0, rng.standard_normal(n_sample))
        srir = rng.standard_normal((4, n_ir))
        out = render_event(sample, srir).samples
        ref = fftconvolve(sample.waveform[np.newaxis, :], srir, axes=1)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    def test_silence_in_silence_out(self):
        out = render_event(LibrarySample("z", 0, np.zeros(100)), np.ones((4, 10)))
        assert np.all(out.samples == 0)

    def test_rate_mismatch_rejected(self):
        sample = LibrarySample("s", 0, np.zeros(10), sample_rate=48000)
        with pytest.raises(ValueError, match="rate"):
            render_event(sample, np.ones((4, 4)), sample_rate=24000)

    def test_linearity(self, rng):
        x = rng.standard_normal(50)
        ir = rng.standard_normal((4, 20))
        once = render_event(LibrarySample("a", 0, x), ir).samples
        twice = render_event(LibrarySample("a", 0, 2 * x), ir).samples
        np.testing.assert_allclose(twice, 2 * once, atol=1e-12)


def test_next_fast_len_equals_scipy():
    assert [_next_fast_len(n) for n in range(1, 2**17 + 1)] == [
        scipy.fft.next_fast_len(n, True) for n in range(1, 2**17 + 1)
    ]


def mix_scene_reference(spec, library, srir_config):
    """The samples of ``mix_scene``'s clip by its earlier formula.

    It squares whole copies of the mix and the noise for their powers and
    sums them into a third buffer, so it holds about 3.3 scene-sized buffers.
    """
    sr = srir_config.sample_rate
    rng = np.random.default_rng(spec.seed)
    n = round(spec.duration_s * sr)
    mix = np.zeros((4, n))
    active = np.zeros(n, dtype=bool)
    for ev in spec.events:
        rendered = render_event(library[ev.sample_id], synth_srir(ev.direction, srir_config, rng), sr).samples
        onset_n = round(ev.onset_s * sr)
        span = min(rendered.shape[1], n - onset_n)
        mix[:, onset_n : onset_n + span] += rendered[:, :span]
        active[onset_n : onset_n + span] = True
    noise = rng.standard_normal((4, n))
    if active.any():
        event_power = float(np.mean(np.sum(mix**2, axis=0)[active]))
        noise_power = float(np.mean(np.sum(noise**2, axis=0)[active]))
        noise *= math.sqrt(event_power * 10.0 ** (-spec.snr_db / 10.0) / noise_power)
    return mix + noise


@st.composite
def small_scenes(draw):
    """(spec, library) of up to four events, in a scene of at most 0.5 s at 24 kHz."""
    n = draw(st.integers(1, 12000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples, events = {}, []
    for i in range(draw(st.integers(0, 4))):
        length = draw(st.integers(1, n))
        onset = draw(st.integers(0, n - length))
        waveform = rng.standard_normal(length) * draw(st.sampled_from([0.0, 1e-3, 0.5]))
        samples[f"s{i}"] = LibrarySample(f"s{i}", i, waveform)
        direction = Direction(draw(st.floats(-180, 180)), draw(st.floats(-90, 90)))
        events.append(SceneEvent(i, f"s{i}", onset / 24000, direction))
    snr_db = draw(st.floats(-20.0, 60.0))
    return SceneSpec(n / 24000, tuple(events), snr_db, draw(st.integers(0, 2**32 - 1))), SampleLibrary(samples)


class TestMixScene:
    @settings(max_examples=60, deadline=None)
    @given(scene=small_scenes(), ir_length_s=st.sampled_from([0.01, 0.05]))
    def test_bytes_equal_the_reference(self, scene, ir_length_s):
        spec, library = scene
        config = SrirSynthConfig(ir_length_s=ir_length_s)
        clip, _ = mix_scene(spec, library, config)
        assert clip.samples.tobytes() == mix_scene_reference(spec, library, config).tobytes()

    def test_sixty_second_scene_holds_two_buffers(self):
        # the reference formula peaks at about 3.33 scene-sized buffers
        rng = np.random.default_rng(0)
        library = SampleLibrary({f"s{i}": LibrarySample(f"s{i}", i, rng.standard_normal(48000) * 0.3) for i in range(3)})
        events = tuple(SceneEvent(i % 3, f"s{i % 3}", 2.9 * i, Direction(17.0 * i - 170, 0)) for i in range(20))
        spec = SceneSpec(60.0, events, seed=1)
        tracemalloc.start()
        try:
            mix_scene(spec, library)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * (4 * 60 * 24000 * 8)

    def library(self, rng):
        return SampleLibrary(
            {
                "n": LibrarySample("n", 0, rng.standard_normal(24000) * 0.3),
                "t": LibrarySample("t", 1, np.sin(2 * np.pi * 500 * np.arange(12000) / 24000)),
                "n2": LibrarySample("n2", 0, rng.standard_normal(9000) * 0.2),
            }
        )

    def test_empty_scene_is_noise_only(self):
        spec = SceneSpec(1.0, (), seed=5)
        clip, annotation = mix_scene(spec, SampleLibrary({"x": LibrarySample("x", 0, np.ones(10))}))
        assert annotation.events == ()
        assert clip.n_samples == 24000
        assert float(np.std(clip.samples)) == pytest.approx(1.0, abs=0.05)

    def test_label_frames_cover_dry_duration(self, rng):
        spec = SceneSpec(3.0, (SceneEvent(1, "t", 0.53, Direction(10, 0)),), seed=1)
        _, annotation = mix_scene(spec, self.library(rng))
        frames = sorted(e.frame for e in annotation.events)
        # dry sample is 0.5 s: frames floor(5.3) .. ceil(10.3)
        assert frames == list(range(5, 11))
        assert all(e.class_id == 1 for e in annotation.events)

    def test_intensity_doa_of_clean_event(self, rng):
        d = Direction(-60, 15)
        spec = SceneSpec(2.0, (SceneEvent(0, "n", 0.2, d),), snr_db=40.0, seed=2)
        clip, _ = mix_scene(spec, self.library(rng))
        est = doa_from_features(extract_features(clip, FeatureConfig()))
        assert angular_distance(est, d) < 5.0

    def test_snr_definition(self, rng):
        spec = SceneSpec(2.0, (SceneEvent(0, "n", 0.0, Direction(0, 0)),), snr_db=10.0, seed=3)
        lib = self.library(rng)
        clip, _ = mix_scene(spec, lib)
        # same seed at snr 200 dB recovers the clean mix, so the difference
        # recovers the ambient noise at its 10 dB scaling
        clean_spec = SceneSpec(2.0, (SceneEvent(0, "n", 0.0, Direction(0, 0)),), snr_db=200.0, seed=3)
        clean, _ = mix_scene(clean_spec, lib)
        noise = clip.samples - clean.samples
        active = slice(0, 24000 + 12000 - 1)  # dry span plus reverb tail
        event_power = float(np.mean(np.sum(clean.samples[:, active] ** 2, axis=0)))
        noise_power = float(np.mean(np.sum(noise[:, active] ** 2, axis=0)))
        assert 10 * math.log10(event_power / noise_power) == pytest.approx(10.0, abs=1e-6)

    def test_concurrent_events_both_labeled(self, rng):
        spec = SceneSpec(
            2.0,
            (
                SceneEvent(0, "n", 0.0, Direction(30, 0)),
                SceneEvent(1, "t", 0.2, Direction(-30, 0)),
            ),
            seed=4,
        )
        _, annotation = mix_scene(spec, self.library(rng))
        classes = {e.class_id for e in annotation.events}
        assert classes == {0, 1}

    def test_same_class_overlap_gets_distinct_tracks(self, rng):
        spec = SceneSpec(
            2.0,
            (
                SceneEvent(0, "n", 0.0, Direction(30, 0)),
                SceneEvent(0, "n2", 0.1, Direction(-30, 0)),
            ),
            seed=6,
        )
        _, annotation = mix_scene(spec, self.library(rng))
        frame3 = [e for e in annotation.events if e.frame == 3]
        assert {e.track_id for e in frame3} == {0, 1}

    def test_class_mismatch_rejected(self, rng):
        spec = SceneSpec(2.0, (SceneEvent(1, "n", 0.0, Direction(0, 0)),), seed=0)
        with pytest.raises(ValueError, match="class"):
            mix_scene(spec, self.library(rng))

    def test_overrun_rejected(self, rng):
        spec = SceneSpec(1.0, (SceneEvent(1, "t", 0.9, Direction(0, 0)),), seed=0)
        with pytest.raises(ValueError, match="overruns"):
            mix_scene(spec, self.library(rng))

    def test_unknown_sample_rejected(self, rng):
        spec = SceneSpec(1.0, (SceneEvent(0, "nope", 0.0, Direction(0, 0)),), seed=0)
        with pytest.raises(KeyError, match="nope"):
            mix_scene(spec, self.library(rng))


class TestLibrarySample:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_waveform_names_the_sample(self, value):
        # one NaN would turn every sample of a scene that plays it NaN
        waveform = np.ones(10)
        waveform[[3, 7]] = value
        with pytest.raises(ValueError, match=r"^sample 'x': non-finite waveform value at sample 3$"):
            LibrarySample("x", 0, waveform)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^sample 'x': sample_rate must be positive, got 0$"):
            LibrarySample("x", 0, np.ones(10), sample_rate=0)


class TestBalanceClasses:
    def library_with_counts(self, counts):
        samples = {}
        for class_id, n in counts.items():
            for i in range(n):
                sid = f"c{class_id}_{i}"
                samples[sid] = LibrarySample(sid, class_id, np.ones(8))
        return SampleLibrary(samples)

    def test_already_balanced_unchanged(self):
        lib = self.library_with_counts({0: 3, 1: 3})
        out = balance_classes(lib, seed=0)
        assert set(out.samples) == set(lib.samples)

    def test_min_rule(self):
        lib = self.library_with_counts({0: 10, 1: 4})
        out = balance_classes(lib, seed=0)
        assert out.class_counts() == {0: 4, 1: 4}

    def test_deterministic(self):
        lib = self.library_with_counts({0: 10, 1: 4, 2: 7})
        a = balance_classes(lib, seed=3)
        b = balance_classes(lib, seed=3)
        assert set(a.samples) == set(b.samples)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            balance_classes(SampleLibrary({}))


class TestSampleEpoch:
    def test_equal_sizes_uses_all(self):
        real = make_manifest(6, "real", "r")
        emulated = make_manifest(6, "emulated", "e")
        epoch = sample_epoch(real, emulated, seed=0)
        assert len(epoch) == 12
        assert {e.clip_path for e in epoch} == {e.clip_path for e in real} | {
            e.clip_path for e in emulated
        }

    def test_real_entries_all_present_exactly_once(self):
        real = make_manifest(5, "real", "r")
        emulated = make_manifest(50, "emulated", "e")
        epoch = sample_epoch(real, emulated, seed=1)
        assert len(epoch) == 10
        real_paths = [e.clip_path for e in epoch if e.origin == "real"]
        assert sorted(real_paths) == sorted(e.clip_path for e in real)
        emulated_picks = [e.clip_path for e in epoch if e.origin == "emulated"]
        assert len(set(emulated_picks)) == 5  # without replacement

    def test_with_replacement_when_emulated_scarce(self):
        real = make_manifest(8, "real", "r")
        emulated = make_manifest(3, "emulated", "e")
        epoch = sample_epoch(real, emulated, seed=2)
        assert len(epoch) == 16
        assert sum(1 for e in epoch if e.origin == "emulated") == 8

    def test_seeds_give_distinct_subsets(self):
        real = make_manifest(4, "real", "r")
        emulated = make_manifest(40, "emulated", "e")
        subsets = set()
        for seed in range(20):
            epoch = sample_epoch(real, emulated, seed=seed)
            subsets.add(frozenset(e.clip_path for e in epoch if e.origin == "emulated"))
        assert len(subsets) >= 19

    def test_empty_emulated_warns_and_returns_real(self, caplog):
        real = make_manifest(3, "real", "r")
        with caplog.at_level(logging.WARNING):
            epoch = sample_epoch(real, DatasetManifest(()), seed=0)
        assert len(epoch) == 3
        assert any("real data only" in r.message for r in caplog.records)

    def test_empty_real_rejected(self):
        with pytest.raises(ValueError):
            sample_epoch(DatasetManifest(()), make_manifest(3, "emulated"), seed=0)
