"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

The lines are collected in CRITERION_LINES and echoed in the terminal
summary (see conftest), so they appear under pytest's default capture.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from seldkit.accdoa import DetectedEvent
from seldkit.audio import write_wav
from seldkit.emulate import (
    LibrarySample,
    SampleLibrary,
    SceneEvent,
    SceneSpec,
    mix_scene,
    sample_epoch,
    synth_srir,
    SrirSynthConfig,
    render_event,
)
from seldkit.features import FeatureConfig, doa_from_features, extract_features, mel_filterbank, stft
from seldkit.geometry import Direction, angle_between, angular_distance, dir_to_unit, unit_to_dir
from seldkit.labels import ClipAnnotation, EventLabel, write_labels
from seldkit.manifest import DatasetManifest, ManifestEntry, save_manifest
from seldkit.metrics import MetricConfig, evaluate
from seldkit.pipeline import RunConfig, run_pipeline, segment_clip, write_scores
from seldkit.predict import ClipIdentity, OraclePredictor
from seldkit.rotation import all_patterns, apply_to_audio, apply_to_direction, compose, inverse
from seldkit.tta import CandidateSet, TtaConfig, aggregate, dbscan_sphere, run_tta

from conftest import plane_wave_clip, random_direction
from test_features import expected_mel_bin
from test_metrics import pred, ref
from test_tta import clustered_point_set, dbscan_reference


CRITERION_LINES: list = []


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        line = f"[acceptance {num:02d}] FAIL - {description}"
        CRITERION_LINES.append(line)
        print(line)
        raise
    line = f"[acceptance {num:02d}] PASS - {description}"
    CRITERION_LINES.append(line)
    print(line)


def test_criterion_01_rotation_group_and_doa_commutation():
    with criterion(1, "16-pattern group axioms + intensity-DOA commutation within 1 degree"):
        start = time.monotonic()
        patterns = all_patterns()
        assert len(patterns) == 16
        assert len({tuple(p.matrix().ravel()) for p in patterns}) == 16
        ids = {p.id for p in patterns}
        for p in patterns:
            assert compose(p, inverse(p)).id == 0
            assert compose(inverse(p), p).id == 0
            for q in patterns:
                r = compose(p, q)
                assert r.id in ids
                np.testing.assert_array_equal(r.matrix(), p.matrix() @ q.matrix())

        cfg = FeatureConfig()
        rng = np.random.default_rng(2024)
        for trial in range(100):
            d = random_direction(rng, max_abs_el=80.0)
            clip = plane_wave_clip(d, n_samples=2400, seed=trial)
            for p in patterns:
                est = doa_from_features(extract_features(apply_to_audio(clip, p), cfg), cfg)
                assert angular_distance(est, apply_to_direction(d, p)) < 1.0
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"


def _acceptance_scenes(n_scenes: int = 10):
    rng = np.random.default_rng(99)
    library = SampleLibrary(
        {
            "noise": LibrarySample("noise", 0, rng.standard_normal(24000) * 0.4),
            "tone": LibrarySample(
                "tone", 1, np.sin(2 * np.pi * 600 * np.arange(30000) / 24000)
            ),
            "chirp": LibrarySample(
                "chirp",
                2,
                np.sin(2 * np.pi * (200 + 40 * np.arange(18000) / 24000) * np.arange(18000) / 24000),
            ),
        }
    )
    sample_class = {"noise": 0, "tone": 1, "chirp": 2}
    scenes = []
    for i in range(n_scenes):
        names = ["noise", "tone", "chirp"][: 2 + i % 2]
        events = tuple(
            SceneEvent(
                sample_class[name],
                name,
                onset_s=float(rng.uniform(0.0, 5.0 - library[name].duration_s)),
                direction=random_direction(rng),
            )
            for name in names
        )
        scenes.append(mix_scene(SceneSpec(5.0, events, snr_db=35.0, seed=1000 + i), library))
    return scenes


def test_criterion_02_end_to_end_identity():
    with criterion(2, "zero-jitter oracle through features/TTA/DBSCAN/metrics is exact"):
        start = time.monotonic()
        scenes = _acceptance_scenes(10)
        annotations = {f"scene{i}": ann for i, (_, ann) in enumerate(scenes)}
        oracle = OraclePredictor(annotations)
        all_scores = []
        for i, (clip, annotation) in enumerate(scenes):
            events = run_tta(oracle, clip, ClipIdentity(f"scene{i}"))
            all_scores.append(evaluate(events, annotation, MetricConfig()))
        for s in all_scores:
            assert s.er20 == 0.0
            assert s.f20 == 1.0
            assert s.le_cd <= 1e-6
            assert s.lr_cd == 1.0
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"


def _jittered_unit(d: Direction, max_deg: float, rng) -> np.ndarray:
    v = dir_to_unit(d).as_array()
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = math.radians(rng.uniform(0.0, max_deg))
    return (
        v * math.cos(angle)
        + np.cross(axis, v) * math.sin(angle)
        + axis * (axis @ v) * (1.0 - math.cos(angle))
    )


def test_criterion_03_tta_robustness_beats_naive_averaging():
    with criterion(3, "clustering TTA beats naive averaging under 2/16 corrupted candidates"):
        config = TtaConfig()
        metric_cfg = MetricConfig(n_classes=1)
        clustered_errors = []
        naive_errors = []
        for trial in range(50):
            rng = np.random.default_rng(5000 + trial)
            d = random_direction(rng, max_abs_el=80.0)
            vectors = [_jittered_unit(d, 3.0, rng) for _ in range(14)]
            for _ in range(2):
                v = rng.standard_normal(3)
                vectors.append(v / np.linalg.norm(v))
            candidates = CandidateSet({(0, 0): np.array(vectors)})
            events = aggregate(candidates, config)
            assert events, "clustering must keep the consensus"
            truth = ClipAnnotation((EventLabel(0, 0, 0, d),), n_classes=1)
            clustered_errors.append(evaluate(events, truth, metric_cfg).le_cd)
            naive = DetectedEvent(0, 0, unit_to_dir(np.mean(vectors, axis=0)), 0.5)
            naive_errors.append(evaluate([naive], truth, metric_cfg).le_cd)
        mean_clustered = float(np.mean(clustered_errors))
        mean_naive = float(np.mean(naive_errors))
        assert mean_clustered < mean_naive
        assert mean_clustered <= 3.0


def test_criterion_04_dbscan_matches_bruteforce_reference():
    with criterion(4, "dbscan_sphere labels equal the brute-force reference on 1000 sets"):
        rng = np.random.default_rng(777)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            points = clustered_point_set(rng, n)
            eps = float(rng.uniform(2.0, 45.0))
            min_pts = int(rng.integers(1, 6))
            got = dbscan_sphere(points, eps, min_pts)
            want = dbscan_reference(points, eps, min_pts)
            np.testing.assert_array_equal(got, want)


def _brute_assignment_cost(cost: np.ndarray) -> float:
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    best = math.inf
    for cols in itertools.permutations(range(cost.shape[1]), cost.shape[0]):
        best = min(best, sum(cost[r, c] for r, c in enumerate(cols)))
    return best


def test_criterion_05_hungarian_optimality():
    with criterion(5, "assignment cost equals the exhaustive permutation minimum (500 matrices)"):
        rng = np.random.default_rng(31337)
        for _ in range(500):
            n_rows = int(rng.integers(1, 7))
            n_cols = int(rng.integers(1, 7))
            cost = rng.uniform(0.0, 180.0, size=(n_rows, n_cols))
            rows, cols = linear_sum_assignment(cost)
            got = float(cost[rows, cols].sum())
            assert got == pytest.approx(_brute_assignment_cost(cost), abs=1e-9)


def test_criterion_06_metric_hand_cases_and_rotation_invariance():
    with criterion(6, "finalize hand cases exact + rotation invariance within 1e-9"):
        cfg = MetricConfig(n_classes=2)
        refs = ClipAnnotation((ref(0, 0, 40, 10), ref(3, 1, -100, -30)), n_classes=2)
        perfect = [pred(0, 0, 40, 10), pred(3, 1, -100, -30)]
        s = evaluate(perfect, refs, cfg)
        assert (s.er20, s.f20, s.le_cd, s.lr_cd) == (0.0, 1.0, 0.0, 1.0)

        s = evaluate([], refs, cfg)
        assert (s.er20, s.f20, s.le_cd, s.lr_cd) == (1.0, 0.0, 180.0, 0.0)

        mixed_refs = ClipAnnotation((ref(0, 0, 0, 0), ref(0, 1, 0, 0)), n_classes=2)
        mixed_preds = [pred(0, 0, 0, 0), pred(0, 1, 30, 0)]
        s = evaluate(mixed_preds, mixed_refs, cfg)
        assert s.er20 == 0.5
        assert s.f20 == 0.5
        assert s.le_cd == pytest.approx(15.0, abs=1e-9)
        assert s.lr_cd == 1.0

        rng = np.random.default_rng(4)
        refs = ClipAnnotation(
            tuple(
                EventLabel(f, c, 0, random_direction(rng, 85.0))
                for f in range(10)
                for c in range(3)
                if rng.uniform() < 0.5
            ),
            n_classes=3,
        )
        preds = [
            DetectedEvent(
                e.frame,
                e.class_id,
                Direction(e.direction.azimuth + rng.uniform(-30, 30),
                          float(np.clip(e.direction.elevation + rng.uniform(-15, 15), -90, 90))),
                0.9,
            )
            for e in refs.events
            if rng.uniform() < 0.85
        ]
        base = evaluate(preds, refs, MetricConfig(n_classes=3))
        for p in all_patterns():
            rot_preds = [
                DetectedEvent(e.frame, e.class_id, apply_to_direction(e.direction, p), e.activity)
                for e in preds
            ]
            rot_refs = ClipAnnotation(
                tuple(
                    EventLabel(e.frame, e.class_id, e.track_id, apply_to_direction(e.direction, p))
                    for e in refs.events
                ),
                n_classes=3,
            )
            rotated = evaluate(rot_preds, rot_refs, MetricConfig(n_classes=3))
            for name in ("er20", "f20", "le_cd", "lr_cd"):
                assert getattr(rotated, name) == pytest.approx(getattr(base, name), abs=1e-9)


def test_criterion_07_feature_contracts():
    with criterion(7, "201 STFT frames / 50 label frames, mel bin of 1 kHz, DOA within 5 deg"):
        cfg = FeatureConfig()
        spec = stft(np.zeros(120000), cfg)
        assert spec.shape[0] == 201
        assert 201 // cfg.frames_per_label == 50

        t = np.arange(24000) / cfg.sample_rate
        tone = np.sin(2 * np.pi * 1000.0 * t)
        samples = np.stack([tone, 0.4 * tone, 0.3 * tone, 0.2 * tone])
        from seldkit.audio import AudioClip

        feats = extract_features(AudioClip(samples), cfg)
        mel_profile = np.exp(feats[0]).sum(axis=0)
        assert int(mel_profile.argmax()) == expected_mel_bin(1000.0, cfg)

        rng = np.random.default_rng(11)
        srir_cfg = SrirSynthConfig(direct_to_diffuse_db=20.0)
        d = random_direction(rng)
        ir = synth_srir(d, srir_cfg, rng)
        dry = LibrarySample("s", 0, rng.standard_normal(24000))
        rendered = render_event(dry, ir)
        est = doa_from_features(extract_features(rendered, cfg), cfg)
        assert angular_distance(est, d) < 5.0


def test_criterion_08_external_mix():
    with criterion(8, "epoch = all real once + |real| emulated; 20 seeds give >= 19 subsets"):
        real = DatasetManifest(
            tuple(ManifestEntry(f"r{i}.wav", f"r{i}.csv", "real") for i in range(5))
        )
        emulated = DatasetManifest(
            tuple(ManifestEntry(f"e{i}.wav", f"e{i}.csv", "emulated") for i in range(50))
        )
        subsets = set()
        for seed in range(20):
            epoch = sample_epoch(real, emulated, seed=seed)
            real_picks = sorted(e.clip_path for e in epoch if e.origin == "real")
            assert real_picks == sorted(e.clip_path for e in real)
            emulated_picks = [e.clip_path for e in epoch if e.origin == "emulated"]
            assert len(emulated_picks) == len(real)
            assert len(set(emulated_picks)) == len(real)
            subsets.add(frozenset(emulated_picks))
        assert len(subsets) >= 19


def test_criterion_09_segmentation():
    with criterion(9, "7 s clip gives 3 five-second segments with sample-identical overlaps"):
        rng = np.random.default_rng(8)
        from seldkit.audio import AudioClip

        clip = AudioClip(rng.standard_normal((4, 168000)))
        segments = segment_clip(clip, window_s=5.0, hop_s=1.0)
        assert len(segments) == 3
        for i, seg in enumerate(segments):
            np.testing.assert_array_equal(
                seg.samples, clip.samples[:, i * 24000 : i * 24000 + 120000]
            )
        np.testing.assert_array_equal(
            segments[0].samples[:, 24000:], segments[1].samples[:, :96000]
        )
        np.testing.assert_array_equal(
            segments[1].samples[:, 24000:], segments[2].samples[:, :96000]
        )


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "pipeline run twice produces byte-identical scores.json"):
        scenes = _acceptance_scenes(2)
        entries = []
        for i, (clip, annotation) in enumerate(scenes):
            wav = tmp_path / f"d{i}.wav"
            csv = tmp_path / f"d{i}.csv"
            write_wav(wav, clip)
            write_labels(annotation, csv)
            entries.append(ManifestEntry(str(wav), str(csv), "emulated", duration_s=5.0))
        manifest_path = tmp_path / "manifest.json"
        save_manifest(DatasetManifest(tuple(entries)), manifest_path)
        config = RunConfig.from_dict(
            {
                "manifest": str(manifest_path),
                "predictor": {"kind": "oracle", "jitter_deg": 2.0},
                "seed": 21,
            }
        )
        paths = [tmp_path / "scores1.json", tmp_path / "scores2.json"]
        for path in paths:
            write_scores(run_pipeline(config), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        doc = json.loads(paths[0].read_text())
        assert doc["n_scored"] == 2
