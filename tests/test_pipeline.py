import dataclasses
import json

import numpy as np
import pytest

from seldkit.audio import AudioClip, write_wav
from seldkit.augment import AugmentConfig
from seldkit.geometry import Direction, angular_distance
from seldkit.labels import write_labels
from seldkit.manifest import DatasetManifest, ManifestEntry, save_manifest
from seldkit.pipeline import RunConfig, kfold_split, run_pipeline, segment_clip, write_scores
from seldkit.predict import (
    ClipIdentity,
    ConstantPredictor,
    ExternalFilePredictor,
    OraclePredictor,
    OraclePredictorConfig,
    make_predictor,
)
from seldkit.accdoa import decode, encode
from seldkit.features import FeatureConfig, extract_features
from seldkit.tensorio import save_tensor
from seldkit.labels import ClipAnnotation, EventLabel

from conftest import two_event_scene


class TestSegmentClip:
    def test_exact_window(self):
        clip = AudioClip(np.random.default_rng(0).standard_normal((4, 120000)))
        assert len(segment_clip(clip)) == 1

    def test_seven_seconds_three_segments(self):
        clip = AudioClip(np.random.default_rng(0).standard_normal((4, 168000)))
        segments = segment_clip(clip)
        assert len(segments) == 3
        for i, seg in enumerate(segments):
            assert seg.n_samples == 120000
            np.testing.assert_array_equal(
                seg.samples, clip.samples[:, i * 24000 : i * 24000 + 120000]
            )

    def test_short_clip_zero_padded(self):
        clip = AudioClip(np.ones((4, 96000)))
        (seg,) = segment_clip(clip)
        assert seg.n_samples == 120000
        np.testing.assert_array_equal(seg.samples[:, :96000], clip.samples)
        assert np.all(seg.samples[:, 96000:] == 0)

    def test_overlaps_sample_identical(self):
        clip = AudioClip(np.random.default_rng(1).standard_normal((4, 168000)))
        segments = segment_clip(clip)
        # consecutive segments overlap by 4 s
        np.testing.assert_array_equal(
            segments[0].samples[:, 24000:], segments[1].samples[:, :96000]
        )

    def test_bad_args(self):
        clip = AudioClip(np.zeros((4, 100)))
        with pytest.raises(ValueError):
            segment_clip(clip, window_s=0)


def manifest_with_classes(class_ids, rooms=None):
    entries = []
    for i, class_id in enumerate(class_ids):
        entries.append(
            ManifestEntry(
                f"c{i}.wav",
                f"c{i}.csv",
                "emulated",
                room_tag=None if rooms is None else rooms[i],
            )
        )
    return DatasetManifest(tuple(entries)), {
        e.clip_path: c for e, c in zip(entries, class_ids)
    }


class TestKfold:
    def test_balanced_two_classes(self):
        manifest, classes = manifest_with_classes([0, 0, 0, 0, 1, 1, 1, 1])
        folds = kfold_split(manifest, k=4, class_key=lambda e: classes[e.clip_path])
        for fold in folds:
            got = sorted(classes[e.clip_path] for e in fold)
            assert got == [0, 1]
            assert all(e.fold_tag in {f"fold{i}" for i in range(4)} for e in fold)

    def test_partition(self):
        manifest, classes = manifest_with_classes(list(np.random.default_rng(0).integers(0, 3, 23)))
        folds = kfold_split(manifest, k=4, class_key=lambda e: classes[e.clip_path])
        seen = [e.clip_path for fold in folds for e in fold]
        assert sorted(seen) == sorted(e.clip_path for e in manifest)

    def test_stratified_counts_within_one(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            class_ids = list(rng.integers(0, 4, int(rng.integers(8, 40))))
            manifest, classes = manifest_with_classes(class_ids)
            folds = kfold_split(manifest, k=4, seed=3, class_key=lambda e: classes[e.clip_path])
            for c in set(class_ids):
                counts = [sum(1 for e in f if classes[e.clip_path] == c) for f in folds]
                assert max(counts) - min(counts) <= 1

    def test_dominant_class_from_label_files(self, tmp_path):
        entries = []
        for i in range(8):
            label_path = tmp_path / f"c{i}.csv"
            class_id = i % 2
            ann = ClipAnnotation(
                (EventLabel(0, class_id, 0, Direction(0, 0)),), n_classes=2
            )
            write_labels(ann, label_path)
            entries.append(ManifestEntry(f"c{i}.wav", str(label_path), "emulated"))
        folds = kfold_split(DatasetManifest(tuple(entries)), k=4, n_classes=2)
        assert [len(f) for f in folds] == [2, 2, 2, 2]

    def test_room_mode_one_room_per_fold(self):
        manifest, _ = manifest_with_classes([0] * 8, rooms=["r1", "r2", "r3", "r4"] * 2)
        folds = kfold_split(manifest, k=4, mode="room")
        for fold in folds:
            assert len({e.room_tag for e in fold}) == 1
        assert {e.room_tag for f in folds for e in f} == {"r1", "r2", "r3", "r4"}

    def test_room_never_split(self):
        rooms = ["a", "a", "a", "b", "b", "c", "d", "e", "e", "e"]
        manifest, _ = manifest_with_classes([0] * len(rooms), rooms=rooms)
        folds = kfold_split(manifest, k=4, mode="room", seed=1)
        assignment = {}
        for i, fold in enumerate(folds):
            for e in fold:
                assert assignment.setdefault(e.room_tag, i) == i

    def test_too_few_rooms_rejected(self):
        manifest, _ = manifest_with_classes([0] * 4, rooms=["x", "x", "y", "y"])
        with pytest.raises(ValueError, match="rooms"):
            kfold_split(manifest, k=4, mode="room")

    def test_bad_mode_and_k(self):
        manifest, _ = manifest_with_classes([0, 1])
        with pytest.raises(ValueError):
            kfold_split(manifest, k=1)
        with pytest.raises(ValueError):
            kfold_split(manifest, mode="banana")


class TestPredictors:
    def test_oracle_zero_jitter_is_exact_encoding(self):
        clip, annotation = two_event_scene(seed=3)
        oracle = OraclePredictor({"c": annotation})
        feats = extract_features(clip)
        seq = oracle.predict(feats, ClipIdentity("c"))
        np.testing.assert_array_equal(seq, encode(annotation, seq.shape[0]))

    def test_oracle_unknown_clip(self):
        oracle = OraclePredictor({})
        with pytest.raises(ValueError, match="unknown clip identity"):
            oracle.predict(np.zeros((7, 8, 4)), ClipIdentity("nope"))

    def test_oracle_jitter_bounded(self):
        clip, annotation = two_event_scene(seed=4)
        feats = extract_features(clip)
        oracle = OraclePredictor({"c": annotation}, OraclePredictorConfig(jitter_deg=5.0, seed=1))
        events = decode(oracle.predict(feats, ClipIdentity("c")), 0.5)
        truth = {(e.frame, e.class_id): e.direction for e in annotation.events}
        assert len(events) == len(truth)
        for ev in events:
            assert angular_distance(ev.direction, truth[(ev.frame, ev.class_id)]) <= 5.0

    def test_oracle_jitter_differs_across_patterns(self):
        clip, annotation = two_event_scene(seed=5)
        feats = extract_features(clip)
        oracle = OraclePredictor({"c": annotation}, OraclePredictorConfig(jitter_deg=5.0, seed=1))
        a = oracle.predict(feats, ClipIdentity("c", 0))
        b = oracle.predict(feats, ClipIdentity("c", 1))
        assert not np.array_equal(np.abs(a), np.abs(b))

    def test_oracle_activity_scaling(self):
        clip, annotation = two_event_scene(seed=6)
        feats = extract_features(clip)
        oracle = OraclePredictor({"c": annotation}, OraclePredictorConfig(activity=0.7))
        seq = oracle.predict(feats, ClipIdentity("c"))
        norms = np.linalg.norm(seq, axis=2)
        assert norms.max() == pytest.approx(0.7, abs=1e-12)

    def test_constant_predictor_shape(self):
        pred = ConstantPredictor(n_classes=5)
        out = pred.predict(np.zeros((7, 43, 8)), ClipIdentity("x"))
        assert out.shape == (10, 5, 3)
        assert np.all(out == 0)

    def test_external_file_predictor(self, tmp_path):
        seq = np.zeros((6, 3, 3), dtype=np.float32)
        seq[2, 1] = [0.5, 0.0, 0.5]
        save_tensor(tmp_path / "clipA.p03.acc", seq)
        save_tensor(tmp_path / "clipB.acc", seq)
        pred = ExternalFilePredictor(tmp_path)
        got = pred.predict(np.zeros((7, 24, 4)), ClipIdentity("clipA.wav", 3))
        np.testing.assert_allclose(got, seq, atol=1e-7)
        got_b = pred.predict(np.zeros((7, 24, 4)), ClipIdentity("clipB.wav", 0))
        np.testing.assert_allclose(got_b, seq, atol=1e-7)
        with pytest.raises(FileNotFoundError):
            pred.predict(np.zeros((7, 24, 4)), ClipIdentity("clipA.wav", 4))

    def test_make_predictor_specs(self, tmp_path):
        assert isinstance(make_predictor("constant"), ConstantPredictor)
        assert isinstance(make_predictor("external:" + str(tmp_path)), ExternalFilePredictor)
        oracle = make_predictor({"kind": "oracle", "jitter_deg": 2.0}, annotations={})
        assert isinstance(oracle, OraclePredictor)
        assert oracle.config.jitter_deg == 2.0
        with pytest.raises(ValueError):
            make_predictor("warp-drive")
        with pytest.raises(ValueError):
            make_predictor({"kind": "oracle"})
        with pytest.raises(ValueError, match="take an argument"):
            make_predictor("oracle:2.0", annotations={})

    @pytest.mark.parametrize("kind", ["oracle", "constant"])
    def test_label_frames_follow_feature_config(self, kind):
        # hop 300: 8 STFT frames per label frame, not the default 4
        cfg = FeatureConfig(hop=300)
        clip, annotation = two_event_scene(seed=7)
        features = extract_features(clip, cfg)
        predictor = make_predictor({"kind": kind}, annotations={"c": annotation}, feature=cfg)
        seq = predictor.predict(features, ClipIdentity("c"))
        assert cfg.frames_per_label == 8
        assert seq.shape[0] == cfg.n_frames(clip.n_samples) // cfg.frames_per_label


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    entries = []
    for i in range(3):
        clip, annotation = two_event_scene(seed=100 + i)
        clip_path = root / f"scene{i}.wav"
        label_path = root / f"scene{i}.csv"
        write_wav(clip_path, clip)
        write_labels(annotation, label_path)
        entries.append(
            ManifestEntry(str(clip_path), str(label_path), "emulated", duration_s=5.0)
        )
    manifest_path = root / "manifest.json"
    save_manifest(DatasetManifest(tuple(entries)), manifest_path)
    return root, manifest_path


class TestRunPipeline:
    def config(self, manifest_path, **overrides):
        doc = {
            "manifest": str(manifest_path),
            "predictor": {"kind": "oracle"},
            "seed": 0,
            **overrides,
        }
        return RunConfig.from_dict(doc)

    def test_n_classes_propagates_to_partial_metric_config(self, small_dataset):
        _, manifest_path = small_dataset
        config = self.config(manifest_path, n_classes=7, metric={"segment_frames": 5})
        assert config.metric.n_classes == 7
        assert config.metric.segment_frames == 5

    def test_oracle_identity_scores(self, small_dataset):
        _, manifest_path = small_dataset
        result = run_pipeline(self.config(manifest_path))
        assert result["n_scored"] == 3
        assert result["failures"] == []
        scores = result["scores"]
        assert scores["er20"] == 0.0
        assert scores["f20"] == 1.0
        assert scores["le_cd"] <= 1e-6
        assert scores["lr_cd"] == 1.0

    def test_tta_off_path(self, small_dataset):
        _, manifest_path = small_dataset
        result = run_pipeline(self.config(manifest_path, tta=None))
        assert result["scores"]["f20"] == 1.0

    def test_deterministic_bytes(self, small_dataset, tmp_path):
        _, manifest_path = small_dataset
        config = self.config(
            manifest_path, predictor={"kind": "oracle", "jitter_deg": 2.0}, seed=11
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        write_scores(run_pipeline(config), out1)
        write_scores(run_pipeline(config), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_pool_matches_serial(self, small_dataset, monkeypatch):
        _, manifest_path = small_dataset
        config = self.config(manifest_path)
        monkeypatch.setenv("SELDKIT_WORKERS", "1")
        serial = run_pipeline(config)
        monkeypatch.setenv("SELDKIT_WORKERS", "3")
        pooled = run_pipeline(config)
        assert serial == pooled

    def test_predictor_gets_run_feature_config(self, small_dataset):
        # a constant predictor fires in every label frame; class 0 has no
        # references, so its false positives count the label frames
        _, manifest_path = small_dataset
        config = self.config(
            manifest_path, predictor={"kind": "constant", "value": 0.6}, tta=None,
            feature={"hop": 300},
        )
        result = run_pipeline(config)
        label_frames = config.feature.n_frames(120000) // config.feature.frames_per_label
        assert label_frames == 50
        assert result["per_class"]["0"]["fp"] == 3 * label_frames

    def test_unknown_keys_rejected(self, small_dataset):
        _, manifest_path = small_dataset
        # the keys the benchmark's run documents use keep loading
        config = self.config(manifest_path, n_classes=13, tta=None, augment={})
        assert config.tta is None and config.augment == AugmentConfig()
        with pytest.raises(ValueError, match="augmnet"):
            self.config(manifest_path, augmnet={})
        with pytest.raises(ValueError, match="workers"):
            self.config(manifest_path, workers=2)
        # a misspelled field inside a sub-config is the sub-config's TypeError
        with pytest.raises(TypeError, match="seed"):
            self.config(manifest_path, augment={"seed": 0})
        with pytest.raises(TypeError, match="unify"):
            self.config(manifest_path, tta={"unify": 10.0})

    def test_failures_reported_run_continues(self, small_dataset, tmp_path):
        root, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        manifest = load_manifest(manifest_path)
        broken = DatasetManifest(
            manifest.entries
            + (
                ManifestEntry(
                    str(root / "missing.wav"), str(manifest.entries[0].label_path), "real"
                ),
            )
        )
        broken_path = tmp_path / "broken.json"
        save_manifest(broken, broken_path)
        result = run_pipeline(self.config(broken_path))
        assert result["n_scored"] == 3
        assert len(result["failures"]) == 1
        assert "missing.wav" in result["failures"][0]["clip_path"]

    @pytest.mark.parametrize("tta", [None, {}], ids=["direct", "tta"])
    def test_non_finite_prediction_fails_entry(self, small_dataset, tmp_path, tta):
        # silent-clip predictions for every entry and pattern, one NaN in scene1's
        root, manifest_path = small_dataset
        for i in range(3):
            for pattern_id in range(16):
                seq = np.zeros((50, 13, 3))
                if i == 1 and pattern_id == 0:
                    seq[7, 2, 1] = np.nan
                name = f"scene{i}.acc" if pattern_id == 0 else f"scene{i}.p{pattern_id:02d}.acc"
                save_tensor(tmp_path / name, seq)
        config = self.config(
            manifest_path, predictor={"kind": "external", "dir": str(tmp_path)}, tta=tta
        )
        result = run_pipeline(config)
        assert result["n_scored"] == 2
        assert [f["clip_path"] for f in result["failures"]] == [str(root / "scene1.wav")]
        assert "non-finite" in result["failures"][0]["error"]

    def test_augment_stage_runs(self, small_dataset):
        _, manifest_path = small_dataset
        result = run_pipeline(
            self.config(
                manifest_path,
                tta=None,
                augment={"gain_db_range": [-3.0, 3.0], "pitch_semitone_range": [0.0, 0.0]},
            )
        )
        # oracle ignores the waveform, so scores stay perfect; the stage
        # exercising is what matters here
        assert result["scores"]["f20"] == 1.0

    def test_jitter_beyond_threshold_degrades_f(self, small_dataset):
        # jitter 25 deg can cross the 20 deg threshold, so F drops below 1
        _, manifest_path = small_dataset
        config = self.config(
            manifest_path,
            tta=None,
            predictor={"kind": "oracle", "jitter_deg": 25.0, "seed": 3},
        )
        result = run_pipeline(config)
        assert result["scores"]["f20"] < 1.0
        assert result["scores"]["lr_cd"] == 1.0  # class detection unaffected
