import dataclasses
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seldkit.pipeline
import seldkit.tta
from seldkit.audio import AudioClip, WavInfo, read_wav, read_wav_info, write_wav
from seldkit.augment import AugmentConfig
from seldkit.geometry import Direction, angular_distance, dir_to_unit
from seldkit.labels import read_labels, write_labels
from seldkit.manifest import DatasetManifest, ManifestEntry, save_manifest
from seldkit.metrics import MetricConfig
from seldkit.pipeline import RunConfig, kfold_split, run_pipeline, segment_clip, write_scores
from seldkit import predict as predict_module
from seldkit.predict import (
    ClipIdentity,
    ConstantPredictor,
    ExternalFilePredictor,
    OraclePredictor,
    OraclePredictorConfig,
    _jitter_vectors,
    check_prediction,
    make_predictor,
    seed_material,
)
from seldkit.rotation import all_patterns, apply_to_audio, apply_to_features, pattern_by_id, rotate_annotation
from seldkit.accdoa import decode, encode
from seldkit.features import FeatureConfig, extract_features
from seldkit.tensorio import save_tensor
from seldkit.labels import ClipAnnotation, EventLabel
from seldkit.tta import TtaConfig, aggregate, collect_candidates, run_tta

from conftest import IntensityPredictor, count_constructions, two_event_scene


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


def manifest_with_classes(directory, class_ids, rooms=None):
    """A manifest whose i-th entry has a one-row label file of class ``class_ids[i]``
    in ``directory``, and each clip path's class."""
    entries = []
    for i, class_id in enumerate(class_ids):
        label_path = directory / f"c{i}.csv"
        label_path.write_text(f"0,{class_id},0,0,0\n", encoding="utf-8")
        entries.append(
            ManifestEntry(
                f"c{i}.wav",
                str(label_path),
                "emulated",
                room_tag=None if rooms is None else rooms[i],
            )
        )
    return DatasetManifest(tuple(entries)), {
        e.clip_path: c for e, c in zip(entries, class_ids)
    }


class TestKfold:
    def test_balanced_two_classes(self, tmp_path):
        manifest, classes = manifest_with_classes(tmp_path, [0, 0, 0, 0, 1, 1, 1, 1])
        folds = kfold_split(manifest, k=4)
        for fold in folds:
            got = sorted(classes[e.clip_path] for e in fold)
            assert got == [0, 1]
            assert all(e.fold_tag in {f"fold{i}" for i in range(4)} for e in fold)

    def test_partition(self, tmp_path):
        manifest, classes = manifest_with_classes(tmp_path, list(np.random.default_rng(0).integers(0, 3, 23)))
        folds = kfold_split(manifest, k=4)
        seen = [e.clip_path for fold in folds for e in fold]
        assert sorted(seen) == sorted(e.clip_path for e in manifest)

    def test_stratified_counts_within_one(self, tmp_path):
        rng = np.random.default_rng(7)
        for _ in range(10):
            class_ids = list(rng.integers(0, 4, int(rng.integers(8, 40))))
            manifest, classes = manifest_with_classes(tmp_path, class_ids)
            folds = kfold_split(manifest, k=4, seed=3)
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

    def test_dominant_class_tie_goes_to_the_smallest_class(self, tmp_path):
        label_path = tmp_path / "tie.csv"
        # classes 3 and 1 twice each, class 4 once
        label_path.write_text("0,3,0,10,0\n1,3,0,10,0\n0,1,0,50,0\n2,1,0,50,0\n3,4,0,0,0\n")
        entry = ManifestEntry("tie.wav", str(label_path), "emulated")
        assert seldkit.pipeline._dominant_class(entry, n_classes=5) == 1
        label_path.write_text("")
        assert seldkit.pipeline._dominant_class(entry, n_classes=5) == -1

    def test_room_mode_one_room_per_fold(self, tmp_path):
        manifest, _ = manifest_with_classes(tmp_path, [0] * 8, rooms=["r1", "r2", "r3", "r4"] * 2)
        folds = kfold_split(manifest, k=4, mode="room")
        for fold in folds:
            assert len({e.room_tag for e in fold}) == 1
        assert {e.room_tag for f in folds for e in f} == {"r1", "r2", "r3", "r4"}

    def test_room_never_split(self, tmp_path):
        rooms = ["a", "a", "a", "b", "b", "c", "d", "e", "e", "e"]
        manifest, _ = manifest_with_classes(tmp_path, [0] * len(rooms), rooms=rooms)
        folds = kfold_split(manifest, k=4, mode="room", seed=1)
        assignment = {}
        for i, fold in enumerate(folds):
            for e in fold:
                assert assignment.setdefault(e.room_tag, i) == i

    def test_too_few_rooms_rejected(self, tmp_path):
        manifest, _ = manifest_with_classes(tmp_path, [0] * 4, rooms=["x", "x", "y", "y"])
        with pytest.raises(ValueError, match="rooms"):
            kfold_split(manifest, k=4, mode="room")

    def test_bad_mode_and_k(self, tmp_path):
        manifest, _ = manifest_with_classes(tmp_path, [0, 1])
        with pytest.raises(ValueError):
            kfold_split(manifest, k=1)
        with pytest.raises(ValueError):
            kfold_split(manifest, mode="banana")


class TestPredictors:
    def test_oracle_zero_jitter_is_exact_encoding(self):
        clip, annotation = two_event_scene(seed=3)
        oracle = OraclePredictor({"c": annotation})
        feats = extract_features(clip)
        seq = oracle.predict(feats, ClipIdentity("c"), FeatureConfig().label_frames(clip.n_samples))
        np.testing.assert_array_equal(seq, encode(annotation, seq.shape[0]))

    def test_oracle_unknown_clip(self):
        oracle = OraclePredictor({})
        with pytest.raises(ValueError, match="unknown clip identity"):
            oracle.predict(np.zeros((7, 8, 4)), ClipIdentity("nope"), 2)

    def test_oracle_jitter_bounded(self):
        clip, annotation = two_event_scene(seed=4)
        feats = extract_features(clip)
        oracle = OraclePredictor({"c": annotation}, OraclePredictorConfig(jitter_deg=5.0, seed=1))
        label_frames = FeatureConfig().label_frames(clip.n_samples)
        events = decode(oracle.predict(feats, ClipIdentity("c"), label_frames), 0.5)
        truth = {(e.frame, e.class_id): e.direction for e in annotation.events}
        assert len(events) == len(truth)
        for ev in events:
            assert angular_distance(ev.direction, truth[(ev.frame, ev.class_id)]) <= 5.0

    def test_oracle_jitter_differs_across_patterns(self):
        clip, annotation = two_event_scene(seed=5)
        feats = extract_features(clip)
        oracle = OraclePredictor({"c": annotation}, OraclePredictorConfig(jitter_deg=5.0, seed=1))
        label_frames = FeatureConfig().label_frames(clip.n_samples)
        a = oracle.predict(feats, ClipIdentity("c", 0), label_frames)
        b = oracle.predict(feats, ClipIdentity("c", 1), label_frames)
        assert not np.array_equal(np.abs(a), np.abs(b))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        jitter_deg=st.floats(min_value=0.001, max_value=89.999),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_jitter_vectors_match_per_cell_loop(self, seed, jitter_deg, density):
        def per_cell_loop(seq, jitter_deg, rng):
            out = seq.copy()
            frames, classes = np.nonzero(np.linalg.norm(seq, axis=2) > 0)
            for f, c in zip(frames, classes):
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                angle = np.radians(rng.uniform(0.0, jitter_deg))
                v = out[f, c]
                out[f, c] = (
                    v * np.cos(angle)
                    + np.cross(axis, v) * np.sin(angle)
                    + axis * (axis @ v) * (1.0 - np.cos(angle))
                )
            return out

        gen = np.random.default_rng(seed)
        seq = gen.uniform(-1.0, 1.0, (30, 13, 3)) * (gen.random((30, 13, 1)) < density)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = per_cell_loop(seq, jitter_deg, ref_rng)
        assert _jitter_vectors(seq, jitter_deg, rng).tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws consumed

    def test_jitter_vectors_of_a_silent_sequence_draw_nothing(self):
        seq = np.zeros((30, 13, 3))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        out = _jitter_vectors(seq, 5.0, rng)
        assert not np.shares_memory(out, seq)
        assert out.shape == seq.shape and out.tobytes() == seq.tobytes()
        assert rng.bit_generator.state == state

    def test_oracle_activity_scaling(self):
        clip, annotation = two_event_scene(seed=6)
        feats = extract_features(clip)
        oracle = OraclePredictor({"c": annotation}, OraclePredictorConfig(activity=0.7))
        seq = oracle.predict(feats, ClipIdentity("c"), FeatureConfig().label_frames(clip.n_samples))
        norms = np.linalg.norm(seq, axis=2)
        assert norms.max() == pytest.approx(0.7, abs=1e-12)

    def test_constant_predictor_shape(self):
        pred = ConstantPredictor(n_classes=5)
        out = pred.predict(np.zeros((7, 43, 8)), ClipIdentity("x"), 10)
        assert out.shape == (10, 5, 3)
        assert np.all(out == 0)

    def test_external_file_predictor(self, tmp_path):
        seq = np.zeros((6, 3, 3), dtype=np.float32)
        seq[2, 1] = [0.5, 0.0, 0.5]
        save_tensor(tmp_path / "clipA.p03.acc", seq)
        save_tensor(tmp_path / "clipB.acc", seq)
        pred = ExternalFilePredictor(tmp_path)
        got = pred.predict(np.zeros((7, 24, 4)), ClipIdentity("clipA.wav", 3), 6)
        np.testing.assert_allclose(got, seq, atol=1e-7)
        got_b = pred.predict(np.zeros((7, 24, 4)), ClipIdentity("clipB.wav", 0), 6)
        np.testing.assert_allclose(got_b, seq, atol=1e-7)
        with pytest.raises(FileNotFoundError):
            pred.predict(np.zeros((7, 24, 4)), ClipIdentity("clipA.wav", 4), 6)

    def test_external_pattern_zero_falls_back_to_the_plain_stem(self, tmp_path):
        save_tensor(tmp_path / "clip.acc", np.full((2, 1, 3), 0.25))
        pred = ExternalFilePredictor(tmp_path)
        assert pred.predict(None, ClipIdentity("clip.wav", 0), 2).tolist() == [[[0.25] * 3]] * 2
        # the pattern file comes first, and only pattern 0 falls back
        save_tensor(tmp_path / "clip.p00.acc", np.full((2, 1, 3), 0.5))
        assert pred.predict(None, ClipIdentity("clip.wav", 0), 2).tolist() == [[[0.5] * 3]] * 2
        with pytest.raises(FileNotFoundError):
            pred.predict(None, ClipIdentity("clip.wav", 1), 2)

    def test_external_missing_file_named(self, tmp_path):
        pred = ExternalFilePredictor(tmp_path / "preds")
        message = f"no prediction file for clip 'a/clip.wav' pattern 4 under {tmp_path / 'preds'}"
        with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
            pred.predict(None, ClipIdentity("a/clip.wav", 4), 2)

    def test_external_missing_header_named(self, tmp_path):
        np.zeros(6, dtype="<f4").tofile(tmp_path / "clip.p02.acc")
        header = tmp_path / "clip.p02.acc.json"
        with pytest.raises(FileNotFoundError, match=f"^{re.escape(f'missing tensor header {header}')}$"):
            ExternalFilePredictor(tmp_path).predict(None, ClipIdentity("clip.wav", 2), 2)

    def test_external_paths_in_messages_as_pathlib_joins_them(self, tmp_path, monkeypatch):
        # a "." directory names its files without "./", as Path(".") / name does
        monkeypatch.chdir(tmp_path)
        seq = np.zeros((2, 1, 3))
        seq[1, 0, 2] = np.nan
        save_tensor(tmp_path / "clip.p01.acc", seq)
        for directory in (".", "./", Path(".")):
            pred = ExternalFilePredictor(directory)
            with pytest.raises(ValueError, match=r"^clip\.p01\.acc: non-finite payload values$"):
                pred.predict(None, ClipIdentity("clip.wav", 1), 2)
            with pytest.raises(FileNotFoundError, match=r"pattern 3 under \.$"):
                pred.predict(None, ClipIdentity("clip.wav", 3), 2)
        pred = ExternalFilePredictor(f"{tmp_path}//")
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'clip.p01.acc'))}: non-finite"):
            pred.predict(None, ClipIdentity("clip.wav", 1), 2)

    def test_external_stem_is_the_one_make_predictor_checks(self, tmp_path):
        # Path("x/a.b.").stem is "a.b.": a name ending in "." has no suffix (os.path.splitext says "a.b")
        save_tensor(tmp_path / "a.b..p00.acc", np.full((2, 1, 3), 0.5))
        save_tensor(tmp_path / "a.b.p00.acc", np.full((2, 1, 3), 0.25))
        spec = {"kind": "external", "dir": str(tmp_path)}
        pred = make_predictor(spec, dict.fromkeys(["x/a.b.", "y/a.b"], ClipAnnotation(())))
        assert pred.predict(None, ClipIdentity("x/a.b.", 0), 2).tolist() == [[[0.5] * 3]] * 2
        with pytest.raises(ValueError, match="share the file stem 'a.b.'"):
            make_predictor(spec, dict.fromkeys(["x/a.b.", "y/a.b."], ClipAnnotation(())))

    def test_make_predictor_specs(self, tmp_path):
        assert isinstance(make_predictor({"kind": "constant"}), ConstantPredictor)
        external = make_predictor({"kind": "external", "dir": str(tmp_path)})
        assert isinstance(external, ExternalFilePredictor)
        oracle = make_predictor({"kind": "oracle", "jitter_deg": 2.0}, annotations={})
        assert isinstance(oracle, OraclePredictor)
        assert oracle.config.jitter_deg == 2.0
        with pytest.raises(ValueError):
            make_predictor({"kind": "warp-drive"})
        with pytest.raises(ValueError):
            make_predictor({"kind": "oracle"})
        # the --model strings are parsed by the CLI (test_cli.py::TestModelSpec)
        with pytest.raises(TypeError, match="mapping"):
            make_predictor("oracle:2.0", annotations={})

    def test_external_clips_sharing_a_stem_rejected(self, tmp_path):
        spec = {"kind": "external", "dir": str(tmp_path)}
        clips = dict.fromkeys(["a/x.wav", "b/y.wav"], ClipAnnotation(()))
        assert isinstance(make_predictor(spec, clips), ExternalFilePredictor)
        with pytest.raises(ValueError, match=r"^clips 'a/x.wav' and 'b/x.wav' share the file stem 'x'"):
            make_predictor(spec, {**clips, "b/x.wav": ClipAnnotation(())})

    @pytest.mark.parametrize(
        "spec, unread",
        [
            ({"kind": "oracle", "jiter_deg": 30}, "jiter_deg"),
            ({"kind": "oracle", "value": 0.5}, "value"),
            ({"kind": "constant", "dir": "preds"}, "dir"),
            ({"kind": "constant", "value": 0.0, "seed": 1, "activity": 1.0}, "activity, seed"),
            ({"kind": "external", "dir": "preds", "jitter_deg": 3}, "jitter_deg"),
        ],
    )
    def test_key_the_kind_does_not_read_rejected(self, spec, unread):
        with pytest.raises(ValueError, match=f"^unknown {spec['kind']} predictor keys: {unread}$"):
            make_predictor(spec, annotations={})

    @pytest.mark.parametrize("kind", ["oracle", "constant"])
    def test_label_frames_follow_feature_config(self, kind):
        # hop 300: 8 STFT frames per label frame, not the default 4
        cfg = FeatureConfig(hop=300)
        clip, annotation = two_event_scene(seed=7)
        features = extract_features(clip, cfg)
        predictor = make_predictor({"kind": kind}, annotations={"c": annotation})
        seq = predictor.predict(features, ClipIdentity("c"), cfg.label_frames(clip.n_samples))
        assert cfg.frames_per_label == 8
        assert seq.shape[0] == cfg.n_frames(clip.n_samples) // cfg.frames_per_label


def encode_reference(annotation, label_frames):
    """``encode`` as a per-event loop over ``EventLabel`` objects."""
    seq = np.zeros((label_frames, annotation.n_classes, 3))
    occupied = set()
    for ev in annotation.events:
        if ev.frame >= label_frames:
            raise ValueError(f"event frame {ev.frame} outside sequence of {label_frames} frames")
        cell = (ev.frame, ev.class_id)
        if cell in occupied:
            raise ValueError(
                f"cannot encode two class-{ev.class_id} events in frame {ev.frame}: "
                "single-track sequences hold one vector per class"
            )
        occupied.add(cell)
        seq[ev.frame, ev.class_id] = dir_to_unit(ev.direction).as_array()
    return seq


def jitter_per_cell_reference(seq, jitter_deg, rng):
    out = seq.copy()
    frames, classes = np.nonzero(np.linalg.norm(seq, axis=2) > 0)
    for f, c in zip(frames, classes):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = np.radians(rng.uniform(0.0, jitter_deg))
        v = out[f, c]
        out[f, c] = (
            v * np.cos(angle)
            + np.cross(axis, v) * np.sin(angle)
            + axis * (axis @ v) * (1.0 - np.cos(angle))
        )
    return out


def oracle_reference(annotation, label_frames, identity, config):
    """The oracle before indexing: rotate every event, encode, jitter cell by cell."""
    rotated = rotate_annotation(annotation, pattern_by_id(identity.pattern_id))
    seq = encode_reference(rotated, label_frames)
    rng = np.random.default_rng(seed_material(config.seed, identity.clip_id, identity.pattern_id))
    if config.jitter_deg > 0:
        seq = jitter_per_cell_reference(seq, config.jitter_deg, rng)
    return seq * config.activity, rng


# A small pool repeats directions and holds elevations of exactly 0.0 and
# -0.0, which compare equal but encode to z of either sign.
oracle_directions = st.one_of(
    st.sampled_from(
        [Direction(0.0, 0.0), Direction(0.0, -0.0), Direction(45.0, -0.0), Direction(180.0, 0.0),
         Direction(-90.0, 90.0), Direction(30.0, -60.0)]
    ),
    st.builds(Direction, st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)),
)
oracle_configs = st.builds(
    OraclePredictorConfig,
    jitter_deg=st.one_of(st.just(0.0), st.floats(0.001, 89.999)),
    activity=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)


class TestOracleArrayForm:
    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.dictionaries(
            st.tuples(st.integers(0, 29), st.integers(0, 12)), oracle_directions, max_size=60
        ),
        config=oracle_configs,
        extra_frames=st.integers(0, 3),
    )
    def test_bytes_and_draws_equal_reference_for_all_patterns(self, cells, config, extra_frames):
        annotation = ClipAnnotation(
            tuple(EventLabel(f, c, 0, d) for (f, c), d in cells.items())
        )
        label_frames = annotation.max_frame + 1 + extra_frames
        features = np.zeros((7, 4 * label_frames, 2))
        oracle = OraclePredictor({"c.wav": annotation}, config)
        for pattern_id in range(16):
            identity = ClipIdentity("c.wav", pattern_id)
            expected, ref_rng = oracle_reference(annotation, label_frames, identity, config)
            with mock.patch.object(predict_module, "_jitter_vectors", wraps=_jitter_vectors) as spy:
                seq = oracle.predict(features, identity, label_frames)
            assert seq.tobytes() == expected.tobytes()
            assert spy.called == (config.jitter_deg > 0)
            if spy.called:
                assert spy.call_args.args[2].bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 2), oracle_directions), max_size=12
        ),
        label_frames=st.integers(1, 12),
        pattern_id=st.integers(0, 15),
    )
    def test_encoding_errors_equal_reference(self, events, label_frames, pattern_id):
        # two same-class events in a frame, frames past the sequence, or both:
        # the first bad event in (frame, class, track) order names the error
        annotation = ClipAnnotation(
            tuple(EventLabel(f, c, track, d) for track, (f, c, d) in enumerate(events)), n_classes=3
        )
        identity = ClipIdentity("c.wav", pattern_id)
        config = OraclePredictorConfig()
        try:
            expected, _ = oracle_reference(annotation, label_frames, identity, config)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                OraclePredictor({"c.wav": annotation}).predict(
                    np.zeros((7, 4 * label_frames, 2)), identity, label_frames
                )
            assert str(raised.value) == str(exc)
        else:
            seq = OraclePredictor({"c.wav": annotation}).predict(
                np.zeros((7, 4 * label_frames, 2)), identity, label_frames
            )
            assert seq.tobytes() == expected.tobytes()

    def test_zero_elevations_of_both_signs_stay_apart(self):
        # Direction(0, 0.0) == Direction(0, -0.0), but their unit vectors differ in z's sign
        annotation = ClipAnnotation(
            (EventLabel(0, 0, 0, Direction(0.0, 0.0)), EventLabel(1, 0, 0, Direction(0.0, -0.0)))
        )
        oracle = OraclePredictor({"c": annotation})
        seq = oracle.predict(np.zeros((7, 8, 2)), ClipIdentity("c"), 2)
        assert np.signbit(seq[:, 0, 2]).tolist() == [False, True]
        assert len(oracle.annotations["c"].directions) == 2

    @pytest.mark.parametrize("pattern_id", [0, 7, 12])
    def test_two_same_class_events_in_a_frame_raise_encode_message(self, pattern_id):
        annotation = ClipAnnotation(
            (EventLabel(5, 2, 0, Direction(10.0, 0.0)), EventLabel(5, 2, 1, Direction(80.0, 0.0)))
        )
        oracle = OraclePredictor({"c": annotation})
        with pytest.raises(
            ValueError,
            match=r"^cannot encode two class-2 events in frame 5: single-track sequences hold one vector per class$",
        ):
            oracle.predict(np.zeros((7, 40, 2)), ClipIdentity("c", pattern_id), 10)

    @pytest.mark.parametrize("pattern_id", [0, 9])
    def test_frame_past_sequence_raises_encode_message(self, pattern_id):
        annotation = ClipAnnotation((EventLabel(12, 0, 0, Direction(10.0, 0.0)),))
        oracle = OraclePredictor({"c": annotation})
        with pytest.raises(ValueError, match=r"^event frame 12 outside sequence of 10 frames$"):
            oracle.predict(np.zeros((7, 40, 2)), ClipIdentity("c", pattern_id), 10)


class TestCheckPrediction:
    IDENT = ClipIdentity("clips/a.wav", 6)

    def test_contract_shape_passes(self):
        check_prediction(np.zeros((5, 13, 3)), self.IDENT, 5, 13)
        check_prediction(np.zeros((5, 2, 3)), self.IDENT, 5, None)  # any class count

    @pytest.mark.parametrize("shape", [(6, 13, 3), (4, 13, 3), (5, 12, 3), (5, 13, 2), (5, 39)])
    def test_wrong_shape_names_clip_and_pattern(self, shape):
        with pytest.raises(
            ValueError,
            match=r"clip 'clips/a.wav', rotation pattern 6: prediction shape .* expected \(5, 13, 3\)",
        ):
            check_prediction(np.zeros(shape), self.IDENT, 5, 13)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        seq = np.zeros((5, 13, 3))
        seq[2, 4, 1] = value
        with pytest.raises(ValueError, match="rotation pattern 6: non-finite"):
            check_prediction(seq, self.IDENT, 5, 13)

    def test_norm_bounded_not_components(self):
        seq = np.zeros((5, 13, 3))
        seq[0, 0] = [np.nextafter(1.0, 2.0), 0.0, 0.0]  # a unit vector one ulp long
        seq[1, 0] = [1.0, 1.0, 1.0]  # the longest vector of the [-1, 1] range
        check_prediction(seq, self.IDENT, 5, 13)
        seq[1, 0] *= 1.0 + 1e-12
        with pytest.raises(ValueError, match="norm .* exceeds sqrt\\(3\\)"):
            check_prediction(seq, self.IDENT, 5, 13)


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


# the error of an augment value other than {} and null: a run scores and does not augment
AUGMENT_KEY_ERROR = re.escape("run config augment must be {} or null") + ".*`seldkit augment` verb"


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

    @pytest.mark.parametrize("workers", [None, "1", "3", "0", "abc"])
    def test_workers_variable_is_not_read(self, small_dataset, monkeypatch, workers):
        # entries are scored one after another, whatever SELDKIT_WORKERS holds
        _, manifest_path = small_dataset
        config = self.config(manifest_path)
        monkeypatch.delenv("SELDKIT_WORKERS", raising=False)
        unset = run_pipeline(config)
        if workers is not None:
            monkeypatch.setenv("SELDKIT_WORKERS", workers)
        assert run_pipeline(config) == unset

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
        assert config.tta is None and not hasattr(config, "augment")
        with pytest.raises(ValueError, match="augmnet"):
            self.config(manifest_path, augmnet={})
        with pytest.raises(ValueError, match="workers"):
            self.config(manifest_path, workers=2)
        # a run augments nothing, so any augment section fails pointing to the verb
        with pytest.raises(ValueError, match=AUGMENT_KEY_ERROR):
            self.config(manifest_path, augment={"seed": 0})
        # a misspelled field inside a sub-config names the sub-config and the key
        with pytest.raises(ValueError, match="unknown run config tta keys: unify"):
            self.config(manifest_path, tta={"unify": 10.0})

    @pytest.mark.parametrize("field", ["n_time_masks", "max_time_frames", "n_freq_masks", "max_mel_bins"])
    def test_augment_mask_field_names_the_verb(self, small_dataset, field):
        # no run masks spectrograms, so a mask setting is not a run setting
        _, manifest_path = small_dataset
        with pytest.raises(ValueError, match=AUGMENT_KEY_ERROR):
            self.config(manifest_path, augment={field: 50})

    def test_metric_n_classes_is_the_run_n_classes(self, small_dataset):
        _, manifest_path = small_dataset
        with pytest.raises(ValueError, match="metric.n_classes"):
            self.config(manifest_path, metric={"n_classes": 10})
        with pytest.raises(ValueError, match="metric.n_classes 10 differs from the run's 13"):
            RunConfig(str(manifest_path), {"kind": "oracle"}, metric=MetricConfig(n_classes=10))
        assert RunConfig(str(manifest_path), {"kind": "oracle"}, n_classes=7).metric == MetricConfig(
            n_classes=7
        )

    @pytest.mark.parametrize("tta", [{}, {"activity_threshold": 0.6}, "default"])
    def test_decode_threshold_with_tta_rejected(self, small_dataset, tta):
        # TTA thresholds with tta.activity_threshold; decode_threshold would be ignored
        _, manifest_path = small_dataset
        overrides = {"decode_threshold": 0.9} if tta == "default" else {"tta": tta, "decode_threshold": 0.9}
        with pytest.raises(ValueError, match=r"decode_threshold .*tta\.activity_threshold"):
            self.config(manifest_path, **overrides)
        config = self.config(manifest_path, tta=None, decode_threshold=0.9)
        assert config.decode_threshold == 0.9

    @pytest.mark.parametrize("tta", [None, {}], ids=["direct", "tta"])
    def test_two_same_class_events_in_a_frame_fail_entry(self, small_dataset, tmp_path, tta):
        # the oracle cannot encode the clip; its entry fails with encode's message
        root, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        clip, annotation = two_event_scene(seed=8)
        ev = annotation.events[0]
        doubled = ClipAnnotation(
            annotation.events + (EventLabel(ev.frame, ev.class_id, 1, Direction(-60.0, 10.0)),)
        )
        write_wav(tmp_path / "double.wav", clip)
        write_labels(doubled, tmp_path / "double.csv")
        entries = load_manifest(manifest_path).entries + (
            ManifestEntry(str(tmp_path / "double.wav"), str(tmp_path / "double.csv"), "real"),
        )
        save_manifest(DatasetManifest(entries), tmp_path / "m.json")
        result = run_pipeline(self.config(tmp_path / "m.json", tta=tta))
        assert result["n_scored"] == 3
        assert result["scores"]["f20"] == 1.0
        assert [f["clip_path"] for f in result["failures"]] == [str(tmp_path / "double.wav")]
        assert (
            f"cannot encode two class-{ev.class_id} events in frame {ev.frame}: "
            "single-track sequences hold one vector per class"
        ) in result["failures"][0]["error"]

    def test_unread_predictor_key_fails_the_run(self, small_dataset):
        _, manifest_path = small_dataset
        config = self.config(manifest_path, predictor={"kind": "oracle", "jiter_deg": 30})
        with pytest.raises(ValueError, match="^unknown oracle predictor keys: jiter_deg$"):
            run_pipeline(config)

    def test_clip_with_two_label_files_rejected(self, small_dataset, tmp_path):
        root, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        first, second = load_manifest(manifest_path).entries[:2]
        entries = (first, ManifestEntry(first.clip_path, second.label_path, "emulated"))
        save_manifest(DatasetManifest(entries), tmp_path / "m.json")
        with pytest.raises(
            ValueError,
            match=f"clip {first.clip_path!r} is listed with two label files: "
            f"{first.label_path!r} and {second.label_path!r}",
        ):
            run_pipeline(self.config(tmp_path / "m.json"))
        # an entry repeated as it stands (an epoch drawn with replacement) still runs
        save_manifest(DatasetManifest((first, first)), tmp_path / "twice.json")
        assert run_pipeline(self.config(tmp_path / "twice.json"))["n_scored"] == 2

    def test_repeated_entry_reads_its_labels_once(self, small_dataset, tmp_path, monkeypatch):
        # sample_epoch draws with replacement, so an epoch may list a clip twice
        import seldkit.pipeline as pipeline_module
        from seldkit.manifest import load_manifest

        first = load_manifest(small_dataset[1]).entries[0]
        save_manifest(DatasetManifest((first,)), tmp_path / "once.json")
        save_manifest(DatasetManifest((first, first)), tmp_path / "twice.json")
        once = run_pipeline(self.config(tmp_path / "once.json"))
        calls = []
        read_labels = pipeline_module.read_labels
        monkeypatch.setattr(
            pipeline_module, "read_labels", lambda path, **kw: calls.append(path) or read_labels(path, **kw)
        )
        twice = run_pipeline(self.config(tmp_path / "twice.json"))
        assert calls == [first.label_path]
        # both repeats are scored: every count doubles
        assert twice["n_scored"] == 2
        assert {c: (v["tp"], v["ref_count"]) for c, v in twice["per_class"].items()} == {
            c: (2 * v["tp"], 2 * v["ref_count"]) for c, v in once["per_class"].items()
        }

    def test_external_clips_sharing_a_stem_fail_the_run(self, small_dataset, tmp_path):
        # a/x.wav and b/x.wav would both be scored against preds/x.acc
        _, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        entries = []
        for folder, entry in zip("ab", load_manifest(manifest_path).entries):
            (tmp_path / folder).mkdir()
            clip_path = str(tmp_path / folder / "x.wav")
            shutil.copy(entry.clip_path, clip_path)
            entries.append(ManifestEntry(clip_path, entry.label_path, "real"))
        (tmp_path / "preds").mkdir()
        save_tensor(tmp_path / "preds" / "x.acc", np.zeros((50, 13, 3)))
        predictor = {"kind": "external", "dir": str(tmp_path / "preds")}
        save_manifest(DatasetManifest(tuple(entries)), tmp_path / "m.json")
        a, b = (e.clip_path for e in entries)
        with pytest.raises(ValueError, match=re.escape(f"clips {a!r} and {b!r} share the file stem 'x'")):
            run_pipeline(self.config(tmp_path / "m.json", predictor=predictor, tta=None))
        # an entry repeated as it stands still runs
        save_manifest(DatasetManifest((entries[0], entries[0])), tmp_path / "twice.json")
        result = run_pipeline(self.config(tmp_path / "twice.json", predictor=predictor, tta=None))
        assert result["n_scored"] == 2

    @pytest.mark.parametrize("tta", [None, {}], ids=["direct", "tta"])
    @pytest.mark.parametrize("predictor", ["constant", "oracle"])
    def test_label_past_clip_end_fails_entry(self, small_dataset, tmp_path, predictor, tta):
        # a 2 s clip has 20 label frames (0-19); its label sits in frame 45
        root, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        clip, annotation = two_event_scene(seed=7)
        short = AudioClip(clip.samples[:, :48000], clip.sample_rate)
        ev = annotation.events[0]
        late = ClipAnnotation((EventLabel(45, ev.class_id, 0, ev.direction),))
        write_wav(tmp_path / "short.wav", short)
        write_labels(late, tmp_path / "short.csv")
        entries = load_manifest(manifest_path).entries + (
            ManifestEntry(str(tmp_path / "short.wav"), str(tmp_path / "short.csv"), "real"),
        )
        save_manifest(DatasetManifest(entries), tmp_path / "m.json")
        result = run_pipeline(self.config(tmp_path / "m.json", predictor={"kind": predictor}, tta=tta))
        assert result["n_scored"] == 3
        assert [f["clip_path"] for f in result["failures"]] == [str(tmp_path / "short.wav")]
        assert result["failures"][0]["error"] == (
            f"ValueError: {tmp_path / 'short.csv'}: label frame 45 is past the end of the clip, "
            "which has 20 label frames"
        )

    def test_min_candidates_above_16_loads(self, small_dataset):
        _, manifest_path = small_dataset
        # an ensemble gives up to 16 candidates per model; run_tta checks the bound
        config = self.config(manifest_path, tta={"min_candidates": 17})
        assert config.tta == TtaConfig(min_candidates=17)
        with pytest.raises(ValueError, match="min_candidates must be >= 1"):
            self.config(manifest_path, tta={"min_candidates": 0})

    def test_non_finite_wav_fails_entry(self, small_dataset, tmp_path):
        root, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        manifest = load_manifest(manifest_path)
        clip, _ = two_event_scene(seed=100)
        samples = clip.samples.copy()
        samples[2, 1234] = np.nan
        nan_path = tmp_path / "nan.wav"
        write_wav(nan_path, AudioClip(samples))
        with_nan = DatasetManifest(
            manifest.entries[:1]
            + (ManifestEntry(str(nan_path), manifest.entries[0].label_path, "real"),)
            + manifest.entries[1:]
        )
        nan_manifest = tmp_path / "nan.json"
        save_manifest(with_nan, nan_manifest)
        result = run_pipeline(self.config(nan_manifest))
        assert result["n_scored"] == 3
        assert result["scores"]["f20"] == 1.0
        assert [f["clip_path"] for f in result["failures"]] == [str(nan_path)]
        assert "non-finite sample at channel 2, sample 1234" in result["failures"][0]["error"]

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

    def test_bad_label_files_fail_their_entries(self, small_dataset, tmp_path):
        # a malformed and a missing label file fail their clips' entries, in
        # manifest order; the other entries score as a manifest of them alone
        _, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        first, second, third = load_manifest(manifest_path).entries
        rows = Path(second.label_path).read_text().splitlines()
        rows[3] = ",".join(rows[3].split(",")[:3])
        (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
        malformed = ManifestEntry(second.clip_path, str(tmp_path / "bad.csv"), "real")
        missing = ManifestEntry(third.clip_path, str(tmp_path / "missing.csv"), "real")
        save_manifest(DatasetManifest((missing, first, malformed, first, missing)), tmp_path / "m.json")
        save_manifest(DatasetManifest((first, first)), tmp_path / "good.json")
        result = run_pipeline(self.config(tmp_path / "m.json"))
        assert result["n_entries"] == 5 and result["n_scored"] == 2
        assert [f["clip_path"] for f in result["failures"]] == [third.clip_path, second.clip_path, third.clip_path]
        assert result["failures"][0]["error"].startswith("FileNotFoundError: ")
        assert str(tmp_path / "missing.csv") in result["failures"][0]["error"]
        assert result["failures"][1]["error"] == (
            f"ValueError: {tmp_path / 'bad.csv'}:4: expected 5 columns "
            "(frame,class_id,track_id,azimuth,elevation), got 3"
        )
        scored = run_pipeline(self.config(tmp_path / "good.json"))
        for key in ("scores", "per_class"):
            assert result[key] == scored[key]

    @pytest.mark.parametrize("tta", [None, {}], ids=["direct", "tta"])
    def test_truncated_clip_fails_only_its_entry(self, small_dataset, tmp_path, tta):
        # a WAV cut short of its header fails its entry by name, and the others
        # score as a manifest of them alone
        _, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        first, second, third = load_manifest(manifest_path).entries
        data = Path(second.clip_path).read_bytes()
        (tmp_path / "cut.wav").write_bytes(data[: len(data) - 16000])
        cut = ManifestEntry(str(tmp_path / "cut.wav"), second.label_path, "real")
        save_manifest(DatasetManifest((first, cut, third)), tmp_path / "m.json")
        save_manifest(DatasetManifest((first, third)), tmp_path / "good.json")
        result = run_pipeline(self.config(tmp_path / "m.json", tta=tta))
        assert result["n_entries"] == 3 and result["n_scored"] == 2
        [failure] = result["failures"]
        assert failure["clip_path"] == str(tmp_path / "cut.wav")
        assert failure["error"].startswith(f"ValueError: {tmp_path / 'cut.wav'}: malformed WAV: Reached EOF prematurely")
        scored = run_pipeline(self.config(tmp_path / "good.json", tta=tta))
        for key in ("scores", "per_class"):
            assert result[key] == scored[key]

    def test_failures_listed_in_manifest_order(self, small_dataset, tmp_path):
        # entries 0 and 2 fail, 1 and 3 score as a manifest of those two alone
        _, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        first, second = load_manifest(manifest_path).entries[:2]
        clip, _ = two_event_scene(seed=101)
        samples = clip.samples.copy()
        samples[0, 99] = np.nan
        write_wav(tmp_path / "nan.wav", AudioClip(samples))
        missing = ManifestEntry(str(tmp_path / "missing.wav"), first.label_path, "real")
        nan = ManifestEntry(str(tmp_path / "nan.wav"), second.label_path, "real")
        save_manifest(DatasetManifest((missing, first, nan, second)), tmp_path / "four.json")
        save_manifest(DatasetManifest((first, second)), tmp_path / "two.json")
        result = run_pipeline(self.config(tmp_path / "four.json"))
        assert [f["clip_path"] for f in result["failures"]] == [missing.clip_path, nan.clip_path]
        assert result["failures"][0]["error"].startswith("FileNotFoundError: ")
        assert result["failures"][1]["error"] == (
            f"ValueError: {nan.clip_path}: non-finite sample at channel 0, sample 99"
        )
        scored = run_pipeline(self.config(tmp_path / "two.json"))
        assert result["n_entries"] == 4 and result["n_scored"] == scored["n_scored"] == 2
        for key in ("scores", "per_class"):
            assert result[key] == scored[key]

    @pytest.mark.parametrize("reading", [False, True], ids=["oracle", "reading"])
    def test_every_clip_is_checked_once_before_any_entry_is_scored(
        self, small_dataset, tmp_path, monkeypatch, caplog, reading
    ):
        # a missing WAV, a NaN WAV, a label file that fails (once with a missing WAV
        # too), and a clip listed twice, among good entries
        _, manifest_path = small_dataset
        from seldkit.manifest import load_manifest

        first, second, third = load_manifest(manifest_path).entries
        clip, _ = two_event_scene(seed=102)
        samples = clip.samples.copy()
        samples[1, 7] = np.nan
        write_wav(tmp_path / "nan.wav", AudioClip(samples))
        (tmp_path / "bad.csv").write_text("0,1,0,10\n")
        missing = ManifestEntry(str(tmp_path / "missing.wav"), first.label_path, "real")
        nan = ManifestEntry(str(tmp_path / "nan.wav"), second.label_path, "real")
        bad = ManifestEntry(third.clip_path, str(tmp_path / "bad.csv"), "real")
        gone = ManifestEntry(str(tmp_path / "gone.wav"), str(tmp_path / "bad.csv"), "real")
        entries = (first, missing, nan, bad, second, gone, first, nan)
        save_manifest(DatasetManifest(entries), tmp_path / "m.json")
        save_manifest(DatasetManifest((first, second, first)), tmp_path / "good.json")
        if reading:
            monkeypatch.setattr(seldkit.pipeline, "make_predictor", lambda *a, **k: IntensityPredictor())
        scored = run_pipeline(self.config(tmp_path / "good.json", tta=None))

        calls = []
        for name, kind in (("read_wav_info", "check"), ("read_wav", "read"), ("evaluate_stats", "score")):
            original = getattr(seldkit.pipeline, name)
            monkeypatch.setattr(
                seldkit.pipeline, name,
                lambda *a, _original=original, _kind=kind, **k: calls.append((_kind, a[0])) or _original(*a, **k),
            )
        caplog.clear()
        with caplog.at_level("WARNING", logger="seldkit.pipeline"):
            result = run_pipeline(self.config(tmp_path / "m.json", tta=None))

        label_error = (
            f"ValueError: {tmp_path / 'bad.csv'}:1: expected 5 columns "
            "(frame,class_id,track_id,azimuth,elevation), got 4"
        )
        expected = [
            (missing.clip_path, f"FileNotFoundError: [Errno 2] No such file or directory: {missing.clip_path!r}"),
            (nan.clip_path, f"ValueError: {nan.clip_path}: non-finite sample at channel 1, sample 7"),
            (bad.clip_path, label_error),
            (gone.clip_path, label_error),  # the label error, not the missing WAV
            (nan.clip_path, f"ValueError: {nan.clip_path}: non-finite sample at channel 1, sample 7"),
        ]
        assert [(f["clip_path"], f["error"]) for f in result["failures"]] == expected
        assert [r.getMessage() for r in caplog.records] == [
            f"entry {path} failed: {error.split(': ', 1)[1]}" for path, error in expected
        ]
        assert result["n_entries"] == 8 and result["n_scored"] == scored["n_scored"] == 3
        for key in ("scores", "per_class"):
            assert result[key] == scored[key]
        # each distinct clip whose labels parsed is checked once, all before the first score;
        # a model that reads features reads each scored entry's samples as it scores it
        checks = [("check", path) for path in (first.clip_path, missing.clip_path, nan.clip_path, second.clip_path)]
        reads = [("read", path) for path in (first.clip_path, second.clip_path, first.clip_path)]
        scoring = [c for c in calls if c[0] != "check"]
        assert calls[: len(checks)] == checks and len(calls) == len(checks) + len(scoring)
        assert [c for c in scoring if c[0] == "read"] == (reads if reading else [])
        assert [c[0] for c in scoring] == (["read", "score"] if reading else ["score"]) * 3

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

    @pytest.mark.parametrize("tta", [None, {}], ids=["direct", "tta"])
    @pytest.mark.parametrize(
        "bad",
        ["more_frames", "fewer_frames", "fewer_classes", "too_long"],
    )
    def test_prediction_outside_contract_fails_entry(self, small_dataset, tmp_path, tta, bad):
        # 5 s clips need (50, 13, 3); scene1's tensors break the contract
        # under every pattern, so the check names pattern 0, the first read
        root, manifest_path = small_dataset
        broken = {
            "more_frames": np.zeros((87, 13, 3)),
            "fewer_frames": np.zeros((30, 13, 3)),
            "fewer_classes": np.zeros((50, 9, 3)),
            "too_long": np.full((50, 13, 3), 1.0),
        }[bad]
        broken[3, 4] = [1.0, 1.0, 1.001]
        for i in range(3):
            for pattern_id in range(16):
                seq = broken if i == 1 else np.zeros((50, 13, 3))
                name = f"scene{i}.acc" if pattern_id == 0 else f"scene{i}.p{pattern_id:02d}.acc"
                save_tensor(tmp_path / name, seq)
        config = self.config(
            manifest_path, predictor={"kind": "external", "dir": str(tmp_path)}, tta=tta
        )
        result = run_pipeline(config)
        assert result["n_scored"] == 2
        clip_path = str(root / "scene1.wav")
        assert [f["clip_path"] for f in result["failures"]] == [clip_path]
        error = result["failures"][0]["error"]
        assert error.startswith(f"ValueError: clip {clip_path!r}, rotation pattern 0: ")
        if bad == "too_long":
            assert "exceeds sqrt(3)" in error
        else:
            assert f"prediction shape {broken.shape}, expected (50, 13, 3)" in error

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


@pytest.fixture
def extractions(monkeypatch):
    """Count ``extract_features`` calls made by the direct and the TTA path."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return extract_features(*args, **kwargs)

    monkeypatch.setattr(seldkit.pipeline, "extract_features", counting)
    monkeypatch.setattr(seldkit.tta, "extract_features", counting)
    return calls


def built_in_predictor(kind, root, pred_dir):
    """The spec of a built-in predictor kind; an external one serves the
    oracle's predictions of the small dataset from files in ``pred_dir``."""
    predictor = {"kind": kind}
    if kind == "external":
        for i in range(3):
            clip_path = str(root / f"scene{i}.wav")
            oracle = OraclePredictor({clip_path: read_labels(root / f"scene{i}.csv")})
            for p in all_patterns():
                seq = oracle.predict(None, ClipIdentity(clip_path, p.id), 50)
                save_tensor(pred_dir / f"scene{i}.p{p.id:02d}.acc", seq)
        predictor["dir"] = str(pred_dir)
    return predictor


class TestScoringPathBuildsNoEventObjects:
    @pytest.mark.parametrize(("kind", "tta"), [("oracle", None), ("external", {})], ids=["oracle-direct", "external-tta"])
    def test_run_builds_no_event_and_one_direction_per_text_pair(self, small_dataset, tmp_path, monkeypatch, kind, tta):
        root, manifest_path = small_dataset
        config = RunConfig.from_dict(
            {"manifest": str(manifest_path), "predictor": built_in_predictor(kind, root, tmp_path), "tta": tta}
        )
        text_pairs = 0
        for i in range(3):
            rows = (root / f"scene{i}.csv").read_text().splitlines()
            text_pairs += len({tuple(row.split(",")[3:]) for row in rows})
        counts = count_constructions(monkeypatch)
        result = run_pipeline(config)
        assert result["n_scored"] == 3 and result["failures"] == []
        assert counts["EventLabel"] == 0 and counts["DetectedEvent"] == 0
        assert 0 < counts["Direction"] <= text_pairs

    def test_oracle_tta_run_builds_no_event_and_one_direction_per_text_pair_and_pattern(
        self, small_dataset, monkeypatch
    ):
        # read_labels builds one Direction per text pair, and each of the 15
        # rotated predictions of a clip one per distinct direction
        root, manifest_path = small_dataset
        config = RunConfig.from_dict({"manifest": str(manifest_path), "predictor": {"kind": "oracle"}})
        text_pairs = sum(len(read_labels(root / f"scene{i}.csv").directions) for i in range(3))
        counts = count_constructions(monkeypatch)
        result = run_pipeline(config)
        assert result["n_scored"] == 3 and result["failures"] == []
        assert counts["EventLabel"] == 0 and counts["DetectedEvent"] == 0
        assert counts["Direction"] == 16 * text_pairs


class RecordingPredictor:
    """Passes calls through to ``model``, keeping the features each call was given."""

    def __init__(self, model, reads):
        self.model, self.reads_features, self.seen = model, reads, []

    def predict(self, features, identity, label_frames):
        self.seen.append(features)
        return self.model.predict(features, identity, label_frames)


class TestFeaturesOnlyForReadingModels:
    def config(self, manifest_path, predictor, tta):
        return RunConfig.from_dict({"manifest": str(manifest_path), "predictor": predictor, "tta": tta})

    @pytest.mark.parametrize("tta", [{}, None], ids=["tta", "direct"])
    @pytest.mark.parametrize("kind", ["oracle", "constant", "external"])
    def test_built_in_predictors_extract_nothing(self, small_dataset, tmp_path, extractions, kind, tta):
        root, manifest_path = small_dataset
        predictor = built_in_predictor(kind, root, tmp_path)
        result = run_pipeline(self.config(manifest_path, predictor, tta))
        assert result["n_scored"] == 3 and result["failures"] == []
        assert extractions == []

    @pytest.mark.parametrize("tta", [{}, None], ids=["tta", "direct"])
    @pytest.mark.parametrize("kind", ["oracle", "constant", "external"])
    def test_built_in_predictors_convert_no_samples(self, small_dataset, tmp_path, conversions, kind, tta):
        root, manifest_path = small_dataset
        result = run_pipeline(self.config(manifest_path, built_in_predictor(kind, root, tmp_path), tta))
        assert result["n_scored"] == 3 and result["failures"] == []
        assert conversions == []

    @pytest.mark.parametrize("tta", [{}, None], ids=["tta", "direct"])
    def test_reading_predictor_converts_each_entry_once(self, small_dataset, monkeypatch, conversions, tta):
        _, manifest_path = small_dataset
        monkeypatch.setattr(seldkit.pipeline, "make_predictor", lambda *a, **k: IntensityPredictor())
        result = run_pipeline(self.config(manifest_path, {"kind": "constant"}, tta))
        assert result["n_scored"] == 3
        assert conversions == [(120000, 4)] * 3

    def test_tta_on_wav_info_equals_tta_on_the_clip(self, tmp_path):
        clip, annotation = two_event_scene(seed=12)
        write_wav(tmp_path / "c.wav", clip)
        oracle = OraclePredictor({"clip": annotation}, OraclePredictorConfig(jitter_deg=5.0))
        info = read_wav_info(tmp_path / "c.wav")
        assert info == WavInfo(clip.sample_rate, clip.n_samples)
        assert run_tta(oracle, info, ClipIdentity("clip")) == run_tta(oracle, clip, ClipIdentity("clip"))
        with pytest.raises(TypeError, match="needs the clip's samples, got WavInfo"):
            run_tta([oracle, IntensityPredictor()], info, ClipIdentity("clip"))

    def test_mixed_ensemble_extracts_once_and_feeds_only_the_reader(self, extractions):
        clip, annotation = two_event_scene(seed=12)
        oracle = RecordingPredictor(OraclePredictor({"clip": annotation}), reads=False)
        reader = RecordingPredictor(IntensityPredictor(), reads=True)
        run_tta([oracle, reader], clip, ClipIdentity("clip"))
        assert len(extractions) == 1
        assert oracle.seen == [None] * 16
        features = extract_features(clip)
        for p, seen in zip(all_patterns(), reader.seen, strict=True):
            assert np.array_equal(seen, apply_to_features(features, p)), p.id

    @pytest.mark.parametrize("tta", [{}, None], ids=["tta", "direct"])
    def test_predictor_without_the_attribute_reads_features(
        self, small_dataset, monkeypatch, extractions, tta
    ):
        assert not hasattr(IntensityPredictor, "reads_features")
        _, manifest_path = small_dataset
        monkeypatch.setattr(seldkit.pipeline, "make_predictor", lambda *a, **k: IntensityPredictor())
        result = run_pipeline(self.config(manifest_path, {"kind": "constant"}, tta))
        assert result["n_scored"] == 3
        assert len(extractions) == 3  # one per clip

    @pytest.mark.parametrize("tta", [{}, None], ids=["tta", "direct"])
    def test_reading_predictor_events_equal_hand_calls(self, small_dataset, monkeypatch, tta):
        root, manifest_path = small_dataset
        model = IntensityPredictor()
        monkeypatch.setattr(seldkit.pipeline, "make_predictor", lambda *a, **k: model)
        scored = []
        evaluate = seldkit.pipeline.evaluate_stats

        def recording(events, annotation, config):
            scored.append(events)
            return evaluate(events, annotation, config)

        monkeypatch.setattr(seldkit.pipeline, "evaluate_stats", recording)
        config = self.config(manifest_path, {"kind": "constant"}, tta)
        run_pipeline(config)
        by_hand = []
        for i in range(3):
            clip_path = str(root / f"scene{i}.wav")
            clip = read_wav(clip_path)
            frames = config.feature.label_frames(clip.n_samples)
            if tta is None:
                seq = model.predict(extract_features(clip), ClipIdentity(clip_path), frames)
                by_hand.append(decode(seq, 0.5))
                continue
            predictions = []
            for p in all_patterns():
                rotated = extract_features(apply_to_audio(clip, p))
                predictions.append((p.id, model.predict(rotated, ClipIdentity(clip_path, p.id), frames)))
            candidates = collect_candidates(predictions, config.tta.activity_threshold)
            by_hand.append(aggregate(candidates, config.tta))
        assert all(by_hand)
        assert scored == by_hand

    def test_rate_mismatch_still_fails_a_non_reading_run(self):
        clip, annotation = two_event_scene(seed=12)
        slow = AudioClip(clip.samples, sample_rate=16000)
        with pytest.raises(ValueError, match="clip rate 16000 != config rate 24000"):
            run_tta(OraclePredictor({"clip": annotation}), slow, ClipIdentity("clip"))


class TestRunDocumentAugmentKey:
    """A run augments nothing: ``augment`` loads as {} or null, and any other value fails naming the verb."""

    @pytest.mark.parametrize("tta", [{}, None], ids=["tta", "direct"])
    @pytest.mark.parametrize("kind", ["oracle", "constant", "external", "reading"])
    def test_empty_or_null_scores_as_no_key(self, small_dataset, tmp_path, monkeypatch, kind, tta):
        root, manifest_path = small_dataset
        if kind == "reading":  # a model that reads its features, so an augmented input would move its scores
            monkeypatch.setattr(seldkit.pipeline, "make_predictor", lambda *a, **k: IntensityPredictor())
            kind = "constant"
        predictor = built_in_predictor(kind, root, tmp_path)
        doc = {"manifest": str(manifest_path), "predictor": predictor, "tta": tta}
        plain, keyed = tmp_path / "plain.json", tmp_path / "keyed.json"
        result = run_pipeline(RunConfig.from_dict(doc))
        assert result["n_scored"] == 3 and result["failures"] == []
        write_scores(result, plain)
        for value in ({}, None):
            config = RunConfig.from_dict({**doc, "augment": value})
            assert config == RunConfig.from_dict(doc)
            write_scores(run_pipeline(config), keyed)
            assert keyed.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "value",
        [[], 0, "", False] + [{f.name: list(f.default)} for f in dataclasses.fields(AugmentConfig)],
        ids=repr,
    )
    def test_any_other_value_names_the_verb(self, value):
        # a section that sets any AugmentConfig range fails, its default included
        with pytest.raises(ValueError, match=f"^{AUGMENT_KEY_ERROR}$"):
            RunConfig.from_dict({"manifest": "m.json", "predictor": {"kind": "oracle"}, "augment": value})

    def test_pipeline_import_loads_no_augmentation(self):
        script = "import sys, seldkit.pipeline; print(sorted({'seldkit.augment', 'scipy.signal'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(Path(seldkit.pipeline.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["[]"]
