import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import seldkit
from seldkit.accdoa import encode, read_events, write_events
from seldkit.audio import read_wav, write_wav
from seldkit.cli import main, parse_model_spec
from seldkit.labels import ClipAnnotation, read_labels, write_labels
from seldkit.manifest import DatasetManifest, ManifestEntry, load_manifest, save_manifest
from seldkit.rotation import all_patterns, apply_to_direction
from seldkit.predict import ClipIdentity, ConstantPredictor, ExternalFilePredictor, OraclePredictorConfig, make_predictor
from seldkit.tensorio import load_tensor, save_tensor
from seldkit.tta import run_tta

from conftest import two_event_scene, write_mono_wav


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scene_files(tmp_path):
    clip, annotation = two_event_scene(seed=42)
    wav = tmp_path / "scene.wav"
    csv = tmp_path / "scene.csv"
    write_wav(wav, clip)
    write_labels(annotation, csv)
    return wav, csv, annotation


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestFeaturesCli:
    def test_extract(self, runner, scene_files, tmp_path):
        wav, _, _ = scene_files
        out = tmp_path / "scene.feat"
        run_ok(runner, ["features", "extract", "--in", str(wav), "--out", str(out)])
        tensor, header = load_tensor(out)
        assert tensor.shape == (7, 201, 64)
        assert header["channel_names"][0] == "logmel_w"


class TestRotateCli:
    def test_rotates_audio_and_labels(self, runner, scene_files, tmp_path):
        wav, csv, annotation = scene_files
        prefix = tmp_path / "rot"
        run_ok(
            runner,
            ["rotate", "--pattern", "6", "--in", str(wav), "--labels", str(csv),
             "--out-prefix", str(prefix)],
        )
        rotated = read_wav(f"{prefix}.wav")
        original = read_wav(wav)
        np.testing.assert_allclose(rotated.samples[0], original.samples[0], atol=1e-7)
        labels = read_labels(f"{prefix}.csv")
        assert len(labels.events) == len(annotation.events)

    def test_labels_equal_per_event_rotation_for_all_patterns(self, runner, scene_files, tmp_path):
        # repeated, respelled and signed-zero direction texts
        wav, _, _ = scene_files
        rows = ["0,2,0,30,10", "1,2,0,30,10", "1,5,1,30.0,10", "2,5,1,180,-0.0", "3,5,1,-180.0,0",
                "4,0,0,-90,-45.5", "4,2,2,1e1,90", "7,12,0,-0.0,-90"]
        (tmp_path / "in.csv").write_text("\n".join(rows) + "\n")
        annotation = read_labels(tmp_path / "in.csv")
        for p in all_patterns():
            reference = ClipAnnotation(
                tuple(replace(ev, direction=apply_to_direction(ev.direction, p)) for ev in annotation.events)
            )
            write_labels(reference, tmp_path / "ref.csv")
            prefix = tmp_path / f"rot{p.id}"
            run_ok(
                runner,
                ["rotate", "--pattern", str(p.id), "--in", str(wav), "--labels", str(tmp_path / "in.csv"),
                 "--out-prefix", str(prefix)],
            )
            assert Path(f"{prefix}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestAugmentCli:
    def test_augment_deterministic_under_seed(self, runner, scene_files, tmp_path):
        wav, _, _ = scene_files
        out1, out2 = tmp_path / "a1.wav", tmp_path / "a2.wav"
        run_ok(runner, ["augment", "--in", str(wav), "--out", str(out1), "--seed", "9"])
        run_ok(runner, ["augment", "--in", str(wav), "--out", str(out2), "--seed", "9"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_mask_field_is_an_unknown_config_field(self, runner, scene_files, tmp_path):
        # spectrogram masks are spec_augment arguments, not waveform settings
        wav, _, _ = scene_files
        config = tmp_path / "aug.json"
        config.write_text(json.dumps({"n_time_masks": 50}))
        result = runner.invoke(
            main, ["augment", "--config", str(config), "--in", str(wav), "--out", str(tmp_path / "a.wav")]
        )
        assert result.exit_code != 0
        assert isinstance(result.exception, ValueError)
        assert f"unknown augment config {config} keys: n_time_masks" in str(result.exception)


class TestEmulateCli:
    def test_emulate_scene(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        write_mono_wav(tmp_path / "s0.wav", rng.standard_normal(24000) * 0.2)
        library = {"samples": [{"sample_id": "s0", "class_id": 3, "path": "s0.wav"}]}
        (tmp_path / "lib.json").write_text(json.dumps(library))
        spec = {
            "duration_s": 2.0,
            "snr_db": 30.0,
            "seed": 1,
            "events": [
                {"class_id": 3, "sample_id": "s0", "onset_s": 0.5, "azimuth": 45.0, "elevation": 10.0}
            ],
        }
        (tmp_path / "scene.json").write_text(json.dumps(spec))
        prefix = tmp_path / "emu"
        run_ok(
            runner,
            ["emulate", "--spec", str(tmp_path / "scene.json"), "--library",
             str(tmp_path / "lib.json"), "--out-prefix", str(prefix)],
        )
        clip = read_wav(f"{prefix}.wav")
        assert clip.n_samples == 48000
        labels = read_labels(f"{prefix}.csv")
        assert {e.class_id for e in labels.events} == {3}

    def test_seed_option_overrides_only_the_seed(self, runner, tmp_path):
        write_mono_wav(tmp_path / "s0.wav", np.random.default_rng(0).standard_normal(24000) * 0.2)
        (tmp_path / "lib.json").write_text(json.dumps({"samples": [{"sample_id": "s0", "class_id": 3, "path": "s0.wav"}]}))
        event = {"class_id": 3, "sample_id": "s0", "onset_s": 0.5, "azimuth": 45.0, "elevation": 10.0}
        outputs = {}
        for name, spec_seed, option in (("override", 1, ["--seed", "5"]), ("spec", 5, []), ("unset", 1, [])):
            spec = {"duration_s": 2.0, "snr_db": 7.5, "seed": spec_seed, "events": [event]}
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))
            run_ok(runner, ["emulate", "--spec", str(tmp_path / f"{name}.json"), "--library",
                            str(tmp_path / "lib.json"), "--out-prefix", str(tmp_path / name), *option])
            outputs[name] = [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("wav", "csv")]
        assert outputs["override"] == outputs["spec"]
        assert outputs["override"][0] != outputs["unset"][0]

    @pytest.mark.parametrize(
        "scene_keys, event_keys, message",
        [
            ({"seeed": 3}, {}, "unknown scene spec keys: seeed"),
            ({"snr": 5, "seed": 2}, {}, "unknown scene spec keys: snr"),
            ({}, {"elevaton": 40.0}, "unknown scene spec event 1 keys: elevaton"),
        ],
    )
    def test_unknown_spec_key_rejected(self, runner, tmp_path, scene_keys, event_keys, message):
        # ignoring the key would render the scene with the default seed, SNR or elevation
        write_mono_wav(tmp_path / "s0.wav", np.random.default_rng(0).standard_normal(24000) * 0.2)
        library = {"samples": [{"sample_id": "s0", "class_id": 3, "path": "s0.wav"}]}
        (tmp_path / "lib.json").write_text(json.dumps(library))
        event = {"class_id": 3, "sample_id": "s0", "onset_s": 0.5, "azimuth": 45.0, "elevation": 10.0}
        spec = {"duration_s": 2.0, "events": [event, {**event, **event_keys}], **scene_keys}
        (tmp_path / "scene.json").write_text(json.dumps(spec))
        result = runner.invoke(
            main,
            ["emulate", "--spec", str(tmp_path / "scene.json"), "--library", str(tmp_path / "lib.json"),
             "--out-prefix", str(tmp_path / "emu")],
        )
        assert result.exit_code != 0
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == message
        assert not (tmp_path / "emu.wav").exists()

    @pytest.mark.parametrize(
        "library_keys, sample_keys, message",
        [
            ({"sample_rate": 48000}, {}, "unknown sample library {} keys: sample_rate"),
            ({}, {"gain_db": -12}, "unknown sample library {} sample 1 keys: gain_db"),
        ],
    )
    def test_unknown_library_key_rejected(self, runner, tmp_path, library_keys, sample_keys, message):
        # ignoring the key would mix the sample at its file's gain or rate
        rng = np.random.default_rng(0)
        for name in ("s0", "s1"):
            write_mono_wav(tmp_path / f"{name}.wav", rng.standard_normal(24000) * 0.2)
        samples = [
            {"sample_id": "s0", "class_id": 3, "path": "s0.wav"},
            {"sample_id": "s1", "class_id": 4, "path": "s1.wav", **sample_keys},
        ]
        (tmp_path / "lib.json").write_text(json.dumps({"samples": samples, **library_keys}))
        event = {"class_id": 3, "sample_id": "s0", "onset_s": 0.5, "azimuth": 45.0, "elevation": 10.0}
        (tmp_path / "scene.json").write_text(json.dumps({"duration_s": 2.0, "events": [event]}))
        result = runner.invoke(
            main,
            ["emulate", "--spec", str(tmp_path / "scene.json"), "--library", str(tmp_path / "lib.json"),
             "--out-prefix", str(tmp_path / "emu")],
        )
        assert result.exit_code != 0
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == message.format(tmp_path / "lib.json")
        assert not (tmp_path / "emu.wav").exists()


class TestDatasetCli:
    def manifests(self, tmp_path):
        real = DatasetManifest(
            tuple(ManifestEntry(f"r{i}.wav", f"r{i}.csv", "real") for i in range(4))
        )
        emulated = DatasetManifest(
            tuple(ManifestEntry(f"e{i}.wav", f"e{i}.csv", "emulated") for i in range(12))
        )
        save_manifest(real, tmp_path / "real.json")
        save_manifest(emulated, tmp_path / "emu.json")
        return tmp_path / "real.json", tmp_path / "emu.json"

    def test_sample_epoch(self, runner, tmp_path):
        real_path, emu_path = self.manifests(tmp_path)
        out = tmp_path / "epoch.json"
        run_ok(
            runner,
            ["dataset", "sample-epoch", "--real", str(real_path), "--emulated",
             str(emu_path), "--out", str(out), "--seed", "3"],
        )
        epoch = load_manifest(out)
        assert len(epoch) == 8

    def test_kfold(self, runner, tmp_path):
        entries = []
        for i in range(8):
            label = tmp_path / f"k{i}.csv"
            label.write_text(f"0,{i % 2},0,0.0,0.0\n")
            entries.append(ManifestEntry(f"k{i}.wav", str(label), "emulated"))
        save_manifest(DatasetManifest(tuple(entries)), tmp_path / "m.json")
        run_ok(
            runner,
            ["dataset", "kfold", "--manifest", str(tmp_path / "m.json"), "--k", "4",
             "--out-prefix", str(tmp_path / "split"), "--n-classes", "2"],
        )
        folds = [load_manifest(tmp_path / f"split.fold{i}.json") for i in range(4)]
        assert sum(len(f) for f in folds) == 8
        assert all(len(f) == 2 for f in folds)


class TestAccdoaCli:
    def test_decode(self, runner, scene_files, tmp_path):
        _, _, annotation = scene_files
        seq = encode(annotation, label_frames=50)
        save_tensor(tmp_path / "p.acc", seq)
        out = tmp_path / "events.csv"
        run_ok(
            runner,
            ["accdoa", "decode", "--in", str(tmp_path / "p.acc"), "--tau", "0.5",
             "--out", str(out)],
        )
        events = read_events(out)
        assert len(events) == len(annotation.events)


class TestModelSpec:
    def parse(self, spec):
        return parse_model_spec(spec, "scene.wav", 13)

    def test_strings_parse_to_make_predictor_mappings(self, scene_files, tmp_path):
        _, csv, annotation = scene_files
        assert self.parse(f"oracle:{csv}") == (
            {"kind": "oracle"},
            {"scene.wav": annotation},
        )
        assert self.parse("constant") == ({"kind": "constant"}, None)
        assert self.parse("constant:0.25") == ({"kind": "constant", "value": 0.25}, None)
        assert self.parse(f"external:{tmp_path}") == ({"kind": "external", "dir": str(tmp_path)}, None)
        assert make_predictor(*self.parse("constant:0.25")).value == 0.25
        assert isinstance(make_predictor(*self.parse("constant")), ConstantPredictor)
        assert isinstance(make_predictor(*self.parse(f"external:{tmp_path}")), ExternalFilePredictor)
        oracle = make_predictor(*self.parse(f"oracle:{csv}"))
        assert oracle.config == OraclePredictorConfig()

    @pytest.mark.parametrize("spec", ["oracle", "oracle:", "external", "warp-drive", "warp:x"])
    def test_malformed_rejected(self, spec):
        with pytest.raises(click.UsageError, match="expected oracle:<labels.csv>"):
            self.parse(spec)

    @pytest.mark.parametrize("spec", ["constant:abc", "constant:0.5x", "constant:true"])
    def test_constant_value_must_be_a_number(self, spec):
        # the same rule as a run document's constant.value, which is a JSON number
        with pytest.raises(click.UsageError, match="the constant value must be a number"):
            self.parse(spec)


class TestTtaCli:
    def test_oracle_tta_run(self, runner, scene_files, tmp_path, conversions):
        wav, csv, annotation = scene_files
        out = tmp_path / "tta_events.csv"
        run_ok(
            runner,
            ["tta", "run", "--model", f"oracle:{csv}", "--in", str(wav), "--out", str(out)],
        )
        # the oracle reads no features, so the run converts no samples to float64
        assert conversions == []
        events = read_events(out)
        assert len(events) == len(annotation.events)
        oracle = make_predictor(*parse_model_spec(f"oracle:{csv}", str(wav), 13))
        write_events(run_tta([oracle], read_wav(wav), ClipIdentity(str(wav))), tmp_path / "expected.csv")
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestEvalCli:
    def test_eval_perfect(self, runner, scene_files, tmp_path):
        wav, csv, annotation = scene_files
        events_csv = tmp_path / "pred.csv"
        rows = [
            f"{e.frame},{e.class_id},{e.direction.azimuth!r},{e.direction.elevation!r},1.0"
            for e in annotation.events
        ]
        events_csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "scores.json"
        result = run_ok(
            runner, ["eval", "--pred", str(events_csv), "--ref", str(csv), "--out", str(out)]
        )
        scores = json.loads(out.read_text())["scores"]
        assert scores["er20"] == 0.0
        assert scores["f20"] == 1.0
        assert "ER20" in result.output


    @pytest.mark.parametrize("row", ["-1,0,10.0,0.0,0.9", "5,-2,10.0,0.0,0.9"])
    def test_negative_frame_or_class_rejected(self, runner, scene_files, tmp_path, row):
        # scoring has no cell for such a row, so it used to vanish without a word
        _, csv, _ = scene_files
        events_csv = tmp_path / "pred.csv"
        events_csv.write_text(f"5,0,10.0,0.0,0.9\n{row}\n")
        out = tmp_path / "scores.json"
        result = runner.invoke(
            main, ["eval", "--pred", str(events_csv), "--ref", str(csv), "--out", str(out)]
        )
        assert result.exit_code != 0
        assert isinstance(result.exception, ValueError)
        assert str(result.exception).startswith(f"{events_csv}:2: frame and class_id must be non-negative")
        assert not out.exists()


class TestPipelineCli:
    def test_run_byte_identical(self, runner, tmp_path):
        from seldkit.audio import write_wav
        entries = []
        for i in range(2):
            clip, annotation = two_event_scene(seed=60 + i)
            write_wav(tmp_path / f"p{i}.wav", clip)
            write_labels(annotation, tmp_path / f"p{i}.csv")
            entries.append(
                ManifestEntry(str(tmp_path / f"p{i}.wav"), str(tmp_path / f"p{i}.csv"), "real")
            )
        save_manifest(DatasetManifest(tuple(entries)), tmp_path / "m.json")
        config = {
            "manifest": "m.json",
            "predictor": {"kind": "oracle", "jitter_deg": 1.0},
            "seed": 5,
            "tta": None,
        }
        (tmp_path / "run.json").write_text(json.dumps(config))
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            run_ok(
                runner,
                ["pipeline", "run", "--config", str(tmp_path / "run.json"), "--out", str(out)],
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["n_scored"] == 2

    def test_summary_line_same_as_eval(self, runner, tmp_path):
        # one clip's saved outputs, scored by a run and by eval of their decoded events
        clip, annotation = two_event_scene(seed=61)
        write_wav(tmp_path / "clip.wav", clip)
        write_labels(annotation, tmp_path / "clip.csv")
        seq = 0.9 * encode(annotation, 50)
        seq[::3] = seq[::3, :, [1, 0, 2]]  # a localization error every third frame
        seq[20:24, 7] = [0.0, 0.8, 0.0]  # a spurious class
        (tmp_path / "preds").mkdir()
        save_tensor(tmp_path / "preds" / "clip.acc", seq)
        save_manifest(
            DatasetManifest((ManifestEntry(str(tmp_path / "clip.wav"), str(tmp_path / "clip.csv"), "real"),)),
            tmp_path / "m.json",
        )
        predictor = {"kind": "external", "dir": str(tmp_path / "preds")}
        (tmp_path / "run.json").write_text(json.dumps({"manifest": "m.json", "predictor": predictor, "tta": None}))
        piped = run_ok(runner, ["pipeline", "run", "--config", str(tmp_path / "run.json"),
                                "--out", str(tmp_path / "run_scores.json")])
        run_ok(runner, ["accdoa", "decode", "--in", str(tmp_path / "preds" / "clip.acc"),
                        "--out", str(tmp_path / "events.csv")])
        evaluated = run_ok(runner, ["eval", "--pred", str(tmp_path / "events.csv"), "--ref",
                                    str(tmp_path / "clip.csv"), "--out", str(tmp_path / "eval_scores.json")])
        run_doc = json.loads((tmp_path / "run_scores.json").read_text())
        eval_doc = json.loads((tmp_path / "eval_scores.json").read_text())
        assert {key: run_doc[key] for key in ("scores", "per_class")} == eval_doc
        assert 0.0 < eval_doc["scores"]["f20"] < 1.0
        s = eval_doc["scores"]
        line = f"ER20 {s['er20']:.4f}  F20 {s['f20']:.4f}  LE_CD {s['le_cd']:.4f}  LR_CD {s['lr_cd']:.4f}\n"
        assert piped.output == evaluated.output == line


def test_help_lists_all_verbs(runner):
    result = run_ok(runner, ["--help"])
    for verb in ("features", "rotate", "augment", "emulate", "dataset", "accdoa", "tta", "eval", "pipeline"):
        assert verb in result.output


SEEDED_VERBS = (["augment"], ["emulate"], ["dataset", "sample-epoch"], ["dataset", "kfold"])
UNSEEDED_VERBS = (
    ["features", "extract"], ["rotate"], ["accdoa", "decode"], ["tta", "run"], ["eval"], ["pipeline", "run"]
)


@pytest.mark.parametrize("verb", SEEDED_VERBS + UNSEEDED_VERBS, ids=" ".join)
def test_only_verbs_that_draw_random_numbers_take_seed(runner, verb):
    assert ("--seed" in run_ok(runner, [*verb, "--help"]).output) == (verb in SEEDED_VERBS)
    if verb in UNSEEDED_VERBS:
        result = runner.invoke(main, [*verb, "--seed", "1"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--seed" in result.output


def test_scipy_optimize_loads_only_for_a_multi_event_cell(tmp_path):
    # scipy.optimize costs about 0.6 s and 48 MiB per process; emulating,
    # rotating, extracting features and an oracle-direct run score no cell
    # with two or more events on both sides, so none of them may load it;
    # evaluate_stats matches a cell with two predictions and one reference
    # to the nearest prediction, and imports it only for a cell with two or
    # more events on both sides
    script = textwrap.dedent(
        """
        import json, sys
        from pathlib import Path
        from click.testing import CliRunner
        from seldkit.cli import main
        from seldkit.manifest import DatasetManifest, ManifestEntry, save_manifest

        def run(*args):
            result = CliRunner().invoke(main, list(args), catch_exceptions=False)
            assert result.exit_code == 0, result.output

        Path("lib.json").write_text(json.dumps({"samples": [{"sample_id": "s0", "class_id": 3, "path": "s0.wav"}]}))
        event = {"class_id": 3, "sample_id": "s0", "onset_s": 0.5, "azimuth": 45.0, "elevation": 10.0}
        Path("scene.json").write_text(json.dumps({"duration_s": 2.0, "snr_db": 30.0, "seed": 1, "events": [event]}))
        run("emulate", "--spec", "scene.json", "--library", "lib.json", "--out-prefix", "emu")
        run("rotate", "--pattern", "6", "--in", "emu.wav", "--labels", "emu.csv", "--out-prefix", "rot")
        run("features", "extract", "--in", "emu.wav", "--out", "emu.feat")
        save_manifest(DatasetManifest((ManifestEntry("emu.wav", "emu.csv", "emulated"),)), "m.json")
        Path("run.json").write_text(json.dumps({"manifest": "m.json", "predictor": {"kind": "oracle"}, "tta": None}))
        run("pipeline", "run", "--config", "run.json", "--out", "scores.json")
        assert json.loads(Path("scores.json").read_text())["n_scored"] == 1
        print("scipy.optimize" in sys.modules)
        from seldkit.accdoa import DetectedEvent
        from seldkit.geometry import Direction
        from seldkit.labels import ClipAnnotation, EventLabel
        from seldkit.metrics import evaluate_stats
        d = Direction(0.0, 0.0)
        evaluate_stats([DetectedEvent(0, 0, d, 1.0)] * 2, ClipAnnotation((EventLabel(0, 0, 0, d),)))
        print("scipy.optimize" in sys.modules)
        two_refs = ClipAnnotation((EventLabel(0, 0, 0, d), EventLabel(0, 0, 1, d)))
        evaluate_stats([DetectedEvent(0, 0, d, 1.0)] * 2, two_refs)
        print("scipy.optimize" in sys.modules)
        """
    )
    write_mono_wav(tmp_path / "s0.wav", np.random.default_rng(0).standard_normal(24000) * 0.2)
    env = {**os.environ, "PYTHONPATH": str(Path(seldkit.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "True"]


def test_seldkit_loads_no_scipy_io_fft_special_or_sparse(tmp_path):
    # scipy.io pulls in scipy.sparse and scipy.fft pulls in scipy.special, about
    # 0.3 s and 29 MiB per process; seldkit reads and writes WAVs and convolves
    # with numpy alone, so neither importing nor emulating and reading back a
    # scene loads them
    script = textwrap.dedent(
        """
        import json, sys
        from pathlib import Path
        from click.testing import CliRunner
        import seldkit.emulate, seldkit.pipeline
        from seldkit.audio import read_wav
        from seldkit.cli import main

        unwanted = {"scipy.io", "scipy.fft", "scipy.special", "scipy.sparse"}
        print(sorted(unwanted & set(sys.modules)))
        Path("lib.json").write_text(json.dumps({"samples": [{"sample_id": "s0", "class_id": 3, "path": "s0.wav"}]}))
        event = {"class_id": 3, "sample_id": "s0", "onset_s": 0.5, "azimuth": 45.0, "elevation": 10.0}
        Path("scene.json").write_text(json.dumps({"duration_s": 2.0, "seed": 1, "events": [event]}))
        args = ["emulate", "--spec", "scene.json", "--library", "lib.json", "--out-prefix", "emu"]
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert read_wav("emu.wav").n_samples == 48000
        print(sorted(unwanted & set(sys.modules)))
        """
    )
    write_mono_wav(tmp_path / "s0.wav", np.random.default_rng(0).standard_normal(24000) * 0.2)
    env = {**os.environ, "PYTHONPATH": str(Path(seldkit.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "[]"]
