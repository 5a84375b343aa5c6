"""Command-line interface.

Verbs: features extract, rotate, augment, emulate, dataset sample-epoch,
dataset kfold, accdoa decode, tta run, eval, pipeline run. The verbs that
draw random numbers take --seed: augment, emulate, dataset sample-epoch
and dataset kfold. ``pipeline run`` scores its entries one after
another. ``tta run --model`` takes
``oracle:<labels.csv>`` (the clip's own labels), ``constant[:<value>]`` or
``external:<dir>``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click
import numpy as np

from . import accdoa as accdoa_mod
from . import emulate as emulate_mod
from .audio import read_wav, write_wav
from .augment import AugmentConfig, augment_waveform
from .features import FEATURE_CHANNELS, FeatureConfig, extract_features
from .labels import read_labels, write_labels
from .manifest import load_manifest, save_manifest
from .metrics import MetricConfig, evaluate_stats, score_report
from .pipeline import RunConfig, kfold_split, run_pipeline, write_scores
from .predict import ClipIdentity, make_predictor
from .rotation import apply_to_audio, pattern_by_id, rotate_annotation
from .tensorio import config_from_doc, load_tensor, read_json, save_tensor
from .tta import TtaConfig, run_tta

_seed_option = click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")


def _summary_line(scores: dict) -> str:
    """The four scores of a scores document on one line, for ``eval`` and ``pipeline run``."""
    return "  ".join(f"{name.upper()} {scores[name]:.4f}" for name in ("er20", "f20", "le_cd", "lr_cd"))


def _config_file(config_cls, path, name: str):
    """The ``config_cls`` a config file holds, or the defaults when ``path`` is None;
    an unknown field raises ValueError naming ``name``, the file and the key."""
    return config_from_doc(config_cls, read_json(path), f"{name} {path}") if path else config_cls()


def parse_model_spec(spec: str, in_path, n_classes: int) -> tuple[dict, dict | None]:
    """Parse ``oracle:<labels.csv>``, ``constant[:<value>]`` or ``external:<dir>`` into a
    ``make_predictor`` mapping and, for the oracle, the annotations of clip ``in_path``;
    the constant's value must parse as a float, as its JSON key must be a number."""
    kind, _, arg = spec.partition(":")
    if kind == "oracle" and arg:
        return {"kind": "oracle"}, {in_path: read_labels(arg, n_classes=n_classes)}
    if kind == "constant":
        try:
            return {"kind": "constant", **({"value": float(arg)} if arg else {})}, None
        except ValueError:
            raise click.UsageError(f"--model {spec!r}: the constant value must be a number") from None
    if kind == "external" and arg:
        return {"kind": "external", "dir": arg}, None
    raise click.UsageError(
        f"--model {spec!r}: expected oracle:<labels.csv>, constant[:<value>] or external:<dir>"
    )


@click.group()
def main():
    """Spatial-audio SELD toolkit."""


@main.group()
def features():
    """Feature extraction."""


@features.command("extract")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), help="FeatureConfig JSON.")
def features_extract(in_path, out_path, config_path):
    """Extract the 7-channel feature tensor of a clip."""
    config = _config_file(FeatureConfig, config_path, "feature config")
    clip = read_wav(in_path)
    tensor = extract_features(clip, config)
    save_tensor(out_path, tensor, channel_names=FEATURE_CHANNELS, config=dataclasses.asdict(config))
    click.echo(f"wrote {out_path} dims {list(tensor.shape)}")


@main.command()
@click.option("--pattern", type=click.IntRange(0, 15), required=True)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--labels", "labels_path", type=click.Path(exists=True))
@click.option("--out-prefix", required=True)
@click.option("--n-classes", type=int, default=13, show_default=True)
def rotate(pattern, in_path, labels_path, out_prefix, n_classes):
    """Apply one rotation pattern to a clip and (optionally) its labels."""
    p = pattern_by_id(pattern)
    write_wav(f"{out_prefix}.wav", apply_to_audio(read_wav(in_path), p))
    outputs = [f"{out_prefix}.wav"]
    if labels_path:
        annotation = read_labels(labels_path, n_classes=n_classes)
        write_labels(rotate_annotation(annotation, p), f"{out_prefix}.csv")
        outputs.append(f"{out_prefix}.csv")
    click.echo(f"pattern {pattern} ({p.azimuth_map}, elevation x{p.sign_z}) -> " + ", ".join(outputs))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), help="AugmentConfig JSON.")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_seed_option
def augment(config_path, in_path, out_path, seed):
    """Apply gain/pitch/band-pass augmentation with parameters drawn from config ranges."""
    config = _config_file(AugmentConfig, config_path, "augment config")
    rng = np.random.default_rng(seed)
    write_wav(out_path, augment_waveform(read_wav(in_path), config, rng))
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--library", "library_path", required=True, type=click.Path(exists=True))
@click.option("--out-prefix", required=True)
@click.option("--srir-config", "srir_path", type=click.Path(exists=True), help="SrirSynthConfig JSON.")
@click.option("--n-classes", type=int, default=13, show_default=True)
@click.option("--seed", type=int, default=None, help="Overrides the scene spec's seed.")
def emulate(spec_path, library_path, out_prefix, srir_path, n_classes, seed):
    """Render a scene spec into a 4-channel WAV plus label CSV."""
    spec = emulate_mod.scene_spec_from_json(read_json(spec_path))
    if seed is not None:
        spec = emulate_mod.SceneSpec(spec.duration_s, spec.events, spec.snr_db, seed)
    library = emulate_mod.load_library(library_path)
    srir_config = _config_file(emulate_mod.SrirSynthConfig, srir_path, "SRIR config")
    clip, annotation = emulate_mod.mix_scene(spec, library, srir_config, n_classes=n_classes)
    write_wav(f"{out_prefix}.wav", clip)
    write_labels(annotation, f"{out_prefix}.csv")
    click.echo(f"wrote {out_prefix}.wav ({clip.duration_s:g}s) and {out_prefix}.csv "
               f"({len(annotation.events)} labels)")


@main.group()
def dataset():
    """Manifest sampling and splitting."""


@dataset.command("sample-epoch")
@click.option("--real", "real_path", required=True, type=click.Path(exists=True))
@click.option("--emulated", "emulated_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_seed_option
def dataset_sample_epoch(real_path, emulated_path, out_path, seed):
    """Compose one epoch: all real entries plus an equal-size emulated draw."""
    epoch = emulate_mod.sample_epoch(load_manifest(real_path), load_manifest(emulated_path), seed)
    save_manifest(epoch, out_path)
    click.echo(f"wrote {out_path} ({len(epoch)} entries)")


@dataset.command("kfold")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, default=4, show_default=True)
@click.option("--mode", type=click.Choice(["stratified", "room"]), default="stratified", show_default=True)
@click.option("--out-prefix", required=True)
@click.option("--n-classes", type=int, default=13, show_default=True)
@_seed_option
def dataset_kfold(manifest_path, k, mode, out_prefix, n_classes, seed):
    """Split a manifest into k folds (stratified by class, or room-wise)."""
    folds = kfold_split(load_manifest(manifest_path), k=k, mode=mode, seed=seed, n_classes=n_classes)
    for i, fold in enumerate(folds):
        save_manifest(fold, f"{out_prefix}.fold{i}.json")
    click.echo(f"wrote {k} folds with sizes {[len(f) for f in folds]}")


@main.group()
def accdoa():
    """ACCDOA sequence tools."""


@accdoa.command("decode")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--tau", type=float, default=0.5, show_default=True, help="Activity threshold.")
@click.option("--out", "out_path", required=True, type=click.Path())
def accdoa_decode(in_path, tau, out_path):
    """Decode detections from a stored sequence."""
    seq, _ = load_tensor(in_path)
    events = accdoa_mod.decode(seq, tau)
    accdoa_mod.write_events(events, out_path)
    click.echo(f"wrote {out_path} ({len(events)} events)")


@main.group()
def tta():
    """Test-time augmentation."""


@tta.command("run")
@click.option("--model", "models", required=True, multiple=True,
              help="Predictor spec; repeat to ensemble (oracle:<labels.csv>, constant[:<value>], external:<dir>).")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True), help="TtaConfig JSON.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--n-classes", type=int, default=13, show_default=True)
def tta_run(models, in_path, config_path, out_path, n_classes):
    """Run 16-rotation clustering TTA over one clip."""
    config = _config_file(TtaConfig, config_path, "TTA config")
    clip = read_wav(in_path)
    predictors = [make_predictor(*parse_model_spec(s, in_path, n_classes), n_classes) for s in models]
    events = run_tta(predictors, clip, ClipIdentity(in_path), config, n_classes=n_classes)
    accdoa_mod.write_events(events, out_path)
    click.echo(f"wrote {out_path} ({len(events)} events)")


@main.command("eval")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True))
@click.option("--ref", "ref_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--threshold", type=float, default=20.0, show_default=True, help="Spatial threshold, degrees.")
@click.option("--segment-frames", type=int, default=10, show_default=True)
@click.option("--n-classes", type=int, default=13, show_default=True)
def eval_cmd(pred_path, ref_path, out_path, threshold, segment_frames, n_classes):
    """Score predicted events against reference labels."""
    config = MetricConfig(
        spatial_threshold_deg=threshold, segment_frames=segment_frames, n_classes=n_classes
    )
    preds = accdoa_mod.read_events(pred_path)
    refs = read_labels(ref_path, n_classes=n_classes)
    report = score_report(evaluate_stats(preds, refs, config))
    write_scores(report, out_path)
    click.echo(_summary_line(report["scores"]))


@main.group()
def pipeline():
    """Full scoring runs."""


@pipeline.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def pipeline_run(config_path, out_path):
    """Run the full pipeline over a manifest and write scores JSON."""
    config = RunConfig.from_dict(read_json(config_path))
    base = Path(config_path).parent
    if not Path(config.manifest).is_absolute():
        config = dataclasses.replace(config, manifest=str(base / config.manifest))
    result = run_pipeline(config)
    write_scores(result, out_path)
    if result["failures"]:
        click.echo(f"{len(result['failures'])} entries failed:", err=True)
        for failure in result["failures"]:
            click.echo(f"  {failure['clip_path']}: {failure['error']}", err=True)
    if "scores" in result:
        click.echo(_summary_line(result["scores"]))
    else:
        click.echo("no entries scored", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
