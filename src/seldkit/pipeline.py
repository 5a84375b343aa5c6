"""End-to-end orchestration: configuration, segmentation, k-fold splits, scoring runs.

A run walks a dataset manifest, and for every entry: load the clip and its
labels, extract features, predict (directly or through rotation TTA),
decode into events, and score against the labels. A run never augments
the waveform; the ``augment`` verb does, to make training data. Every
entry's WAV is checked (channels, rate, finite samples), but its samples
are converted to float64 and features extracted only for a predictor
that reads them (``predict.reads_features``); for any other the run takes
only the clip's rate and length (``audio.read_wav_info``). The oracle,
constant and external predictors read no features, so they are given
None. Per-class stats are merged across entries and finalized into one
scores document. Entries that fail are reported and skipped; the run
itself keeps going. A label file that is missing or does not parse fails
every entry of its clip, and the predictor is built from the clips whose
labels did parse.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .accdoa import decode
from .audio import AudioClip, read_wav, read_wav_info
from .features import FeatureConfig, extract_features
from .labels import ClipAnnotation, read_labels
from .manifest import DatasetManifest, ManifestEntry, load_manifest
from .metrics import MetricConfig, evaluate_stats, merge_stats, score_report
from .predict import ClipIdentity, check_prediction, make_predictor, reads_features
from .tensorio import config_from_doc, write_json
from .tta import TtaConfig, run_tta

log = logging.getLogger(__name__)


def segment_clip(clip: AudioClip, window_s: float = 5.0, hop_s: float = 1.0) -> list[AudioClip]:
    """Cut a clip into overlapping windows (5 s / 1 s hop by default).

    Yields 1 + floor((duration - window) / hop) segments; clips shorter
    than one window are zero-padded into a single segment.
    """
    if window_s <= 0 or hop_s <= 0:
        raise ValueError("window_s and hop_s must be positive")
    win = round(window_s * clip.sample_rate)
    hop = round(hop_s * clip.sample_rate)
    if clip.n_samples < win:
        padded = np.zeros((4, win))
        padded[:, : clip.n_samples] = clip.samples
        return [AudioClip(padded, clip.sample_rate)]
    count = 1 + (clip.n_samples - win) // hop
    return [
        AudioClip(clip.samples[:, i * hop : i * hop + win].copy(), clip.sample_rate)
        for i in range(count)
    ]


def _dominant_class(entry: ManifestEntry, n_classes: int) -> int:
    """Stratification key: most frequent class in the entry's label file, the smallest on a tie."""
    classes = read_labels(entry.label_path, n_classes=n_classes).class_id
    return int(np.bincount(classes).argmax()) if len(classes) else -1


def kfold_split(
    manifest: DatasetManifest,
    k: int = 4,
    mode: str = "stratified",
    seed: int = 0,
    n_classes: int = 13,
    class_key=None,
) -> list[DatasetManifest]:
    """Split a manifest into k folds.

    ``stratified`` deals each class's entries round-robin (after a seeded
    shuffle), so per-class counts across folds differ by at most one. The
    class of an entry defaults to the dominant class of its label file;
    pass ``class_key(entry) -> int`` to override. ``room`` keeps every
    room_tag within a single fold, greedily evening out fold sizes, and
    requires at least k distinct rooms. Output entries carry fold_tag
    "fold0".."fold{k-1}".
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[ManifestEntry]] = [[] for _ in range(k)]
    if mode == "stratified":
        key = class_key or (lambda e: _dominant_class(e, n_classes))
        groups: dict = {}
        for entry in manifest:
            groups.setdefault(key(entry), []).append(entry)
        for group_key in sorted(groups):
            group = groups[group_key]
            order = rng.permutation(len(group))
            for i, idx in enumerate(order):
                folds[i % k].append(group[idx])
    elif mode == "room":
        rooms: dict = {}
        for entry in manifest:
            if entry.room_tag is None:
                raise ValueError(f"room mode needs room_tags; {entry.clip_path} has none")
            rooms.setdefault(entry.room_tag, []).append(entry)
        if len(rooms) < k:
            raise ValueError(f"room mode needs >= {k} rooms, found {len(rooms)}")
        names = [str(r) for r in rooms]
        shuffled = [names[i] for i in rng.permutation(len(names))]
        for room in sorted(shuffled, key=lambda r: -len(rooms[r])):
            smallest = min(range(k), key=lambda i: len(folds[i]))
            folds[smallest].extend(rooms[room])
    else:
        raise ValueError(f"mode must be 'stratified' or 'room', got {mode!r}")
    return [
        DatasetManifest(
            tuple(dataclasses.replace(e, fold_tag=f"fold{i}") for e in fold)
        )
        for i, fold in enumerate(folds)
    ]


@dataclass(frozen=True)
class RunConfig:
    """One JSON document configuring a full scoring run."""

    manifest: str
    predictor: dict
    seed: int = 0  # read by nothing in a run; documents that set it still load
    n_classes: int = 13
    feature: FeatureConfig = FeatureConfig()
    metric: MetricConfig | None = None  # built from n_classes, the run's only class count
    tta: TtaConfig | None = TtaConfig()
    decode_threshold: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "metric", self.metric or MetricConfig(n_classes=self.n_classes))
        if self.metric.n_classes != self.n_classes:
            raise ValueError(f"metric.n_classes {self.metric.n_classes} differs from the run's {self.n_classes}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Parse a run document: ``manifest`` (a string) and ``predictor`` are required,
        and every value has its field's JSON type (``tensorio.config_from_doc``).
        A missing or unknown key, also inside a sub-config, or a value of another
        type raises ValueError naming the run config and the key. ``decode_threshold``
        thresholds direct predictions only, so setting it with TTA on raises
        ValueError: TTA reads ``tta.activity_threshold``. A run augments nothing, so
        an ``augment`` key loads only as ``{}`` or null, which change nothing."""
        if isinstance(doc, dict) and "augment" in doc:
            if doc["augment"] not in ({}, None):
                raise ValueError(
                    "run config augment must be {} or null: a run scores its clips and does not augment them; "
                    "augment training clips with the `seldkit augment` verb"
                )
            doc = {key: value for key, value in doc.items() if key != "augment"}
        metric = doc.get("metric") if isinstance(doc, dict) else None
        if isinstance(metric, dict):  # a non-object fails in config_from_doc
            if "n_classes" in metric:
                raise ValueError("metric.n_classes is not a run config key; set the top-level n_classes")
            doc = {**doc, "metric": {**metric, "n_classes": doc.get("n_classes", cls.n_classes)}}
        config = config_from_doc(cls, doc, "run config")
        if config.tta is not None and "decode_threshold" in doc:
            raise ValueError(
                "decode_threshold is read only with \"tta\": null; "
                "TTA thresholds its events with tta.activity_threshold"
            )
        return config


def _score_entry(entry: ManifestEntry, annotation: ClipAnnotation, config: RunConfig, predictor):
    # every entry's WAV is checked, but its samples are converted only for a model that reads them
    reading = reads_features(predictor)
    clip = read_wav(entry.clip_path) if reading else read_wav_info(entry.clip_path)
    config.feature.check_rate(clip)
    label_frames = config.feature.label_frames(clip.n_samples)
    if annotation.max_frame >= label_frames:
        raise ValueError(
            f"{entry.label_path}: label frame {annotation.max_frame} is past the end of the clip, "
            f"which has {label_frames} label frames"
        )
    identity = ClipIdentity(entry.clip_path)
    if config.tta is not None:
        events = run_tta(predictor, clip, identity, config.tta, config.feature, config.n_classes)
    else:
        features = extract_features(clip, config.feature) if reading else None
        seq = predictor.predict(features, identity, label_frames)
        check_prediction(seq, identity, label_frames, config.n_classes)
        events = decode(seq, config.decode_threshold)
    return evaluate_stats(events, annotation, config.metric)


def run_pipeline(config: RunConfig) -> dict:
    """Execute a scoring run and return the scores document.

    Entries are scored one after another in manifest order. The document
    is deterministic for a fixed config and seed: it carries no timestamps
    or machine state. A clip listed with two label files, or an external
    predictor's clips sharing a file stem, fail the whole run.
    """
    manifest = load_manifest(config.manifest)
    label_files: dict = {}
    for e in manifest:
        first = label_files.setdefault(e.clip_path, e.label_path)
        if first != e.label_path:
            raise ValueError(
                f"clip {e.clip_path!r} is listed with two label files: {first!r} and {e.label_path!r}"
            )
    annotations, label_errors = {}, {}
    for clip, path in label_files.items():
        try:
            annotations[clip] = read_labels(path, n_classes=config.n_classes)
        except Exception as exc:  # fails the clip's entries below
            label_errors[clip] = exc
    predictor = make_predictor(config.predictor, annotations, n_classes=config.n_classes)

    per_entry = []
    failures = []
    for entry in manifest:
        try:
            if entry.clip_path in label_errors:
                raise label_errors[entry.clip_path]
            per_entry.append(_score_entry(entry, annotations[entry.clip_path], config, predictor))
        except Exception as exc:  # reported per entry, run continues
            log.warning("entry %s failed: %s", entry.clip_path, exc)
            failures.append({"clip_path": entry.clip_path, "error": f"{type(exc).__name__}: {exc}"})
    doc: dict = {
        "n_entries": len(manifest),
        "n_scored": len(per_entry),
        "failures": failures,
    }
    if per_entry:
        doc.update(score_report(merge_stats(per_entry)))
    return doc


def write_scores(doc: dict, path) -> None:
    """Write a scores document as canonical JSON (stable key order)."""
    write_json(doc, path)
