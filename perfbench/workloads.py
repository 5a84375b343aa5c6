"""Seeded inputs for the benchmark workloads.

Every workload is a directory holding emulated FOA scenes (WAV), their
label CSVs, a manifest and, for the file-backed predictor, precomputed
ACCDOA tensors. Everything is drawn from one ``numpy`` generator seeded by
the benchmark's ``--seed``, and all paths in the manifest are relative to
the workload directory, so the same seed gives byte-identical inputs and
byte-identical scores whatever directory the benchmark runs in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from seldkit import emulate
from seldkit.accdoa import encode
from seldkit.audio import write_wav
from seldkit.emulate import LibrarySample, SampleLibrary, SceneEvent, SceneSpec
from seldkit.features import FeatureConfig
from seldkit.geometry import Direction, wrap_azimuth
from seldkit.labels import ClipAnnotation, write_labels
from seldkit.manifest import DatasetManifest, ManifestEntry, save_manifest
from seldkit.pipeline import RunConfig
from seldkit.rotation import all_patterns, apply_to_direction
from seldkit.tensorio import save_tensor

SAMPLE_RATE = 24000
N_CLASSES = 13
SNR_DB = 20.0
# Polyphony is at most three: one track per disjoint class group, and the
# events of a track never overlap. So two events of one class can never
# share a label frame, which ACCDOA encoding would reject.
TRACK_CLASSES = ((0, 1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
EVENT_S = (1.0, 3.0)
GAP_S = (0.3, 1.0)

# File-backed predictor: per-pattern direction jitter and additive noise.
# Noise puts false candidates into silent cells and drops some true ones
# below the activity threshold; jitter scatters the candidates of a cell.
EXTERNAL_JITTER_DEG = 12.0
EXTERNAL_NOISE_STD = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    n_scenes: int
    scene_s: float
    predictor: str  # "oracle" or "external"
    tta: bool
    augment: bool
    workers: int

    @property
    def audio_s(self) -> float:
        return self.n_scenes * self.scene_s


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tta60_oracle", 2, 60.0, "oracle", tta=True, augment=False, workers=1),
        Workload("direct10_augment", 48, 10.0, "oracle", tta=False, augment=True, workers=1),
        Workload("tta10_external", 8, 10.0, "external", tta=True, augment=False, workers=2),
    )
}


def _scene(rng: np.random.Generator, duration_s: float, tag: str):
    """One scene spec and the library of white-noise samples it plays."""
    events = []
    samples = {}
    for classes in TRACK_CLASSES:
        t = rng.uniform(0.0, 1.0)
        while True:
            dur = rng.uniform(*EVENT_S)
            if t + dur > duration_s - 0.05:
                break
            class_id = int(rng.choice(classes))
            sample_id = f"{tag}-{len(samples)}"
            samples[sample_id] = LibrarySample(
                sample_id, class_id, 0.1 * rng.standard_normal(round(dur * SAMPLE_RATE))
            )
            direction = Direction(
                wrap_azimuth(rng.uniform(-180.0, 180.0)), rng.uniform(-60.0, 60.0)
            )
            events.append(SceneEvent(class_id, sample_id, round(t, 3), direction))
            t = round(t, 3) + dur + rng.uniform(*GAP_S)
    spec = SceneSpec(duration_s, tuple(events), snr_db=SNR_DB, seed=int(rng.integers(2**31)))
    return spec, SampleLibrary(samples)


def _check_encodable(annotation: ClipAnnotation, stem: str) -> None:
    cells = set()
    for ev in annotation.events:
        cell = (ev.frame, ev.class_id)
        if cell in cells:
            raise RuntimeError(f"{stem}: two class-{ev.class_id} events in label frame {ev.frame}")
        cells.add(cell)


def _label_frames(n_samples: int, feature: FeatureConfig) -> int:
    return feature.n_frames(n_samples) // feature.frames_per_label


def _jittered(d: Direction, rng: np.random.Generator) -> Direction:
    az = wrap_azimuth(d.azimuth + rng.normal(0.0, EXTERNAL_JITTER_DEG))
    el = float(np.clip(d.elevation + rng.normal(0.0, EXTERNAL_JITTER_DEG), -89.0, 89.0))
    return Direction(az, el)


def _write_external(annotation, n_frames: int, stem: str, rng: np.random.Generator) -> None:
    """The 16 per-pattern ACCDOA tensors a noisy external model would emit."""
    for p in all_patterns():
        rotated = ClipAnnotation(
            tuple(
                replace(ev, direction=apply_to_direction(_jittered(ev.direction, rng), p))
                for ev in annotation.events
            ),
            n_classes=annotation.n_classes,
        )
        seq = encode(rotated, n_frames)
        seq = np.clip(seq + rng.normal(0.0, EXTERNAL_NOISE_STD, seq.shape), -1.0, 1.0)
        save_tensor(os.path.join("preds", f"{stem}.p{p.id:02d}.acc"), seq)


def build(workload: Workload, seed: int) -> RunConfig:
    """Write the workload's inputs into the current directory; return its run config.

    The config's paths are relative, so the run must start from this directory.
    """
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    feature = FeatureConfig()
    os.makedirs("clips")
    if workload.predictor == "external":
        os.makedirs("preds")
    entries = []
    for i in range(workload.n_scenes):
        stem = f"scene{i:03d}"
        spec, library = _scene(rng, workload.scene_s, stem)
        # through the module attribute, so a traced run sees the call
        clip, annotation = emulate.mix_scene(spec, library, n_classes=N_CLASSES)
        _check_encodable(annotation, stem)
        clip_path = os.path.join("clips", f"{stem}.wav")
        label_path = os.path.join("clips", f"{stem}.csv")
        write_wav(clip_path, clip)
        write_labels(annotation, label_path)
        if workload.predictor == "external":
            _write_external(annotation, _label_frames(clip.n_samples, feature), stem, rng)
        entries.append(ManifestEntry(clip_path, label_path, "emulated", duration_s=workload.scene_s))
    save_manifest(DatasetManifest(tuple(entries)), "manifest.json")

    doc = {
        "manifest": "manifest.json",
        "seed": seed,
        "n_classes": N_CLASSES,
        "predictor": (
            {"kind": "oracle", "jitter_deg": 5.0}
            if workload.predictor == "oracle"
            else {"kind": "external", "dir": "preds"}
        ),
    }
    if not workload.tta:
        doc["tta"] = None
    if workload.augment:
        doc["augment"] = {}
    return RunConfig.from_dict(doc)


def check_scores_doc(doc: dict, workload: Workload) -> list[str]:
    """What is wrong with one run's scores document; empty when it is right."""
    problems = []
    if doc["n_scored"] != doc["n_entries"] or doc["n_entries"] != workload.n_scenes:
        problems.append(
            f"{doc['n_scored']} of {doc['n_entries']} entries scored, "
            f"{workload.n_scenes} expected: {doc['failures'][:3]}"
        )
    s = doc.get("scores")
    if s is None:
        problems.append("no scores in the document")
    elif workload.predictor == "oracle":
        # the 5-degree jitter guarantees perfect detection within 5 degrees
        if not (s["f20"] == 1.0 and s["er20"] == 0.0 and s["lr_cd"] == 1.0 and s["le_cd"] <= 5.0):
            problems.append(f"oracle scores off their guaranteed values: {s}")
    elif not (
        # seeds 1, 101-110 gave F20 0.67-0.71, ER20 0.56-0.78, LE_CD 12.1-12.7, LR_CD 0.96-0.98
        0.55 < s["f20"] < 0.85
        and 0.25 < s["er20"] < 1.1
        and 10.0 < s["le_cd"] < 15.0
        and s["lr_cd"] > 0.93
    ):
        problems.append(f"external-predictor scores outside their expected band: {s}")
    return problems
