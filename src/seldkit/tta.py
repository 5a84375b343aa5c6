"""Clustering-based test-time augmentation.

A predictor is run under all 16 rotation patterns; each prediction is
de-rotated back into the original frame, giving up to 16 candidate DOA
vectors per (label frame, class). Candidates are clustered per cell with
DBSCAN under the great-circle metric; outliers are rejected, each cluster
is averaged into one detection, and detections beyond the track budget of
a frame are dropped by weight = member count x norm of the cluster mean.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .accdoa import MAX_ACTIVITY, DetectedEvent
from .audio import AudioClip
from .features import FeatureConfig, extract_features
from .geometry import unit_to_dir
from .rotation import all_patterns, apply_to_audio, apply_to_vector, compose, inverse, pattern_by_id


@dataclass(frozen=True)
class TtaConfig:
    unify_deg: float = 15.0
    min_candidates: int = 8
    min_pts: int = 2
    max_tracks: int = 3
    activity_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.unify_deg < 180.0:
            raise ValueError(f"unify_deg must be in (0, 180), got {self.unify_deg}")
        if not 1 <= self.min_candidates <= 16:
            raise ValueError(f"min_candidates must be in [1, 16], got {self.min_candidates}")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        if self.max_tracks < 1:
            raise ValueError("max_tracks must be >= 1")
        if not 0.0 < self.activity_threshold < MAX_ACTIVITY:
            raise ValueError(f"activity_threshold must be in (0, sqrt(3)), got {self.activity_threshold}")


@dataclass
class CandidateSet:
    """De-rotated candidate vectors per (label frame, class) cell.

    ``cells`` maps (frame, class_id) to a list of (tag, vector) with the
    vector activity-scaled; the tag identifies the source prediction and
    must be unique within a cell.
    """

    cells: dict = field(default_factory=dict)

    def add(self, frame: int, class_id: int, tag, vector) -> None:
        cell = self.cells.setdefault((frame, class_id), [])
        if any(t == tag for t, _ in cell):
            raise ValueError(f"duplicate candidate tag {tag!r} in cell {(frame, class_id)}")
        cell.append((tag, np.asarray(vector, dtype=float)))

    def merge(self, other: "CandidateSet", namespace) -> None:
        """Fold another set in, prefixing its tags to keep them unique."""
        for (frame, class_id), cand in other.cells.items():
            for tag, vec in cand:
                self.add(frame, class_id, (namespace, tag), vec)


def collect_candidates(predictions, threshold: float) -> CandidateSet:
    """Pool active cells of per-pattern predictions into one candidate set.

    ``predictions`` is a list of (pattern_id, sequence) pairs, one per
    rotation pattern, all sequences of equal dims. A cell contributes a
    candidate when its vector norm exceeds the threshold; the vector is
    carried back through the inverse pattern (norm preserved exactly,
    since patterns are signed permutations).
    """
    seen = set()
    shapes = set()
    out = CandidateSet()
    for pattern_id, seq in predictions:
        if pattern_id in seen:
            raise ValueError(f"duplicate pattern id {pattern_id}")
        seen.add(pattern_id)
        arr = np.asarray(seq, dtype=float)
        shapes.add(arr.shape)
        if len(shapes) > 1:
            raise ValueError(f"prediction dims disagree: {sorted(shapes)}")
        undo = inverse(pattern_by_id(pattern_id))
        norms = np.linalg.norm(arr, axis=2)
        for frame, class_id in zip(*np.nonzero(norms > threshold)):
            vec = apply_to_vector(arr[frame, class_id], undo)
            out.add(int(frame), int(class_id), pattern_id, vec)
    return out


def dbscan_sphere(points, eps_deg: float, min_pts: int) -> np.ndarray:
    """DBSCAN on the sphere: distance = great-circle angle in degrees.

    Returns one label per point, -1 for noise. A point's own membership
    counts toward min_pts. Labeling is deterministic for a given input
    order: clusters are grown by core-point expansion in index order, so
    cluster ids increase with each cluster's smallest core index and a
    border point between clusters joins the earlier one.
    """
    if eps_deg <= 0:
        raise ValueError("eps_deg must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    cos_eps = math.cos(math.radians(eps_deg))
    adjacency = pts @ pts.T >= cos_eps - 1e-12
    neighbor_lists = [np.nonzero(adjacency[i])[0] for i in range(n)]
    is_core = np.array([len(nb) >= min_pts for nb in neighbor_lists])
    cluster_id = 0
    for i in range(n):
        if labels[i] != -1 or not is_core[i]:
            continue
        labels[i] = cluster_id
        queue = deque(neighbor_lists[i])
        while queue:
            j = queue.popleft()
            if labels[j] != -1:
                continue
            labels[j] = cluster_id
            if is_core[j]:
                queue.extend(neighbor_lists[j])
        cluster_id += 1
    return labels


def aggregate(candidates: CandidateSet, config: TtaConfig | None = None) -> list[DetectedEvent]:
    """Cluster and average candidates into final detections.

    Cells with fewer than min_candidates candidates emit nothing. Within a
    qualifying cell, candidates are clustered on their unit directions;
    noise is dropped and each cluster becomes one event whose vector is
    the arithmetic mean of the member vectors (activity = its norm).
    Frames holding more than max_tracks events keep the top ones by
    weight = member count x norm of the mean.
    """
    config = config or TtaConfig()
    weighted: dict = {}
    for (frame, class_id) in sorted(candidates.cells):
        cand = candidates.cells[(frame, class_id)]
        if len(cand) < config.min_candidates:
            continue
        vecs = np.array([vec for _, vec in cand])
        norms = np.linalg.norm(vecs, axis=1)
        units = vecs / norms[:, np.newaxis]
        labels = dbscan_sphere(units, config.unify_deg, config.min_pts)
        for cluster in sorted(set(labels) - {-1}):
            members = vecs[labels == cluster]
            mean = members.mean(axis=0)
            activity = float(np.linalg.norm(mean))
            if activity == 0.0:
                continue
            event = DetectedEvent(frame, class_id, unit_to_dir(mean), activity)
            weight = len(members) * activity
            weighted.setdefault(frame, []).append((weight, event))
    events = []
    for frame in sorted(weighted):
        ranked = sorted(
            weighted[frame], key=lambda we: (-we[0], we[1].class_id, we[1].direction.azimuth)
        )
        events.extend(ev for _, ev in ranked[: config.max_tracks])
    return sorted(events, key=lambda e: (e.frame, e.class_id, e.direction.azimuth))


def run_tta(
    predictor,
    clip: AudioClip,
    identity,
    config: TtaConfig | None = None,
    feature_config: FeatureConfig | None = None,
) -> list[DetectedEvent]:
    """Full TTA: predict under all 16 rotations, de-rotate, cluster, aggregate.

    ``predictor`` follows the predictor contract (see seldkit.predict);
    ``identity`` names the clip and any rotation already applied to it, so
    rotation-aware predictors compose correctly. Accepts a sequence of
    predictors as well; their candidate sets are merged before aggregation
    (the cross-validation ensembling path).
    """
    config = config or TtaConfig()
    feature_config = feature_config or FeatureConfig()
    predictors = predictor if isinstance(predictor, (list, tuple)) else [predictor]
    base_pattern = pattern_by_id(identity.pattern_id)
    merged = CandidateSet()
    for model_idx, model in enumerate(predictors):
        predictions = []
        for p in all_patterns():
            rotated = apply_to_audio(clip, p)
            ident = identity.with_pattern(compose(p, base_pattern).id)
            try:
                seq = model.predict(extract_features(rotated, feature_config), ident)
            except Exception as exc:
                raise RuntimeError(
                    f"predictor {model_idx} failed on rotation pattern {p.id}: {exc}"
                ) from exc
            predictions.append((p.id, np.asarray(seq, dtype=float)))
        candidates = collect_candidates(predictions, config.activity_threshold)
        if len(predictors) == 1:
            merged = candidates
        else:
            merged.merge(candidates, namespace=model_idx)
    return aggregate(merged, config)
