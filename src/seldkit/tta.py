"""Clustering-based test-time augmentation.

A predictor is run under all 16 rotation patterns, on the features of the
clip extracted once and rotated per pattern; each prediction is
de-rotated back into the original frame, and every (label frame, class)
cell pools its active de-rotated vectors into one (n, 3) candidate array.
A model ensemble is the same mechanism with more predictions: each model
adds up to 16 rows per cell. Candidates are clustered per cell with
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
from .rotation import all_patterns, apply_to_features, apply_to_vector, compose, inverse, pattern_by_id


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
        if self.min_candidates < 1:
            raise ValueError(f"min_candidates must be >= 1, got {self.min_candidates}")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        if self.max_tracks < 1:
            raise ValueError("max_tracks must be >= 1")
        if not 0.0 < self.activity_threshold < MAX_ACTIVITY:
            raise ValueError(f"activity_threshold must be in (0, sqrt(3)), got {self.activity_threshold}")


@dataclass
class CandidateSet:
    """De-rotated candidate vectors per (label frame, class) cell.

    ``cells`` maps (frame, class_id) to an (n, 3) array of activity-scaled
    vectors, one row per prediction active in the cell, in prediction
    order: model by model, and within a model pattern by pattern.
    """

    cells: dict = field(default_factory=dict)


def collect_candidates(predictions, threshold: float) -> CandidateSet:
    """Pool the active cells of de-rotated predictions into one candidate set.

    ``predictions`` is a list of (pattern_id, sequence) pairs of equal
    dims: the 16 patterns of one model, then those of the next model of
    an ensemble. Each sequence is carried back through the inverse of its
    pattern (norms preserved exactly, since patterns are signed
    permutations); a cell gets a candidate from every prediction whose
    vector norm there exceeds the threshold. Non-finite values raise
    ValueError naming their pattern ids.
    """
    shapes = sorted({np.shape(seq) for _, seq in predictions})
    if len(shapes) > 1:
        raise ValueError(f"prediction dims disagree: {shapes}")
    stack = np.stack(
        [apply_to_vector(seq, inverse(pattern_by_id(pid))) for pid, seq in predictions]
    )
    finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
    if not finite.all():
        bad = sorted({predictions[i][0] for i in np.flatnonzero(~finite)})
        raise ValueError(f"non-finite prediction values under rotation pattern(s) {bad}")
    active = np.linalg.norm(stack, axis=-1) > threshold
    return CandidateSet(
        {
            (int(f), int(c)): stack[active[:, f, c], f, c]
            for f, c in zip(*np.nonzero(active.any(axis=0)))
        }
    )


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
        vecs = candidates.cells[(frame, class_id)]
        if len(vecs) < config.min_candidates:
            continue
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

    Features are extracted once; each pattern predicts on its own rotated
    copy of them (``apply_to_features``), which equals the features of the
    rotated audio. ``predictor`` follows the predictor contract (see
    seldkit.predict); ``identity`` names the clip and any rotation already
    applied to it, so rotation-aware predictors compose correctly. Accepts
    a sequence of predictors as well (the cross-validation ensemble): each
    model's 16 predictions add rows to the same candidate cells, so
    ``min_candidates`` may be at most 16 per model.
    """
    config = config or TtaConfig()
    feature_config = feature_config or FeatureConfig()
    predictors = predictor if isinstance(predictor, (list, tuple)) else [predictor]
    n_max = len(all_patterns()) * len(predictors)
    if config.min_candidates > n_max:
        raise ValueError(
            f"min_candidates {config.min_candidates} exceeds the {n_max} candidates "
            f"{len(predictors)} model(s) can give a cell"
        )
    base_pattern = pattern_by_id(identity.pattern_id)
    features = extract_features(clip, feature_config)
    predictions = []
    for model_idx, model in enumerate(predictors):
        for p in all_patterns():
            ident = identity.with_pattern(compose(p, base_pattern).id)
            try:
                seq = model.predict(apply_to_features(features, p), ident)
            except Exception as exc:
                raise RuntimeError(
                    f"predictor {model_idx} failed on rotation pattern {p.id}: {exc}"
                ) from exc
            predictions.append((p.id, seq))
    return aggregate(collect_candidates(predictions, config.activity_threshold), config)
