"""Clustering-based test-time augmentation.

A predictor is run under all 16 rotation patterns, on the features of
the clip extracted once and rotated per pattern (a model that does not
read features is given None, and with no such model the features are
never extracted); each prediction is de-rotated back into the original
frame, and every (label frame, class) cell pools its active de-rotated
vectors. The candidates are arrays, not a dict of cells: the sorted
(frame, class) keys, their offsets and one (N, 3) row array, with the
rows of a cell contiguous and in prediction order. A model ensemble is
the same mechanism with more predictions: each model adds up to 16 rows
per cell. Candidates are clustered per cell with DBSCAN under the
great-circle metric, all cells of one candidate count in one stacked
array pass; outliers are rejected and each cluster is averaged. Every
cluster's frame, class, size, mean, activity and weight = member count x
norm of the mean are arrays, and clusters are ranked per frame before
any event is built: only the clusters within the track budget of their
frame become detections and get a direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .accdoa import MAX_ACTIVITY, DetectedEvent
from .audio import AudioClip, WavInfo
from .features import FeatureConfig, extract_features
from .geometry import unit_to_dir
from .predict import check_prediction, reads_features
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


class CandidateSet:
    """De-rotated candidate vectors per (label frame, class) cell, as arrays.

    ``keys`` is a (K, 2) integer array of the cells holding candidates,
    sorted by (frame, class_id). ``rows`` is one (N, 3) array of
    activity-scaled vectors, and cell k owns
    ``rows[offsets[k]:offsets[k + 1]]``: one row per prediction active in
    the cell, in prediction order (model by model, and within a model
    pattern by pattern). ``CandidateSet(cells)`` builds the arrays from a
    {(frame, class_id): (n, 3) rows} mapping; ``cells`` is that mapping
    again, a read-only view.
    """

    def __init__(self, cells=None):
        order = sorted(cells or {})
        blocks = [np.asarray(cells[key], dtype=float).reshape(-1, 3) for key in order]
        self._set(
            np.array(order, dtype=np.intp).reshape(-1, 2),
            np.cumsum([0] + [len(block) for block in blocks]),
            np.concatenate(blocks) if blocks else np.empty((0, 3)),
        )

    @classmethod
    def from_arrays(cls, keys, offsets, rows) -> "CandidateSet":
        """Wrap sorted ``keys``, their ``offsets`` and the ``rows`` they slice."""
        candidates = cls.__new__(cls)
        candidates._set(keys, offsets, rows)
        return candidates

    def _set(self, keys, offsets, rows) -> None:
        self.keys, self.offsets, self.rows = keys, offsets, rows
        for array in (keys, offsets, rows):
            array.flags.writeable = False

    @property
    def cells(self) -> MappingProxyType:
        """Read-only {(frame, class_id): (n, 3) rows} view, in key order."""
        bounds = self.offsets.tolist()
        return MappingProxyType(
            {
                (frame, class_id): self.rows[start:stop]
                for (frame, class_id), start, stop in zip(self.keys.tolist(), bounds, bounds[1:])
            }
        )


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
    # (frame, class, prediction) order: rows come out by cell, then by prediction
    active = np.moveaxis(np.linalg.norm(stack, axis=-1) > threshold, 0, 2)
    counts = active.sum(axis=2)
    frames, classes = np.nonzero(counts)
    return CandidateSet.from_arrays(
        np.stack([frames, classes], axis=1),
        np.concatenate([[0], np.cumsum(counts[frames, classes])]),
        np.moveaxis(stack, 0, 2)[active],
    )


def dbscan_sphere(points, eps_deg: float, min_pts: int) -> np.ndarray:
    """DBSCAN on the sphere: distance = great-circle angle in degrees.

    ``points`` is one cell of unit vectors, ``(n, 3)``, or a stack of
    cells of equal size, ``(G, n, 3)``; each cell is clustered on its own
    and the labels come back as ``(n,)`` or ``(G, n)``, -1 for noise.

    The labels follow from array operations on the Gram matrix of each
    cell. A point with at least min_pts neighbours (itself included) is
    core; clusters are the connected components of the core-to-core
    neighbour graph, numbered in order of their smallest core index; a
    border point joins the lowest-numbered cluster among its neighbouring
    cores. These are exactly the labels that growing clusters by core
    expansion in index order gives (Ester et al., KDD 1996).
    """
    if eps_deg <= 0:
        raise ValueError("eps_deg must be positive")
    pts = np.asarray(points, dtype=float)
    stack = pts if pts.ndim == 3 else pts.reshape(1, -1, 3)
    if stack.shape[-1] != 3:
        raise ValueError(f"expected points shaped (n, 3) or (G, n, 3), got {pts.shape}")
    n = stack.shape[1]
    cos_eps = math.cos(math.radians(eps_deg))
    adjacency = stack @ stack.transpose(0, 2, 1) >= cos_eps - 1e-12
    core = adjacency.sum(axis=2) >= min_pts
    # reach[g, j, i]: core point j has point i within eps
    reach = adjacency & core[:, :, np.newaxis]
    # min-label propagation: each core point ends with the smallest core
    # index of its component, its root; non-core points hold n
    index = np.arange(n)
    root = np.where(core, index, n)
    while True:
        pulled = np.where(reach, root[:, :, np.newaxis], n).min(axis=1, initial=n)
        settled = np.where(core, np.minimum(root, pulled), n)
        if np.array_equal(settled, root):
            break
        root = settled
    # a root's cluster id is the number of roots before it
    cluster_of = np.cumsum(root == index, axis=1) - 1
    core_labels = np.take_along_axis(cluster_of, np.minimum(root, n - 1), axis=1)
    border = np.where(reach, core_labels[:, :, np.newaxis], n).min(axis=1, initial=n)
    labels = np.where(core, core_labels, border)
    labels[labels == n] = -1
    return labels if pts.ndim == 3 else labels[0]


def aggregate(candidates: CandidateSet, config: TtaConfig | None = None) -> list[DetectedEvent]:
    """Cluster and average candidates into final detections.

    Cells with fewer than min_candidates candidates emit nothing. Within a
    qualifying cell, candidates are clustered on their unit directions;
    noise is dropped and each cluster becomes one event whose vector is
    the arithmetic mean of the member vectors (activity = its norm).
    Frames holding more than max_tracks events keep the top ones by
    weight = member count x norm of the mean, then class, then azimuth.

    Cells of equal candidate count are clustered together: one stacked
    ``dbscan_sphere`` call per distinct count. Every cluster's frame,
    class, size, mean, activity and weight are arrays; clusters are
    ranked per frame before any event is built, and only kept clusters
    become a ``DetectedEvent`` with a direction. A candidate row of zero
    norm, or with a non-finite value, has no direction and raises
    ValueError naming its (frame, class) cell.
    """
    config = config or TtaConfig()
    keys, offsets, rows = candidates.keys, candidates.offsets, candidates.rows
    counts = np.diff(offsets)
    clusters = []  # per count: (cell index, size, mean) of each cluster, in insertion order
    for n in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == n)
        vecs = rows[offsets[sel, np.newaxis] + np.arange(n)]
        norms = np.linalg.norm(vecs, axis=2)
        degenerate = ~(np.isfinite(norms) & (norms > 0.0)).all(axis=1)
        if degenerate.any():
            frame, class_id = keys[sel[np.argmax(degenerate)]].tolist()
            raise ValueError(f"zero-norm or non-finite candidate row in cell {(frame, class_id)}")
        if n < config.min_candidates:
            continue
        labels = dbscan_sphere(vecs / norms[:, :, np.newaxis], config.unify_deg, config.min_pts)
        n_clusters = int(labels.max(initial=-1)) + 1
        # member rows summed in index order from -0.0, as members.mean(axis=0)
        # does, so the means are bit-equal to it; noise goes to a last slot
        sums = np.full((len(sel), n_clusters + 1, 3), -0.0)
        slots = np.where(labels < 0, n_clusters, labels)
        cell_rows = np.arange(len(sel))
        for i in range(n):
            sums[cell_rows, slots[:, i]] += vecs[:, i]
        sizes = (labels[:, :, np.newaxis] == np.arange(n_clusters)).sum(axis=1)
        g, cluster = np.nonzero(sizes)
        size = sizes[g, cluster]
        clusters.append((sel[g], size, sums[g, cluster] / size[:, np.newaxis]))
    if not clusters:
        return []
    cell, size, mean = (np.concatenate(parts) for parts in zip(*clusters))
    # the dot kernel np.linalg.norm uses on one vector, so bit-equal to it
    activity = np.sqrt(np.matmul(mean[:, np.newaxis, :], mean[:, :, np.newaxis]))[:, 0, 0]
    live = activity != 0.0
    if not live.any():
        return []
    cell, size, mean, activity = cell[live], size[live], mean[live], activity[live]
    frame, class_id = keys[cell].T
    weight = size * activity
    # from here on, clusters sit in rank order: per frame by (-weight, class, insertion)
    order = np.lexsort((np.arange(len(cell)), class_id, -weight, frame))
    frame, class_id, weight, mean, activity = (a[order] for a in (frame, class_id, weight, mean, activity))
    pos = np.arange(len(order))
    new_frame = np.r_[True, frame[1:] != frame[:-1]]
    rank = pos - np.maximum.accumulate(np.where(new_frame, pos, 0))
    keep = rank < config.max_tracks
    # a (weight, class) tie across the cut is split by azimuth: only its
    # clusters need a direction before the cut
    tie = np.cumsum(new_frame | np.r_[True, (weight[1:] != weight[:-1]) | (class_id[1:] != class_id[:-1])])
    directions: dict = {}

    def direction(i):
        if i not in directions:
            directions[i] = unit_to_dir(mean[i])
        return directions[i]

    for last in np.flatnonzero((rank[:-1] == config.max_tracks - 1) & (tie[1:] == tie[:-1])).tolist():
        lo, hi = np.searchsorted(tie, [tie[last], tie[last] + 1])
        keep[lo:hi] = False
        keep[sorted(range(lo, hi), key=lambda i: direction(i).azimuth)[: last + 1 - lo]] = True
    events = [
        DetectedEvent(int(frame[i]), int(class_id[i]), direction(i), float(activity[i]))
        for i in np.flatnonzero(keep).tolist()
    ]
    return sorted(events, key=lambda e: (e.frame, e.class_id, e.direction.azimuth))


def run_tta(
    predictor,
    clip: AudioClip | WavInfo,
    identity,
    config: TtaConfig | None = None,
    feature_config: FeatureConfig | None = None,
    n_classes: int | None = None,
) -> list[DetectedEvent]:
    """Full TTA: predict under all 16 rotations, de-rotate, cluster, aggregate.

    Features are extracted once, and only when some model reads them
    (``predict.reads_features``); for a reading model each pattern
    predicts on its own rotated copy of them (``apply_to_features``),
    which equals the features of the rotated audio. A model that does not
    read features, such as the built-in oracle, constant and external
    predictors, is given None; with no reading model, ``clip`` may be an
    ``audio.WavInfo`` in place of the clip, since only its rate and length
    are read. ``predictor`` follows the predictor
    contract (see seldkit.predict) and is given the clip's label-frame
    count, ``feature_config.label_frames(clip.n_samples)``; ``identity``
    names the clip and any rotation already applied to it, so rotation-
    aware predictors compose correctly. Accepts a sequence of predictors
    as well (the cross-validation ensemble): each model's 16 predictions
    add rows to the same candidate cells, so ``min_candidates`` may be at
    most 16 per model.

    Every prediction is checked against the predictor contract
    (``predict.check_prediction``): ``n_classes`` label classes, or any
    count when None, exactly that many label-frame rows, finite values
    and no vector longer than sqrt(3). A failure raises ValueError naming
    the predictor's index, the clip and the rotation pattern.
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
    feature_config.check_rate(clip)
    reading = [reads_features(model) for model in predictors]
    if any(reading) and not isinstance(clip, AudioClip):
        raise TypeError(f"a model that reads features needs the clip's samples, got {type(clip).__name__}")
    features = extract_features(clip, feature_config) if any(reading) else None
    label_frames = feature_config.label_frames(clip.n_samples)
    predictions = []
    for model_idx, model in enumerate(predictors):
        for p in all_patterns():
            ident = identity.with_pattern(compose(p, base_pattern).id)
            model_features = apply_to_features(features, p) if reading[model_idx] else None
            try:
                seq = model.predict(model_features, ident, label_frames)
            except Exception as exc:
                raise RuntimeError(
                    f"predictor {model_idx} failed on rotation pattern {p.id}: {exc}"
                ) from exc
            try:
                check_prediction(seq, ident, label_frames, n_classes)
            except ValueError as exc:
                raise ValueError(f"{exc} (predictor {model_idx})") from exc
            predictions.append((p.id, seq))
    return aggregate(collect_candidates(predictions, config.activity_threshold), config)
