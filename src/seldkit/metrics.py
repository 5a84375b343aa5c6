"""Location-dependent SELD evaluation metrics.

Four scores with macro class averaging:

* ER20: segment-wise error rate on location-dependent counts, where a
  detection only counts as correct when its class matches and its angular
  error is within the spatial threshold.
* F20: frame-wise F-score on the same location-dependent counts.
* LE_CD: mean angular error over class-matched prediction/reference pairs
  (location-agnostic matching).
* LR_CD: fraction of references detected with the correct class,
  regardless of localization accuracy.

Predictions and references are matched per (frame, class) by the
minimum-total-angular-distance assignment. A cell with one event on a
side is matched to its nearest counterpart, which is that assignment;
only a cell with two or more events on both sides loads
``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .accdoa import EventTable
from .geometry import angle_between, angle_unit_vectors, unit_vectors


@dataclass(frozen=True)
class MetricConfig:
    """Scoring settings. Class averaging is always macro (the mean over classes)."""

    spatial_threshold_deg: float = 20.0
    segment_frames: int = 10
    n_classes: int = 13

    def __post_init__(self):
        if not 0.0 < self.spatial_threshold_deg < 180.0:
            raise ValueError("spatial_threshold_deg must be in (0, 180)")
        if self.segment_frames < 1:
            raise ValueError("segment_frames must be >= 1")


@dataclass
class ClassStats:
    """Per-class accumulators; addition merges the stats of two clips.

    ``loc_match_count`` counts the class-matched prediction/reference
    pairs: LE_CD averages ``loc_error_sum`` over them and LR_CD counts them
    against ``ref_count``.
    """

    tp: int = 0
    fp: int = 0
    fn: int = 0
    loc_error_sum: float = 0.0
    loc_match_count: int = 0
    ref_count: int = 0
    seg_s: int = 0
    seg_d: int = 0
    seg_i: int = 0

    def __add__(self, other: "ClassStats") -> "ClassStats":
        return ClassStats(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


@dataclass(frozen=True)
class SeldScores:
    er20: float
    f20: float
    le_cd: float
    lr_cd: float

    def __post_init__(self):
        if self.er20 < 0 or not 0 <= self.f20 <= 1 or not 0 <= self.lr_cd <= 1:
            raise ValueError("scores out of range")
        if not 0 <= self.le_cd <= 180:
            raise ValueError("localization error out of [0, 180]")

    def to_dict(self) -> dict:
        return {"er20": self.er20, "f20": self.f20, "le_cd": self.le_cd, "lr_cd": self.lr_cd}


def evaluate_stats(pred_events, ref_annotation, config: MetricConfig | None = None) -> list[ClassStats]:
    """Score one clip's detections against its annotation, returning raw stats.

    ``pred_events`` is an ``accdoa.EventTable``, as ``decode`` and
    ``run_tta`` return, or any sequence of ``DetectedEvent`` objects,
    read as the table ``EventTable.from_events`` makes of them; the
    annotation is read by its columns. Stats from several clips may be
    summed class-wise before finalizing. The recipe:

    * events are grouped into (frame, class) cells, each class's cells in
      frame order, the events of a cell in their input order;
    * each cell's predictions and references are matched by the
      assignment with the minimum total great-circle distance; a cell
      with one event on a side is matched to its nearest counterpart, and
      a cell with two or more on both sides by
      ``scipy.optimize.linear_sum_assignment`` on its cost matrix;
    * a matched pair within the spatial threshold is a TP and one beyond
      it an FP plus an FN; an unmatched prediction is an FP and an
      unmatched reference an FN;
    * every matched pair counts for LE_CD and LR_CD whatever its
      distance; ER20 counts substitutions, deletions and insertions per
      segment of ``segment_frames`` frames.

    Each class sums its pair distances one by one, in frame order. A
    prediction in a negative frame or class is not scored; a prediction
    or reference of class ``n_classes`` or above raises ValueError.
    """
    config = config or MetricConfig()
    n_classes = config.n_classes
    preds = EventTable.from_events(pred_events)
    refs = ref_annotation
    for kind, classes in (("prediction", preds.class_id), ("reference", refs.class_id)):
        beyond = classes >= n_classes
        if beyond.any():
            raise ValueError(f"{kind} class {int(classes[beyond.argmax()])} out of range for n_classes={n_classes}")
    scored = (preds.frame >= 0) & (preds.class_id >= 0)
    p_frame, p_class = preds.frame[scored], preds.class_id[scored]
    if not len(p_frame) and not len(refs.frame):
        return [ClassStats() for _ in range(n_classes)]

    # cell key class * span + frame: sorted keys give each class's cells in frame order
    span = 1 + max(int(p_frame.max(initial=-1)), int(refs.frame.max(initial=-1)))
    p_key = p_class.astype(np.int64) * span + p_frame
    r_key = refs.class_id.astype(np.int64) * span + refs.frame
    p_order = np.argsort(p_key, kind="stable")  # events of a cell keep their input order
    r_order = np.argsort(r_key, kind="stable")
    cells = np.union1d(p_key, r_key)
    n_pred = np.bincount(np.searchsorted(cells, p_key), minlength=len(cells))
    n_ref = np.bincount(np.searchsorted(cells, r_key), minlength=len(cells))
    p_first = np.cumsum(n_pred) - n_pred
    r_first = np.cumsum(n_ref) - n_ref
    n_pairs = np.minimum(n_pred, n_ref)
    pair_first = np.cumsum(n_pairs) - n_pairs

    # unit vectors: a reference's once per distinct direction, a prediction's from its own angles
    r_vecs = unit_vectors(refs.directions)[refs.inverse]
    p_vecs = angle_unit_vectors(preds.azimuth[scored], preds.elevation[scored])

    # matched distances, per cell in its assignment's pair order
    dist = np.empty(int(n_pairs.sum()))
    # a cell with one event on a side has one pair, the minimum of its cost
    # entries: entry k of such a cell pairs event k of its longer side with
    # the one event of the other, and k % 1 == 0 picks that one event
    single = np.flatnonzero(n_pairs == 1)
    n_entries = n_pred[single] * n_ref[single]
    entry_first = np.cumsum(n_entries) - n_entries
    entry_cell = np.repeat(single, n_entries)
    k = np.arange(int(n_entries.sum())) - np.repeat(entry_first, n_entries)
    costs = angle_between(
        p_vecs[p_order[p_first[entry_cell] + k % n_pred[entry_cell]]],
        r_vecs[r_order[r_first[entry_cell] + k % n_ref[entry_cell]]],
    )
    dist[pair_first[single]] = np.minimum.reduceat(costs, entry_first)
    # cells with two or more events on both sides: cost matrices grouped by shape
    multi = np.flatnonzero(n_pairs > 1)
    if len(multi):
        # here, not at the top: a run whose cells hold one event on a side never needs scipy.optimize
        from scipy.optimize import linear_sum_assignment

        shape = n_pred[multi] * (1 + int(n_ref.max())) + n_ref[multi]
        for group in np.unique(shape).tolist():
            sel = multi[shape == group]
            n_p, n_r = int(n_pred[sel[0]]), int(n_ref[sel[0]])
            p_cells = p_vecs[p_order[p_first[sel, np.newaxis] + np.arange(n_p)]]
            r_cells = r_vecs[r_order[r_first[sel, np.newaxis] + np.arange(n_r)]]
            costs = angle_between(p_cells[:, :, np.newaxis, :], r_cells[:, np.newaxis, :, :])
            for start, cost in zip(pair_first[sel].tolist(), costs):
                rows, cols = linear_sum_assignment(cost)
                dist[start : start + len(rows)] = cost[rows, cols]

    pair_cell = np.repeat(np.arange(len(cells)), n_pairs)
    tp = np.bincount(pair_cell[dist <= config.spatial_threshold_deg], minlength=len(cells))
    fp = n_pred - tp  # unmatched predictions plus pairs beyond the threshold
    fn = n_ref - tp
    cell_class = cells // span
    segment = cell_class * span + cells % span // config.segment_frames
    seg_start = np.flatnonzero(np.r_[True, segment[1:] != segment[:-1]])
    seg_fp = np.add.reduceat(fp, seg_start)
    seg_fn = np.add.reduceat(fn, seg_start)

    def per_class(values, classes=cell_class):
        total = np.zeros(n_classes, dtype=np.int64)
        np.add.at(total, classes, values)
        return total.tolist()

    seg_class = cell_class[seg_start]
    columns = zip(
        per_class(tp),
        per_class(fp),
        per_class(fn),
        per_class(n_pairs),
        per_class(n_ref),
        per_class(np.minimum(seg_fp, seg_fn), seg_class),
        per_class(np.maximum(0, seg_fn - seg_fp), seg_class),
        per_class(np.maximum(0, seg_fp - seg_fn), seg_class),
    )
    pair_bounds = np.searchsorted(cell_class[pair_cell], np.arange(n_classes + 1))
    stats = []
    for class_id, (c_tp, c_fp, c_fn, c_pairs, c_refs, seg_s, seg_d, seg_i) in enumerate(columns):
        lo, hi = pair_bounds[class_id], pair_bounds[class_id + 1]
        # a left-to-right running sum: the distances are added one by one
        loc_error_sum = float(np.cumsum(dist[lo:hi])[-1]) if hi > lo else 0.0
        stats.append(
            ClassStats(c_tp, c_fp, c_fn, loc_error_sum, c_pairs, c_refs, seg_s, seg_d, seg_i)
        )
    return stats


def class_scores(st: ClassStats) -> dict:
    """One class's ER20/F20/LE_CD/LR_CD; None where a score's denominator is 0."""
    f_denominator = 2 * st.tp + st.fp + st.fn
    return {
        "er20": (st.seg_s + st.seg_d + st.seg_i) / st.ref_count if st.ref_count else None,
        "f20": 2 * st.tp / f_denominator if f_denominator else None,
        "le_cd": st.loc_error_sum / st.loc_match_count if st.loc_match_count else None,
        "lr_cd": st.loc_match_count / st.ref_count if st.ref_count else None,
    }


def finalize(stats) -> SeldScores:
    """Macro-average per-class stats (see ``class_scores``) into the four scores.

    The threshold and segment length were applied when the stats were
    counted, so nothing here reads a ``MetricConfig``. Classes without
    references are excluded; F20 counts 0 for a class with no TP, FP or
    FN, and the localization error averages over classes with matched
    pairs and degrades to 180 degrees when no class has any.
    """
    scored = [class_scores(st) for st in stats if st.ref_count > 0]
    if not scored:
        raise ValueError("undefined metrics: no reference events in any class")
    er = float(np.mean([s["er20"] for s in scored]))
    f = float(np.mean([0.0 if s["f20"] is None else s["f20"] for s in scored]))
    localized = [s["le_cd"] for s in scored if s["le_cd"] is not None]
    le = float(np.mean(localized)) if localized else 180.0
    lr = float(np.mean([s["lr_cd"] for s in scored]))
    return SeldScores(er, f, le, lr)


def class_breakdown(stats) -> dict:
    """Per-class metric ingredients and scores, JSON-friendly, for score reports."""
    return {
        str(class_id): {
            "tp": st.tp,
            "fp": st.fp,
            "fn": st.fn,
            "ref_count": st.ref_count,
            **class_scores(st),
        }
        for class_id, st in enumerate(stats)
        if st.ref_count or st.fp
    }


def score_report(stats) -> dict:
    """The scored part of a scores document: the four scores and the per-class breakdown."""
    return {"scores": finalize(stats).to_dict(), "per_class": class_breakdown(stats)}


def evaluate(pred_events, ref_annotation, config: MetricConfig | None = None) -> SeldScores:
    """Score detections against ground truth (see module docstring for the recipe)."""
    return finalize(evaluate_stats(pred_events, ref_annotation, config))


def merge_stats(per_clip_stats) -> list[ClassStats]:
    """Sum per-class stats across clips, in the given order.

    The counts are the same in any order; the float ``loc_error_sum`` is
    added clip by clip, so another order may change its last bits.
    """
    merged = None
    for stats in per_clip_stats:
        if merged is None:
            merged = [ClassStats() + st for st in stats]
        else:
            merged = [a + b for a, b in zip(merged, stats)]
    if merged is None:
        raise ValueError("no stats to merge")
    return merged
