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
minimum-total-angular-distance assignment.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import angle_between, unit_vectors


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
    """Per-class accumulators; addition merges stats from concurrent scoring.

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
        return ClassStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


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


def match_frame(preds, refs):
    """Assign one frame's predictions to references of the same class.

    Hungarian assignment minimizing total angular distance. Returns
    (pairs, unmatched_pred_indices, unmatched_ref_indices) where pairs are
    (pred_index, ref_index, distance_deg) triples.
    """
    if not preds or not refs:
        return [], list(range(len(preds))), list(range(len(refs)))
    pred_vecs = unit_vectors([p.direction for p in preds])
    ref_vecs = unit_vectors([r.direction for r in refs])
    cost = angle_between(pred_vecs[:, np.newaxis, :], ref_vecs[np.newaxis, :, :])
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j), float(cost[i, j])) for i, j in zip(rows, cols)]
    unmatched_preds = sorted(set(range(len(preds))) - set(rows.tolist()))
    unmatched_refs = sorted(set(range(len(refs))) - set(cols.tolist()))
    return pairs, unmatched_preds, unmatched_refs


def evaluate_stats(pred_events, ref_annotation, config: MetricConfig | None = None) -> list[ClassStats]:
    """Score one clip's detections against its annotation, returning raw stats.

    Stats from several clips may be summed class-wise before finalizing.
    The result equals a walk over class x segment x frame that folds each
    non-empty (frame, class) cell's ``match_frame`` into the class's
    counters, floats included, computed in array form:

    * events are grouped into cells, each class's cells in frame order;
    * the cells holding one prediction and one reference are matched in
      one ``angle_between`` call, and ``match_frame`` runs only on cells
      with two or more predictions or references on both sides;
    * per cell, a pair within the spatial threshold is a TP and one beyond
      it an FP plus an FN; each class sums its counts, its segment
      bookkeeping and, left to right in frame order, its pair distances.

    Predictions in a negative frame or class are not scored, as the walk
    never reaches them. A prediction or reference of class ``n_classes``
    or above raises ValueError.
    """
    config = config or MetricConfig()
    n_classes = config.n_classes
    refs = list(ref_annotation.events)
    for kind, events in (("prediction", pred_events), ("reference", refs)):
        for ev in events:
            if ev.class_id >= n_classes:
                raise ValueError(f"{kind} class {ev.class_id} out of range for n_classes={n_classes}")
    preds = [ev for ev in pred_events if ev.frame >= 0 and ev.class_id >= 0]
    if not preds and not refs:
        return [ClassStats() for _ in range(n_classes)]

    # cell key class * span + frame: sorted keys give each class's cells in frame order
    span = 1 + max(ev.frame for ev in preds + refs)
    p_key = np.fromiter((ev.class_id * span + ev.frame for ev in preds), np.int64, len(preds))
    r_key = np.fromiter((ev.class_id * span + ev.frame for ev in refs), np.int64, len(refs))
    p_order = np.argsort(p_key, kind="stable")  # events of a cell keep their input order
    r_order = np.argsort(r_key, kind="stable")
    cells = np.union1d(p_key, r_key)
    n_pred = np.bincount(np.searchsorted(cells, p_key), minlength=len(cells))
    n_ref = np.bincount(np.searchsorted(cells, r_key), minlength=len(cells))
    p_first = np.cumsum(n_pred) - n_pred
    r_first = np.cumsum(n_ref) - n_ref
    n_pairs = np.minimum(n_pred, n_ref)
    pair_first = np.cumsum(n_pairs) - n_pairs

    # matched distances, per cell in match_frame's pair order
    dist = np.empty(int(n_pairs.sum()))
    one = (n_pred == 1) & (n_ref == 1)
    dist[pair_first[one]] = angle_between(
        unit_vectors([preds[i].direction for i in p_order[p_first[one]]]),
        unit_vectors([refs[i].direction for i in r_order[r_first[one]]]),
    )
    for cell in np.flatnonzero((n_pairs > 0) & ~one):
        pairs, _, _ = match_frame(
            [preds[i] for i in p_order[p_first[cell] : p_first[cell] + n_pred[cell]]],
            [refs[i] for i in r_order[r_first[cell] : r_first[cell] + n_ref[cell]]],
        )
        dist[pair_first[cell] : pair_first[cell] + n_pairs[cell]] = [d for _, _, d in pairs]

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
        # a left-to-right running sum, as the walk adds distances one by one
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
    """Sum per-class stats across clips (associative, order-independent)."""
    merged = None
    for stats in per_clip_stats:
        if merged is None:
            merged = [ClassStats() + st for st in stats]
        else:
            merged = [a + b for a, b in zip(merged, stats)]
    if merged is None:
        raise ValueError("no stats to merge")
    return merged
