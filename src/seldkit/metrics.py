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

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import angle_between, dir_to_unit


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
    """Per-class accumulators; addition merges stats from concurrent scoring."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    loc_error_sum: float = 0.0
    loc_match_count: int = 0
    det_recall_count: int = 0
    ref_count: int = 0
    seg_s: int = 0
    seg_d: int = 0
    seg_i: int = 0

    def __add__(self, other: "ClassStats") -> "ClassStats":
        return ClassStats(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.loc_error_sum + other.loc_error_sum,
            self.loc_match_count + other.loc_match_count,
            self.det_recall_count + other.det_recall_count,
            self.ref_count + other.ref_count,
            self.seg_s + other.seg_s,
            self.seg_d + other.seg_d,
            self.seg_i + other.seg_i,
        )


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
    pred_vecs = np.array([dir_to_unit(p.direction).as_array() for p in preds])
    ref_vecs = np.array([dir_to_unit(r.direction).as_array() for r in refs])
    cost = angle_between(pred_vecs[:, np.newaxis, :], ref_vecs[np.newaxis, :, :])
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j), float(cost[i, j])) for i, j in zip(rows, cols)]
    unmatched_preds = sorted(set(range(len(preds))) - set(rows.tolist()))
    unmatched_refs = sorted(set(range(len(refs))) - set(cols.tolist()))
    return pairs, unmatched_preds, unmatched_refs


def accumulate(stats: ClassStats, matching, config: MetricConfig) -> tuple[int, int]:
    """Fold one frame's matching into the per-class counters.

    A matched pair within the spatial threshold is a TP; beyond it, one FP
    plus one FN. Unmatched predictions are FPs, unmatched references FNs.
    Every class-matched pair feeds the localization error and recall
    regardless of its distance. Returns this frame's (fp, fn) increment
    for the caller's segment bookkeeping.
    """
    pairs, unmatched_preds, unmatched_refs = matching
    fp = len(unmatched_preds)
    fn = len(unmatched_refs)
    for _, _, dist in pairs:
        stats.loc_error_sum += dist
        stats.loc_match_count += 1
        stats.det_recall_count += 1
        if dist <= config.spatial_threshold_deg:
            stats.tp += 1
        else:
            fp += 1
            fn += 1
    stats.ref_count += len(pairs) + len(unmatched_refs)
    stats.fp += fp
    stats.fn += fn
    return fp, fn


def evaluate_stats(pred_events, ref_annotation, config: MetricConfig | None = None) -> list[ClassStats]:
    """Score one clip's detections against its annotation, returning raw stats.

    Stats from several clips may be summed class-wise before finalizing.
    """
    config = config or MetricConfig()
    preds_by_cell: dict = {}
    for ev in pred_events:
        if ev.class_id >= config.n_classes:
            raise ValueError(
                f"prediction class {ev.class_id} out of range for n_classes={config.n_classes}"
            )
        preds_by_cell.setdefault((ev.frame, ev.class_id), []).append(ev)
    refs_by_cell: dict = {}
    for ev in ref_annotation.events:
        refs_by_cell.setdefault((ev.frame, ev.class_id), []).append(ev)

    last_frame = max(
        [f for f, _ in preds_by_cell] + [f for f, _ in refs_by_cell], default=-1
    )
    stats = [ClassStats() for _ in range(config.n_classes)]
    seg = config.segment_frames
    n_segments = (last_frame + seg) // seg if last_frame >= 0 else 0
    for class_id in range(config.n_classes):
        st = stats[class_id]
        for segment in range(n_segments):
            seg_fp = seg_fn = 0
            for frame in range(segment * seg, (segment + 1) * seg):
                preds = preds_by_cell.get((frame, class_id), [])
                refs = refs_by_cell.get((frame, class_id), [])
                if not preds and not refs:
                    continue
                fp, fn = accumulate(st, match_frame(preds, refs), config)
                seg_fp += fp
                seg_fn += fn
            st.seg_s += min(seg_fp, seg_fn)
            st.seg_d += max(0, seg_fn - seg_fp)
            st.seg_i += max(0, seg_fp - seg_fn)
    return stats


def finalize(stats, config: MetricConfig | None = None) -> SeldScores:
    """Macro-average per-class stats into the four scores.

    Classes without references are excluded; the localization error
    averages over classes with matched pairs and degrades to 180 degrees
    when no class has any.
    """
    config = config or MetricConfig()
    scored = [st for st in stats if st.ref_count > 0]
    if not scored:
        raise ValueError("undefined metrics: no reference events in any class")
    er = float(np.mean([(st.seg_s + st.seg_d + st.seg_i) / st.ref_count for st in scored]))
    f = float(
        np.mean(
            [
                2 * st.tp / (2 * st.tp + st.fp + st.fn) if (2 * st.tp + st.fp + st.fn) else 0.0
                for st in scored
            ]
        )
    )
    localized = [st for st in scored if st.loc_match_count > 0]
    le = (
        float(np.mean([st.loc_error_sum / st.loc_match_count for st in localized]))
        if localized
        else 180.0
    )
    lr = float(np.mean([st.det_recall_count / st.ref_count for st in scored]))
    return SeldScores(er, f, le, lr)


def class_breakdown(stats) -> dict:
    """Per-class metric ingredients, JSON-friendly, for score reports."""
    out = {}
    for class_id, st in enumerate(stats):
        if st.ref_count == 0 and st.fp == 0:
            continue
        out[str(class_id)] = {
            "tp": st.tp,
            "fp": st.fp,
            "fn": st.fn,
            "ref_count": st.ref_count,
            "er20": ((st.seg_s + st.seg_d + st.seg_i) / st.ref_count) if st.ref_count else None,
            "f20": (2 * st.tp / (2 * st.tp + st.fp + st.fn)) if (2 * st.tp + st.fp + st.fn) else None,
            "le_cd": (st.loc_error_sum / st.loc_match_count) if st.loc_match_count else None,
            "lr_cd": (st.det_recall_count / st.ref_count) if st.ref_count else None,
        }
    return out


def evaluate(pred_events, ref_annotation, config: MetricConfig | None = None) -> SeldScores:
    """Score detections against ground truth (see module docstring for the recipe)."""
    config = config or MetricConfig()
    return finalize(evaluate_stats(pred_events, ref_annotation, config), config)


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
