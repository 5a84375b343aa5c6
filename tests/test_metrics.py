import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seldkit.accdoa import DetectedEvent, EventTable
from seldkit.geometry import Direction, angle_between, angular_distance, unit_vectors
from seldkit.labels import ClipAnnotation, EventLabel
from seldkit.metrics import (
    ClassStats,
    MetricConfig,
    SeldScores,
    class_breakdown,
    evaluate,
    evaluate_stats,
    finalize,
    merge_stats,
    score_report,
)
from seldkit.rotation import all_patterns, apply_to_direction

from conftest import random_direction

CFG2 = MetricConfig(n_classes=2)


def brute_min_cost(cost: np.ndarray) -> float:
    """Exhaustive assignment oracle: minimum over all injections."""
    n_rows, n_cols = cost.shape
    k = min(n_rows, n_cols)
    best = math.inf
    for rows in itertools.permutations(range(n_rows), k):
        for cols in itertools.permutations(range(n_cols), k):
            best = min(best, sum(cost[r, c] for r, c in zip(rows, cols)))
    return best


def pred(frame, class_id, az, el, activity=1.0):
    return DetectedEvent(frame, class_id, Direction(az, el), activity)


def ref(frame, class_id, az, el, track=0):
    return EventLabel(frame, class_id, track, Direction(az, el))


class TestMatchFrame:
    """The reference matcher, and ``evaluate_stats`` on one cell, against exhaustive search."""

    def test_empty(self):
        pairs, up, ur = match_frame([], [])
        assert (pairs, up, ur) == ([], [], [])

    def test_nearest_wins(self):
        pairs, up, ur = match_frame(
            [pred(0, 0, 10, 0)], [ref(0, 0, 0, 0), ref(0, 0, 90, 0, track=1)]
        )
        assert len(pairs) == 1
        assert pairs[0][1] == 0  # matched to the az-0 reference
        assert pairs[0][2] == pytest.approx(10.0, abs=1e-9)
        assert up == [] and ur == [1]

    def test_assignment_cost_is_permutation_minimum(self, rng):
        for _ in range(50):
            n_pred, n_ref = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            preds = [pred(0, 0, *_rand_angles(rng)) for _ in range(n_pred)]
            refs = [ref(0, 0, *_rand_angles(rng), track=i) for i, _ in enumerate(range(n_ref))]
            cost = np.array(
                [[angular_distance(p.direction, r.direction) for r in refs] for p in preds]
            )
            pairs, _, _ = match_frame(preds, refs)
            got = sum(d for _, _, d in pairs)
            assert got == pytest.approx(brute_min_cost(cost), abs=1e-9)
            # every pair of one cell feeds LE_CD, so the error sum is the assignment's cost
            stats = evaluate_stats(preds, ClipAnnotation(tuple(refs), n_classes=2), CFG2)
            assert stats[0].loc_error_sum == pytest.approx(brute_min_cost(cost), abs=1e-9)
            assert stats[0].loc_match_count == min(n_pred, n_ref)


def _rand_angles(rng):
    return float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90))


class TestAccumulate:
    def test_perfect_match(self):
        st = ClassStats()
        fp, fn = accumulate(st, match_frame([pred(0, 0, 30, 10)], [ref(0, 0, 30, 10)]), CFG2)
        assert (fp, fn) == (0, 0)
        assert (st.tp, st.fp, st.fn) == (1, 0, 0)
        assert st.loc_error_sum == pytest.approx(0.0, abs=1e-9)
        assert (st.loc_match_count, st.ref_count) == (1, 1)

    def test_match_beyond_threshold(self):
        st = ClassStats()
        fp, fn = accumulate(st, match_frame([pred(0, 0, 30, 0)], [ref(0, 0, 0, 0)]), CFG2)
        assert (fp, fn) == (1, 1)
        assert (st.tp, st.fp, st.fn) == (0, 1, 1)
        assert st.loc_error_sum == pytest.approx(30.0, abs=1e-9)
        assert st.loc_match_count == 1

    def test_spurious_prediction(self):
        st = ClassStats()
        fp, fn = accumulate(st, match_frame([pred(0, 0, 30, 0)], []), CFG2)
        assert (fp, fn) == (1, 0)
        assert (st.tp, st.fp, st.fn, st.ref_count) == (0, 1, 0, 0)


class TestFinalize:
    def test_perfect(self):
        refs = ClipAnnotation(
            tuple(ref(f, f % 2, 20 * f - 100, 5 * f - 20) for f in range(8)), n_classes=2
        )
        preds = [pred(e.frame, e.class_id, e.direction.azimuth, e.direction.elevation) for e in refs.events]
        scores = evaluate(preds, refs, CFG2)
        assert scores.er20 == 0.0
        assert scores.f20 == 1.0
        assert scores.le_cd == pytest.approx(0.0, abs=1e-9)
        assert scores.lr_cd == 1.0

    def test_no_predictions(self):
        refs = ClipAnnotation(tuple(ref(f, 0, 10, 0) for f in range(5)), n_classes=2)
        scores = evaluate([], refs, CFG2)
        assert scores.er20 == 1.0  # all deletions
        assert scores.f20 == 0.0
        assert scores.le_cd == 180.0
        assert scores.lr_cd == 0.0

    def test_mixed_two_class_hand_case(self):
        # class 0 perfect, class 1 matched at 30 degrees; one segment, one ref each
        refs = ClipAnnotation((ref(0, 0, 0, 0), ref(0, 1, 0, 0)), n_classes=2)
        preds = [pred(0, 0, 0, 0), pred(0, 1, 30, 0)]
        scores = evaluate(preds, refs, CFG2)
        assert scores.er20 == pytest.approx(0.5)
        assert scores.f20 == pytest.approx(0.5)
        assert scores.le_cd == pytest.approx(15.0, abs=1e-9)
        assert scores.lr_cd == pytest.approx(1.0)

    def test_zero_references_everywhere_rejected(self):
        with pytest.raises(ValueError, match="undefined metrics"):
            evaluate([pred(0, 0, 0, 0)], ClipAnnotation((), n_classes=2), CFG2)

    def test_out_of_range_prediction_class_rejected(self):
        refs = ClipAnnotation((ref(0, 0, 0, 0),), n_classes=2)
        with pytest.raises(ValueError, match="out of range"):
            evaluate([pred(0, 5, 0, 0)], refs, CFG2)

    def test_out_of_range_reference_class_rejected(self):
        # dropping the class-4 references would score this clip as perfect
        refs = ClipAnnotation((ref(0, 0, 0, 0), ref(0, 4, 0, 0), ref(1, 4, 30, 0)))
        with pytest.raises(ValueError, match=r"^reference class 4 out of range for n_classes=3$"):
            evaluate([pred(0, 0, 0, 0)], refs, MetricConfig(n_classes=3))
        assert evaluate([pred(0, 0, 0, 0)], refs, MetricConfig()).er20 == 0.5

    def test_segment_shift_blows_up_er(self):
        refs = ClipAnnotation(tuple(ref(f, 0, 0, 0) for f in range(10)), n_classes=2)
        preds = [pred(f + 10, 0, 0, 0) for f in range(10)]
        scores = evaluate(preds, refs, CFG2)
        assert scores.er20 >= 1.0

    def test_scores_validated(self):
        with pytest.raises(ValueError):
            SeldScores(-0.1, 0.5, 10.0, 0.5)
        with pytest.raises(ValueError):
            SeldScores(0.1, 0.5, 200.0, 0.5)


class TestProperties:
    def _random_case(self, rng, n_classes=4):
        refs = []
        preds = []
        for frame in range(12):
            for class_id in range(n_classes):
                if rng.uniform() < 0.4:
                    d = random_direction(rng, max_abs_el=85.0)
                    refs.append(EventLabel(frame, class_id, 0, d))
                    if rng.uniform() < 0.8:
                        az = d.azimuth + rng.uniform(-40, 40)
                        el = float(np.clip(d.elevation + rng.uniform(-20, 20), -90, 90))
                        preds.append(DetectedEvent(frame, class_id, Direction(az, el), 0.9))
                elif rng.uniform() < 0.1:
                    preds.append(
                        DetectedEvent(frame, class_id, random_direction(rng, 85.0), 0.7)
                    )
        return preds, ClipAnnotation(tuple(refs), n_classes=n_classes)

    def test_bounds(self, rng):
        cfg = MetricConfig(n_classes=4)
        for _ in range(20):
            preds, refs = self._random_case(rng)
            if not refs.events:
                continue
            s = evaluate(preds, refs, cfg)
            assert s.er20 >= 0
            assert 0 <= s.f20 <= 1
            assert 0 <= s.le_cd <= 180
            assert 0 <= s.lr_cd <= 1

    def test_rotation_invariance(self, rng):
        cfg = MetricConfig(n_classes=4)
        preds, refs = self._random_case(rng)
        base = evaluate(preds, refs, cfg)
        for p in all_patterns():
            rot_preds = [
                DetectedEvent(e.frame, e.class_id, apply_to_direction(e.direction, p), e.activity)
                for e in preds
            ]
            rot_refs = ClipAnnotation(
                tuple(
                    EventLabel(e.frame, e.class_id, e.track_id, apply_to_direction(e.direction, p))
                    for e in refs.events
                ),
                n_classes=4,
            )
            rotated = evaluate(rot_preds, rot_refs, cfg)
            assert rotated.er20 == pytest.approx(base.er20, abs=1e-9)
            assert rotated.f20 == pytest.approx(base.f20, abs=1e-9)
            assert rotated.le_cd == pytest.approx(base.le_cd, abs=1e-9)
            assert rotated.lr_cd == pytest.approx(base.lr_cd, abs=1e-9)

    def test_spurious_prediction_monotone(self, rng):
        cfg = MetricConfig(n_classes=4)
        for _ in range(10):
            preds, refs = self._random_case(rng)
            if not refs.events:
                continue
            base = evaluate(preds, refs, cfg)
            cls = refs.events[0].class_id
            spurious = preds + [
                DetectedEvent(13, cls, random_direction(rng, 85.0), 0.9)
            ]
            worse = evaluate(spurious, refs, cfg)
            assert worse.er20 >= base.er20 - 1e-12
            assert worse.f20 <= base.f20 + 1e-12

    def test_merge_equals_joint_evaluation(self, rng):
        # class stats accumulate associatively: two clips scored separately
        # then merged match scoring the concatenation (frames renumbered)
        cfg = MetricConfig(n_classes=4)
        preds1, refs1 = self._random_case(rng)
        preds2, refs2 = self._random_case(rng)
        stats1 = evaluate_stats(preds1, refs1, cfg)
        stats2 = evaluate_stats(preds2, refs2, cfg)
        merged = merge_stats([stats1, stats2])

        offset = 120  # segment-aligned shift keeps segment boundaries intact
        joint_preds = preds1 + [
            DetectedEvent(e.frame + offset, e.class_id, e.direction, e.activity) for e in preds2
        ]
        joint_refs = ClipAnnotation(
            refs1.events
            + tuple(
                EventLabel(e.frame + offset, e.class_id, e.track_id, e.direction)
                for e in refs2.events
            ),
            n_classes=4,
        )
        joint = evaluate_stats(joint_preds, joint_refs, cfg)
        for a, b in zip(merged, joint):
            assert (a.tp, a.fp, a.fn, a.ref_count) == (b.tp, b.fp, b.fn, b.ref_count)
            assert (a.seg_s, a.seg_d, a.seg_i) == (b.seg_s, b.seg_d, b.seg_i)
            assert a.loc_match_count == b.loc_match_count
            assert a.loc_error_sum == pytest.approx(b.loc_error_sum, rel=1e-12)

    def test_class_breakdown_shape(self, rng):
        preds, refs = self._random_case(rng)
        stats = evaluate_stats(preds, refs, MetricConfig(n_classes=4))
        detail = class_breakdown(stats)
        for entry in detail.values():
            assert set(entry) >= {"tp", "fp", "fn", "er20", "f20", "le_cd", "lr_cd"}

        # one class: its breakdown scores are the macro scores of finalize
        one_class = MetricConfig(n_classes=1)
        preds = [pred(0, 0, 10, 0), pred(1, 0, 50, 0), pred(2, 0, 0, 0), pred(12, 0, 0, 0)]
        refs = ClipAnnotation(
            (ref(0, 0, 0, 0), ref(1, 0, 0, 0), ref(3, 0, 0, 0)), n_classes=1
        )
        stats = evaluate_stats(preds, refs, one_class)
        entry = class_breakdown(stats)["0"]
        scores = finalize(stats).to_dict()
        assert scores["f20"] < 1.0 and scores["er20"] > 0.0
        assert {key: entry[key] for key in scores} == scores

    def test_score_report_is_scores_and_breakdown(self, rng):
        preds, refs = self._random_case(rng)
        stats = evaluate_stats(preds, refs, MetricConfig(n_classes=4))
        expected = {"scores": finalize(stats).to_dict(), "per_class": class_breakdown(stats)}
        assert score_report(stats) == expected


# One clip: cells (frame, class) holding a reference, a prediction near it,
# or a prediction alone; at most one of each per cell, so the matching is
# unique and only the arithmetic can move under a rotation.
clip_cells = st.dictionaries(
    st.tuples(st.integers(0, 29), st.integers(0, 3)),
    st.tuples(
        st.sampled_from(["ref_only", "matched", "pred_only"]),
        st.floats(min_value=-180.0, max_value=180.0),
        st.floats(min_value=-85.0, max_value=85.0),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-20.0, max_value=20.0),
    ),
    max_size=40,
)


def clip_events(cells):
    preds, refs = [], []
    for (frame, class_id), (kind, az, el, d_az, d_el) in sorted(cells.items()):
        ref_dir = Direction(az, el)
        if kind != "pred_only":
            refs.append(EventLabel(frame, class_id, 0, ref_dir))
        if kind == "matched":
            pred_dir = Direction(az + d_az, min(90.0, max(-90.0, el + d_el)))
            # keep clear of the 20 degree threshold, which rounding could cross
            assume(abs(angular_distance(pred_dir, ref_dir) - 20.0) > 1e-6)
            preds.append(DetectedEvent(frame, class_id, pred_dir, 0.9))
        elif kind == "pred_only":
            preds.append(DetectedEvent(frame, class_id, Direction(az + d_az, el), 0.7))
    return preds, ClipAnnotation(tuple(refs), n_classes=4)


def stats_fields(st_):
    return (st_.tp, st_.fp, st_.fn, st_.ref_count, st_.seg_s, st_.seg_d, st_.seg_i,
            st_.loc_match_count)


class_stats = st.builds(
    ClassStats,
    *(st.integers(0, 10**6) for _ in range(3)),
    st.floats(0.0, 1e6, allow_nan=False),
    *(st.integers(0, 10**6) for _ in range(5)),
)


@settings(max_examples=60, deadline=None)
@given(a=class_stats, b=class_stats)
def test_class_stats_sum_equals_astuple_form(a, b):
    reference = ClassStats(*(x + y for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b))))
    total = a + b
    assert dataclasses.astuple(total) == dataclasses.astuple(reference)
    assert [type(v) for v in dataclasses.astuple(total)] == [type(v) for v in dataclasses.astuple(reference)]


any_class_stats = st.builds(
    ClassStats,
    *(st.integers(0, 10**6) for _ in range(3)),
    st.floats(allow_nan=False, allow_infinity=False),  # -0.0 and bits that rounding would change
    *(st.integers(0, 10**6) for _ in range(5)),
)


@settings(max_examples=100, deadline=None)
@given(per_clip=st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(any_class_stats, min_size=n, max_size=n), min_size=1, max_size=8)))
def test_merge_stats_equals_a_fold_of_add_in_bits(per_clip):
    # the fold merge_stats replaced: ClassStats() + the first clip, then each later clip added in turn
    folded = [ClassStats() + stats for stats in per_clip[0]]
    for stats in per_clip[1:]:
        folded = [a + b for a, b in zip(folded, stats)]
    merged = merge_stats(iter(per_clip))
    assert [repr(dataclasses.astuple(m)) for m in merged] == [repr(dataclasses.astuple(f)) for f in folded]
    assert [m.loc_error_sum.hex() for m in merged] == [f.loc_error_sum.hex() for f in folded]


def test_merge_stats_of_no_clip_raises():
    with pytest.raises(ValueError, match="^no stats to merge$"):
        merge_stats(iter([]))


class TestMetricInvariants:
    @settings(max_examples=60, deadline=None)
    @given(cells=clip_cells, pattern_id=st.integers(0, 15))
    def test_evaluate_invariant_under_joint_rotation(self, cells, pattern_id):
        cfg = MetricConfig(n_classes=4)
        preds, refs = clip_events(cells)
        assume(refs.events)
        p = all_patterns()[pattern_id]
        rot_preds = [
            DetectedEvent(e.frame, e.class_id, apply_to_direction(e.direction, p), e.activity)
            for e in preds
        ]
        rot_refs = ClipAnnotation(
            tuple(
                EventLabel(e.frame, e.class_id, e.track_id, apply_to_direction(e.direction, p))
                for e in refs.events
            ),
            n_classes=4,
        )
        base = evaluate(preds, refs, cfg)
        rotated = evaluate(rot_preds, rot_refs, cfg)
        for name in ("er20", "f20", "le_cd", "lr_cd"):
            assert getattr(rotated, name) == pytest.approx(getattr(base, name), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(clips=st.lists(clip_cells, min_size=1, max_size=5), data=st.data())
    def test_merge_stats_order_independent(self, clips, data):
        cfg = MetricConfig(n_classes=4)
        per_clip = [evaluate_stats(*clip_events(cells), cfg) for cells in clips]
        order = data.draw(st.permutations(range(len(per_clip))))
        merged = merge_stats(per_clip)
        shuffled = merge_stats([per_clip[i] for i in order])
        for a, b in zip(merged, shuffled):
            assert stats_fields(a) == stats_fields(b)
            assert a.loc_error_sum == pytest.approx(b.loc_error_sum, rel=1e-12, abs=1e-12)


def match_frame(preds, refs):
    """Assign one cell's predictions to its references, the matcher ``evaluate_stats`` must equal.

    Hungarian assignment minimizing total angular distance. Returns
    (pairs, unmatched_pred_indices, unmatched_ref_indices) where pairs are
    (pred_index, ref_index, distance_deg) triples.
    """
    if not preds or not refs:
        return [], list(range(len(preds))), list(range(len(refs)))
    from scipy.optimize import linear_sum_assignment

    pred_vecs = unit_vectors([p.direction for p in preds])
    ref_vecs = unit_vectors([r.direction for r in refs])
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
        if dist <= config.spatial_threshold_deg:
            stats.tp += 1
        else:
            fp += 1
            fn += 1
    stats.ref_count += len(pairs) + len(unmatched_refs)
    stats.fp += fp
    stats.fn += fn
    return fp, fn


def evaluate_stats_reference(pred_events, ref_annotation, config):
    """The per-cell walk that ``evaluate_stats`` must equal: class x segment x frame,
    ``match_frame`` folded into ``accumulate`` for every non-empty cell."""
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

    last_frame = max([f for f, _ in preds_by_cell] + [f for f, _ in refs_by_cell], default=-1)
    stats = [ClassStats() for _ in range(config.n_classes)]
    seg = config.segment_frames
    n_segments = (last_frame + seg) // seg if last_frame >= 0 else 0
    for class_id in range(config.n_classes):
        st_ = stats[class_id]
        for segment in range(n_segments):
            seg_fp = seg_fn = 0
            for frame in range(segment * seg, (segment + 1) * seg):
                preds = preds_by_cell.get((frame, class_id), [])
                refs = refs_by_cell.get((frame, class_id), [])
                if not preds and not refs:
                    continue
                fp, fn = accumulate(st_, match_frame(preds, refs), config)
                seg_fp += fp
                seg_fn += fn
            st_.seg_s += min(seg_fp, seg_fn)
            st_.seg_d += max(0, seg_fn - seg_fp)
            st_.seg_i += max(0, seg_fp - seg_fn)
    return stats


# A small pool makes cells share directions, pairs sit exactly 20 degrees
# apart and elevations 0.0 and -0.0 both occur; the rest fall anywhere.
scoring_directions = st.one_of(
    st.sampled_from(
        [Direction(0.0, 0.0), Direction(0.0, -0.0), Direction(20.0, 0.0),
         Direction(90.0, 45.0), Direction(-170.0, -30.0), Direction(180.0, 90.0)]
    ),
    st.builds(Direction, st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)),
)


@st.composite
def scored_clips(draw):
    """(predictions, annotation, config) with multi-event cells of both kinds."""
    n_classes = draw(st.integers(1, 5))
    last = draw(st.integers(0, 25))  # a short clip crowds many events into few cells
    ref_cells = st.tuples(st.integers(0, last), st.integers(0, n_classes - 1), scoring_directions)
    refs = draw(st.lists(ref_cells, max_size=40))
    # distinct track ids keep cells with two or more references legal
    annotation = ClipAnnotation(
        tuple(EventLabel(f, c, track, d) for track, (f, c, d) in enumerate(refs)), n_classes=6
    )
    preds = draw(
        st.lists(
            st.builds(
                DetectedEvent,
                st.integers(-2, last + 3),
                st.integers(-1, n_classes - 1),
                scoring_directions,
                st.floats(0.1, 1.7),
            ),
            max_size=40,
        )
    )
    config = MetricConfig(
        spatial_threshold_deg=draw(st.one_of(st.just(20.0), st.floats(0.001, 179.999))),
        segment_frames=draw(st.integers(1, 12)),
        n_classes=n_classes,
    )
    return preds, annotation, config


class TestArrayFormScoring:
    @settings(max_examples=200, deadline=None)
    @given(clip=scored_clips())
    def test_equals_per_cell_walk_exactly(self, clip):
        preds, annotation, config = clip
        # dataclass equality: every count and the float error sums bit for bit
        assert evaluate_stats(preds, annotation, config) == evaluate_stats_reference(*clip)

    def test_long_clip_equals_per_cell_walk_exactly(self, rng):
        # hundreds of pairs per class: a pairwise or reordered error sum would
        # differ from the walk's one-by-one sum in the last bits
        refs, preds = [], []
        for frame in range(600):
            for class_id in rng.choice(13, size=rng.integers(0, 4), replace=False):
                d = random_direction(rng)
                refs.append(EventLabel(frame, int(class_id), 0, d))
                if rng.random() < 0.1:
                    refs.append(EventLabel(frame, int(class_id), 1, random_direction(rng)))
                for _ in range(rng.choice(3, p=[0.1, 0.8, 0.1])):
                    preds.append(DetectedEvent(frame, int(class_id), random_direction(rng), 0.8))
            if rng.random() < 0.2:
                preds.append(DetectedEvent(frame, int(rng.integers(13)), random_direction(rng), 0.6))
        annotation = ClipAnnotation(tuple(refs))
        config = MetricConfig()
        assert evaluate_stats(preds, annotation, config) == evaluate_stats_reference(preds, annotation, config)

    def test_match_frame_only_for_multi_event_cells(self, monkeypatch):
        # the assignment runs on the cost matrix of each cell with two or more
        # events on both sides, and on no other: a cell with one event on a
        # side takes the minimum of its costs
        import scipy.optimize

        calls = []
        assign = scipy.optimize.linear_sum_assignment

        def counting_assignment(cost):
            calls.append(cost.shape)
            return assign(cost)

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting_assignment)
        preds = [pred(0, 0, 10, 0), pred(1, 1, 50, 0), pred(2, 0, 0, 0),  # one-to-one cells
                 pred(3, 0, 0, 0),  # prediction only
                 pred(5, 1, 0, 0), pred(5, 1, 90, 0),  # two predictions, one reference
                 pred(6, 0, 0, 0),  # one prediction, two references
                 pred(7, 1, 0, 0), pred(7, 1, 100, 0)]  # two predictions, two references
        refs = ClipAnnotation(
            (ref(0, 0, 15, 0), ref(1, 1, 90, 0), ref(2, 0, 0, 0), ref(4, 1, 0, 0),
             ref(5, 1, 80, 0), ref(6, 0, 5, 0), ref(6, 0, 170, 0, track=1),
             ref(7, 1, 95, 0), ref(7, 1, 10, 0, track=1)),
            n_classes=2,
        )
        stats = evaluate_stats(preds, refs, CFG2)
        assert calls == [(2, 2)]
        assert stats == evaluate_stats_reference(preds, refs, CFG2)
        assert (stats[0].tp, stats[0].fp, stats[0].fn, stats[1].tp, stats[1].fp, stats[1].fn) == (
            3, 1, 1, 3, 2, 2
        )

    @pytest.mark.parametrize(
        "preds, refs",
        [
            # three predictions, one reference: the two nearest mirror each other about it
            ([pred(0, 0, 10, 0), pred(0, 0, 50, 0), pred(0, 0, -10, 0)], [ref(0, 0, 0, 0)]),
            ([pred(0, 0, 30, 12.5), pred(0, 0, 30, -12.5), pred(0, 0, 90, 0)], [ref(0, 0, 30, 0)]),
            # one prediction, two references equally far from it, within and beyond the threshold
            ([pred(0, 0, 0, 0)], [ref(0, 0, 10, 0), ref(0, 0, -10, 0, track=1)]),
            ([pred(0, 0, 0, 0)], [ref(0, 0, 25, 0), ref(0, 0, -25, 0, track=1)]),
        ],
        ids=["3x1-azimuth", "3x1-elevation", "1x2-within", "1x2-beyond"],
    )
    def test_exact_ties_equal_per_cell_walk_in_bits(self, preds, refs):
        # the tie is exact, so the minimum holds the bits of whichever pair the assignment picks
        costs = sorted(angular_distance(p.direction, r.direction) for p in preds for r in refs)
        assert costs[0].hex() == costs[1].hex()
        annotation = ClipAnnotation(tuple(refs), n_classes=2)
        stats = evaluate_stats(preds, annotation, CFG2)
        assert stats_bits(stats) == stats_bits(evaluate_stats_reference(preds, annotation, CFG2))
        assert stats[0].loc_match_count == 1


def stats_bits(stats):
    """Every field of every class's stats, the float error sum by its bits."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(s)) for s in stats]


class TestTableForm:
    @settings(max_examples=150, deadline=None)
    @given(clip=scored_clips(), data=st.data())
    def test_table_and_object_forms_give_equal_stats_in_bits(self, clip, data):
        preds, annotation, config = clip
        # the annotation's rows in any order, each with a direction of its own
        events = annotation.events
        order = data.draw(st.permutations(range(len(events))))
        rows = [events[i] for i in order]
        columns = ClipAnnotation.from_columns(
            [ev.frame for ev in rows],
            [ev.class_id for ev in rows],
            [ev.track_id for ev in rows],
            [ev.direction for ev in rows],
            np.arange(len(rows)),
            annotation.n_classes,
        )
        assert columns == annotation
        expected = stats_bits(evaluate_stats_reference(preds, annotation, config))
        assert stats_bits(evaluate_stats(EventTable.from_events(preds), columns, config)) == expected
        assert stats_bits(evaluate_stats(preds, annotation, config)) == expected

    def test_out_of_range_class_named_in_table_form(self):
        table = EventTable.from_events([pred(0, 0, 10, 0), pred(1, 5, 10, 0), pred(2, 7, 10, 0)])
        with pytest.raises(ValueError, match=r"^prediction class 5 out of range for n_classes=2$"):
            evaluate_stats(table, ClipAnnotation((ref(0, 0, 0, 0),), n_classes=2), CFG2)
