import itertools
import math

import numpy as np
import pytest

from seldkit.accdoa import DetectedEvent
from seldkit.geometry import Direction, angular_distance
from seldkit.labels import ClipAnnotation, EventLabel
from seldkit.metrics import (
    ClassStats,
    MetricConfig,
    SeldScores,
    accumulate,
    class_breakdown,
    evaluate,
    evaluate_stats,
    finalize,
    match_frame,
    merge_stats,
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


def _rand_angles(rng):
    return float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90))


class TestAccumulate:
    def test_perfect_match(self):
        st = ClassStats()
        fp, fn = accumulate(st, match_frame([pred(0, 0, 30, 10)], [ref(0, 0, 30, 10)]), CFG2)
        assert (fp, fn) == (0, 0)
        assert (st.tp, st.fp, st.fn) == (1, 0, 0)
        assert st.loc_error_sum == pytest.approx(0.0, abs=1e-9)
        assert (st.loc_match_count, st.det_recall_count, st.ref_count) == (1, 1, 1)

    def test_match_beyond_threshold(self):
        st = ClassStats()
        fp, fn = accumulate(st, match_frame([pred(0, 0, 30, 0)], [ref(0, 0, 0, 0)]), CFG2)
        assert (fp, fn) == (1, 1)
        assert (st.tp, st.fp, st.fn) == (0, 1, 1)
        assert st.loc_error_sum == pytest.approx(30.0, abs=1e-9)
        assert st.det_recall_count == 1

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
            assert (a.loc_match_count, a.det_recall_count) == (b.loc_match_count, b.det_recall_count)
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
        scores = finalize(stats, one_class).to_dict()
        assert scores["f20"] < 1.0 and scores["er20"] > 0.0
        assert {key: entry[key] for key in scores} == scores
