import numpy as np
import pytest

from seldkit.accdoa import encode
from seldkit.geometry import Direction, angular_distance, dir_to_unit, unit_to_dir
from seldkit.predict import ClipIdentity, ConstantPredictor, OraclePredictor, OraclePredictorConfig
from seldkit.rotation import all_patterns, apply_to_audio, apply_to_direction, apply_to_vector, inverse
from seldkit.tta import CandidateSet, TtaConfig, aggregate, collect_candidates, dbscan_sphere, run_tta

from conftest import random_direction, two_event_scene


def dbscan_reference(points, eps_deg, min_pts):
    """Brute-force O(n^2) reference clustering, independent of the
    expansion algorithm: cores by neighbor count, clusters as connected
    components of eps-adjacent cores (ids ranked by smallest core index),
    border points joined to the lowest-id adjacent cluster.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    angles = np.degrees(np.arccos(dots))
    adjacency = angles <= eps_deg
    core = adjacency.sum(axis=1) >= min_pts

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        if not core[i]:
            continue
        for j in range(i + 1, n):
            if core[j] and adjacency[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    component_first_core: dict = {}
    for i in range(n):
        if core[i]:
            component_first_core.setdefault(find(i), i)
    cluster_of_root = {
        root: rank
        for rank, root in enumerate(sorted(component_first_core, key=component_first_core.get))
    }
    labels = np.full(n, -1, dtype=int)
    for i in range(n):
        if core[i]:
            labels[i] = cluster_of_root[find(i)]
    for i in range(n):
        if core[i]:
            continue
        nearby = [labels[j] for j in range(n) if core[j] and adjacency[i, j]]
        if nearby:
            labels[i] = min(nearby)
    return labels


def clustered_point_set(rng, n):
    """Random spherical points with planted structure: tight groups plus strays."""
    points = []
    n_groups = int(rng.integers(0, 4))
    for _ in range(n_groups):
        center = dir_to_unit(random_direction(rng, max_abs_el=89.0)).as_array()
        size = int(rng.integers(1, 9))
        for _ in range(size):
            v = center + rng.standard_normal(3) * rng.uniform(0.005, 0.2)
            points.append(v / np.linalg.norm(v))
    while len(points) < n:
        v = rng.standard_normal(3)
        points.append(v / np.linalg.norm(v))
    return np.array(points[:n])


class TestDbscanSphere:
    def test_identical_points_one_cluster(self):
        pts = np.tile([1.0, 0.0, 0.0], (5, 1))
        labels = dbscan_sphere(pts, eps_deg=15.0, min_pts=5)
        assert np.all(labels == 0)

    def test_single_point_is_noise(self):
        labels = dbscan_sphere(np.array([[0.0, 0.0, 1.0]]), eps_deg=15.0, min_pts=2)
        assert labels.tolist() == [-1]

    def test_two_antipodal_groups(self, rng):
        groups = []
        for center in ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]):
            for _ in range(8):
                v = np.array(center) + rng.standard_normal(3) * 0.02
                groups.append(v / np.linalg.norm(v))
        pts = np.array(groups)
        labels = dbscan_sphere(pts, eps_deg=15.0, min_pts=2)
        assert set(labels) == {0, 1}
        np.testing.assert_array_equal(labels, dbscan_reference(pts, 15.0, 2))

    def test_empty_input(self):
        assert dbscan_sphere(np.zeros((0, 3)), 15.0, 2).size == 0

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            dbscan_sphere(np.array([[1.0, 0.0, 0.0]]), 0.0, 2)

    def test_matches_reference_on_random_sets(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 65))
            pts = clustered_point_set(rng, n)
            eps = float(rng.uniform(2.0, 40.0))
            min_pts = int(rng.integers(1, 6))
            got = dbscan_sphere(pts, eps, min_pts)
            want = dbscan_reference(pts, eps, min_pts)
            np.testing.assert_array_equal(got, want)


class TestCollectCandidates:
    def base_sequence(self):
        seq = np.zeros((6, 4, 3))
        seq[2, 1] = dir_to_unit(Direction(40.0, 10.0)).as_array() * 0.9
        seq[5, 3] = dir_to_unit(Direction(-100.0, -35.0)).as_array() * 0.8
        return seq

    def rotated_predictions(self, base):
        preds = []
        for p in all_patterns():
            rotated = apply_to_vector(base, p)
            preds.append((p.id, rotated))
        return preds

    def test_all_inactive_empty(self):
        preds = [(p.id, np.zeros((4, 2, 3))) for p in all_patterns()]
        assert collect_candidates(preds, 0.5).cells == {}

    def test_derotation_restores_base_exactly(self):
        base = self.base_sequence()
        candidates = collect_candidates(self.rotated_predictions(base), 0.5)
        assert set(candidates.cells) == {(2, 1), (5, 3)}
        for (frame, class_id), cand in candidates.cells.items():
            assert cand.shape == (16, 3)
            for vec in cand:
                np.testing.assert_array_equal(vec, base[frame, class_id])

    def test_single_active_pattern_singleton(self):
        seqs = [(p.id, np.zeros((3, 2, 3))) for p in all_patterns()]
        active = np.zeros((3, 2, 3))
        active[1, 0] = [0.9, 0.0, 0.0]
        seqs[0] = (0, active)
        candidates = collect_candidates(seqs, 0.5)
        assert list(candidates.cells) == [(1, 0)]
        assert len(candidates.cells[(1, 0)]) == 1

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            collect_candidates([(0, np.zeros((2, 2, 3))), (1, np.zeros((3, 2, 3)))], 0.5)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_rejected_naming_pattern(self, value):
        preds = [(p.id, np.zeros((2, 2, 3))) for p in all_patterns()]
        preds[5][1][0, 1, 2] = value
        with pytest.raises(ValueError, match=r"non-finite.*pattern\(s\) \[5\]"):
            collect_candidates(preds, 0.5)

    def test_ensemble_rows_in_model_then_pattern_order(self):
        # every (model, pattern) prediction de-rotates to its own vector
        def vector(model, pattern_id):
            return dir_to_unit(Direction(20.0 * pattern_id - 170.0, 30.0 * model)).as_array() * 0.9

        preds = []
        for model in (0, 1):
            for p in all_patterns():
                seq = np.zeros((2, 2, 3))
                seq[1, 0] = apply_to_vector(vector(model, p.id), p)
                preds.append((p.id, seq))
        cells = collect_candidates(preds, 0.5).cells
        assert list(cells) == [(1, 0)]
        want = [vector(model, p.id) for model in (0, 1) for p in all_patterns()]
        np.testing.assert_array_equal(cells[(1, 0)], want)

    def test_norm_preserved_through_derotation(self, rng):
        base = np.zeros((1, 1, 3))
        base[0, 0] = rng.uniform(-1, 1, 3)
        candidates = collect_candidates(self.rotated_predictions(base), 0.01)
        for vec in candidates.cells[(0, 0)]:
            assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(base[0, 0]), rel=1e-15)


class TestAggregate:
    def cell_with(self, vectors, frame=0, class_id=0):
        return CandidateSet({(frame, class_id): np.array(vectors, dtype=float)})

    def test_sixteen_identical(self):
        cs = self.cell_with([[1.0, 0.0, 0.0]] * 16)
        events = aggregate(cs, TtaConfig())
        assert len(events) == 1
        ev = events[0]
        assert (ev.frame, ev.class_id) == (0, 0)
        assert (ev.direction.azimuth, ev.direction.elevation) == (0.0, 0.0)
        assert ev.activity == pytest.approx(1.0)

    def test_outlier_dropped(self):
        front = dir_to_unit(Direction(0, 0)).as_array() * 0.9
        side = dir_to_unit(Direction(90, 0)).as_array() * 0.9
        cs = self.cell_with([front] * 15 + [side])
        events = aggregate(cs, TtaConfig(unify_deg=15.0, min_pts=2))
        assert len(events) == 1
        assert abs(events[0].direction.azimuth) < 1e-6
        assert events[0].activity == pytest.approx(0.9)

    def test_below_min_candidates_emits_nothing(self):
        cs = self.cell_with([[0.9, 0.0, 0.0]] * 7)
        assert aggregate(cs, TtaConfig(min_candidates=8)) == []

    def test_top3_by_weight(self):
        # four same-frame clusters in distinct classes with weights
        # 16*0.9, 12*0.8, 10*0.7, 9*0.6: the last is dropped
        directions = [Direction(0, 0), Direction(90, 0), Direction(180, 0), Direction(0, 60)]
        counts = [16, 12, 10, 9]
        activities = [0.9, 0.8, 0.7, 0.6]
        cs = CandidateSet()
        for class_id, (d, count, act) in enumerate(zip(directions, counts, activities)):
            vec = dir_to_unit(d).as_array() * act
            cs.cells[(0, class_id)] = np.tile(vec, (count, 1))
        events = aggregate(cs, TtaConfig(max_tracks=3))
        assert len(events) == 3
        assert {e.class_id for e in events} == {0, 1, 2}

    def test_never_exceeds_max_tracks_per_frame(self, rng):
        cs = CandidateSet()
        for class_id in range(6):
            d = random_direction(rng)
            vec = dir_to_unit(d).as_array()
            cs.cells[(3, class_id)] = np.tile(vec, (10, 1))
        events = aggregate(cs, TtaConfig(max_tracks=3))
        assert len(events) == 3

    def test_min_candidates_monotonicity(self, rng):
        cs = CandidateSet()
        for class_id, count in enumerate([16, 12, 9, 6, 3]):
            vec = dir_to_unit(random_direction(rng)).as_array() * 0.9
            cs.cells[(class_id, class_id % 3)] = np.tile(vec, (count, 1))
        counts = [
            len(aggregate(cs, TtaConfig(min_candidates=m))) for m in (1, 4, 8, 12, 16)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_cluster_splits_same_class_distant_events(self):
        # same class, same frame, two well separated directions: both survive
        a = dir_to_unit(Direction(0, 0)).as_array()
        b = dir_to_unit(Direction(120, 0)).as_array()
        cs = self.cell_with([a] * 8 + [b] * 8)
        events = aggregate(cs, TtaConfig())
        assert len(events) == 2
        azimuths = sorted(ev.direction.azimuth for ev in events)
        assert azimuths[0] == pytest.approx(0.0, abs=1e-9)
        assert azimuths[1] == pytest.approx(120.0, abs=1e-9)


class TestRunTta:
    def test_oracle_identity(self):
        clip, annotation = two_event_scene(seed=11)
        oracle = OraclePredictor({"clip": annotation})
        events = run_tta(oracle, clip, ClipIdentity("clip"))
        truth = {(e.frame, e.class_id): e.direction for e in annotation.events}
        assert {(e.frame, e.class_id) for e in events} == set(truth)
        for ev in events:
            assert angular_distance(ev.direction, truth[(ev.frame, ev.class_id)]) < 1e-6

    def test_constant_zero_no_events(self):
        clip, _ = two_event_scene(seed=11)
        assert run_tta(ConstantPredictor(), clip, ClipIdentity("x")) == []

    def test_predictor_failure_names_pattern(self):
        clip, _ = two_event_scene(seed=11)

        class Broken:
            def predict(self, features, identity):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="rotation pattern 0"):
            run_tta(Broken(), clip, ClipIdentity("x"))

    def test_jitter_aggregate_no_worse_than_worst_candidate(self):
        clip, annotation = two_event_scene(seed=13)
        jitter = 3.0
        oracle = OraclePredictor(
            {"clip": annotation}, OraclePredictorConfig(jitter_deg=jitter, seed=5)
        )
        events = run_tta(oracle, clip, ClipIdentity("clip"))
        truth = {(e.frame, e.class_id): e.direction for e in annotation.events}
        for ev in events:
            err = angular_distance(ev.direction, truth[(ev.frame, ev.class_id)])
            assert err <= jitter  # averaging cannot exceed the jitter bound

    def test_rotation_equivariance(self):
        clip, annotation = two_event_scene(seed=17)
        oracle = OraclePredictor({"clip": annotation})
        base_events = run_tta(oracle, clip, ClipIdentity("clip"))
        for q in (all_patterns()[3], all_patterns()[10]):
            rotated_clip = apply_to_audio(clip, q)
            rotated_events = run_tta(oracle, rotated_clip, ClipIdentity("clip", q.id))
            assert len(rotated_events) == len(base_events)
            undo = inverse(q)
            restored = {
                (e.frame, e.class_id): apply_to_direction(e.direction, undo)
                for e in rotated_events
            }
            for ev in base_events:
                assert angular_distance(restored[(ev.frame, ev.class_id)], ev.direction) < 1e-9

    def test_multi_model_ensemble_merges_candidates(self):
        clip, annotation = two_event_scene(seed=19)
        models = [
            OraclePredictor({"clip": annotation}, OraclePredictorConfig(jitter_deg=2.0, seed=s))
            for s in (1, 2)
        ]
        events = run_tta(models, clip, ClipIdentity("clip"), TtaConfig(min_candidates=16))
        truth = {(e.frame, e.class_id) for e in annotation.events}
        assert {(e.frame, e.class_id) for e in events} == truth
