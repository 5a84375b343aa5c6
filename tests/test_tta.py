import math
import re
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seldkit.tta
from seldkit.accdoa import DetectedEvent
from seldkit.features import FeatureConfig, doa_from_features
from seldkit.geometry import Direction, angular_distance, dir_to_unit, unit_to_dir
from seldkit.predict import ClipIdentity, ConstantPredictor, OraclePredictor, OraclePredictorConfig
from seldkit.rotation import (
    all_patterns,
    apply_to_audio,
    apply_to_direction,
    apply_to_vector,
    inverse,
    pattern_by_id,
)
from seldkit.tta import CandidateSet, TtaConfig, aggregate, collect_candidates, dbscan_sphere, run_tta

from conftest import IntensityPredictor, plane_wave_clip, random_direction, two_event_scene


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


def dbscan_expansion_reference(points, eps_deg, min_pts):
    """Per-cell DBSCAN by breadth-first core expansion in index order: the
    former library implementation, kept as the reference that the stacked
    array form must reproduce label for label (same adjacency test).
    """
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


def aggregate_reference(cells, config):
    """Cell-by-cell aggregation, the former library implementation: one
    clustering per cell and ``members.mean(axis=0)`` per cluster.
    """
    weighted: dict = {}
    for (frame, class_id) in sorted(cells):
        vecs = cells[(frame, class_id)]
        if len(vecs) < config.min_candidates:
            continue
        norms = np.linalg.norm(vecs, axis=1)
        units = vecs / norms[:, np.newaxis]
        labels = dbscan_expansion_reference(units, config.unify_deg, config.min_pts)
        for cluster in sorted(set(labels) - {-1}):
            members = vecs[labels == cluster]
            mean = members.mean(axis=0)
            activity = float(np.linalg.norm(mean))
            if activity == 0.0:
                continue
            event = DetectedEvent(frame, class_id, unit_to_dir(mean), activity)
            weighted.setdefault(frame, []).append((len(members) * activity, event))
    events = []
    for frame in sorted(weighted):
        ranked = sorted(
            weighted[frame], key=lambda we: (-we[0], we[1].class_id, we[1].direction.azimuth)
        )
        events.extend(ev for _, ev in ranked[: config.max_tracks])
    return sorted(events, key=lambda e: (e.frame, e.class_id, e.direction.azimuth))


def collect_candidates_reference(predictions, threshold):
    """The former dict form of ``collect_candidates``: one (n, 3) array per
    active (frame, class) cell, rows in prediction order."""
    stack = np.stack([apply_to_vector(seq, inverse(pattern_by_id(pid))) for pid, seq in predictions])
    active = np.linalg.norm(stack, axis=-1) > threshold
    return {
        (int(f), int(c)): stack[active[:, f, c], f, c]
        for f, c in zip(*np.nonzero(active.any(axis=0)))
    }


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

    @pytest.mark.parametrize("shape", [(3, 4), (2,), (3,), (6,), (2, 2, 3, 3), (2, 3, 4)])
    def test_shape_checked_before_reshaping(self, shape):
        # a (3, 4) array is no set of 4 points, nor a (6,) one of 2
        with pytest.raises(ValueError, match=rf"^expected points shaped .*got {re.escape(str(shape))}$"):
            dbscan_sphere(np.ones(shape) / 2, 15.0, 2)

    def test_matches_reference_on_random_sets(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 65))
            pts = clustered_point_set(rng, n)
            eps = float(rng.uniform(2.0, 40.0))
            min_pts = int(rng.integers(1, 6))
            got = dbscan_sphere(pts, eps, min_pts)
            want = dbscan_reference(pts, eps, min_pts)
            np.testing.assert_array_equal(got, want)


def unit(az, el):
    return dir_to_unit(Direction(az, el)).as_array()


def point_stack(seed, kinds, n):
    """One (n, 3) cell of unit vectors per kind, stacked: tight groups with
    strays, a few points repeated n times over, a clique of points within
    0.3 deg of one centre (so within 0.6 deg of each other), or uniform
    scatter."""
    rng = np.random.default_rng(seed)
    cells = []
    for kind in kinds:
        if kind == "clustered":
            cells.append(clustered_point_set(rng, n))
        elif kind == "duplicates":
            distinct = clustered_point_set(rng, max(1, n // 6))
            cells.append(distinct[rng.integers(len(distinct), size=n)])
        elif kind == "tight":
            centre = rng.standard_normal(3)
            # each offset is at most 0.003 * sqrt(3) rad, under 0.3 deg
            v = centre / np.linalg.norm(centre) + rng.uniform(-0.003, 0.003, (n, 3))
            cells.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        else:
            v = rng.standard_normal((n, 3))
            cells.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    return np.stack(cells)


def reference_angles(pts):
    """The pairwise angles exactly as ``dbscan_reference`` computes them."""
    return np.degrees(np.arccos(np.clip(pts @ pts.T, -1.0, 1.0)))


class TestStackedDbscan:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["clustered", "duplicates", "tight", "scatter"]), min_size=1, max_size=6),
        n=st.integers(1, 48),
        min_pts=st.integers(1, 5),
        eps_mode=st.sampled_from(["free", "pair", "below_all"]),
        eps_free=st.floats(min_value=1.0, max_value=60.0),
        pick=st.integers(0, 2**16),
    )
    def test_matches_references_cell_by_cell(self, seed, kinds, n, min_pts, eps_mode, eps_free, pick):
        stack = point_stack(seed, kinds, n)
        angles = [reference_angles(cell) for cell in stack]
        # below 1e-3 deg, arccos cannot tell a repeated point from a distinct one
        pairs = np.concatenate([a[np.triu_indices(n, 1)] for a in angles])
        distinct = pairs[pairs > 1e-3]
        eps = eps_free
        if eps_mode == "pair":
            # two points exactly eps apart, under the reference's own arithmetic
            g, i, j = pick % len(stack), pick % n, (pick // n) % n
            pair_eps = max(angles[g][i, j], angles[g][j, i])
            if 1e-3 < pair_eps < 180.0:
                eps = pair_eps
        elif eps_mode == "below_all" and len(distinct):
            # no two distinct points within eps: each cell without repeats is all noise
            eps = float(distinct.min()) / 2.0
        labels = dbscan_sphere(stack, eps, min_pts)
        assert labels.shape == stack.shape[:2]
        for cell, got in zip(stack, labels):
            np.testing.assert_array_equal(got, dbscan_reference(cell, eps, min_pts))
            np.testing.assert_array_equal(got, dbscan_expansion_reference(cell, eps, min_pts))
            np.testing.assert_array_equal(got, dbscan_sphere(cell, eps, min_pts))

    def test_edge_cells_in_one_stack(self):
        # b is within eps of the cores a1 and c1 only, which are 18 deg
        # apart; with min_pts 4 it is a border point of both clusters and
        # joins the one whose smallest core index comes first
        a1, a2, a3 = unit(-9, 0), unit(-9, 9), unit(-9, -9)
        c1, c2, c3 = unit(9, 0), unit(9, 9), unit(9, -9)
        b = unit(0, 0)
        spread = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]] + [unit(45, 45)])
        stack = np.stack([spread, np.tile(b, (7, 1)), [c1, c2, c3, b, a1, a2, a3], [a1, a2, a3, b, c1, c2, c3]])
        labels = dbscan_sphere(stack, 10.5, 4)
        assert labels.tolist() == [[-1] * 7, [0] * 7, [0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1, 1]]
        assert dbscan_sphere(stack, 10.5, 1).tolist() == [list(range(7)), [0] * 7, [0] * 7, [0] * 7]
        assert dbscan_sphere(stack, 5.0, 1).tolist() == [list(range(7)), [0] * 7, list(range(7)), list(range(7))]
        for eps, min_pts in ((10.5, 4), (10.5, 1), (5.0, 1), (13.0, 3)):
            for cell, got in zip(stack, dbscan_sphere(stack, eps, min_pts)):
                np.testing.assert_array_equal(got, dbscan_reference(cell, eps, min_pts))

    def test_empty_stack(self):
        assert dbscan_sphere(np.zeros((3, 0, 3)), 15.0, 2).shape == (3, 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 33, 48, 65])
    @pytest.mark.parametrize("min_pts", [2, 3])
    def test_chain_cells_in_one_stack(self, n, min_pts):
        # n points 3 deg apart along a great circle, each within eps = 4 deg
        # of the next only, so the core points form one path
        rng = np.random.default_rng(n)
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        angles = np.radians(3.0 * np.arange(n))
        chain = np.cos(angles)[:, np.newaxis] * basis[0] + np.sin(angles)[:, np.newaxis] * basis[1]
        # the two ends hold indices 0 and 1: with min_pts 2 the far end is a
        # core n - 1 links from index 0, and short of the full closure it
        # roots a second cluster (n = 2**k + 1 needs all k squarings)
        ends_first = np.r_[0, 2 + rng.permutation(n - 2), 1]
        shuffled = rng.permutation(n)
        # a Fibonacci lattice: all n points further apart than eps
        k = np.arange(n) + 0.5
        z, phi = 1.0 - 2.0 * k / n, np.pi * (1.0 + 5.0**0.5) * k
        spread = np.stack([np.sqrt(1.0 - z**2) * np.cos(phi), np.sqrt(1.0 - z**2) * np.sin(phi), z], axis=1)
        cells = [np.empty((n, 3)), np.empty((n, 3)), np.tile(chain[0], (n, 1)), spread]
        cells[0][ends_first] = chain
        cells[1][shuffled] = chain
        labels = dbscan_sphere(np.stack(cells), 4.0, min_pts)
        if n >= min_pts:
            assert labels[:3].tolist() == [[0] * n] * 3
        assert labels[3].tolist() == [-1] * n
        for cell, got in zip(cells, labels):
            np.testing.assert_array_equal(got, dbscan_reference(cell, 4.0, min_pts))
            np.testing.assert_array_equal(got, dbscan_expansion_reference(cell, 4.0, min_pts))
            np.testing.assert_array_equal(got, dbscan_sphere(cell, 4.0, min_pts))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17])
    def test_clique_cells_are_one_cluster_down_from_min_pts_n(self, n):
        # the points of a tight cell lie within 0.6 deg of each other, so at
        # eps = 4 deg every point has all n points as neighbours
        cliques = point_stack(n, ["tight"] * 3, n)
        for min_pts in range(1, n + 1):
            assert dbscan_sphere(cliques, 4.0, min_pts).tolist() == [[0] * n] * 3
            assert dbscan_sphere(cliques[0], 4.0, min_pts).tolist() == [0] * n
        assert dbscan_sphere(cliques, 4.0, n + 1).tolist() == [[-1] * n] * 3
        assert dbscan_sphere(cliques[0], 4.0, n + 1).tolist() == [-1] * n

    def test_one_point_cell(self):
        point = np.array([[0.0, 0.0, 1.0]])
        assert dbscan_sphere(point, 4.0, 1).tolist() == [0]
        assert dbscan_sphere(point, 4.0, 2).tolist() == [-1]
        assert dbscan_sphere(point[np.newaxis], 4.0, 1).tolist() == [[0]]

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17])
    @pytest.mark.parametrize("min_pts", [1, 2, 3])
    def test_clique_and_chain_cells_in_one_stack(self, n, min_pts):
        # a chain: n points 3 deg apart along a great circle, each within
        # eps = 4 deg of the next only (a clique at n = 2); one edge short of
        # a clique: the two ends of a 6 deg arc and n - 2 points at its middle
        rng = np.random.default_rng(n)
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        angles = np.radians(3.0 * np.arange(max(n, 3)))
        circle = np.cos(angles)[:, np.newaxis] * basis[0] + np.sin(angles)[:, np.newaxis] * basis[1]
        chain = circle[:n]
        one_edge_short = circle[[0] + [1] * (n - 2) + [2]]
        tight = point_stack(n, ["tight"] * 3, n)
        cells = [tight[0], chain[rng.permutation(n)], tight[1], one_edge_short, chain[::-1], tight[2]]
        labels = dbscan_sphere(np.stack(cells), 4.0, min_pts)
        assert labels[[0, 2, 5]].tolist() == [[0 if n >= min_pts else -1] * n] * 3
        for cell, got in zip(cells, labels):
            np.testing.assert_array_equal(got, dbscan_sphere(cell, 4.0, min_pts))
            np.testing.assert_array_equal(got, dbscan_reference(cell, 4.0, min_pts))


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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pattern_ids=st.lists(st.integers(0, 15), min_size=1, max_size=32),
        frames=st.integers(0, 12),
        classes=st.integers(1, 5),
        density=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
        threshold=st.floats(min_value=0.0, max_value=1.5),
    )
    def test_arrays_equal_dict_reference(self, seed, pattern_ids, frames, classes, density, threshold):
        rng = np.random.default_rng(seed)
        predictions = [
            (pid, rng.uniform(-1.0, 1.0, (frames, classes, 3)) * (rng.random((frames, classes, 1)) < density))
            for pid in pattern_ids
        ]
        want = collect_candidates_reference(predictions, threshold)
        got = collect_candidates(predictions, threshold)
        assert got.keys.tolist() == [list(key) for key in want]
        assert got.offsets.tolist() == np.cumsum([0] + [len(v) for v in want.values()]).tolist()
        assert got.rows.shape == (sum(len(v) for v in want.values()), 3)
        if want:
            assert got.rows.tobytes() == np.concatenate(list(want.values())).tobytes()
        assert list(got.cells) == list(want)
        for key, rows in want.items():
            assert got.cells[key].tobytes() == rows.tobytes()
        rebuilt = CandidateSet(want)
        for name in ("keys", "offsets", "rows"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(got, name))

    def test_cells_view_is_read_only(self):
        candidates = CandidateSet({(2, 1): [[0.9, 0.0, 0.0]], (0, 3): [[0.0, 0.8, 0.0]] * 2})
        assert list(candidates.cells) == [(0, 3), (2, 1)]
        with pytest.raises(TypeError):
            candidates.cells[(1, 1)] = np.zeros((1, 3))
        with pytest.raises(ValueError):
            candidates.cells[(2, 1)][0, 0] = 0.0

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
        cells = {}
        for class_id, (d, count, act) in enumerate(zip(directions, counts, activities)):
            vec = dir_to_unit(d).as_array() * act
            cells[(0, class_id)] = np.tile(vec, (count, 1))
        events = aggregate(CandidateSet(cells), TtaConfig(max_tracks=3))
        assert len(events) == 3
        assert {e.class_id for e in events} == {0, 1, 2}

    def test_never_exceeds_max_tracks_per_frame(self, rng):
        cells = {}
        for class_id in range(6):
            d = random_direction(rng)
            vec = dir_to_unit(d).as_array()
            cells[(3, class_id)] = np.tile(vec, (10, 1))
        events = aggregate(CandidateSet(cells), TtaConfig(max_tracks=3))
        assert len(events) == 3

    def test_min_candidates_monotonicity(self, rng):
        cells = {}
        for class_id, count in enumerate([16, 12, 9, 6, 3]):
            vec = dir_to_unit(random_direction(rng)).as_array() * 0.9
            cells[(class_id, class_id % 3)] = np.tile(vec, (count, 1))
        cs = CandidateSet(cells)
        counts = [
            len(aggregate(cs, TtaConfig(min_candidates=m))) for m in (1, 4, 8, 12, 16)
        ]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("low_first", [True, False])
    def test_weight_tie_at_cut_keeps_lower_azimuth(self, low_first):
        # one cell, two clusters mirrored in y: equal weights, azimuths -50 and 50;
        # a heavier class-0 cluster takes the first of two tracks
        low, high = unit(-50.0, 20.0) * 0.9, unit(50.0, 20.0) * 0.9
        pair = [low] * 8 + [high] * 8 if low_first else [high] * 8 + [low] * 8
        cells = {(0, 0): np.tile(unit(170.0, 0.0), (16, 1)), (0, 1): np.array(pair)}
        config = TtaConfig(max_tracks=2)
        events = aggregate(CandidateSet(cells), config)
        assert [(e.class_id, round(e.direction.azimuth, 6)) for e in events] == [(0, 170.0), (1, -50.0)]
        assert repr(events) == repr(aggregate_reference(cells, config))

    def test_directions_only_for_kept_clusters(self, monkeypatch, rng):
        calls = []
        original = seldkit.tta.vector_angles

        def counting(vectors):
            calls.append(len(vectors))
            return original(vectors)

        monkeypatch.setattr(seldkit.tta, "vector_angles", counting)
        # six clusters of distinct weight in frame 3, one in frame 5; three are cut
        cells = {
            (3, class_id): np.tile(dir_to_unit(random_direction(rng)).as_array() * (0.4 + 0.1 * class_id), (10, 1))
            for class_id in range(6)
        }
        cells[(5, 2)] = np.tile(unit(10.0, 0.0), (12, 1))
        events = aggregate(CandidateSet(cells), TtaConfig(max_tracks=3))
        assert [(e.frame, e.class_id) for e in events] == [(3, 3), (3, 4), (3, 5), (5, 2)]
        assert sum(calls) == len(events)

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


@st.composite
def candidate_cells(draw):
    """Cells of mixed candidate counts (1-48), with repeated rows, mirrored
    cluster pairs whose weights, classes and azimuths all tie, pairs whose
    weights and classes tie at azimuths >= 90 deg apart, and copies of a
    cell into other classes of a frame (weight ties at the track cut)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells: dict = {}
    for _ in range(draw(st.integers(1, 14))):
        frame, class_id = int(rng.integers(0, 3)), int(rng.integers(0, 5))
        kind = draw(st.sampled_from(["clustered", "mirrored", "azimuths", "copy"]))
        if kind == "copy" and cells:
            source = list(cells.values())[int(rng.integers(len(cells)))]
            cells[(frame, class_id)] = source.copy()
        elif kind == "mirrored":
            k = draw(st.integers(1, 24))
            az, el = float(rng.uniform(-180, 180)), float(rng.uniform(1, 80))
            activity = float(rng.uniform(0.3, 1.0))
            rows = [unit(az, el) * activity] * k + [unit(az, -el) * activity] * k
            cells[(frame, class_id)] = np.array(rows)
        elif kind == "azimuths":
            # flipping y maps azimuth a to -a, |a| in [45, 135], and leaves
            # every member's and mean's norm bit-equal: the weights tie and
            # only the azimuth tie-break orders the pair, whose clusters
            # lie >= 75 deg apart at |elevation| <= 30
            k = draw(st.integers(1, 24))
            az = float(rng.uniform(45, 135)) * rng.choice([-1, 1])
            row = unit(az, float(rng.uniform(-30, 30))) * float(rng.uniform(0.3, 1.0))
            rows = np.array([row] * k + [row * [1.0, -1.0, 1.0]] * k)
            cells[(frame, class_id)] = rows[rng.permutation(2 * k)]
        else:
            n = draw(st.integers(1, 48))
            vecs = clustered_point_set(rng, n) * rng.uniform(0.3, 1.0, (n, 1))
            if rng.random() < 0.5:
                vecs[rng.integers(n, size=n // 2)] = vecs[0]
            cells[(frame, class_id)] = vecs
    return cells


class TestStackedAggregate:
    @settings(max_examples=80, deadline=None)
    @given(
        cells=candidate_cells(),
        unify_deg=st.floats(min_value=2.0, max_value=60.0),
        min_pts=st.integers(1, 4),
        min_candidates=st.integers(1, 16),
        max_tracks=st.integers(1, 3),
    )
    def test_events_equal_per_cell_reference(self, cells, unify_deg, min_pts, min_candidates, max_tracks):
        config = TtaConfig(
            unify_deg=unify_deg, min_pts=min_pts, min_candidates=min_candidates, max_tracks=max_tracks
        )
        got = aggregate(CandidateSet(cells), config)
        assert repr(got) == repr(aggregate_reference(cells, config))

    def test_one_dbscan_call_per_distinct_count(self, monkeypatch):
        shapes = []
        original = seldkit.tta.dbscan_sphere

        def counting(points, eps_deg, min_pts):
            shapes.append(np.shape(points))
            return original(points, eps_deg, min_pts)

        monkeypatch.setattr(seldkit.tta, "dbscan_sphere", counting)
        counts = {(0, 0): 16, (0, 1): 16, (1, 0): 12, (2, 3): 16, (3, 1): 8, (4, 2): 12, (5, 0): 3}
        cells = {
            cell: np.tile(unit(30.0 * i, 10.0) * 0.9, (n, 1))
            for i, (cell, n) in enumerate(counts.items())
        }
        config = TtaConfig(min_candidates=8)
        events = aggregate(CandidateSet(cells), config)
        assert sorted(shapes) == [(1, 8, 3), (2, 12, 3), (3, 16, 3)]
        assert len(events) == 6
        assert repr(events) == repr(aggregate_reference(cells, config))

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0]])
    def test_degenerate_row_rejected_naming_cell(self, bad):
        cells = {
            (0, 0): np.tile([0.0, 0.9, 0.0], (10, 1)),
            (4, 2): np.array([[1.0, 0.0, 0.0]] * 9 + [bad]),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"zero-norm or non-finite .* cell \(4, 2\)"):
                aggregate(CandidateSet(cells))

    def test_degenerate_row_names_first_bad_cell_in_key_order(self):
        # the first bad cell in (frame, class) order holds more candidates
        # than the later one, which is below min_candidates and checked too
        cells = {
            (1, 3): np.array([[0.0, 0.9, 0.0]] * 11 + [[0.0, 0.0, 0.0]]),
            (2, 0): np.tile([0.9, 0.0, 0.0], (16, 1)),
            (5, 1): np.array([[np.nan, 0.0, 0.0]] + [[1.0, 0.0, 0.0]] * 4),
        }
        with pytest.raises(ValueError, match=r"zero-norm or non-finite .* cell \(1, 3\)"):
            aggregate(CandidateSet(cells), TtaConfig(min_candidates=8))

    def test_ensemble_sized_cells(self):
        # two- and three-model cells (32 and 48 rows) in frames 0-3,
        # one-model cells (16 rows) in frames 4-7; up to 10 clusters a frame
        rng = np.random.default_rng(5)

        def cell(n):
            # two jittered sources in turn, every third row a stray
            centers = [dir_to_unit(random_direction(rng, max_abs_el=80.0)).as_array() for _ in range(2)]
            rows = [
                rng.standard_normal(3) if i % 3 == 2 else centers[i % 3] + rng.standard_normal(3) * 0.08
                for i in range(n)
            ]
            return np.array(rows) * rng.uniform(0.3, 1.0, (n, 1))

        ensemble = {(frame, c): cell(32 + 16 * (c % 2)) for frame in range(4) for c in range(5)}
        single = {(frame, c): cell(16) for frame in range(4, 8) for c in range(5)}
        config = TtaConfig(min_candidates=8, max_tracks=3)
        both = aggregate(CandidateSet({**ensemble, **single}), config)
        assert repr(both) == repr(aggregate_reference({**ensemble, **single}, config))
        alone = aggregate(CandidateSet(single), config)
        assert len(alone) > 0
        assert repr(alone) == repr([event for event in both if event.frame >= 4])


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

    def test_predictors_emit_on_the_run_label_grid(self):
        # hop 300: 8 STFT frames per label frame; no predictor is told the feature config
        clip, annotation = two_event_scene(seed=11)
        feature = FeatureConfig(hop=300)
        oracle = OraclePredictor({"clip": annotation})
        events = run_tta(oracle, clip, ClipIdentity("clip"), TtaConfig(), feature, 13)
        truth = {(e.frame, e.class_id): e.direction for e in annotation.events}
        assert {(e.frame, e.class_id) for e in events} == set(truth)
        for ev in events:
            assert angular_distance(ev.direction, truth[(ev.frame, ev.class_id)]) < 1e-6
        assert run_tta(ConstantPredictor(), clip, ClipIdentity("x"), TtaConfig(), feature, 13) == []

    def test_predictor_failure_names_pattern(self):
        clip, _ = two_event_scene(seed=11)

        class Broken:
            def predict(self, features, identity, label_frames):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="rotation pattern 0"):
            run_tta(Broken(), clip, ClipIdentity("x"))

    def test_contract_failure_names_ensemble_member(self):
        clip, _ = two_event_scene(seed=11)
        models = [ConstantPredictor(13), ConstantPredictor(9)]
        with pytest.raises(
            ValueError,
            match=r"clip 'c.wav', rotation pattern 0: prediction shape \(50, 9, 3\), "
            r"expected \(50, 13, 3\) \(predictor 1\)",
        ):
            run_tta(models, clip, ClipIdentity("c.wav"), n_classes=13)

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

    def test_ensemble_min_candidates_up_to_16_per_model(self):
        clip, annotation = two_event_scene(seed=19)
        models = [
            OraclePredictor({"clip": annotation}, OraclePredictorConfig(jitter_deg=2.0, seed=s))
            for s in (1, 2)
        ]
        events = run_tta(models, clip, ClipIdentity("clip"), TtaConfig(min_candidates=32))
        truth = {(e.frame, e.class_id) for e in annotation.events}
        assert {(e.frame, e.class_id) for e in events} == truth
        with pytest.raises(ValueError, match="min_candidates 33 exceeds the 32"):
            run_tta(models, clip, ClipIdentity("clip"), TtaConfig(min_candidates=33))
        with pytest.raises(ValueError, match="min_candidates 17 exceeds the 16"):
            run_tta(models[0], clip, ClipIdentity("clip"), TtaConfig(min_candidates=17))

    @pytest.mark.parametrize("n_models", [1, 2])
    def test_features_extracted_once_per_clip(self, monkeypatch, n_models):
        clip, annotation = two_event_scene(seed=11)
        calls = []
        original = seldkit.tta.extract_features

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(seldkit.tta, "extract_features", counting)
        models = [IntensityPredictor() for _ in range(n_models)]
        run_tta(models, clip, ClipIdentity("clip"))
        assert len(calls) == 1

    def test_predictor_mutating_its_features_changes_nothing(self):
        # a feature-driven model: one class, active everywhere, pointing
        # along the intensity DOA of the whole clip
        class IntensityModel:
            def __init__(self, mutate):
                self.mutate = mutate

            def predict(self, features, identity, label_frames):
                v = dir_to_unit(doa_from_features(features)).as_array()
                if self.mutate:
                    features[4:] *= -1.0  # would flip the next prediction if shared
                return np.tile(v, (label_frames, 1, 1))

        clip = plane_wave_clip(Direction(40.0, 15.0), n_samples=24000)
        clean = run_tta(IntensityModel(False), clip, ClipIdentity("c"))
        assert len(clean) == 10 and all(e.class_id == 0 for e in clean)
        assert run_tta(IntensityModel(True), clip, ClipIdentity("c")) == clean
        config = TtaConfig(min_candidates=32)
        clean_pair = run_tta([IntensityModel(False)] * 2, clip, ClipIdentity("c"), config)
        assert run_tta([IntensityModel(True)] * 2, clip, ClipIdentity("c"), config) == clean_pair
