import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from seldkit.geometry import (
    Direction,
    UnitVec3,
    angle_between,
    angle_unit_vectors,
    angular_distance,
    dir_to_unit,
    unit_to_dir,
    unit_vectors,
    vector_angles,
    wrap_azimuth,
)

from conftest import dir_to_unit_reference, unit_to_dir_reference

azimuths = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)
elevations = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
# signed zero elevations, the poles and both ends of the azimuth range
edge_directions = [
    Direction(0.0, 0.0), Direction(0.0, -0.0), Direction(-30.0, -0.0), Direction(0.0, 90.0),
    Direction(75.0, -90.0), Direction(180.0, 0.0), Direction(-180.0, -0.0), Direction(-180.0, 45.0),
]


class TestDirection:
    def test_azimuth_normalized_on_construction(self):
        assert Direction(190.0, 0.0).azimuth == -170.0
        assert Direction(-180.0, 0.0).azimuth == 180.0
        assert Direction(360.0, 0.0).azimuth == 0.0
        assert Direction(180.0, 0.0).azimuth == 180.0

    @pytest.mark.parametrize("bad_el", [-90.001, 90.001, 180.0, float("nan")])
    def test_elevation_out_of_range_rejected(self, bad_el):
        with pytest.raises(ValueError):
            Direction(0.0, bad_el)

    @pytest.mark.parametrize("bad_az", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_azimuth_rejected(self, bad_az):
        with pytest.raises(ValueError, match="azimuth must be finite"):
            Direction(bad_az, 0.0)

    def test_unit_vec_norm_enforced(self):
        with pytest.raises(ValueError):
            UnitVec3(1.0, 1.0, 0.0)
        UnitVec3(1.0, 0.0, 0.0)


class TestDirUnitConversion:
    def test_axis_cases(self):
        assert np.allclose(dir_to_unit(Direction(0, 0)).as_array(), [1, 0, 0], atol=1e-15)
        assert np.allclose(dir_to_unit(Direction(90, 0)).as_array(), [0, 1, 0], atol=1e-15)

    def test_45_45(self):
        u = dir_to_unit(Direction(45, 45))
        # cos45 * cos45 = 0.5 exactly
        assert u.x == pytest.approx(0.5, abs=1e-12)
        assert u.y == pytest.approx(0.5, abs=1e-12)
        assert u.z == pytest.approx(0.70711, abs=5e-6)

    def test_inverse_examples(self):
        d = unit_to_dir(UnitVec3(0.0, 0.0, 1.0))
        assert (d.azimuth, d.elevation) == (0.0, 90.0)
        d = unit_to_dir(UnitVec3(-1.0, 0.0, 0.0))
        assert (d.azimuth, d.elevation) == (180.0, 0.0)
        # z rounded to 5 digits, so the recovered elevation is ~1e-4 deg off
        d = unit_to_dir(np.array([0.5, 0.5, 0.70711]))
        assert d.azimuth == pytest.approx(45.0, abs=1e-3)
        assert d.elevation == pytest.approx(45.0, abs=1e-3)

    def test_auto_normalizes(self):
        d = unit_to_dir(np.array([2.0, 0.0, 0.0]))
        assert (d.azimuth, d.elevation) == (0.0, 0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="undefined direction"):
            unit_to_dir(np.zeros(3))

    @pytest.mark.parametrize(
        ("vector", "message"),
        [
            ([0.0, -0.0, 0.0], "undefined direction: zero vector"),
            ([1e200, 0.0, 0.0], "undefined direction: vector norm inf is not finite"),
            ([0.0, np.nan, 1.0], "undefined direction: vector norm nan is not finite"),
        ],
    )
    def test_undefined_direction_says_why(self, vector, message):
        for convert in (unit_to_dir, lambda v: vector_angles([[0.0, 0.0, 1.0], v])):
            with pytest.raises(ValueError, match=f"^{message}$"):
                convert(vector)

    @given(azimuths, st.floats(min_value=-89.999, max_value=89.999, allow_nan=False))
    def test_round_trip(self, az, el):
        d = Direction(az, el)
        back = unit_to_dir(dir_to_unit(d))
        assert abs(back.azimuth - d.azimuth) < 1e-9 or abs(abs(back.azimuth - d.azimuth) - 360) < 1e-9
        assert abs(back.elevation - d.elevation) < 1e-9

    @example([])
    @example(edge_directions)
    @given(st.lists(st.sampled_from(edge_directions) | st.builds(Direction, azimuths, elevations), max_size=12))
    def test_unit_vectors_bits_equal_dir_to_unit(self, ds):
        expected = np.array([dir_to_unit(d).as_array() for d in ds], dtype=float).reshape(-1, 3)
        got = unit_vectors(ds)
        assert got.shape == (len(ds), 3) and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


# the azimuth's edges: -180 (y = -0.0 behind), signed zeros, the poles and
# a tiny negative y behind the listener, whose azimuth rounds to or near -180
edge_vectors = [
    (-1.0, -0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, -0.0, 0.0), (0.0, 0.0, 1.0), (-0.0, -0.0, -1.0),
    (-1.0, -1e-300, 0.0), (-1.0, -1e-17, 0.0), (-1.0, -2.5e-14, 0.3), (-1.0, 1e-17, -0.0),
    (-0.5, -5e-324, 0.0), (1.0, -1e-300, 0.0), (1e-300, -1e-300, 1.0),
]
component = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, -1e-17]) | st.floats(-1e3, 1e3)
# a vector with a direction: its norm, as Python computes it, neither underflows nor overflows
directed = st.tuples(component, component, component).filter(lambda v: 0.0 < math.sqrt(sum(c * c for c in v)) < math.inf)


class TestArrayForms:
    @example(edge_vectors)
    @given(st.lists(directed, max_size=12))
    def test_vector_angles_bits_equal_scalar_reference(self, vectors):
        azimuth, elevation = vector_angles(np.array(vectors, dtype=float).reshape(-1, 3))
        expected = [unit_to_dir_reference(v) for v in vectors]
        assert azimuth.tobytes() == np.array([d.azimuth for d in expected], dtype=float).tobytes()
        assert elevation.tobytes() == np.array([d.elevation for d in expected], dtype=float).tobytes()
        # the array wrap rounds as wrap_azimuth does
        assert all(wrap_azimuth(az) == az for az in azimuth.tolist())

    @example(edge_directions)
    @given(st.lists(st.sampled_from(edge_directions) | st.builds(Direction, azimuths, elevations), max_size=12))
    def test_angle_unit_vectors_bits_equal_scalar_reference(self, ds):
        got = angle_unit_vectors([d.azimuth for d in ds], [d.elevation for d in ds])
        expected = np.array([dir_to_unit_reference(d) for d in ds], dtype=float).reshape(-1, 3)
        assert got.shape == (len(ds), 3) and got.tobytes() == expected.tobytes()

    def test_unit_to_dir_is_one_row_of_vector_angles(self):
        for v in edge_vectors:
            d = unit_to_dir(v)
            assert (d.azimuth.hex(), d.elevation.hex()) == tuple(
                float(a[0]).hex() for a in vector_angles(np.array([v]))
            )
            expected = unit_to_dir_reference(v)
            assert (d.azimuth.hex(), d.elevation.hex()) == (expected.azimuth.hex(), expected.elevation.hex())


class TestAngularDistance:
    def test_identity(self):
        d = Direction(12.0, -33.0)
        assert angular_distance(d, d) == 0.0

    def test_antipodal(self):
        assert angular_distance(Direction(0, 0), Direction(180, 0)) == pytest.approx(180.0)

    def test_orthogonal(self):
        assert angular_distance(Direction(0, 0), Direction(90, 0)) == pytest.approx(90.0)

    @given(azimuths, elevations, azimuths, elevations)
    def test_symmetry_and_range(self, az1, el1, az2, el2):
        a, b = Direction(az1, el1), Direction(az2, el2)
        d = angular_distance(a, b)
        assert 0.0 <= d <= 180.0
        assert d == pytest.approx(angular_distance(b, a), abs=1e-12)

    def test_triangle_inequality_random_triples(self, rng):
        for _ in range(300):
            dirs = [
                Direction(rng.uniform(-180, 180), rng.uniform(-90, 90)) for _ in range(3)
            ]
            ab = angular_distance(dirs[0], dirs[1])
            bc = angular_distance(dirs[1], dirs[2])
            ac = angular_distance(dirs[0], dirs[2])
            assert ac <= ab + bc + 1e-9

    def test_matches_arccos_formula(self, rng):
        for _ in range(200):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            expected = math.degrees(math.acos(np.clip(u @ v, -1.0, 1.0)))
            assert float(angle_between(u, v)) == pytest.approx(expected, abs=1e-6)


def test_wrap_azimuth_edges():
    assert wrap_azimuth(180.0) == 180.0
    assert wrap_azimuth(-180.0) == 180.0
    assert wrap_azimuth(540.0) == 180.0
    assert wrap_azimuth(0.0) == 0.0
