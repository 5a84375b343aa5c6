import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seldkit.accdoa import DetectedEvent, decode, encode, read_events, write_events
from seldkit.geometry import Direction, angular_distance, unit_to_dir
from seldkit.labels import ClipAnnotation, EventLabel


def annotation_from_cells(cells, n_classes=13):
    events = tuple(
        EventLabel(frame, class_id, 0, Direction(az, el)) for frame, class_id, az, el in cells
    )
    return ClipAnnotation(events, n_classes=n_classes)


class TestEncode:
    def test_empty(self):
        seq = encode(ClipAnnotation((), n_classes=4), label_frames=6)
        assert seq.shape == (6, 4, 3)
        assert np.all(seq == 0)

    def test_single_event(self):
        seq = encode(annotation_from_cells([(3, 2, 0.0, 0.0)]), label_frames=5)
        np.testing.assert_allclose(seq[3, 2], [1.0, 0.0, 0.0], atol=1e-15)
        seq[3, 2] = 0
        assert np.all(seq == 0)

    def test_frame_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            encode(annotation_from_cells([(5, 0, 0.0, 0.0)]), label_frames=5)

    def test_same_class_collision_named(self):
        events = (
            EventLabel(4, 7, 0, Direction(10, 0)),
            EventLabel(4, 7, 1, Direction(-10, 0)),
        )
        with pytest.raises(ValueError, match=r"class-7.*frame 4"):
            encode(ClipAnnotation(events), label_frames=10)


class TestDecode:
    def test_zero_sequence(self):
        assert decode(np.zeros((4, 3, 3)), 0.5) == []

    def test_simple_active_cell(self):
        seq = np.zeros((2, 3, 3))
        seq[1, 0] = [0.9, 0.0, 0.0]
        events = decode(seq, 0.5)
        assert len(events) == 1
        ev = events[0]
        assert (ev.frame, ev.class_id) == (1, 0)
        assert (ev.direction.azimuth, ev.direction.elevation) == (0.0, 0.0)
        assert ev.activity == pytest.approx(0.9)

    def test_diagonal_vector(self):
        seq = np.zeros((1, 1, 3))
        seq[0, 0] = [0.3, 0.3, 0.3]
        (ev,) = decode(seq, 0.5)
        assert ev.activity == pytest.approx(math.sqrt(0.27), abs=1e-12)  # 0.5196
        assert ev.direction.azimuth == pytest.approx(45.0, abs=1e-9)
        assert ev.direction.elevation == pytest.approx(math.degrees(math.atan(1/math.sqrt(2))), abs=1e-9)
        assert ev.direction.elevation == pytest.approx(35.264, abs=1e-3)

    def test_threshold_range_enforced(self):
        seq = np.zeros((1, 1, 3))
        for bad in (0.0, -1.0, math.sqrt(3.0), 2.0):
            with pytest.raises(ValueError):
                decode(seq, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        seq = np.zeros((4, 3, 3))
        seq[2, 1, 0] = value
        with pytest.raises(ValueError, match="non-finite sequence value at frame 2, class 1"):
            decode(seq)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vector", [[1e200, 0.0, 0.0], [0.0, -1e155, 1e155], [1e300, 1e300, 1e300]])
    def test_overflowing_norm_named(self, vector):
        # finite values whose squared norm overflows float64, without a RuntimeWarning
        seq = np.zeros((3, 2, 3))
        seq[1, 1] = vector
        seq[2, 0] = [0.9, 0.0, 0.0]
        with pytest.raises(ValueError, match=r"^vector norm overflows at frame 1, class 1$"):
            decode(seq)

    def test_monotone_in_threshold(self, rng):
        seq = rng.uniform(-1, 1, size=(20, 13, 3))
        taus = [0.2, 0.5, 0.8, 1.1, 1.5]
        counts = [len(decode(seq, t)) for t in taus]
        assert counts == sorted(counts, reverse=True)


frames = st.integers(min_value=0, max_value=19)
classes = st.integers(min_value=0, max_value=12)
angles = st.tuples(
    st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
    st.floats(min_value=-88.0, max_value=88.0, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.tuples(frames, classes), angles, max_size=12))
def test_round_trip_collision_free(cells):
    annotation = annotation_from_cells(
        [(f, c, az, el) for (f, c), (az, el) in cells.items()]
    )
    decoded = decode(encode(annotation, label_frames=20), 0.5)
    assert len(decoded) == len(annotation.events)
    by_cell = {(e.frame, e.class_id): e for e in decoded}
    for ev in annotation.events:
        got = by_cell[(ev.frame, ev.class_id)]
        assert angular_distance(got.direction, ev.direction) < 1e-9
        assert got.activity == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    label_frames=st.integers(1, 40),
    n_classes=st.integers(1, 13),
    data=st.data(),
)
def test_decode_encode_round_trips_any_grid(label_frames, n_classes, data):
    # any grid size, and elevations up to the poles
    cells = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, label_frames - 1), st.integers(0, n_classes - 1)),
            st.tuples(
                st.floats(min_value=-180.0, max_value=180.0),
                st.floats(min_value=-90.0, max_value=90.0),
            ),
            max_size=30,
        )
    )
    annotation = annotation_from_cells(
        [(f, c, az, el) for (f, c), (az, el) in cells.items()], n_classes=n_classes
    )
    decoded = decode(encode(annotation, label_frames), 0.5)
    assert sorted((e.frame, e.class_id) for e in decoded) == sorted(cells)
    for ev in decoded:
        az, el = cells[(ev.frame, ev.class_id)]
        assert angular_distance(ev.direction, Direction(az, el)) < 1e-9
        assert ev.activity == pytest.approx(1.0, abs=1e-12)


def decode_per_cell(seq, threshold=0.5):
    """``decode`` as one ``unit_to_dir`` call per active cell: the reference for the array form."""
    arr = np.asarray(seq, dtype=float)
    norms = np.linalg.norm(arr, axis=2)
    events = []
    for frame, class_id in zip(*np.nonzero(norms > threshold)):
        v = arr[frame, class_id]
        events.append(
            DetectedEvent(int(frame), int(class_id), unit_to_dir(v), float(norms[frame, class_id]))
        )
    return events


def event_bits(events):
    cells = [(ev.frame, ev.class_id) for ev in events]
    columns = (
        [ev.direction.azimuth for ev in events],
        [ev.direction.elevation for ev in events],
        [ev.activity for ev in events],
    )
    return cells, [np.array(column, dtype=float).tobytes() for column in columns]


component = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]) | st.floats(-1.0, 1.0)
# poles (x = y = 0), signed zeros, the axes and norms up to sqrt(3)
edge_vectors = [
    (0.0, 0.0, 1.0), (0.0, 0.0, -0.7), (-0.0, 0.0, 0.9), (0.0, -0.0, -1.0), (-0.0, -0.0, 0.6),
    (1.0, 0.0, 0.0), (-1.0, 0.0, -0.0), (0.0, 1.0, 0.0), (-0.0, -1.0, -0.0), (0.0, -0.0, 0.0),
    (1.0, 1.0, 1.0), (-1.0, -1.0, -1.0), (1.0, -1.0, 1.0), (-1.0, 1.0, -0.0),
]


@st.composite
def decode_cases(draw):
    threshold = draw(st.sampled_from([0.5, 0.1, 1.7]) | st.floats(0.01, 1.72))
    frames, classes = draw(st.integers(1, 6)), draw(st.integers(1, 4))

    def just_above(v, ulps):
        # the vector scaled to a norm a few ulps above the threshold
        n = math.sqrt(sum(c * c for c in v))
        return tuple(c * (threshold / n) * (1.0 + ulps * 2.0**-52) for c in v) if n else v

    near = st.builds(just_above, st.tuples(component, component, component), st.integers(0, 4))
    cells = draw(
        st.lists(
            st.sampled_from(edge_vectors) | st.tuples(component, component, component) | near,
            min_size=frames * classes,
            max_size=frames * classes,
        )
    )
    return np.array(cells, dtype=float).reshape(frames, classes, 3), threshold


@settings(max_examples=200, deadline=None)
@example((np.array(edge_vectors).reshape(2, 7, 3), 0.5))
@example((np.array(edge_vectors).reshape(7, 2, 3), 0.01))
@given(decode_cases())
def test_decode_bits_equal_per_cell_reference(case):
    seq, threshold = case
    assert event_bits(decode(seq, threshold)) == event_bits(decode_per_cell(seq, threshold))


def test_round_trip_any_threshold(rng):
    annotation = annotation_from_cells([(0, 1, 40.0, 10.0), (7, 3, -120.0, -45.0)])
    seq = encode(annotation, label_frames=10)
    for tau in (0.1, 0.5, 0.9, 0.999):
        assert len(decode(seq, tau)) == 2


class TestEventCSV:
    def test_round_trip(self, tmp_path):
        events = [
            DetectedEvent(3, 5, Direction(12.5, -8.25), 0.75),
            DetectedEvent(0, 1, Direction(-170.0, 88.0), 1.0),
        ]
        path = tmp_path / "ev.csv"
        write_events(events, path)
        back = read_events(path)
        assert len(back) == 2
        assert back[0].frame == 0 and back[1].frame == 3  # sorted on write
        assert back[1].direction.azimuth == 12.5
        assert back[1].activity == 0.75

    def test_numpy_activity_round_trip(self, tmp_path):
        # an activity computed in numpy is stored and written as a plain float
        event = DetectedEvent(0, 1, Direction(10, 5), np.float64(0.8))
        assert type(event.activity) is float
        path = tmp_path / "ev.csv"
        write_events([event], path)
        assert path.read_text() == "0,1,10.0,5.0,0.8\n"
        assert read_events(path) == [event]

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,0.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_events(path)
