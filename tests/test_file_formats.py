"""The exact bytes of every file format seldkit writes, and CSV round trips."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from seldkit.accdoa import DetectedEvent, read_events, write_events
from seldkit.geometry import Direction
from seldkit.labels import ClipAnnotation, EventLabel, read_labels, write_labels
from seldkit.manifest import DatasetManifest, ManifestEntry, save_manifest
from seldkit.pipeline import write_scores
from seldkit.tensorio import save_tensor


class TestGoldenBytes:
    def test_labels(self, tmp_path):
        annotation = ClipAnnotation(
            (EventLabel(2, 0, 1, Direction(1e-05, 45.5)), EventLabel(0, 1, 0, Direction(180.0, -0.0)))
        )
        write_labels(annotation, tmp_path / "l.csv")
        assert (tmp_path / "l.csv").read_bytes() == b"0,1,0,180.0,-0.0\r\n2,0,1,1e-05,45.5\r\n"

    def test_events(self, tmp_path):
        events = [
            DetectedEvent(3, 2, Direction(180.0, -90.0), 1.0),
            DetectedEvent(0, 1, Direction(-0.0, 1e-05), 0.75),
        ]
        write_events(events, tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_bytes() == b"0,1,0.0,1e-05,0.75\r\n3,2,180.0,-90.0,1.0\r\n"

    def test_scores(self, tmp_path):
        doc = {"n_entries": 1, "failures": [], "f20": 1e-05, "le_cd": 180.0, "er20": -0.0, "per_class": {"b": 1, "a": [0.5, 2]}}
        write_scores(doc, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == (
            b'{\n  "er20": -0.0,\n  "f20": 1e-05,\n  "failures": [],\n  "le_cd": 180.0,\n'
            b'  "n_entries": 1,\n  "per_class": {\n    "a": [\n      0.5,\n      2\n    ],\n'
            b'    "b": 1\n  }\n}\n'
        )

    def test_manifest(self, tmp_path):
        manifest = DatasetManifest(
            (
                ManifestEntry("a.wav", "a.csv", "real", fold_tag="f1", duration_s=1e-05),
                ManifestEntry("b.wav", "b.csv", "emulated"),
            )
        )
        save_manifest(manifest, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_bytes() == (
            b'{\n  "entries": [\n    {\n      "clip_path": "a.wav",\n      "duration_s": 1e-05,\n'
            b'      "fold_tag": "f1",\n      "label_path": "a.csv",\n      "origin": "real",\n'
            b'      "room_tag": null\n    },\n    {\n      "clip_path": "b.wav",\n'
            b'      "duration_s": 0.0,\n      "fold_tag": null,\n      "label_path": "b.csv",\n'
            b'      "origin": "emulated",\n      "room_tag": null\n    }\n  ]\n}\n'
        )

    def test_tensor_header(self, tmp_path):
        config = {"hop": 240, "eps": 1e-05, "az": 180.0}
        save_tensor(tmp_path / "t.acc", np.array([[1.0, -0.0]]), channel_names=["w", "x"], config=config)
        assert (tmp_path / "t.acc").read_bytes() == b"\x00\x00\x80?\x00\x00\x00\x80"
        assert (tmp_path / "t.acc.json").read_bytes() == (
            b'{\n  "channel_names": [\n    "w",\n    "x"\n  ],\n  "config": {\n    "az": 180.0,\n'
            b'    "eps": 1e-05,\n    "hop": 240\n  },\n  "dims": [\n    1,\n    2\n  ],\n'
            b'  "dtype": "<f4"\n}\n'
        )


directions = st.builds(
    Direction,
    st.floats(-180.0, 180.0, allow_nan=False) | st.sampled_from([180.0, -0.0, 1e-05]),
    st.floats(-90.0, 90.0, allow_nan=False) | st.sampled_from([90.0, -0.0, 1e-05]),
)
label_keys = st.tuples(st.integers(0, 500), st.integers(0, 12), st.integers(0, 3))
annotations = st.dictionaries(label_keys, directions, max_size=12).map(
    lambda cells: ClipAnnotation(tuple(EventLabel(*key, d) for key, d in cells.items()))
)
detections = st.lists(
    st.builds(
        DetectedEvent,
        st.integers(0, 500),
        st.integers(0, 12),
        directions,
        st.floats(min_value=1e-300, max_value=2.0) | st.just(1e-05),
    ),
    max_size=12,
)


def _round_trip(write, read, value):
    """Write ``value``, read it back, write that again: (read value, first bytes, second bytes)."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        write(value, first)
        back = read(first)
        write(back, second)
        return back, first.read_bytes(), second.read_bytes()


class TestCsvRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(annotations)
    def test_labels(self, annotation):
        back, first, second = _round_trip(write_labels, read_labels, annotation)
        assert back == annotation
        assert second == first

    @settings(max_examples=60, deadline=None)
    @given(detections)
    def test_events(self, events):
        back, first, second = _round_trip(write_events, read_events, events)
        assert back == sorted(events, key=lambda e: (e.frame, e.class_id, e.direction.azimuth))
        assert second == first
