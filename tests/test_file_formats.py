"""The exact bytes of every file format seldkit writes, CSV round trips, and malformed files failing by name."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from seldkit.accdoa import DetectedEvent, read_events, write_events
from seldkit.audio import AudioClip, read_wav, read_wav_info, read_wav_mono, write_wav, write_wav_mono
from seldkit.geometry import Direction
from seldkit.labels import ClipAnnotation, EventLabel, read_labels, write_labels
from seldkit.manifest import DatasetManifest, ManifestEntry, load_manifest, save_manifest
from seldkit.pipeline import write_scores
from seldkit.tensorio import load_tensor, read_json, save_tensor


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


def _valid_files(directory: Path) -> dict:
    """One valid file of each text format seldkit reads: name -> (file, reader of the file)."""
    annotation = ClipAnnotation(
        (EventLabel(0, 1, 0, Direction(180.0, -0.0)), EventLabel(12, 0, 1, Direction(-35.5, 1e-05)))
    )
    write_labels(annotation, directory / "labels.csv")
    write_events(
        [DetectedEvent(3, 2, Direction(-90.0, 45.0), 0.75), DetectedEvent(7, 0, Direction(0.5, -12.0), 1.0)],
        directory / "events.csv",
    )
    save_manifest(
        DatasetManifest(
            (
                ManifestEntry("a.wav", "a.csv", "real", fold_tag="f1", duration_s=2.5),
                ManifestEntry("b.wav", "b.csv", "emulated", room_tag="r2"),
            )
        ),
        directory / "m.json",
    )
    save_tensor(directory / "t.acc", np.zeros((2, 3)), channel_names=["a", "b", "c"], config={"hop": 240})
    return {
        "labels": (directory / "labels.csv", read_labels),
        "events": (directory / "events.csv", read_events),
        "manifest": (directory / "m.json", load_manifest),
        "tensor header": (directory / "t.acc.json", lambda _: load_tensor(directory / "t.acc")),
    }


@st.composite
def byte_mutations(draw):
    """A function that flips, inserts or deletes one byte of a file, or cuts the file short."""
    kind = draw(st.sampled_from(["flip", "insert", "delete", "cut"]))
    where = draw(st.floats(0.0, 1.0, exclude_max=True))
    value = draw(st.integers(1, 255))

    def mutate(data: bytes) -> bytes:
        at = int(where * len(data))
        if kind == "flip":
            return data[:at] + bytes([data[at] ^ value]) + data[at + 1 :]
        if kind == "insert":
            return data[:at] + bytes([value]) + data[at:]
        if kind == "delete":
            return data[:at] + data[at + 1 :]
        return data[:at]

    return mutate


class TestMalformedFilesFailByName:
    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(["labels", "events", "manifest", "tensor header"]), mutate=byte_mutations())
    def test_mutated_text_file_loads_or_names_itself(self, name, mutate):
        with tempfile.TemporaryDirectory() as tmp:
            path, read = _valid_files(Path(tmp))[name]
            path.write_bytes(mutate(path.read_bytes()))
            try:
                read(path)
            except ValueError as exc:
                # a tensor header's errors name the header or, for its payload, the tensor
                assert str(path).removesuffix(".json") in str(exc)

    @pytest.mark.parametrize("read", [read_labels, read_events])
    def test_table_not_utf8_named(self, tmp_path, read):
        path = tmp_path / "t.csv"
        path.write_bytes(b"0,1,0,10.0,\xff\r\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8 text: "):
            read(path)

    def test_table_row_csv_cannot_split_named_with_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,1,0,10.0,0.0\r\n0,2,0,10.0," + "1" * 200_000 + "\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: field larger than field limit"):
            read_labels(path)

    @pytest.mark.parametrize("read", [read_json, load_manifest])
    def test_json_not_utf8_named(self, tmp_path, read):
        path = tmp_path / "d.json"
        path.write_bytes(b'{"entries": ["\xff"]}\n')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8 text: "):
            read(path)


def _wav_bytes(directory: Path, write) -> bytes:
    write(directory / "valid.wav")
    return (directory / "valid.wav").read_bytes()


def write_foa(path):
    write_wav(path, AudioClip(np.linspace(-1, 1, 4 * 12).reshape(4, 12)))


def write_mono(path):
    write_wav_mono(path, np.linspace(-1, 1, 12), 24000)


class TestMalformedWavFailsByName:
    @pytest.mark.parametrize(
        "write, read", [(write_foa, read_wav), (write_foa, read_wav_info), (write_mono, read_wav_mono)]
    )
    def test_every_cut_raises_a_value_error_naming_the_file(self, tmp_path, write, read):
        data = _wav_bytes(tmp_path, write)
        path = tmp_path / "cut.wav"
        for length in range(len(data)):
            path.write_bytes(data[:length])
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: malformed WAV: "):
                read(path)

    def test_cut_on_a_frame_boundary_is_short_of_its_header(self, tmp_path):
        # scipy only warns here, and the clip would load with 11 of its 12 samples
        data = _wav_bytes(tmp_path, write_foa)
        (tmp_path / "cut.wav").write_bytes(data[:-16])
        with pytest.raises(ValueError, match="malformed WAV: Reached EOF prematurely"):
            read_wav(tmp_path / "cut.wav")

    def test_riff_size_before_the_data_chunk_named(self, tmp_path):
        data = _wav_bytes(tmp_path, write_foa)
        (tmp_path / "short_riff.wav").write_bytes(data[:4] + (4).to_bytes(4, "little") + data[8:])
        with pytest.raises(ValueError, match=r"short_riff\.wav: malformed WAV: no fmt or data chunk within"):
            read_wav(tmp_path / "short_riff.wav")

    def test_zero_channels_named(self, tmp_path):
        data = bytearray(_wav_bytes(tmp_path, write_foa))
        data[22:24] = bytes(2)  # the fmt chunk's channel count
        (tmp_path / "zero.wav").write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"zero\.wav: malformed WAV: "):
            read_wav(tmp_path / "zero.wav")

    def test_unknown_chunk_stays_a_warning(self, tmp_path):
        data = _wav_bytes(tmp_path, write_foa)
        data_at = data.index(b"data")
        extra = b"abcd" + (4).to_bytes(4, "little") + bytes(4)
        riff_size = int.from_bytes(data[4:8], "little") + len(extra)
        patched = data[:4] + riff_size.to_bytes(4, "little") + data[8:data_at] + extra + data[data_at:]
        (tmp_path / "chunk.wav").write_bytes(patched)
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            clip = read_wav(tmp_path / "chunk.wav")
        assert np.array_equal(clip.samples, read_wav(tmp_path / "valid.wav").samples)
