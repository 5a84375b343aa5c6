"""The exact bytes of every file format seldkit writes, CSV round trips, and malformed files failing by name."""

import json
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from seldkit.accdoa import DetectedEvent, read_events, write_events
from seldkit.audio import (
    AudioClip,
    WavFileWarning,
    _read_stored,
    read_wav,
    read_wav_info,
    read_wav_mono,
    write_wav,
    write_wav_mono,
)
from seldkit.emulate import load_library
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
        with pytest.warns(WavFileWarning, match=r"chunk\.wav: chunk b'abcd' not understood"):
            clip = read_wav(tmp_path / "chunk.wav")
        assert np.array_equal(clip.samples, read_wav(tmp_path / "valid.wav").samples)


# the last 12 bytes of an extensible fmt chunk's subformat GUID, {XXXXXXXX-0000-0010-8000-00AA00389B71}
GUID_TAIL = bytes.fromhex("00001000800000aa00389b71")


def wav_bytes(samples: np.ndarray, tag: int, bits: int, extensible: bool = False, rate: int = 24000) -> bytes:
    """A WAV holding ``samples`` (frames, channels) as ``bits``-bit samples of format ``tag`` (1 PCM, 3 float).

    24-bit samples are given as int32 values in [-2**23, 2**23) and stored
    in their low 3 bytes. An extensible file has a 40-byte fmt chunk whose
    subformat GUID carries ``tag``.
    """
    frames, channels = samples.shape
    if bits == 24:
        raw = samples.astype("<i4").view(np.uint8).reshape(frames, channels, 4)[:, :, :3].tobytes()
    else:
        raw = samples.tobytes()
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * block_align, block_align, bits)
    if extensible:
        fmt += struct.pack("<HHII", 22, bits, 0, tag) + GUID_TAIL
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(raw)) + raw
    chunks += bytes(len(raw) % 2)  # the pad byte after an odd-sized chunk
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def seeded_samples(dtype, frames: int, channels: int, seed: int = 0) -> np.ndarray:
    """Seeded samples spanning ``dtype``'s range, shaped (frames, channels); int32 holds 24-bit values."""
    rng = np.random.default_rng(seed)
    if dtype == "i3":
        return rng.integers(-(2**23), 2**23, (frames, channels)).astype(np.int32)
    if np.dtype(dtype).kind == "f":
        return rng.uniform(-1, 1, (frames, channels)).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, (frames, channels), endpoint=True).astype(dtype)


# (stored dtype, format tag, bits per sample) of every format the reader takes
STORED_FORMATS = [
    ("u1", 1, 8), ("<i2", 1, 16), ("i3", 1, 24), ("<i4", 1, 32), ("<f4", 3, 32), ("<f8", 3, 64),
]


class TestWavMatchesScipy:
    """The reader's arrays and the writer's bytes equal ``scipy.io.wavfile``'s."""

    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("dtype, tag, bits", STORED_FORMATS, ids=[f[0] for f in STORED_FORMATS])
    def test_stored_samples_bit_equal(self, tmp_path, dtype, tag, bits, channels, extensible):
        samples = seeded_samples(dtype, 37, channels)
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(samples, tag, bits, extensible, rate=16000))
        stored, rate = _read_stored(path)
        scipy_rate, scipy_stored = wavfile.read(path)
        assert rate == scipy_rate == 16000
        assert stored.dtype == scipy_stored.dtype
        assert stored.shape == scipy_stored.shape == ((37, channels) if channels > 1 else (37,))
        assert stored.tobytes() == scipy_stored.tobytes()

    def test_foa_writer_bytes_equal(self, tmp_path, rng):
        clip = AudioClip(rng.standard_normal((4, 1001)))
        write_wav(tmp_path / "ours.wav", clip)
        wavfile.write(tmp_path / "scipy.wav", 24000, clip.samples.T.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 333])
    def test_mono_writer_bytes_equal(self, tmp_path, rng, n):
        x = rng.standard_normal(n)
        write_wav_mono(tmp_path / "ours.wav", x, 16000)
        wavfile.write(tmp_path / "scipy.wav", 16000, x.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


class TestWavFormatsRejectedByName:
    @pytest.mark.parametrize("riff", [b"RF64", b"RIFX"])
    def test_rf64_and_rifx(self, tmp_path, riff):
        path = tmp_path / "x.wav"
        path.write_bytes(riff + wav_bytes(seeded_samples("<i2", 8, 4), 1, 16)[4:])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported WAV: {riff.decode()} file"):
            read_wav(path)

    @pytest.mark.parametrize(
        "tag, bits, extensible",
        [(2, 16, False), (0x11, 4, False), (1, 12, False), (1, 64, False), (3, 16, False), (2, 16, True)],
    )
    def test_compressed_or_unread_depths(self, tmp_path, tag, bits, extensible):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(np.zeros((4, 4), np.uint8), tag, bits, extensible))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported WAV: format tag {tag:#06x}"):
            read_wav(path)

    def test_unknown_extensible_subformat(self, tmp_path):
        data = bytearray(wav_bytes(seeded_samples("<i2", 8, 4), 1, 16, extensible=True))
        data[-64 - 8 - 1] ^= 1  # the GUID's last byte: the data chunk's header and 64 bytes of samples follow
        path = tmp_path / "x.wav"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported WAV: extensible subformat"):
            read_wav(path)

    def test_block_align_that_does_not_fit_the_channels(self, tmp_path):
        data = bytearray(wav_bytes(seeded_samples("<i2", 8, 4), 1, 16))
        data[32:34] = struct.pack("<H", 6)
        data[28:32] = struct.pack("<I", 6 * 24000)
        path = tmp_path / "x.wav"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"malformed WAV: block align 6 does not fit 4 channels of 16 bits"):
            read_wav(path)


def stated_frames(data: bytes) -> int:
    """The data chunk's size over the fmt chunk's block align, found by walking the chunks of a WAV."""
    at, chunks = 12, {}
    while at + 8 <= len(data):
        size = int.from_bytes(data[at + 4 : at + 8], "little")
        chunks.setdefault(data[at : at + 4], (at + 8, size))
        at += 8 + size + size % 2
    fmt_at = chunks[b"fmt "][0]
    return chunks[b"data"][1] // int.from_bytes(data[fmt_at + 12 : fmt_at + 14], "little")


def traced_peak(call):
    """(what ``call()`` returns or raises, the peak bytes ``tracemalloc`` traced while it ran)."""
    tracemalloc.start()
    try:
        try:
            result = call()
        except Exception as exc:  # returned, so the caller checks its type
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a read may hold the file's samples twice over (stored and float64) plus this much
READ_MARGIN = 64 * 1024


def valid_wavs() -> dict:
    """Small valid WAVs of each stored kind: name -> (bytes, readers of the file)."""
    foa, mono = (read_wav, read_wav_info), (read_wav_mono,)
    files = {}
    for channels, readers in ((4, foa), (1, mono)):
        files[f"pcm16 {channels}"] = (wav_bytes(seeded_samples("<i2", 12, channels), 1, 16), readers)
        files[f"pcm24 {channels}"] = (wav_bytes(seeded_samples("i3", 12, channels), 1, 24), readers)
        files[f"float32 {channels}"] = (wav_bytes(seeded_samples("<f4", 12, channels), 3, 32), readers)
        files[f"extensible {channels}"] = (wav_bytes(seeded_samples("<f4", 12, channels), 3, 32, True), readers)
    return files


VALID_WAVS = valid_wavs()


def n_loaded(result) -> int:
    if isinstance(result, tuple):  # read_wav_mono
        return len(result[0])
    return result.n_samples


class TestMutatedWavFailsByName:
    @settings(max_examples=600, deadline=None)
    @given(name=st.sampled_from(sorted(VALID_WAVS)), which=st.integers(0, 1), mutate=byte_mutations())
    def test_loads_its_stated_count_or_names_itself(self, name, which, mutate):
        valid, readers = VALID_WAVS[name]
        read = readers[which % len(readers)]
        data = mutate(valid)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m.wav")
            path.write_bytes(data)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WavFileWarning)  # a flipped chunk id is skipped
                result, peak = traced_peak(lambda: read(path))
        assert peak < len(data) + READ_MARGIN
        if isinstance(result, Exception):
            assert type(result) is ValueError, repr(result)
            assert str(result).startswith(f"{path}: "), str(result)
        else:
            assert n_loaded(result) == stated_frames(data)

    def test_huge_fmt_size_is_not_allocated(self, tmp_path):
        # a 4-channel float WAV of 40 frames is 698 bytes; byte 19 is the top byte of the
        # fmt chunk's size, so this flip states a 2.8 GB fmt chunk
        path = tmp_path / "x.wav"
        write_wav(path, AudioClip(np.zeros((4, 40))))
        data = bytearray(path.read_bytes())
        assert len(data) == 698
        data[19] ^= 0xA7
        path.write_bytes(bytes(data))
        result, peak = traced_peak(lambda: read_wav(path))
        assert peak < len(data) + READ_MARGIN
        assert type(result) is ValueError
        assert str(result) == f"{path}: malformed WAV: Reached EOF prematurely"


def _tensor_files(directory: Path) -> Path:
    save_tensor(directory / "t.acc", np.linspace(-1, 1, 24).reshape(2, 3, 4), config={"hop": 240})
    return directory / "t.acc"


def _library_files(directory: Path) -> dict:
    """A sample library of two mono WAVs, float32 and PCM16: name -> path."""
    write_wav_mono(directory / "s0.wav", np.linspace(-0.5, 0.5, 40), 24000)
    (directory / "s1.wav").write_bytes(wav_bytes(seeded_samples("<i2", 30, 1), 1, 16))
    samples = [{"sample_id": f"s{i}", "class_id": i, "path": f"s{i}.wav"} for i in range(2)]
    (directory / "lib.json").write_text(json.dumps({"samples": samples}), encoding="utf-8")
    return {name: directory / name for name in ("lib.json", "s0.wav", "s1.wav")}


class TestMutatedPayloadAndLibrary:
    @settings(max_examples=200, deadline=None)
    @given(mutate=byte_mutations())
    def test_tensor_payload_loads_or_names_itself(self, mutate):
        with tempfile.TemporaryDirectory() as tmp:
            path = _tensor_files(Path(tmp))
            path.write_bytes(mutate(path.read_bytes()))
            try:
                array, header = load_tensor(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: "), str(exc)
            else:
                assert array.shape == tuple(header["dims"])

    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(["lib.json", "s0.wav", "s1.wav"]), mutate=byte_mutations())
    def test_library_loads_or_names_the_file_or_the_sample(self, name, mutate):
        with tempfile.TemporaryDirectory() as tmp:
            files = _library_files(Path(tmp))
            files[name].write_bytes(mutate(files[name].read_bytes()))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", WavFileWarning)
                    library = load_library(files["lib.json"])
            except ValueError as exc:
                # text that is not JSON names the file; the library's other
                # errors name its path, and a sample's errors, a missing or
                # malformed WAV among them, the sample's index too
                where = f"sample library {files['lib.json']}"
                if name != "lib.json":
                    where += f" sample {name[1]}: "
                assert where in str(exc) or str(exc).startswith(f"{files['lib.json']}: "), str(exc)
            else:
                assert all(np.isfinite(s.waveform).all() for s in library.samples.values())
