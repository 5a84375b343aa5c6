import csv
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from seldkit.audio import AudioClip, WavInfo, read_wav, read_wav_info, read_wav_mono, write_wav, write_wav_mono
from seldkit.geometry import Direction
from seldkit.labels import LABEL_COLUMNS, ClipAnnotation, EventLabel, read_labels, read_table, write_labels


class TestAudioClip:
    def test_requires_four_channels(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros((2, 100)))
        with pytest.raises(ValueError):
            AudioClip(np.zeros(100))

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros((4, 10)), sample_rate=0)

    def test_duration(self):
        clip = AudioClip(np.zeros((4, 12000)))
        assert clip.duration_s == pytest.approx(0.5)


class TestWavIO:
    def test_float32_round_trip(self, tmp_path, rng):
        clip = AudioClip(rng.standard_normal((4, 5000)) * 0.1)
        path = tmp_path / "c.wav"
        write_wav(path, clip)
        back = read_wav(path)
        assert back.sample_rate == 24000
        np.testing.assert_allclose(back.samples, clip.samples, atol=1e-7)

    def test_int16_read(self, tmp_path):
        from scipy.io import wavfile

        data = (np.arange(-4, 4) * 4096).astype(np.int16).reshape(2, 4)
        wavfile.write(tmp_path / "i.wav", 24000, data)
        clip = read_wav(tmp_path / "i.wav")
        np.testing.assert_allclose(clip.samples, data.T / 2.0**15)

    def test_pcm24_read(self, tmp_path):
        # hand-built 24-bit PCM container: 4 channels, 2 frames
        values = [[-(2**23), 2**23 - 1, 0, 1], [-1, 4660, -300, 7]]
        raw = b"".join(
            struct.pack("<i", v)[:3] for frame in values for v in frame
        )
        header = (
            b"RIFF"
            + struct.pack("<I", 36 + len(raw))
            + b"WAVEfmt "
            + struct.pack("<IHHIIHH", 16, 1, 4, 24000, 24000 * 12, 12, 24)
            + b"data"
            + struct.pack("<I", len(raw))
        )
        path = tmp_path / "p24.wav"
        path.write_bytes(header + raw)
        clip = read_wav(path)
        expected = np.array(values, dtype=float).T / 2.0**23
        np.testing.assert_allclose(clip.samples, expected)
        assert clip.samples.min() == -1.0

    def test_mono_round_trip(self, tmp_path, rng):
        x = rng.standard_normal(300) * 0.2
        write_wav_mono(tmp_path / "m.wav", x, 24000)
        back, sr = read_wav_mono(tmp_path / "m.wav")
        assert sr == 24000
        np.testing.assert_allclose(back, x, atol=1e-7)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, rng, value):
        samples = rng.standard_normal((4, 500)) * 0.1
        samples[3, 77] = value
        samples[1, 300] = value
        path = tmp_path / "bad.wav"
        write_wav(path, AudioClip(samples))
        with pytest.raises(ValueError, match=r"bad\.wav: non-finite sample at channel 1, sample 300"):
            read_wav(path)

    def test_channel_count_mismatch(self, tmp_path, rng):
        write_wav_mono(tmp_path / "m.wav", rng.standard_normal(100), 24000)
        with pytest.raises(ValueError, match="4 FOA channels"):
            read_wav(tmp_path / "m.wav")


def read_either(read, path):
    """What ``read`` gives for ``path``: (rate, length), or the error's type and message."""
    try:
        result = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.sample_rate, result.n_samples


def wav_with_rate(path, data, sample_rate):
    """Write ``data`` with scipy, then patch the header's rate and byte rate, which scipy will not write as 0."""
    wavfile.write(path, 24000, data)
    raw = bytearray(path.read_bytes())
    (block_align,) = struct.unpack("<H", raw[32:34])
    raw[24:32] = struct.pack("<II", sample_rate, sample_rate * block_align)
    path.write_bytes(bytes(raw))


class TestWavChecksOnStoredSamples:
    """``read_wav_info`` checks a file as ``read_wav`` does, without converting its samples."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_bad_value_in_channel_sample_order(self, tmp_path, rng, dtype):
        # stored frame-major, channel 2's value comes first; reported channel-major, channel 0's does
        samples = (rng.standard_normal((4, 600)) * 0.1).astype(dtype)
        samples[2, 10] = np.nan
        samples[0, 500] = np.inf
        path = tmp_path / "bad.wav"
        wavfile.write(path, 24000, samples.T)
        for read in (read_wav, read_wav_info):
            with pytest.raises(ValueError, match=r"bad\.wav: non-finite sample at channel 0, sample 500$"):
                read(path)

    def test_mono_non_finite_named_on_channel_0(self, tmp_path):
        x = np.zeros(50, dtype=np.float32)
        x[[7, 30]] = np.nan
        path = tmp_path / "m.wav"
        wavfile.write(path, 24000, x)
        for read in (read_wav, read_wav_info, read_wav_mono):
            with pytest.raises(ValueError, match=r"m\.wav: non-finite sample at channel 0, sample 7$"):
                read(path)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint8, np.float32])
    @pytest.mark.parametrize("channels", [4, 1, 2])
    @pytest.mark.parametrize("rate", [24000, 16000, 0])
    def test_both_paths_agree(self, tmp_path, rng, dtype, channels, rate):
        info = np.iinfo(dtype) if np.issubdtype(dtype, np.integer) else None
        if info is None:
            data = rng.uniform(-1, 1, (37, channels)).astype(dtype)
        else:
            data = rng.integers(info.min, info.max, (37, channels), endpoint=True).astype(dtype)
        path = tmp_path / "x.wav"
        wav_with_rate(path, data if channels > 1 else data[:, 0], rate)
        got = read_either(read_wav_info, path)
        assert got == read_either(read_wav, path)
        if channels == 4 and rate:
            assert got == (rate, 37)
            assert read_wav_info(path) == WavInfo(rate, 37)
        elif channels == 4:
            assert got == (ValueError, f"{path}: sample_rate must be positive, got 0")
        else:
            assert got == (ValueError, f"{path}: expected 4 FOA channels, found {channels}")

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint8, np.float32])
    def test_mono_read_unchanged(self, tmp_path, rng, dtype):
        # the samples of the reference: scaled as read_wav scales one channel of a 4-channel file
        info = np.iinfo(dtype) if np.issubdtype(dtype, np.integer) else None
        if info is None:
            x = rng.uniform(-1, 1, 41).astype(dtype)
        else:
            x = rng.integers(info.min, info.max, 41, endpoint=True).astype(dtype)
        wavfile.write(tmp_path / "m.wav", 16000, x)
        wavfile.write(tmp_path / "q.wav", 16000, np.repeat(x[:, np.newaxis], 4, axis=1))
        back, sr = read_wav_mono(tmp_path / "m.wav")
        assert sr == 16000 and back.dtype == np.float64
        assert back.tobytes() == read_wav(tmp_path / "q.wav").samples[0].copy().tobytes()
        with pytest.raises(ValueError, match=r"q\.wav: expected mono, found 4 channels"):
            read_wav_mono(tmp_path / "q.wav")


class TestAnnotation:
    def test_sorted_on_construction(self):
        events = (
            EventLabel(5, 1, 0, Direction(0, 0)),
            EventLabel(1, 2, 0, Direction(10, 0)),
            EventLabel(1, 0, 0, Direction(20, 0)),
        )
        ann = ClipAnnotation(events)
        assert [(e.frame, e.class_id) for e in ann.events] == [(1, 0), (1, 2), (5, 1)]

    def test_duplicate_rejected(self):
        events = (
            EventLabel(1, 2, 0, Direction(0, 0)),
            EventLabel(1, 2, 0, Direction(10, 0)),
        )
        with pytest.raises(ValueError, match="duplicate"):
            ClipAnnotation(events)

    def test_class_range_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            ClipAnnotation((EventLabel(0, 13, 0, Direction(0, 0)),), n_classes=13)


class TestLabelCSV:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        ann = read_labels(path)
        assert ann.events == ()

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("10,3,0,30,-10\n")
        ann = read_labels(path)
        assert len(ann.events) == 1
        ev = ann.events[0]
        assert (ev.frame, ev.class_id, ev.track_id) == (10, 3, 0)
        assert (ev.direction.azimuth, ev.direction.elevation) == (30.0, -10.0)

    def test_round_trip_byte_identical(self, tmp_path, rng):
        events = tuple(
            EventLabel(
                int(rng.integers(0, 50)),
                int(rng.integers(0, 13)),
                t,
                Direction(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90))),
            )
            for t in range(20)
        )
        ann = ClipAnnotation(events)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_labels(ann, p1)
        write_labels(read_labels(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,0,10,0\n1,2,zzz,5,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            read_labels(path)

    def test_extra_column_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("0,1,0,10,0,99\n")
        with pytest.raises(ValueError, match="expected 5 columns"):
            read_labels(path)

    def test_out_of_range_class_rejected(self, tmp_path):
        path = tmp_path / "cls.csv"
        path.write_text("0,13,0,10,0\n")
        with pytest.raises(ValueError, match="out of range"):
            read_labels(path, n_classes=13)

    def test_out_of_range_elevation_rejected(self, tmp_path):
        path = tmp_path / "el.csv"
        path.write_text("0,1,0,10,95\n")
        with pytest.raises(ValueError, match=r"el\.csv:1"):
            read_labels(path)

    @pytest.mark.parametrize("bad_az", ["nan", "inf", "-inf"])
    def test_non_finite_azimuth_rejected(self, tmp_path, bad_az):
        path = tmp_path / "az.csv"
        path.write_text(f"2,1,0,10.0,5.0\n3,1,0,{bad_az},10.0\n")
        with pytest.raises(ValueError, match=r"az\.csv:2: azimuth must be finite"):
            read_labels(path)


AZIMUTH_TEXTS = ["10", "10.0", "1e1", "0", "-0.0", "190", "-180", "180", "359.99999999999994", "-45.5", "0.1"]
ELEVATION_TEXTS = ["0", "0.0", "-0.0", "45", "-90", "90", "89.99999999999999", "-12.5", "1e-320", "0.1"]


def per_row_labels(path):
    """Every row parsed on its own, one ``Direction`` each: the reference for shared directions."""
    with open(path, newline="") as f:
        rows = [row for row in csv.reader(f) if row]
    labels = [(int(r[0]), int(r[1]), int(r[2]), Direction(float(r[3]), float(r[4]))) for r in rows]
    return sorted(labels, key=lambda label: label[:3])


class TestSharedDirections:
    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 30), st.integers(0, 12), st.integers(0, 2)),
            st.tuples(st.sampled_from(AZIMUTH_TEXTS), st.sampled_from(ELEVATION_TEXTS)),
            max_size=40,
        )
    )
    def test_equal_to_per_row_parse_in_bits(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("shared") / "labels.csv"
        path.write_text("".join(f"{f},{c},{t},{az},{el}\n" for (f, c, t), (az, el) in rows.items()))
        events = read_labels(path).events
        expected = per_row_labels(path)
        assert len(events) == len(expected)
        for ev, (frame, class_id, track_id, direction) in zip(events, expected):
            assert (ev.frame, ev.class_id, ev.track_id) == (frame, class_id, track_id)
            assert ev.direction.azimuth.hex() == direction.azimuth.hex()
            assert ev.direction.elevation.hex() == direction.elevation.hex()
        # one Direction per distinct text pair
        by_text = {}
        for ev in events:
            text = rows[(ev.frame, ev.class_id, ev.track_id)]
            assert by_text.setdefault(text, ev.direction) is ev.direction

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("2,1,0,inf,5.0\n", r"rep\.csv:3: azimuth must be finite"),
            ("2,1,0,10.0,95\n", r"rep\.csv:3: elevation must be in \[-90, 90\]"),
            ("-1,1,0,10.0,5.0\n", r"rep\.csv:3: frame must be >= 0"),
        ],
    )
    def test_bad_row_repeating_earlier_text_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "rep.csv"
        path.write_text("0,1,0,10.0,5.0\n1,1,0,10.0,5.0\n" + text)
        with pytest.raises(ValueError, match=message):
            read_labels(path)


def read_labels_reference(path, n_classes=13):
    """The object reader ``read_labels`` replaced: one ``EventLabel`` per row, rows of
    one text pair sharing a ``Direction``, then the annotation's checks in sorted order."""
    directions = {}

    def parse(row):
        direction = directions.get((row[3], row[4]))
        if direction is None:
            direction = directions[row[3], row[4]] = Direction(float(row[3]), float(row[4]))
        return EventLabel(int(row[0]), int(row[1]), int(row[2]), direction)

    events = sorted(read_table(path, LABEL_COLUMNS, parse), key=lambda e: (e.frame, e.class_id, e.track_id))
    seen = set()
    for ev in events:
        key = (ev.frame, ev.class_id, ev.track_id)
        if key in seen:
            raise ValueError(f"{path}: duplicate (frame, class, track) label {key}")
        seen.add(key)
        if ev.class_id >= n_classes:
            raise ValueError(f"{path}: class_id {ev.class_id} out of range for n_classes={n_classes}")
    return tuple(events)


# one bad row of each kind; "dup" repeats the (frame, class, track) of a good row
BAD_ROWS = {
    "columns": "4,1,0,10.0",
    "wide": "4,1,0,10.0,5.0,1",
    "frame": "4.5,1,0,10.0,5.0",
    "negative class": "4,-1,0,10.0,5.0",
    "negative track": "4,1,-2,10.0,5.0",
    "nan azimuth": "4,1,0,nan,5.0",
    "elevation 91": "4,1,0,10.0,91",
    "class": "4,9,0,10.0,5.0",
    "dup": None,
}


class TestLabelReadErrors:
    @settings(max_examples=150, deadline=None)
    @given(
        good=st.dictionaries(
            st.tuples(st.integers(0, 20), st.integers(0, 8), st.integers(0, 2)),
            st.sampled_from(["10.0,5.0", "-45,0", "180,-0.0"]),
            min_size=1,
            max_size=12,
        ),
        bad=st.lists(st.tuples(st.sampled_from(sorted(BAD_ROWS)), st.integers(0, 12)), max_size=3),
        n_classes=st.sampled_from([5, 9, 13]),
    )
    def test_first_offender_raises_the_reference_message(self, tmp_path_factory, good, bad, n_classes):
        rows = [f"{f},{c},{t},{text}" for (f, c, t), text in good.items()]
        for kind, position in bad:
            row = BAD_ROWS[kind] or f"{rows[position % len(rows)].rsplit(',', 2)[0]},33,-10"
            rows.insert(position % (len(rows) + 1), row)
        path = tmp_path_factory.mktemp("labels") / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        try:
            expected = read_labels_reference(path, n_classes)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                read_labels(path, n_classes)
            assert str(raised.value) == str(exc)
        else:
            assert read_labels(path, n_classes).events == expected

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("0,1,0,10,0\n1,2,0,10,0,7\n", r"^{path}:2: expected 5 columns \(frame,class_id,track_id,azimuth,elevation\), got 6$"),
            ("0,1,0,10,0\nx,2,0,10,0\n", r"^{path}:2: invalid literal for int\(\) with base 10: 'x'$"),
            ("0,1,0,10,0\n1,2,-1,10,0\n", r"^{path}:2: track_id must be >= 0, got -1$"),
            ("0,1,0,10,0\n1,2,0,nan,0\n", r"^{path}:2: azimuth must be finite, got nan$"),
            ("0,1,0,10,91\n", r"^{path}:1: elevation must be in \[-90, 90\], got 91.0$"),
            ("3,1,0,10,0\n0,4,0,10,0\n3,1,0,20,0\n", r"^{path}: duplicate \(frame, class, track\) label \(3, 1, 0\)$"),
            ("5,13,0,10,0\n0,1,0,10,0\n0,1,0,20,0\n", r"^{path}: duplicate \(frame, class, track\) label \(0, 1, 0\)$"),
            ("3,1,0,10,0\n0,13,0,10,0\n3,1,0,20,0\n", r"^{path}: class_id 13 out of range for n_classes=13$"),
        ],
    )
    def test_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message.format(path=re.escape(str(path)))):
            read_labels(path)

    def test_id_beyond_64_bits_named(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"{2**70},1,0,10,0\n")
        with pytest.raises(ValueError, match=r"big\.csv: a frame, class or track id does not fit in 64 bits$"):
            read_labels(path)


class TestAnnotationColumns:
    def test_columns_sorted_with_shared_directions(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("5,1,0,10,0\n1,2,1,-30,5\n1,2,0,10,0\n")
        annotation = read_labels(path)
        assert annotation.frame.tolist() == [1, 1, 5]
        assert annotation.class_id.tolist() == [2, 2, 1]
        assert annotation.track_id.tolist() == [0, 1, 0]
        assert [annotation.directions[i] for i in annotation.inverse] == [
            Direction(10, 0), Direction(-30, 5), Direction(10, 0)
        ]
        assert len(annotation.directions) == 2 and annotation.max_frame == 5
        events = annotation.events
        assert events[0].direction is events[2].direction
        assert annotation == ClipAnnotation(reversed(events)) and annotation.events is events

    def test_columns_read_only(self):
        annotation = ClipAnnotation((EventLabel(0, 1, 0, Direction(0, 0)),))
        with pytest.raises(ValueError):
            annotation.frame[0] = 3

    def test_equality_and_hash_follow_the_events(self):
        d = Direction(10, 0)
        a = ClipAnnotation((EventLabel(0, 1, 0, d), EventLabel(2, 1, 0, d)), n_classes=4)
        b = ClipAnnotation((EventLabel(2, 1, 0, Direction(10, 0)), EventLabel(0, 1, 0, Direction(10, 0))), n_classes=4)
        assert a == b and hash(a) == hash(b)
        assert a != ClipAnnotation(a.events, n_classes=5)
        assert repr(a) == f"ClipAnnotation(events={a.events!r}, n_classes=4)"
