import struct

import numpy as np
import pytest

from seldkit.audio import AudioClip, read_wav, read_wav_mono, write_wav, write_wav_mono
from seldkit.geometry import Direction
from seldkit.labels import ClipAnnotation, EventLabel, read_labels, write_labels


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
