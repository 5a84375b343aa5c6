import json
import re

import numpy as np
import pytest

from seldkit.manifest import DatasetManifest, ManifestEntry, load_manifest, save_manifest
from seldkit.tensorio import load_tensor, save_tensor


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(
            (
                ManifestEntry("a.wav", "a.csv", "real", room_tag="r1", duration_s=5.0),
                ManifestEntry("b.wav", "b.csv", "emulated", fold_tag="fold2"),
            )
        )
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        back = load_manifest(path)
        assert back == manifest

    def test_bad_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            ManifestEntry("a.wav", "a.csv", "synthetic")

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ManifestEntry("", "a.csv", "real")


class TestTensorIO:
    def test_round_trip_with_header(self, tmp_path, rng):
        arr = rng.standard_normal((7, 11, 5)).astype(np.float32)
        path = tmp_path / "t.feat"
        save_tensor(path, arr, channel_names=list("abcdefg"), config={"hop": 600})
        back, header = load_tensor(path)
        np.testing.assert_allclose(back, arr, atol=1e-7)
        assert header["dims"] == [7, 11, 5]
        assert header["channel_names"] == list("abcdefg")
        assert header["config"] == {"hop": 600}

    def test_payload_is_little_endian_float32(self, tmp_path):
        arr = np.array([[1.0, -2.0], [3.0, 4.0]])
        path = tmp_path / "t.acc"
        save_tensor(path, arr)
        raw = np.fromfile(path, dtype="<f4")
        np.testing.assert_array_equal(raw, [1.0, -2.0, 3.0, 4.0])

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "naked.feat"
        np.zeros(4, dtype="<f4").tofile(path)
        with pytest.raises(FileNotFoundError, match="header"):
            load_tensor(path)

    def test_missing_header_named_under_a_directory_and_under_a_file(self, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        (tmp_path / "dir").mkdir()
        for path in (tmp_path / "dir" / "t.acc", tmp_path / "file" / "t.acc", tmp_path / "none" / "t.acc"):
            with pytest.raises(FileNotFoundError, match=f"^{re.escape(f'missing tensor header {path}.json')}$"):
                load_tensor(path)
            with pytest.raises(FileNotFoundError, match="^missing tensor header "):
                load_tensor(str(path))

    def test_header_path_named_as_pathlib_normalizes_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError, match=r"^missing tensor header t\.acc\.json$"):
            load_tensor("./t.acc")

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.feat"
        save_tensor(path, np.zeros((2, 3)))
        header = json.loads((tmp_path / "t.feat.json").read_text())
        header["dims"] = [2, 4]
        (tmp_path / "t.feat.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="header says"):
            load_tensor(path)

    def test_size_beyond_64_bits_rejected(self, tmp_path):
        # 2**32 * 2**32 wraps to 0 in int64 arithmetic, the size of an empty payload
        path = tmp_path / "t.feat"
        path.write_bytes(b"")
        (tmp_path / "t.feat.json").write_text(json.dumps({"dims": [2**32, 2**32]}))
        with pytest.raises(ValueError, match=r"t\.feat: payload has 0 values, header says"):
            load_tensor(path)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        seq = np.zeros((10, 13, 3))
        seq[4, 2, 0] = value
        path = tmp_path / "clip.acc"
        save_tensor(path, seq)
        with pytest.raises(ValueError, match=r"clip\.acc: non-finite"):
            load_tensor(path)
