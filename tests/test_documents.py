"""Every JSON document seldkit reads goes through one strict reader.

A malformed run config, scene spec, sample library, manifest or tensor
header (a required key dropped, an unknown key added, or a non-object
where an object belongs) raises ValueError naming the document, and the
file and entry index for manifests and tensor headers. Settings read from
documents reject NaN, which Python's json accepts as a literal.
"""

import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from seldkit.accdoa import DetectedEvent, read_events
from seldkit.audio import write_wav_mono
from seldkit.augment import AugmentConfig
from seldkit.cli import main
from seldkit.emulate import (
    SceneEvent,
    SceneSpec,
    SrirSynthConfig,
    load_library,
    scene_spec_from_json,
)
from seldkit.features import FeatureConfig
from seldkit.geometry import Direction
from seldkit.manifest import ManifestEntry, load_manifest
from seldkit.metrics import MetricConfig
from seldkit.pipeline import RunConfig
from seldkit.predict import OraclePredictorConfig, make_predictor
from seldkit.tensorio import check_keys, config_from_doc, load_tensor, read_json, save_tensor
from seldkit.tta import TtaConfig

# null is left out: a run document may set a sub-config to null
non_objects = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
)


@st.composite
def malformed(draw, doc, locations):
    """A copy of ``doc`` broken at one of ``locations``, and the location's name.

    A location is (path, name, allowed keys, required keys, mutations): the
    path of keys and indices to a JSON object inside ``doc``, the name its
    error message must carry, and the mutations that break it there.
    """
    path, name, allowed, required, kinds = draw(st.sampled_from(locations))
    kind = draw(st.sampled_from(kinds))
    doc = copy.deepcopy(doc)
    if kind == "replace":
        value = draw(non_objects)
        if not path:
            return value, name
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        return doc, name
    target = doc
    for step in path:
        target = target[step]
    if kind == "drop":
        del target[draw(st.sampled_from(sorted(required)))]
    else:
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in allowed))
        target[key] = draw(non_objects)
    return doc, name


def raises_naming(read, name):
    with pytest.raises(ValueError) as raised:
        read()
    assert name in str(raised.value)


ALL = ("drop", "add", "replace")
# a run augments nothing, so any augment section fails, whatever its values, pointing to the verb
AUGMENT_KEY_ERROR = (
    "run config augment must be {} or null: a run scores its clips and does not augment them; "
    "augment training clips with the `seldkit augment` verb"
)

RUN_DOC = {
    "manifest": "m.json",
    "predictor": {"kind": "oracle"},
    "feature": {"hop": 300},
    "metric": {"segment_frames": 5},
    "tta": {"min_pts": 2},
}
RUN_LOCATIONS = [((), "run config", [f.name for f in dataclasses.fields(RunConfig)], ("manifest", "predictor"), ALL)] + [
    # a sub-config's keys are its dataclass fields; predictor keys are make_predictor's
    ((key,), f"run config {key}", [f.name for f in dataclasses.fields(config_cls)], (), ("add", "replace"))
    for key, config_cls in (("feature", FeatureConfig), ("metric", MetricConfig), ("tta", TtaConfig))
] + [(("predictor",), "run config predictor", (), (), ("replace",))]


@settings(max_examples=60, deadline=None)
@given(malformed(RUN_DOC, RUN_LOCATIONS))
def test_malformed_run_config(case):
    doc, name = case
    raises_naming(lambda: RunConfig.from_dict(doc), name)


EVENT = {"class_id": 3, "sample_id": "s0", "onset_s": 0.5, "azimuth": 45.0, "elevation": 10.0}
SCENE_DOC = {"duration_s": 2.0, "snr_db": 20.0, "seed": 1, "events": [EVENT, dict(EVENT, onset_s=1.0)]}
EVENT_KEYS = tuple(EVENT)
SCENE_LOCATIONS = [((), "scene spec", tuple(SCENE_DOC), ("duration_s",), ALL)] + [
    (("events", i), f"scene spec event {i}", EVENT_KEYS, EVENT_KEYS, ALL) for i in range(2)
]


@settings(max_examples=60, deadline=None)
@given(malformed(SCENE_DOC, SCENE_LOCATIONS))
def test_malformed_scene_spec(case):
    doc, name = case
    raises_naming(lambda: scene_spec_from_json(doc), name)


SAMPLE = {"sample_id": "s0", "class_id": 3, "path": "s.wav"}
LIBRARY_DOC = {"samples": [SAMPLE, dict(SAMPLE, sample_id="s1")]}
LIBRARY_LOCATIONS = [((), "", ("samples",), ("samples",), ALL)] + [
    (("samples", i), f" sample {i}", tuple(SAMPLE), tuple(SAMPLE), ALL) for i in range(2)
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    write_wav_mono(path / "s.wav", np.random.default_rng(0).standard_normal(2400) * 0.2, 24000)
    return path


@settings(max_examples=60, deadline=None)
@given(case=malformed(LIBRARY_DOC, LIBRARY_LOCATIONS))
def test_malformed_library(workdir, case):
    doc, suffix = case
    path = workdir / "lib.json"
    path.write_text(json.dumps(doc))
    raises_naming(lambda: load_library(path), f"sample library {path}{suffix}")


ENTRY = {"clip_path": "a.wav", "label_path": "a.csv", "origin": "real"}
ENTRY_KEYS = (*ENTRY, "fold_tag", "room_tag", "duration_s")
MANIFEST_DOC = {"entries": [ENTRY, dict(ENTRY, origin="emulated", room_tag="r1", duration_s=5.0)]}
MANIFEST_LOCATIONS = [((), "", ("entries",), ("entries",), ALL)] + [
    (("entries", i), f" entry {i}", ENTRY_KEYS, tuple(ENTRY), ALL) for i in range(2)
]


@settings(max_examples=60, deadline=None)
@given(case=malformed(MANIFEST_DOC, MANIFEST_LOCATIONS))
def test_malformed_manifest(workdir, case):
    doc, suffix = case
    path = workdir / "m.json"
    path.write_text(json.dumps(doc))
    raises_naming(lambda: load_manifest(path), f"manifest {path}{suffix}")


HEADER = {"dims": [2, 3], "dtype": "<f4", "channel_names": None, "config": None}
HEADER_LOCATIONS = [((), "tensor header", tuple(HEADER), ("dims",), ALL)]


@settings(max_examples=60, deadline=None)
@given(case=malformed(HEADER, HEADER_LOCATIONS))
def test_malformed_tensor_header(workdir, case):
    doc, name = case
    path = workdir / "t.acc"
    np.zeros(6, dtype="<f4").tofile(path)
    (workdir / "t.acc.json").write_text(json.dumps(doc))
    raises_naming(lambda: load_tensor(path), f"{name} {workdir / 't.acc.json'}")


class TestReaders:
    def test_check_keys_messages(self):
        with pytest.raises(ValueError, match=r"^unknown thing keys: a, b$"):
            check_keys({"b": 1, "a": 2, "k": 3}, ("k",), "thing")
        with pytest.raises(ValueError, match=r"^thing lacks required keys: j, k$"):
            check_keys({}, ("j", "k"), "thing", required=("k", "j"))
        with pytest.raises(ValueError, match=r"^thing must be a JSON object, got list$"):
            check_keys([], ("k",), "thing")
        check_keys({"k": None}, ("j", "k"), "thing", required=("k",))

    def test_text_that_is_not_json_names_the_file(self, tmp_path):
        (tmp_path / "m.json").write_text('{"entries": [')
        with pytest.raises(ValueError, match=r"m\.json: not a JSON document"):
            read_json(tmp_path / "m.json")

    @pytest.mark.parametrize("dtype", ["<f2", ">f4", "<f8", None])
    def test_header_dtype_must_be_float32(self, tmp_path, dtype):
        # read as float16, a float32 payload would give twice the values
        path = tmp_path / "t.acc"
        save_tensor(path, np.ones((2, 6)))
        header = json.loads((tmp_path / "t.acc.json").read_text())
        (tmp_path / "t.acc.json").write_text(json.dumps({**header, "dims": [2, 6], "dtype": dtype}))
        with pytest.raises(ValueError, match=rf"tensor header {path}\.json: dtype must be '<f4'"):
            load_tensor(path)

    def test_header_without_dtype_reads_float32(self, tmp_path):
        path = tmp_path / "t.acc"
        save_tensor(path, np.arange(6.0).reshape(2, 3))
        (tmp_path / "t.acc.json").write_text(json.dumps({"dims": [2, 3]}))
        array, _ = load_tensor(path)
        np.testing.assert_array_equal(array, np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize("value", ["abc", None, True, -1.0, math.nan, math.inf])
    def test_manifest_duration_must_be_finite_and_non_negative(self, tmp_path, value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [dict(ENTRY), dict(ENTRY, duration_s=value)]}))
        with pytest.raises(ValueError, match=rf"manifest {path} entry 1: duration_s must be a finite number >= 0"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("seed", "x", "integer"),
            ("seed", True, "integer"),
            ("seed", 1.0, "integer"),
            ("seed", None, "integer"),
            ("n_classes", "13", "integer"),
            ("n_classes", False, "integer"),
            ("n_classes", 13.0, "integer"),
            ("decode_threshold", "0.5", "number"),
            ("decode_threshold", True, "number"),
            ("decode_threshold", None, "number"),
            ("manifest", 0, "string"),
            ("predictor", 5, "object"),
        ],
    )
    def test_run_scalar_types(self, key, value, kind):
        doc = {**RUN_DOC, "tta": None, key: value}
        with pytest.raises(ValueError, match=rf"^run config {key} must be a JSON {kind}, got {value!r}$"):
            RunConfig.from_dict(doc)

    def test_run_scalars_of_the_right_type_load(self):
        config = RunConfig.from_dict({**RUN_DOC, "tta": None, "seed": 4, "n_classes": 7, "decode_threshold": 1})
        assert (config.seed, config.n_classes, config.decode_threshold) == (4, 7, 1.0)

    @pytest.mark.parametrize("entries", [5, "a.wav", None, {"clip_path": "a.wav"}])
    def test_manifest_entries_must_be_an_array(self, tmp_path, entries):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": entries}))
        with pytest.raises(ValueError, match=rf"^manifest {path}: entries must be a JSON array"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("clip_path", 5, "a string"),
            ("label_path", ["a.csv"], "a string"),
            ("origin", None, "a string"),
            ("fold_tag", 0, "a string or null"),
            ("room_tag", True, "a string or null"),
        ],
    )
    def test_manifest_entry_string_fields(self, tmp_path, key, value, kind):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [dict(ENTRY), dict(ENTRY, **{key: value})]}))
        with pytest.raises(ValueError, match=rf"^manifest {path} entry 1: {key} must be {kind}, got"):
            load_manifest(path)

    def test_manifest_null_tags_load(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [dict(ENTRY, fold_tag=None, room_tag="r")]}))
        entry = load_manifest(path).entries[0]
        assert (entry.fold_tag, entry.room_tag) == (None, "r")

    @pytest.mark.parametrize("dims", [6, "6", None, [2, "3"], [2, 3.0], [True, 6], [-2, -3], {"a": 6}])
    def test_header_dims_must_be_non_negative_integers(self, tmp_path, dims):
        path = tmp_path / "t.acc"
        np.zeros(6, dtype="<f4").tofile(path)
        (tmp_path / "t.acc.json").write_text(json.dumps({"dims": dims}))
        with pytest.raises(ValueError, match=rf"^tensor header {path}\.json: dims must be a list of non-negative"):
            load_tensor(path)

    @pytest.mark.parametrize("value", [0, 5, 2.5])
    def test_manifest_duration_kept_as_written(self, value):
        assert ManifestEntry("a.wav", "a.csv", "real", duration_s=value).duration_s is value

    def test_pipeline_run_keeps_the_document_seed_and_resolves_its_manifest(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(config):
            seen.append(config)
            return {"n_entries": 0, "n_scored": 0, "failures": []}

        monkeypatch.setattr("seldkit.cli.run_pipeline", fake_run)
        (tmp_path / "run.json").write_text(json.dumps({**RUN_DOC, "seed": 3}))
        args = ["pipeline", "run", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "s.json")]
        CliRunner().invoke(main, args)
        assert seen[0].seed == 3
        assert seen[0].manifest == str(tmp_path / "m.json")

    def test_pipeline_run_rejects_a_non_object_document(self, tmp_path):
        (tmp_path / "run.json").write_text("[]")
        args = ["pipeline", "run", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "s.json")]
        result = CliRunner().invoke(main, args)
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "run config must be a JSON object, got list"

    @pytest.mark.parametrize(
        "verb, name",
        [
            (["features", "extract", "--out", "f.feat", "--config"], "feature config"),
            (["augment", "--out", "a.wav", "--config"], "augment config"),
            (["tta", "run", "--model", "constant", "--out", "e.csv", "--config"], "TTA config"),
            (["emulate", "--spec", "scene.json", "--library", "lib.json", "--out-prefix", "emu",
              "--srir-config"], "SRIR config"),
        ],
    )
    @pytest.mark.parametrize("doc, problem", [({"bogus": 1}, "unknown {} keys: bogus"),
                                              ([], "{} must be a JSON object, got list")])
    def test_single_verb_config_files(self, tmp_path, monkeypatch, verb, name, doc, problem):
        monkeypatch.chdir(tmp_path)
        write_wav_mono(tmp_path / "s.wav", np.random.default_rng(0).standard_normal(2400) * 0.2, 24000)
        (tmp_path / "lib.json").write_text(json.dumps(LIBRARY_DOC))
        (tmp_path / "scene.json").write_text(json.dumps({"duration_s": 2.0, "events": [EVENT]}))
        (tmp_path / "c.json").write_text(json.dumps(doc))
        in_args = [] if verb[0] == "emulate" else ["--in", "s.wav"]
        result = CliRunner().invoke(main, verb + ["c.json"] + in_args)
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == problem.format(f"{name} c.json")


CONFIG_CLASSES = [FeatureConfig, TtaConfig, MetricConfig, AugmentConfig, SrirSynthConfig, OraclePredictorConfig]


class TestConfigFieldTypes:
    """``config_from_doc`` reads each field with the JSON type of its annotation.

    Every config class a document reaches is listed, so a field whose
    annotation the reader does not handle fails here, not in a run.
    """

    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    def test_defaults_load_back_equal(self, config_cls):
        doc = json.loads(json.dumps(dataclasses.asdict(config_cls())))
        assert config_from_doc(config_cls, doc, "config") == config_cls()

    @pytest.mark.parametrize("value", [True, "1"])
    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    def test_every_field_rejects_a_bool_and_a_string(self, config_cls, value):
        for field in dataclasses.fields(config_cls):
            with pytest.raises(ValueError, match=rf"^config {field.name} must be a JSON \w+, got {value!r}$"):
                config_from_doc(config_cls, {field.name: value}, "config")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("feature", {"hop": 600.0}, "run config feature hop must be a JSON integer, got 600.0"),
            ("metric", {"segment_frames": 2.5}, "run config metric segment_frames must be a JSON integer, got 2.5"),
            ("metric", {"segment_frames": True}, "run config metric segment_frames must be a JSON integer, got True"),
            ("tta", {"max_tracks": True}, "run config tta max_tracks must be a JSON integer, got True"),
            ("tta", {"unify_deg": "15"}, "run config tta unify_deg must be a JSON number, got '15'"),
            ("augment", {"gain_db_range": 5}, AUGMENT_KEY_ERROR),
            ("feature", None, "run config feature must be a JSON object, got NoneType"),
        ],
    )
    def test_run_document_value_types(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig.from_dict({**RUN_DOC, key: value})

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda: RunConfig.from_dict({**RUN_DOC, "tta": {"unify_deg": 200}}),
             "run config tta: unify_deg must be in (0, 180), got 200.0"),
            (lambda: RunConfig.from_dict({**RUN_DOC, "feature": {"hop": 700}}),
             "run config feature: hop 700 does not divide one 100 ms label frame (2400 samples at 24000 Hz)"),
            (lambda: RunConfig.from_dict({**RUN_DOC, "augment": {"bandpass_hi_range": [2000, 13000]}}),
             AUGMENT_KEY_ERROR),
            (lambda: make_predictor({"kind": "oracle", "jitter_deg": 90}, annotations={}),
             "oracle predictor: jitter_deg must be in [0, 90), got 90.0"),
            (lambda: scene_spec_from_json({"duration_s": 0}),
             "scene spec: duration_s must be finite and positive, got 0.0"),
        ],
        ids=["tta", "feature", "run", "oracle", "scene"],
    )
    def test_a_range_check_of_the_config_names_the_document(self, read, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read()

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda big: RunConfig.from_dict({**RUN_DOC, "tta": {"unify_deg": big}}),
             "run config tta unify_deg must be a JSON number within the float range, got an integer of 401 digits"),
            (lambda big: RunConfig.from_dict({**RUN_DOC, "tta": None, "decode_threshold": -big}),
             "run config decode_threshold must be a JSON number within the float range, "
             "got an integer of 401 digits"),
            (lambda big: make_predictor({"kind": "constant", "value": big}),
             "constant predictor value must be a JSON number within the float range, got an integer of 401 digits"),
            (lambda big: scene_spec_from_json({"duration_s": 2.0, "events": [dict(EVENT, onset_s=big)]}),
             "scene spec event 0 onset_s must be a JSON number within the float range, got an integer of 401 digits"),
            (lambda big: RunConfig.from_dict({**RUN_DOC, "augment": {"gain_db_range": [0, big]}}),
             AUGMENT_KEY_ERROR),
        ],
        ids=["tta", "decode_threshold", "constant", "scene_event", "augment"],
    )
    def test_an_integer_no_float_holds_names_the_document_and_key(self, read, message):
        # JSON integers are unbounded; float() of this one raises a bare OverflowError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(json.loads("1" + "0" * 400))

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "oracle", "jitter_deg": True}, "oracle predictor jitter_deg must be a JSON number, got True"),
            ({"kind": "oracle", "seed": 1.5}, "oracle predictor seed must be a JSON integer, got 1.5"),
            ({"kind": "constant", "value": "0.9"}, "constant predictor value must be a JSON number, got '0.9'"),
            ({"kind": "constant", "value": True}, "constant predictor value must be a JSON number, got True"),
            ({"kind": "external", "dir": 5}, "external predictor dir must be a JSON string, got 5"),
        ],
    )
    def test_predictor_value_types(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_predictor(spec, annotations={})

    def test_values_of_the_right_type_load_as_their_field_type(self):
        config = RunConfig.from_dict(
            {**RUN_DOC, "metric": {"spatial_threshold_deg": 20}, "tta": {"unify_deg": 15, "max_tracks": 2}}
        )
        assert type(config.metric.spatial_threshold_deg) is float and type(config.tta.unify_deg) is float
        assert config.tta.max_tracks == 2
        assert make_predictor({"kind": "constant", "value": 1}).value == 1.0
        assert make_predictor({"kind": "oracle", "jitter_deg": 2}, annotations={}).config.jitter_deg == 2.0
        assert make_predictor({"kind": "oracle", "activity": 0.5}, annotations={}).config.activity == 0.5

    def test_a_constant_value_that_is_nan_is_rejected(self):
        with pytest.raises(ValueError, match=r"constant value must be within the tanh range \[-1, 1\], got nan"):
            make_predictor(json.loads('{"kind": "constant", "value": NaN}'))

    def test_config_file_value_types(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_wav_mono(tmp_path / "s.wav", np.random.default_rng(0).standard_normal(2400) * 0.2, 24000)
        (tmp_path / "c.json").write_text(json.dumps({"n_mels": True}))
        args = ["features", "extract", "--in", "s.wav", "--out", "f.feat", "--config", "c.json"]
        result = CliRunner().invoke(main, args)
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "feature config c.json n_mels must be a JSON integer, got True"
        assert not (tmp_path / "f.feat").exists()


class TestLibraryAndSceneValues:
    """The arrays of sample libraries and scene specs, and the types of their values."""

    def load_library(self, workdir, samples):
        (workdir / "lib.json").write_text(json.dumps({"samples": samples}))
        return load_library(workdir / "lib.json")

    @staticmethod
    def library(workdir):
        return re.escape(f"sample library {workdir / 'lib.json'}")

    @pytest.mark.parametrize("value", [5, "s", None, {"a": SAMPLE}])
    def test_library_samples_must_be_an_array(self, workdir, value):
        with pytest.raises(ValueError, match=rf"^{self.library(workdir)} samples must be a JSON array, got "):
            self.load_library(workdir, value)

    @pytest.mark.parametrize("content, problem", [(None, "No such file"), (b"RIFF", "Reached EOF prematurely")])
    def test_sample_wav_error_names_the_sample(self, workdir, content, problem):
        # the library and the sample's index, then the WAV and what is wrong with it
        wav = workdir / "bad.wav"
        wav.unlink(missing_ok=True)
        if content is not None:
            wav.write_bytes(content)
        with pytest.raises(ValueError) as raised:
            self.load_library(workdir, [SAMPLE, dict(SAMPLE, sample_id="s1", path="bad.wav")])
        message = str(raised.value)
        assert message.startswith(f"sample library {workdir / 'lib.json'} sample 1: ")
        assert str(wav) in message and problem in message

    @pytest.mark.parametrize("value", [5, "e", None, {"a": EVENT}])
    def test_scene_events_must_be_an_array(self, value):
        with pytest.raises(ValueError, match=r"^scene spec events must be a JSON array, got "):
            scene_spec_from_json({"duration_s": 2.0, "events": value})

    def test_repeated_sample_id_names_both_samples(self, workdir):
        samples = [SAMPLE, dict(SAMPLE, sample_id="s1"), dict(SAMPLE, class_id=2)]
        with pytest.raises(ValueError, match=rf"^{self.library(workdir)} sample 2: sample 0 has the same sample_id 's0'$"):
            self.load_library(workdir, samples)

    @pytest.mark.parametrize(
        "key, value, kind",
        [("class_id", 2.7, "integer"), ("class_id", 1.9, "integer"), ("class_id", True, "integer"),
         ("class_id", "3", "integer"), ("sample_id", 7, "string"), ("path", None, "string")],
    )
    def test_library_sample_value_types(self, workdir, key, value, kind):
        samples = [SAMPLE, {**SAMPLE, "sample_id": "s1", key: value}]
        with pytest.raises(ValueError, match=rf"^{self.library(workdir)} sample 1 {key} must be a JSON {kind}, got "):
            self.load_library(workdir, samples)

    def test_negative_library_class_names_the_sample(self, workdir):
        with pytest.raises(ValueError, match=rf"^{self.library(workdir)} sample 1: sample 's1': class_id must be >= 0"):
            self.load_library(workdir, [SAMPLE, dict(SAMPLE, sample_id="s1", class_id=-1)])

    @pytest.mark.parametrize(
        "key, value, kind",
        [("class_id", 2.7, "integer"), ("class_id", True, "integer"), ("sample_id", 7, "string"),
         ("onset_s", True, "number"), ("onset_s", "0.5", "number"), ("azimuth", None, "number"),
         ("elevation", False, "number")],
    )
    def test_scene_event_value_types(self, key, value, kind):
        doc = {"duration_s": 2.0, "events": [EVENT, dict(EVENT, **{key: value})]}
        with pytest.raises(ValueError, match=rf"^scene spec event 1 {key} must be a JSON {kind}, got "):
            scene_spec_from_json(doc)

    @pytest.mark.parametrize(
        "key, value, kind",
        [("duration_s", True, "number"), ("duration_s", "2", "number"), ("snr_db", None, "number"),
         ("seed", 1.5, "integer"), ("seed", True, "integer")],
    )
    def test_scene_value_types(self, key, value, kind):
        with pytest.raises(ValueError, match=rf"^scene spec {key} must be a JSON {kind}, got "):
            scene_spec_from_json({"duration_s": 2.0, key: value})

    def test_event_out_of_range_names_the_event(self):
        with pytest.raises(ValueError, match=r"^scene spec event 0: elevation must be in \[-90, 90\]"):
            scene_spec_from_json({"duration_s": 2.0, "events": [dict(EVENT, elevation=91.0)]})

    def test_values_of_the_right_type_load(self, workdir):
        library = self.load_library(workdir, [dict(SAMPLE, sample_id="7", class_id=2)])
        assert library["7"].class_id == 2
        spec = scene_spec_from_json(
            {"duration_s": 2, "snr_db": 20, "seed": 3,
             "events": [dict(EVENT, sample_id="7", onset_s=1, azimuth=45, elevation=-10)]}
        )
        assert (spec.duration_s, spec.snr_db, spec.seed) == (2.0, 20.0, 3)
        assert spec.events[0] == SceneEvent(3, "7", 1.0, Direction(45.0, -10.0))
        assert scene_spec_from_json({"duration_s": 2.0}).events == ()


class TestNonFiniteSettings:
    @pytest.mark.parametrize("field", ["direct_delay_ms", "rt60_s", "ir_length_s", "direct_to_diffuse_db"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_srir_config(self, field, value):
        with pytest.raises(ValueError, match=field):
            SrirSynthConfig(**{field: value})

    @pytest.mark.parametrize("field", ["direct_delay_ms", "rt60_s", "ir_length_s"])
    def test_srir_config_infinite(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SrirSynthConfig(**{field: math.inf})

    def test_emulate_rejects_nan_srir_config(self, tmp_path):
        # the NaN would otherwise reach the mix and write a WAV no reader accepts
        write_wav_mono(tmp_path / "s.wav", np.random.default_rng(0).standard_normal(2400) * 0.2, 24000)
        (tmp_path / "lib.json").write_text(json.dumps(LIBRARY_DOC))
        (tmp_path / "scene.json").write_text(json.dumps({"duration_s": 2.0, "events": [EVENT]}))
        (tmp_path / "srir.json").write_text('{"rt60_s": NaN}')
        result = CliRunner().invoke(
            main,
            ["emulate", "--spec", str(tmp_path / "scene.json"), "--library", str(tmp_path / "lib.json"),
             "--srir-config", str(tmp_path / "srir.json"), "--out-prefix", str(tmp_path / "emu")],
        )
        assert isinstance(result.exception, ValueError)
        assert "rt60_s must be finite" in str(result.exception)
        assert not (tmp_path / "emu.wav").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_scene_times(self, value):
        with pytest.raises(ValueError, match="duration_s must be finite and positive"):
            SceneSpec(value)
        with pytest.raises(ValueError, match="onset_s must be finite and >= 0"):
            SceneEvent(0, "s0", value, Direction(0.0, 0.0))

    def test_scene_spec_document_with_nan_duration(self):
        with pytest.raises(ValueError, match="duration_s must be finite"):
            scene_spec_from_json(json.loads('{"duration_s": NaN}'))

    @pytest.mark.parametrize("field", ["gain_db_range", "pitch_semitone_range", "bandpass_lo_range", "bandpass_hi_range"])
    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.inf)])
    def test_augment_ranges(self, field, bounds):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AugmentConfig(**{field: bounds})

    @pytest.mark.parametrize("activity", [math.nan, math.inf])
    def test_detected_event_activity(self, activity):
        with pytest.raises(ValueError, match="activity must be positive and finite"):
            DetectedEvent(0, 1, Direction(10.0, 5.0), activity)

    def test_read_events_names_the_line(self, tmp_path):
        for line, row in enumerate(["0,1,10.0,5.0,nan", "1,1,10.0,5.0,inf"], start=1):
            path = tmp_path / "e.csv"
            path.write_text("0,0,1.0,2.0,0.5\r\n" * (line - 1) + row + "\r\n")
            with pytest.raises(ValueError, match=rf"e\.csv:{line}: activity must be positive and finite"):
                read_events(path)
