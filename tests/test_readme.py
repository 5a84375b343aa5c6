"""The README's library example runs as written and prints perfect scores, its
minimal run document loads, and its run-document table lists every key."""

import contextlib
import io
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_library_example_prints_perfect_scores():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    printed = out.getvalue()
    assert "er20=0.0," in printed
    assert "f20=1.0," in printed


def run_document_table() -> list[tuple[list[str], str]]:
    """The rows of the run-document key table: (backticked keys, fields cell)."""
    section = README.read_text().split("| key | fields |", 1)[1]
    rows = []
    for line in section.splitlines()[1:]:
        if not line.startswith("|"):
            break
        keys, fields = line.strip("|").split("|", 1)
        rows.append((re.findall(r"`([^`]+)`", keys), fields))
    return rows


def test_run_document_table_lists_every_key():
    import dataclasses

    from seldkit.pipeline import RunConfig

    keys = [key for row_keys, _ in run_document_table() for key in row_keys]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_run_document_table_lists_every_sub_config_field():
    import dataclasses

    from seldkit.features import FeatureConfig
    from seldkit.metrics import MetricConfig
    from seldkit.tta import TtaConfig

    sub_configs = {"feature": FeatureConfig, "tta": TtaConfig, "metric": MetricConfig}
    listed = {
        keys[0]: set(re.findall(r"`([^`]+)`", re.sub(r"\(.*?\)", "", fields)))
        for keys, fields in run_document_table()
        if keys and keys[0] in sub_configs
    }
    expected = {key: {f.name for f in dataclasses.fields(cls)} for key, cls in sub_configs.items()}
    expected["metric"].discard("n_classes")  # the run's top-level n_classes is its only class count
    assert listed == expected


def test_minimal_run_document_loads():
    from seldkit.pipeline import RunConfig
    from seldkit.tta import TtaConfig

    section = README.read_text().split("A minimal `run.json`:", 1)[1]
    match = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert match, "README has no json block after 'A minimal `run.json`:'"
    config = RunConfig.from_dict(json.loads(match.group(1)))
    assert config.manifest == "manifest.json"
    assert config.predictor == {"kind": "oracle", "jitter_deg": 0.0}
    assert config.tta == TtaConfig()
