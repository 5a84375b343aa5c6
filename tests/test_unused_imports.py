"""Every name a seldkit module or a test module imports is used in that module.

No linter runs on the suite, so this guard parses each module with
``ast``. ``__init__.py`` is skipped, since its imports are re-exports,
and so is ``from __future__``. ``test_acceptance.py`` is skipped too: the
acceptance criteria stay as they were written.
"""

import ast
from pathlib import Path

import pytest

import seldkit

MODULES = sorted(p for p in Path(seldkit.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p for p in Path(__file__).parent.glob("*.py") if p.name != "test_acceptance.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=[p.name for p in TEST_MODULES])
def test_every_name_a_test_module_imports_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_an_unused_name():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c\nnp.sum(c)\n"
    assert unused_imports(source) == ["os", "b"]
