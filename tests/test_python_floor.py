"""Every Python file of the package, its tests and the benchmark parses with
the grammar of the oldest Python that `pyproject.toml` declares
(`requires-python`). This checks grammar only, as far as `ast.parse` with
`feature_version` tells the versions apart: a call to a library function or
module that is newer than the floor still passes."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src/crahnsim", "tests", "bench")
               for path in (ROOT / top).rglob("*.py"))


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python lower bound"
    return int(match[1]), int(match[2])


def test_files_are_found():
    assert ROOT / "src" / "crahnsim" / "situation.py" in FILES
    assert Path(__file__).resolve() in FILES
    assert any(path.parent.name == "bench" for path in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_file_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_floor())
