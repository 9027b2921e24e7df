"""Every name a `crahnsim` module imports is used in that module.

Three imports stay unused on purpose: the benchmark's tracer patches
`step_waypoint` and `neighbor_graph` in each module that imports them, so
these modules keep the names importable (`bench/tracing.py`)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crahnsim"

# (module, name): imported only so that the tracer can patch it per module
PATCHED_PER_MODULE = {
    ("experiments", "step_waypoint"),
    ("spectrum", "step_waypoint"),
    ("routing", "neighbor_graph"),
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, including the strings of `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


def _unused(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return sorted(name for name in _imported(tree) if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    unused = [name for name in _unused(path) if (path.stem, name) not in PATCHED_PER_MODULE]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_patched_names_are_still_imported_and_unused():
    for module, name in sorted(PATCHED_PER_MODULE):
        assert name in _unused(SRC / f"{module}.py"), (module, name)


def test_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom typing import Optional, Callable\n\n"
                    "def f(x: Optional[int]) -> None:\n    return None\n")
    assert _unused(path) == ["Callable", "os"]
