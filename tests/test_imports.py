"""Every name a `crahnsim` module imports is used in that module, and every
public function and class it defines is referenced from `src/` or `bench/`.
No module draws a scalar through `Generator.uniform`, whose per-call
dispatch costs several times the draw; `kernel.draw_uniform` returns the
same value.

Three imports stay unused on purpose: the benchmark's tracer patches
`step_waypoint` and `neighbor_graph` in each module that imports them, so
these modules keep the names importable (`bench/tracing.py`). A public name
that only tests refer to is API for its own tests; the few kept on purpose
are listed with their reason."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crahnsim"
BENCH = Path(__file__).resolve().parents[1] / "bench"

# (module, name): imported only so that the tracer can patch it per module
PATCHED_PER_MODULE = {
    ("experiments", "step_waypoint"),
    ("spectrum", "step_waypoint"),
    ("routing", "neighbor_graph"),
}

# public name -> why it stays although nothing under src/ or bench/ refers to it
UNREFERENCED_ON_PURPOSE = {
    "gradients": "criterion 2's finite-difference oracle checks backprop through it",
    "encode_situation": "criterion 8's XML round trip; to be wired into the CLI",
    "decode_situation": "criterion 8's XML round trip; to be wired into the CLI",
    "connectivity_components": "the tracer patches it as mobility.components; criterion 7 "
                               "checks it against BFS and the tests' reachability helper "
                               "uses it",
    "step_waypoint": "the tracer patches it by name in mobility, experiments and spectrum "
                     "(mobility.step_waypoint)",
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


def _public_definitions(path: Path) -> list[str]:
    """Top-level functions and classes whose names do not start with `_`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced(paths) -> set[str]:
    """Names read as `name` or `owner.name`; an import or a string is no reference."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _unreferenced(src: Path, bench: Path) -> list[str]:
    """`module.name` of each public definition in src that no file under src
    or bench refers to."""
    modules = sorted(src.glob("*.py"))
    refs = _referenced(modules + sorted(bench.rglob("*.py")))
    return [f"{path.stem}.{name}" for path in modules
            for name in _public_definitions(path) if name not in refs]


def test_every_public_definition_is_referenced_outside_tests():
    unreferenced = [qualified for qualified in _unreferenced(SRC, BENCH)
                    if qualified.split(".")[1] not in UNREFERENCED_ON_PURPOSE]
    assert unreferenced == [], f"only tests refer to {unreferenced}"


def test_names_kept_on_purpose_are_still_defined_and_unreferenced():
    kept = {qualified.split(".")[1] for qualified in _unreferenced(SRC, BENCH)}
    assert kept == set(UNREFERENCED_ON_PURPOSE)


def test_reference_check_ignores_imports_and_strings(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    (bench / "tests").mkdir(parents=True)
    src.mkdir()
    (src / "model.py").write_text(
        "def used():\n    pass\n\ndef by_bench():\n    pass\n\n"
        "def by_name_only():\n    pass\n\nclass Shape:\n    pass\n\n"
        "def _private():\n    pass\n\nACTIVATION = 'by_name_only'\n")
    (src / "user.py").write_text("from .model import Shape, used\n\nused()\n")
    (bench / "tests" / "check.py").write_text("import model\nmodel.by_bench()\n")
    assert _unreferenced(src, bench) == ["model.by_name_only", "model.Shape"]


def _scalar_uniform_calls(path: Path) -> list[int]:
    """Lines of `.uniform(...)` calls with fewer than three positional
    arguments and no `size=`: each draws one scalar."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "uniform" and len(node.args) < 3
                  and not any(kw.arg == "size" for kw in node.keywords))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_scalar_uniform_call(path):
    lines = _scalar_uniform_calls(path)
    assert lines == [], (f"{path.name} lines {lines}: scalar Generator.uniform calls; "
                         f"use kernel.draw_uniform")


def test_check_sees_a_scalar_uniform_call(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("a = rng.uniform(0, 1)\nb = rng.uniform(0, 1, 5)\n"
                    "c = rng.uniform(0, 1, size=3)\nd = draw_uniform(rng, 0, 1)\n"
                    "e = rng.uniform(*bounds)\nf = g.uniform()\n")
    assert _scalar_uniform_calls(path) == [1, 5, 6]
