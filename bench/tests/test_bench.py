"""Tests of the benchmark itself: span arithmetic, patch hygiene, count
repeatability and output identity between traced and untraced runs.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
import types

import pytest

from conftest import BENCH, ROOT
from run import check_outputs, expected_cells, scaled
from tracing import Tracer, percentile, tail_percentile
from worker import REFERENCE_S

import crahnsim
from crahnsim import experiments, scenario

LAYER_MAP = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))["metrics"]
TINY_INI = """
[simulation]
replications = 2
sim_time_s = 120
[detection]
cluster_counts = 1,2
[spectrum]
pu_counts = 5
su_start_s = 30
[discovery]
node_count = 20
query_count = 10
"""


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_hand_built_tree():
    # a [0, 10] has children b [1, 4] and c [5, 9]; b has child d [2, 3]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = tracer.open_span("a")
    b = tracer.open_span("b")
    d = tracer.open_span("d")
    tracer.close_span(d)
    tracer.close_span(b)
    c = tracer.open_span("b")
    tracer.close_span(c)
    tracer.close_span(a)
    assert list(tracer.self_times()) == [10 - 3 - 4, 3 - 1, 1, 4]
    assert list(tracer.parent) == [-1, 0, 1, 0]
    inclusive, exclusive = tracer.totals()
    assert inclusive == {"a": 10, "b": 7, "d": 1}
    assert exclusive == {"a": 3, "b": 6, "d": 1}


def test_closing_a_span_closes_the_open_cell_inside_it():
    tracer = Tracer(clock=FakeClock(range(100)))
    runner = tracer.open_span("experiments.runner")
    tracer.open_cell()
    inner = tracer.open_span("kernel.run_until")
    tracer.close_span(inner)
    tracer.open_cell()
    tracer.close_span(runner)
    assert tracer.durations("experiments.cell") == [3, 1]
    assert list(tracer.cell) == [0, 1, 1, 2]
    assert tracer.counts["experiments.cells"] == 2
    assert not tracer._stack


def test_tail_percentile_needs_ten_values_beyond():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50.0) == (2.0, 2)
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values) == (90.0, 90.0)
    assert tail_percentile(values[:25]) == (13.0, 50.0)
    assert tail_percentile([1.0, 5.0, 2.0]) == (5.0, 100.0)


def test_scaled_divides_by_the_mean_reference_around_each_time():
    refs = [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]
    assert scaled([4.0, 5.0], refs) == pytest.approx([4.0 / 2, 5.0 / 2.5])
    assert scaled([1.0], [REFERENCE_S, REFERENCE_S]) == [1.0]


def _namespaces():
    spaces = [m for m in vars(crahnsim).values() if isinstance(m, types.ModuleType)]
    spaces += [v for m in list(spaces) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("crahnsim")]
    return spaces


def test_uninstall_restores_every_patched_name():
    before = {id(ns): dict(vars(ns)) for ns in _namespaces()}
    runners = dict(experiments._RUNNERS)
    tracer = Tracer()
    tracer.install()
    try:
        assert experiments.run_experiment is not before[id(experiments)]["run_experiment"]
        assert crahnsim.routing.neighbor_graph is not before[id(crahnsim.routing)]["neighbor_graph"]
        assert crahnsim.routing.neighbor_graph is crahnsim.mobility.neighbor_graph
    finally:
        tracer.uninstall()
    for ns in _namespaces():
        current = dict(vars(ns))
        assert current.keys() == before[id(ns)].keys(), ns
        for key, value in before[id(ns)].items():
            assert current[key] is value, f"{ns.__name__}.{key} not restored"
    assert experiments._RUNNERS == runners


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI, encoding="utf-8")
    return path


def _traced_run(ini, experiment, out):
    tracer = Tracer()
    tracer.install()
    try:
        cfg = scenario.load_scenario(ini)
        experiments.run_experiment(cfg, experiment, seed=5, out_dir=str(out))
    finally:
        tracer.uninstall()
    assert tracer.count_check() == []
    return tracer.metrics()


def _counts(metrics):
    return {m["name"]: metrics[m["name"]] for m in LAYER_MAP if m["kind"] in ("count", "ratio")}


@pytest.mark.parametrize("experiment", ["detection", "spectrum", "discovery"])
def test_traced_counts_repeat_and_outputs_match_untraced(tiny, tmp_path, experiment):
    cells = expected_cells(tiny, experiment)
    cfg = scenario.load_scenario(tiny)
    experiments.run_experiment(cfg, experiment, seed=5, out_dir=str(tmp_path / "plain"))
    first = _traced_run(tiny, experiment, tmp_path / "traced-1")
    second = _traced_run(tiny, experiment, tmp_path / "traced-2")

    assert _counts(first) == _counts(second)
    assert first["experiments.cells"] == sum(cells.values())
    assert first[f"experiments.{experiment}_s"] > 0
    assert first["kernel.events_run"] > 0
    assert set(first) == {m["name"] for m in LAYER_MAP} - {"trace.overhead_s"}
    plain = check_outputs(tmp_path / "plain", cells)
    assert plain[1] == 0 and plain[3] == []
    for name in ("traced-1", "traced-2"):
        assert check_outputs(tmp_path / name, cells) == plain


def test_benchmark_json_matches_layer_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                 for m in LAYER_MAP]
    assert {w["name"] for w in spec["workloads"]} == {
        p.stem for p in (BENCH / "workloads").glob("*.ini")}
    assert spec["command"][1] == "bench/run.py"


def test_run_fails_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_worker_pass_has_one_call_per_seed_between_references(tiny, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--scenario", str(tiny),
                           "--experiment", "discovery", "--seeds", "7,8", "--out", str(out),
                           "--seconds", "0"],
                          env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ready, line = proc.stdout.strip().splitlines()
    assert ready.startswith("ready ") and float(ready.split()[1]) > 0
    result = json.loads(line)
    assert len(result["cpus"]) == len(result["walls"]) == 2
    assert len(result["refs"]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["00-00", "00-01", "warm-up"]
    cells = expected_cells(tiny, "discovery")
    warm, first, second = (check_outputs(out / name, cells) for name in ("warm-up", "00-00", "00-01"))
    assert warm == first and first[2] != second[2]
