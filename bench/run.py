"""crahnsim benchmark: one workload, timed end to end or traced layer by layer.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are the scenario files in bench/workloads/ (see BENCHMARK.json).
A workload's inputs are INPUTS[workload] program seeds made from N: N * 1000,
N * 1000 + 1, ... A call is `run_experiment` on one of them, writing CSV, JSON
and SVG outputs. Calls run in fresh `bench/worker.py` processes, one at a
time: a closed loop with one client.

--trace 0: first SETUP_PROBES processes that only import and load the
scenario, then one process that makes an untimed warm-up call and then passes
of one call per input until the next pass would end after S seconds (at
least one pass). Reports setup_s, the median over the probes; wall_s, the
mean over the inputs of each input's median call time; and the peak_rss_mb
of the calling process after its first call.
--trace 1: one untraced call, then one traced call on the first input.
Reports the per-layer metrics of bench/layer_map.json from the traced call,
and trace.overhead_s = traced minus untraced CPU time of the call.

On a shared 2-vCPU VM the host's speed drifts by up to 2x within minutes:
other guests' work shares its physical cores, which slows every instruction,
and at times deschedules the VM (steal time). So wall_s and setup_s are not
read off the wall clock. Each is the CPU time (user + sys) of the measuring
process, which leaves out the time the VM was descheduled, rescaled to a
reference speed: a fixed pure-Python loop (worker.reference) runs before and
after every probe and every timed call, and each CPU time is multiplied by
REFERENCE_S / (mean CPU time of the two reference passes around it). They
read as seconds on an idle host where the loop takes REFERENCE_S. The
simulator is single-threaded, so on an idle host a call's CPU time and wall
time agree (outputs are written to the page cache); a change that moves work
into other processes, or into threads that overlap, must revise this measure
first. The unscaled times and the host slowness (median reference time over
REFERENCE_S) are printed too.

Every call's outputs are checked: each report JSON must pass `load_report`
re-verification, the rows CSV must equal the report's rows, the number of
cells must match the scenario's grid and the SVGs must parse. The sha256
digest over the sorted output files must be equal for every call on one
program seed and source tree, traced or not, and traced counts must repeat
exactly; both are compared across runs through .bench_out/registry.json. A
failed cell is an `errors[]` entry or a cell of a report that fails
re-verification. The last stdout line is one JSON object {"correct",
"attempted", "failed", "metrics"}. Working files go to .bench_out/ under the
current directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

from worker import REFERENCE_S, reference

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = {  # workload -> `run_experiment` argument
    "figures": "all",
    "discovery-flood": "discovery",
}
# Inputs per pass. One replication's work varies a lot with the seed (the
# spectrum experiment's event count by about a third between quartiles), so
# each run averages over several.
INPUTS = {"figures": 6, "discovery-flood": 8}
FIGURES = {
    "detection": ["fig8a_false_negative_rate.svg", "fig8b_response_time.svg", "fig8_data.csv"],
    "spectrum": ["fig9_switching_time.svg", "fig10_policy_comparison.svg", "fig9_10_data.csv"],
    "discovery": ["fig11_discovery_latency.svg", "fig11_data.csv"],
}
SETUP_PROBES = 10
CALL_TIMEOUT_S = 80.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def program_seeds(workload: str, seed: int) -> list[int]:
    return [seed * 1000 + k for k in range(INPUTS[workload])]


def run_worker(root: Path, workload: str, seeds: list[int], out: Path, spans: Path = None,
               setup_only: bool = False, seconds: float = None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--scenario", str(BENCH_DIR / "workloads" / f"{workload}.ini"),
           "--experiment", WORKLOADS[workload], "--seeds", ",".join(map(str, seeds)),
           "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    watchdog = threading.Timer(CALL_TIMEOUT_S + (seconds or 0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready.startswith("ready "):
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else {}
    result["setup_s"] = setup_s
    result["setup_cpu_s"] = float(ready.split()[1])
    return result


def expected_cells(scenario_path: Path, which: str) -> dict[str, int]:
    """Cells per experiment that `run_experiment(cfg, which)` attempts."""
    from crahnsim.experiments import EXPERIMENTS
    from crahnsim.scenario import load_scenario
    cfg = load_scenario(scenario_path)
    reps = cfg.simulation.replications
    cells = {"detection": len(cfg.detection.cluster_counts) * reps,
             "spectrum": len(cfg.spectrum.pu_counts) * len(cfg.spectrum.policies) * reps,
             "discovery": reps}
    return {name: cells[name] for name in (EXPERIMENTS if which == "all" else (which,))}


def check_outputs(out: Path, cells: dict[str, int]) -> tuple[int, int, str, list[str]]:
    """(attempted, failed, digest, problems) for one call's output directory."""
    problems = []
    files = sorted(p for p in out.rglob("*") if p.is_file())
    names = {p.name for p in files}
    for experiment in cells:
        for name in [f"{experiment}_rows.csv", f"{experiment}_report.json"] + FIGURES[experiment]:
            if name not in names:
                problems.append(f"missing output {name}")
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(out).as_posix().encode() + b"\0")
        digest.update(p.read_bytes() + b"\0")
        if p.suffix == ".svg":
            try:
                if not ET.parse(p).getroot().tag.endswith("svg"):
                    problems.append(f"{p.name}: root element is not svg")
            except ET.ParseError as exc:
                problems.append(f"{p.name}: {exc}")
    attempted = failed = 0
    for experiment, expected in cells.items():
        a, f = check_report(out, experiment, expected, problems)
        attempted += a
        failed += f
    return attempted, failed, digest.hexdigest(), problems


def check_report(out: Path, experiment: str, cells: int, problems: list[str]) -> tuple[int, int]:
    """(attempted, failed) cells of one experiment's report; appends what is wrong."""
    from crahnsim.experiments import load_report
    report_path = out / f"{experiment}_report.json"
    if not report_path.is_file():
        return cells, cells
    raw = json.loads(report_path.read_text(encoding="utf-8"))
    attempted = len(raw["rows"]) + len(raw["errors"])
    failed = len(raw["errors"])
    if attempted != cells:
        problems.append(f"{experiment}: {attempted} cells in the report, grid has {cells}")
    try:
        report = load_report(report_path)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{experiment}: load_report: {exc}")
        return attempted, attempted
    if (out / f"{experiment}_rows.csv").read_text(encoding="utf-8") != report.csv_text():
        problems.append(f"{experiment}: rows CSV does not match the report rows")
    return attempted, failed


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        digest.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()[:16]


def check_registry(path: Path, key: str, digest: str, counts: dict) -> list[str]:
    """Compare this run's digest and counts with earlier runs of the same key, then record them."""
    registry = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    entry = registry.setdefault(key, {})
    problems = []
    if entry.setdefault("digest", digest) != digest:
        problems.append(f"output digest {digest} differs from an earlier run's {entry['digest']}")
    earlier = entry.setdefault("counts", counts)
    for name, value in counts.items():
        if earlier.setdefault(name, value) != value:
            problems.append(f"{name} = {value} differs from an earlier run's {earlier[name]}")
    path.write_text(json.dumps(registry, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each CPU time rescaled to the reference speed: times[i] was measured
    between reference passes that took refs[i] and refs[i + 1]."""
    return [t * REFERENCE_S / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    base = root / ".bench_out"
    work = base / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cells = expected_cells(BENCH_DIR / "workloads" / f"{workload}.ini", WORKLOADS[workload])
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text(encoding="utf-8"))
    seeds = program_seeds(workload, seed)
    problems, digests = [], {}
    attempted = failed = 0

    def check(out: Path, program_seed: int) -> None:
        nonlocal attempted, failed
        a, f, digest, probs = check_outputs(out, cells)
        shutil.rmtree(out)
        attempted += a
        failed += f
        problems.extend(probs)
        digests.setdefault(program_seed, set()).add(digest)

    metrics, shown, counts, calls = {}, [], {}, []
    if trace:
        seeds = seeds[:1]
        for i, traced in enumerate((False, True)):
            out = work / f"out-{i}"
            result = run_worker(root, workload, seeds, out,
                                spans=work / f"spans-{i}.npz" if traced else None)
            check(out, seeds[0])
            problems.extend(result.get("count_problems", []))
            calls.append(result)
        plain, traced = calls
        for spec in layer_map["metrics"]:
            name = spec["name"]
            if name == "trace.overhead_s":
                value = traced["cpu_s"] - plain["cpu_s"]
            else:
                value = traced["layers"][name]
                if spec["kind"] in ("count", "ratio"):
                    counts[name] = value
            metrics[name] = {"value": value, "unit": spec["unit"]}
            shown.append((name, value, spec["unit"]))
    else:
        refs, probes = [reference()], []
        for _ in range(SETUP_PROBES):
            probes.append(run_worker(root, workload, seeds, work / "probe", setup_only=True))
            refs.append(reference())
        loop = run_worker(root, workload, seeds, work / "out", seconds=seconds)
        check(work / "out" / "warm-up", seeds[0])
        for out in sorted((work / "out").iterdir()):
            check(out, seeds[int(out.name.split("-")[1])])
        times = scaled(loop["cpus"], loop["refs"])
        calls = [{"seed": seeds[i % len(seeds)], "wall_s": w, "cpu_s": c, "scaled_s": t,
                  "ref_before_s": a, "ref_after_s": b}
                 for i, (w, c, t, a, b) in enumerate(zip(loop["walls"], loop["cpus"], times,
                                                         loop["refs"], loop["refs"][1:]))]
        per_input = [statistics.median(times[k::len(seeds)]) for k in range(len(seeds))]
        setups = scaled([p["setup_cpu_s"] for p in probes], refs)
        metrics = {"wall_s": {"value": statistics.mean(per_input), "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": loop["peak_rss_mb"], "unit": "MiB"}}
        q1, _, q3 = quartiles(times)
        shown += [("wall_s", metrics["wall_s"]["value"],
                   f"s  (mean of {len(seeds)} inputs x {len(times) // len(seeds)} passes; "
                   f"call quartiles {q1:.6g}, {q3:.6g})"),
                  ("setup_s", metrics["setup_s"]["value"], f"s  (median of {len(setups)})"),
                  ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MiB"),
                  ("unscaled call wall time", statistics.mean(loop["walls"]), "s (mean)"),
                  ("unscaled call CPU time", statistics.mean(loop["cpus"]), "s (mean)"),
                  ("unscaled setup wall time", statistics.median(p["setup_s"] for p in probes),
                   "s (median)"),
                  ("host slowness", statistics.median(loop["refs"] + refs) / REFERENCE_S,
                   "x reference")]

    registry = base / "registry.json"
    source = source_digest(root)
    for program_seed, found in sorted(digests.items()):
        if len(found) != 1:
            problems.append(f"output digest differs between calls on seed {program_seed}: "
                            f"{sorted(found)}")
        problems += check_registry(registry, f"{workload}:{program_seed}:{source}",
                                   sorted(found)[0], counts if program_seed == seeds[0] else {})
    summary = {"workload": workload, "seed": seed, "trace": trace, "problems": problems,
               "digests": {s: sorted(d) for s, d in digests.items()},
               "calls": [{k: v for k, v in c.items() if k != "layers"} for c in calls]}
    (work / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print(f"workload {workload}  seed {seed}  program seeds {seeds[0]}..{seeds[-1]}  "
          f"calls {len(calls)}  cells {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.6g}")
    for program_seed, found in sorted(digests.items()):
        print(f"output digest of seed {program_seed}: {' '.join(sorted(found))}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    for name, value, unit in shown:
        print(f"{name} = {value:.6g} {unit}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crahnsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "crahnsim" / "__init__.py").is_file():
        print("bench: no crahnsim sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
