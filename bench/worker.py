"""Calls of one workload, in a fresh process.

    PYTHONPATH=src python3 bench/worker.py --scenario INI --experiment NAME \
        --seeds N[,N...] --out DIR [--seconds S | --spans SPANS.npz | --setup-only]

Prints `ready CPU` once numpy and crahnsim are imported and the scenario is
loaded and validated, CPU being the process's CPU time so far. With
--setup-only it stops there.

With --seconds S it makes one untimed warm-up call of `run_experiment` on the
first seed (CSV, JSON and SVG emission into DIR/warm-up), then passes: one
call per seed, in order, into DIR/<pass>-<seed index>. Passes repeat until
the next one would end after S seconds (at least one). The reference loop
runs before the first timed call and after each one, so every call has a
reference time on each side. It prints one JSON line with each call's wall
and CPU time, the reference CPU times, and peak_rss_mb as it stood after the
warm-up call: the peak of a process that made one call, as `crahn-sim run`
does (later calls in the same process raise it a little).

Otherwise it makes one call on the first seed into DIR and prints its wall_s,
cpu_s and peak_rss_mb. With --spans that call is traced: the line also
carries the per-layer metrics and the spans go to SPANS.npz.
"""

import argparse
import json
import os
import resource
import sys
import time

# The reference loop: fixed pure-Python work whose CPU time tracks how fast the
# host runs this process at the moment. On an otherwise idle 2-vCPU x86-64 VM
# with CPython 3.11 it takes about REFERENCE_S.
REFERENCE_LOOPS = 400_000
REFERENCE_S = 0.035
MAX_PASSES = 50


def reference() -> float:
    """CPU time of one pass of the reference loop."""
    c0 = time.process_time()
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    return time.process_time() - c0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--experiment", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from crahnsim import experiments, scenario

    cfg = scenario.load_scenario(args.scenario)
    print(f"ready {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    def call(seed: int, out: str) -> tuple[float, float]:
        t0, c0 = time.perf_counter(), time.process_time()
        experiments.run_experiment(cfg, args.experiment, seed=seed, out_dir=out)
        return time.perf_counter() - t0, time.process_time() - c0

    if args.seconds is not None:
        call(seeds[0], os.path.join(args.out, "warm-up"))
        first_rss_mb = peak_rss_mb()
        deadline = time.perf_counter() + args.seconds
        walls, cpus, refs = [], [], [reference()]
        for n in range(MAX_PASSES):
            start = time.perf_counter()
            for k, seed in enumerate(seeds):
                wall_s, cpu_s = call(seed, os.path.join(args.out, f"{n:02d}-{k:02d}"))
                walls.append(wall_s)
                cpus.append(cpu_s)
                refs.append(reference())
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
        result = {"walls": walls, "cpus": cpus, "refs": refs, "peak_rss_mb": first_rss_mb}
    else:
        wall_s, cpu_s = call(seeds[0], args.out)
        result = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["count_problems"] = tracer.count_check()
        tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
