"""End-to-end acceptance suite.

Each test here covers exactly one release criterion and shows up as a single
pass/fail line under ``pytest -v``.  The three default-scale experiments are
shared through a module fixture so the expensive runs happen once.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from crahnsim.experiments import (EXPERIMENTS, run_discovery_replication,
                                  run_experiment)
from crahnsim.kernel import Kernel
from crahnsim.mlp import (DISASTER_HAPPENED, Mlp, TrainConfig, _batch_loss,
                          gradients, train)
from crahnsim.mobility import (Area, NodeState, connectivity_components,
                               neighbor_graph, place_uniform)
from crahnsim.routing import build_aodv_network
from crahnsim.scenario import ScenarioConfig
from crahnsim.situation import (SituationDb, SituationRecord, decode_situation,
                                encode_situation, export_situation_table)
from crahnsim.spectrum import SpectrumParams, run_spectrum_replication


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Two complete default-scale runs: one timed per experiment, one repeat."""
    cfg = ScenarioConfig()
    out_a = tmp_path_factory.mktemp("run_a")
    out_b = tmp_path_factory.mktemp("run_b")
    timings = {}
    reports = {}
    for name in EXPERIMENTS:
        start = time.perf_counter()
        (report,) = run_experiment(cfg, name, out_dir=str(out_a))
        timings[name] = time.perf_counter() - start
        reports[name] = report
    run_experiment(cfg, "all", out_dir=str(out_b))
    return cfg, out_a, out_b, timings, reports


def test_criterion_1_determinism_and_runtime(full_runs):
    _, out_a, out_b, timings, _ = full_runs
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert any(n.endswith(".csv") for n in names)
    assert any(n.endswith(".svg") for n in names)
    for name in names:
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between identically seeded runs"
    for name, seconds in timings.items():
        assert seconds < 60.0, f"{name} took {seconds:.1f} s"
    print("[PASS] criterion 1: byte-identical outputs; runtimes "
          + ", ".join(f"{k}={v:.1f}s" for k, v in timings.items()))


def _gradcheck_worst(model, x, y, loss, step=1e-5):
    def loss_at():
        xs = model._standardize(x)
        return _batch_loss(model, model._forward_acts(xs)[-1], y, loss)

    gw, gb = gradients(model, x, y, loss)
    worst = 0.0
    for params, grads in ((model.weights, gw), (model.biases, gb)):
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                up = loss_at()
                p[idx] = orig - step
                down = loss_at()
                p[idx] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(g[idx]), 1e-8)
                worst = max(worst, abs(numeric - g[idx]) / denom)
    return worst


def test_criterion_2_mlp_gradients_and_xor():
    rng = _rng(1001)
    for trial in range(20):
        sizes = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(3, 5)))]
        if trial % 2 == 0:
            activation, loss = "sigmoid", "cross-entropy"
        else:
            activation, loss = "identity", "squared"
        model = Mlp.init(sizes, _rng(2000 + trial), output_activation=activation)
        x = rng.normal(0, 1, (5, sizes[0]))
        y = (rng.random((5, sizes[-1])) if loss == "cross-entropy"
             else rng.normal(0, 2, (5, sizes[-1])))
        worst = _gradcheck_worst(model, x, y, loss)
        assert worst < 1e-4, (trial, sizes, worst)

    xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor_y = np.array([[0.0], [1.0], [1.0], [0.0]])
    for seed in range(10):
        model = Mlp.init([2, 4, 1], _rng(seed))
        train(model, (xor_x, xor_y),
              TrainConfig(learning_rate=1.5, epochs=2000))
        correct = sum((model.classify_binary(row) == DISASTER_HAPPENED) == (t > 0.5)
                      for row, t in zip(xor_x, xor_y[:, 0]))
        assert correct >= 3, seed
    print("[PASS] criterion 2: 20 nets gradcheck < 1e-4; XOR >= 3/4 on 10 seeds")


def test_criterion_3_detection_trend(full_runs):
    _, _, _, _, reports = full_runs
    aggs = reports["detection"].aggregates
    assert [a["cluster_count"] for a in aggs] == [1, 2, 3, 4, 5]
    fnr = [a["mean_false_negative_rate_pct"] for a in aggs]
    resp = [a["mean_response_time_s"] for a in aggs]
    assert all(b <= a for a, b in zip(fnr, fnr[1:])), fnr
    assert fnr[-1] <= 5.0, fnr
    assert all(b > a for a, b in zip(resp, resp[1:])), resp
    print(f"[PASS] criterion 3: FNR non-increasing {fnr}, FNR@5={fnr[-1]:.2f}% "
          f"<= 5%, response strictly increasing {[round(r, 3) for r in resp]}")


def test_criterion_4_spectrum_calibration(full_runs):
    cfg, _, _, _, reports = full_runs
    report = reports["spectrum"]
    assert cfg.spectrum.pu_counts == (5, 10, 15, 20, 25)
    grand = report.notes["grand_mean_switching_time_s"]
    assert 0.65 <= grand <= 1.95, grand
    # the per-count series and the knobs that produced it are in the report
    counts = sorted({a["pu_count"] for a in report.aggregates})
    assert counts == [5, 10, 15, 20, 25]
    assert all(math.isfinite(a["mean_switching_time_s"]) for a in report.aggregates)
    assert set(report.notes["tuning_knobs"]) >= {"scale_min", "scale_max", "su_count"}
    print(f"[PASS] criterion 4: grand mean switching time {grand:.4f} s "
          f"in [0.65, 1.95]; knobs recorded")


def test_criterion_5_policy_dominance(full_runs):
    _, _, _, _, reports = full_runs
    rows = reports["spectrum"].rows
    reps = sorted({r["replication"] for r in rows})
    assert len(reps) == 30

    def seed_mean(rep, policy):
        vals = [r["mean_switching_time_s"] for r in rows
                if r["replication"] == rep and r["policy"] == policy]
        return float(np.mean(vals))

    mlp = [seed_mean(rep, "mlp-history") for rep in reps]
    base = [seed_mean(rep, "random-baseline") for rep in reps]
    gain = (np.mean(mlp) - np.mean(base)) / np.mean(base)
    wins = sum(m > b for m, b in zip(mlp, base)) / len(reps)
    assert gain >= 0.10, gain
    assert wins >= 0.80, wins
    print(f"[PASS] criterion 5: mlp-history holds channels {100 * gain:.1f}% "
          f"longer (>= 10%), paired win rate {100 * wins:.0f}% (>= 80%)")


def test_criterion_6_discovery_latency(full_runs):
    cfg, _, _, _, reports = full_runs
    rows = reports["discovery"].rows
    assert len(rows) == 30
    assert sum(r["cache_hits"] for r in rows) > 0
    for r in rows:
        assert r["mean_hit_latency_s"] in (None, 0.0), r
        if r["mean_miss_latency_s"] is not None:
            assert r["mean_miss_latency_s"] > 0.0, r

    # connected-component queries resolve before the deadline with zero loss
    for seed in (3101, 3102, 3103):
        run = run_discovery_replication(cfg, seed)
        for res, reachable in run.results:
            if reachable:
                assert not res.timed_out
                assert res.latency_s < 10.0

    # cold-path latency grows with node count at fixed density
    def miss_mean(node_count):
        side = cfg.simulation.area_width_m * math.sqrt(node_count /
                                                       cfg.discovery.node_count)
        vals = []
        for seed in range(30):
            run = run_discovery_replication(cfg, 4000 + seed,
                                            node_count=node_count,
                                            area=Area(side, side))
            vals.extend(r.latency_s for r, _ in run.results
                        if not r.cache_hit and not r.timed_out)
        return float(np.mean(vals))

    small, large = miss_mean(20), miss_mean(80)
    assert 0.0 < small < large, (small, large)
    print(f"[PASS] criterion 6: hits cost 0 messages; miss latency grows "
          f"{small * 1e3:.2f} ms @20 nodes -> {large * 1e3:.2f} ms @80 nodes; "
          f"reachable queries resolve < 10 s")


def _bfs_dist(graph, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in graph[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


EVICTION_SCHEDULE = {
    # alternating [idle, busy, idle, busy, ...] durations per primary user
    0: [30.0, 10.0, 40.0, 20.0],
    1: [5.0, 15.0, 60.0, 10.0],
    2: [100.0, 50.0],
}


def _busy_intervals(seq):
    out, t = [], 0.0
    for i, dur in enumerate(seq):
        if i % 2 == 1:
            out.append((t, t + dur))
        t += dur
    return out


def test_criterion_7_protocol_oracles():
    # AODV installed hop counts equal BFS shortest paths on 50 topologies;
    # floods are staggered so each settles before the next begins
    for seed in range(50):
        rng = _rng(seed)
        k = Kernel(seed=seed, end=60.0)
        nodes = place_uniform(20, Area(700.0, 700.0), rng)
        net, protos = build_aodv_network(k, nodes)
        dist = _bfs_dist(net.adjacency, 0)
        targets = [v for v in sorted(dist) if v != 0]
        for i, dst in enumerate(targets):
            k.schedule(float(i), lambda d=dst: protos[0].send_data(d, "probe"))
        k.run_until(len(targets) + 5.0)
        for dst in targets:
            assert protos[0].routes[dst].hop_count == dist[dst], (seed, dst)
        assert [p.id for p in protos.values() if p.id in p.routes] == [], seed

    # connectivity components equal an independent BFS oracle on 100 instances
    for seed in range(100):
        rng = _rng(7000 + seed)
        nodes = place_uniform(int(rng.integers(5, 40)), Area(), rng)
        graph = neighbor_graph(nodes)
        expected = []
        seen = set()
        for node in nodes:
            if node.id in seen:
                continue
            comp = set(_bfs_dist(graph, node.id))
            seen |= comp
            expected.append(comp)
        got = connectivity_components(graph)
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected)), seed

    # spectrum evictions match the deterministic schedule oracle
    params = SpectrumParams(pu_count=3, su_count=2, policy="random-baseline",
                            su_start_s=1.0)
    sim = run_spectrum_replication(seed=4, params=params, sim_time_s=300.0,
                                   pu_schedules={k: list(v)
                                                 for k, v in EVICTION_SCHEDULE.items()})
    assert sim.assignments
    busy = {pu: _busy_intervals(seq) for pu, seq in EVICTION_SCHEDULE.items()}
    for a in sim.assignments:
        pu = sim.channels[a.channel_index].licensed_pu
        assert not any(s <= a.assigned_at < e for s, e in busy[pu])
        starts = [s for s, _ in busy[pu] if s > a.assigned_at]
        assert a.evicted_at == (min(starts) if starts else None)
    print("[PASS] criterion 7: AODV = BFS on 50 topologies; components = BFS "
          "oracle on 100 instances; evictions match the schedule oracle")


SAMPLE_XML = b"""<?xml>
<XML>
  <Location>
    <Latitude>24.8614220</Latitude>
    <Longitude>67.0094390 </Longitude>
  </Location>
  <Situation>Red</Situation>
  <TimeStamp>20052015201820</TimeStamp>
  <ShortMessage>
    Injured Persons in critical condition
  </ShortMessage>
  <LongMessage>
    Injured Persons in critical condition stucked.
    Immediate help required. Bring cranes, cutters
    along with you
  </LongMessage>
  <Ontology>
    Safety
  </Ontology>
</XML>
"""

TABLE_ROWS = [
    SituationRecord(24.8614620, 67.0099390, "Red", "20052015201820",
                    "Injured Persons in critical condition"),
    SituationRecord(24.8615620, 67.0039390, "Green", "20052015200820",
                    "Rescue Work successfully done"),
    SituationRecord(24.8614220, 67.0094390, "Yellow", "20052015200720",
                    "Rescue operation going on"),
]


def _random_record(rng):
    words = ["rescue", "bridge", "crane", "team", "water", "road", "camp",
             "injured", "clear", "supply"]

    def phrase():
        return " ".join(rng.choice(words)
                        for _ in range(int(rng.integers(1, 8))))

    stamp = (f"{int(rng.integers(1, 29)):02d}{int(rng.integers(1, 13)):02d}"
             f"{int(rng.integers(1000, 10000)):04d}{int(rng.integers(0, 24)):02d}"
             f"{int(rng.integers(0, 60)):02d}{int(rng.integers(0, 60)):02d}")
    return SituationRecord(
        latitude=float(rng.uniform(-90, 90)),
        longitude=float(rng.uniform(-180, 180)),
        situation=str(rng.choice(["Red", "Yellow", "Green"])),
        timestamp=stamp,
        short_message=phrase(),
        long_message=phrase() if rng.random() < 0.7 else "",
        ontology=str(rng.choice(["Safety", "Supply", ""])),
    )


def test_criterion_8_interop_round_trips():
    sample = decode_situation(SAMPLE_XML)
    assert decode_situation(encode_situation(sample)) == sample

    rng = _rng(8001)
    for i in range(500):
        rec = _random_record(rng)
        assert decode_situation(encode_situation(rec)) == rec, i

    expected = [
        ("24.8614620, 67.0099390", "Red", "20052015201820",
         "Injured Persons in critical condition"),
        ("24.8615620, 67.0039390", "Green", "20052015200820",
         "Rescue Work successfully done"),
        ("24.8614220, 67.0094390", "Yellow", "20052015200720",
         "Rescue operation going on"),
    ]
    for order in itertools.permutations(TABLE_ROWS):
        db = SituationDb()
        for rec in order:
            db.upsert(rec)
        assert export_situation_table(db) == expected
    print("[PASS] criterion 8: sample message round-trips; 500 random records "
          "decode(encode(r)) == r; 3-row table identical in all 6 orders")
