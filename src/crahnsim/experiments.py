"""Seeded experiment orchestration: detection, spectrum, and discovery runs,
CSV metric emission, JSON reports, and SVG figure generation."""

import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import mobility
from .detection import (DisasterEvent, deploy, make_training_set,
                        run_detection_replication, synthesize_trace, train_detector)
from .discovery import DiscoveryNode
from .kernel import Kernel, stream_seed
from .mobility import Area, place_uniform, step_waypoint
from .routing import Network
from .scenario import ScenarioConfig
from .spectrum import SpectrumParams, SpectrumSim
from .svgplot import line_chart

EXPERIMENTS = ("detection", "spectrum", "discovery")


@dataclass
class MetricsReport:
    experiment: str
    columns: list[str]
    rows: list[dict]
    aggregates: list[dict]
    config: dict
    seeds: list[int]
    notes: dict = field(default_factory=dict)
    errors: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "experiment": self.experiment,
            "columns": self.columns,
            "rows": self.rows,
            "aggregates": self.aggregates,
            "config": self.config,
            "seeds": self.seeds,
            "notes": self.notes,
            "errors": self.errors,
        }, indent=2, sort_keys=True)

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row.get(c)) for c in self.columns))
        return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _mean_std(values: list[float]) -> tuple[float, float]:
    clean = [v for v in values if v is not None and not math.isnan(v)]
    if not clean:
        return float("nan"), float("nan")
    mean = statistics.fmean(clean)
    std = statistics.pstdev(clean) if len(clean) > 1 else 0.0
    return mean, std


def replication_seed(base_seed: int, replication: int) -> int:
    return stream_seed(base_seed, f"replication-{replication}")


# -- detection ----------------------------------------------------------------

def train_detection_model(cfg: ScenarioConfig, base_seed: int, cluster_count: int):
    area = Area(cfg.simulation.area_width_m, cfg.simulation.area_height_m)
    dep_rng = np.random.Generator(np.random.PCG64(
        stream_seed(base_seed, f"deployment-{cluster_count}")))
    dep = deploy(cfg.detection.sensor_count, cluster_count, area, dep_rng)
    data_rng = np.random.Generator(np.random.PCG64(
        stream_seed(base_seed, f"detector-data-{cluster_count}")))
    x, y = make_training_set(dep, data_rng, area, cfg.detection.intensity)
    init_rng = np.random.Generator(np.random.PCG64(
        stream_seed(base_seed, f"detector-init-{cluster_count}")))
    model, stats = train_detector(init_rng, x, y,
                                  seed=stream_seed(base_seed, f"detector-train-{cluster_count}"))
    return dep, model, stats, area


def run_detection_experiment(cfg: ScenarioConfig, base_seed: int,
                             replications: int) -> MetricsReport:
    rows = []
    errors = []
    sim_time = cfg.simulation.sim_time_s
    train_stats = {}
    for c in cfg.detection.cluster_counts:
        dep, model, stats, area = train_detection_model(cfg, base_seed, c)
        train_stats[str(c)] = stats
        for rep in range(replications):
            seed = replication_seed(base_seed, rep)
            try:
                kernel = Kernel(seed=seed, end=sim_time)
                # the trace stream depends only on the replication, so all
                # cluster counts score the same disasters (paired comparison)
                events = synthesize_trace(kernel.stream("disaster-trace"), area,
                                          cfg.detection.disaster_count,
                                          cfg.detection.intensity, sim_time)
                res = run_detection_replication(kernel, dep, model, events, sim_time)
                resp = (statistics.fmean(res.response_times)
                        if res.response_times else None)
                rows.append({
                    "cluster_count": c, "replication": rep, "seed": seed,
                    "injected": res.injected, "missed": res.missed,
                    "false_negative_rate_pct": res.false_negative_rate_pct,
                    "response_time_s": resp,
                })
            except Exception as exc:  # recorded, remaining replications continue
                errors.append({"cluster_count": c, "replication": rep,
                               "seed": seed, "error": str(exc),
                               "error_type": type(exc).__name__})
    aggregates = []
    for c in cfg.detection.cluster_counts:
        sub = [r for r in rows if r["cluster_count"] == c]
        fnr_m, fnr_s = _mean_std([r["false_negative_rate_pct"] for r in sub])
        rt_m, rt_s = _mean_std([r["response_time_s"] for r in sub])
        aggregates.append({"cluster_count": c, "mean_false_negative_rate_pct": fnr_m,
                           "std_false_negative_rate_pct": fnr_s,
                           "mean_response_time_s": rt_m, "std_response_time_s": rt_s})
    return MetricsReport(
        experiment="detection",
        columns=["cluster_count", "replication", "seed", "injected", "missed",
                 "false_negative_rate_pct", "response_time_s"],
        rows=rows, aggregates=aggregates, config=cfg.echo(),
        seeds=[replication_seed(base_seed, r) for r in range(replications)],
        notes={"false_negative_definition": "per injected disaster event",
               "training": train_stats},
        errors=errors)


# -- spectrum -----------------------------------------------------------------

def spectrum_params(cfg: ScenarioConfig, pu_count: int, policy: str) -> SpectrumParams:
    sp = cfg.spectrum
    return SpectrumParams(pu_count=pu_count, su_count=sp.su_count, n_window=sp.n_window,
                          policy=policy, scale_range=(sp.scale_min, sp.scale_max),
                          su_start_s=sp.su_start_s)


def run_spectrum_experiment(cfg: ScenarioConfig, base_seed: int,
                            replications: int) -> MetricsReport:
    rows = []
    errors = []
    sim_time = cfg.simulation.sim_time_s
    for pu_count in cfg.spectrum.pu_counts:
        for policy in cfg.spectrum.policies:
            for rep in range(replications):
                seed = replication_seed(base_seed, rep)
                try:
                    kernel = Kernel(seed=seed, end=sim_time)
                    sim = SpectrumSim(kernel, spectrum_params(cfg, pu_count, policy))
                    sim.start()
                    kernel.run_until(sim_time)
                    m = sim.metric()
                    rows.append({"pu_count": pu_count, "policy": policy,
                                 "replication": rep, "seed": seed,
                                 "assignments": m["count"],
                                 "mean_switching_time_s": m["mean"]})
                except Exception as exc:
                    errors.append({"pu_count": pu_count, "policy": policy,
                                   "replication": rep, "seed": seed, "error": str(exc),
                                   "error_type": type(exc).__name__})
    aggregates = []
    for pu_count in cfg.spectrum.pu_counts:
        for policy in cfg.spectrum.policies:
            sub = [r["mean_switching_time_s"] for r in rows
                   if r["pu_count"] == pu_count and r["policy"] == policy]
            m, s = _mean_std(sub)
            aggregates.append({"pu_count": pu_count, "policy": policy,
                               "mean_switching_time_s": m, "std_switching_time_s": s})
    grand, _ = _mean_std([r["mean_switching_time_s"] for r in rows])
    return MetricsReport(
        experiment="spectrum",
        columns=["pu_count", "policy", "replication", "seed", "assignments",
                 "mean_switching_time_s"],
        rows=rows, aggregates=aggregates, config=cfg.echo(),
        seeds=[replication_seed(base_seed, r) for r in range(replications)],
        notes={"grand_mean_switching_time_s": grand,
               "averaging": "per assignment",
               "tuning_knobs": {"scale_min": cfg.spectrum.scale_min,
                                "scale_max": cfg.spectrum.scale_max,
                                "su_count": cfg.spectrum.su_count}},
        errors=errors)


# -- discovery ----------------------------------------------------------------

@dataclass
class DiscoveryRun:
    results: list
    providers: dict


def run_discovery_replication(cfg: ScenarioConfig, seed: int,
                              node_count: int = None, area: Area = None) -> DiscoveryRun:
    sim = cfg.simulation
    dc = cfg.discovery
    n = node_count or dc.node_count
    area = area or Area(sim.area_width_m, sim.area_height_m)
    sim_time = sim.sim_time_s
    kernel = Kernel(seed=seed, end=sim_time)
    nodes = place_uniform(n, area, kernel.stream("discovery-placement"),
                          role="rescue-SU")
    for node in nodes:
        node.radio_range_m = sim.radio_range_m
    net = Network(kernel, nodes)
    protos = {node.id: DiscoveryNode(node.id, net,
                                     advert_interval_s=dc.advert_interval_s,
                                     advert_hops=dc.advert_hops,
                                     service_ttl_s=dc.service_ttl_s)
              for node in nodes}

    def mobility_tick():
        rng = kernel.stream("mobility")
        for node in nodes:
            step_waypoint(node, kernel.now, sim.beacon_interval_s, rng, area,
                          sim.v_min_mps, sim.v_max_mps, sim.pause_max_s)
        net.refresh_beacons()
        if kernel.now + sim.beacon_interval_s <= sim_time:
            kernel.schedule(kernel.now + sim.beacon_interval_s, mobility_tick,
                            kind="beacon")
    kernel.schedule(sim.beacon_interval_s, mobility_tick, kind="beacon")

    place_rng = kernel.stream("service-placement")
    provider_ids = place_rng.choice([node.id for node in nodes],
                                    size=dc.service_count, replace=False)
    providers = {}
    for i, pid in enumerate(sorted(int(p) for p in provider_ids)):
        service = f"svc-{i}"
        protos[pid].host_service(service, ontology_tag=f"tag-{i % 3}")
        providers[service] = pid
        if dc.advert_interval_s <= sim_time:
            offset = (i % 10) * dc.advert_interval_s / 10.0
            kernel.schedule(offset, protos[pid].start_advertising, kind="advert-start")

    results = []
    # component label per node id, computed from the adjacency object
    # `labelled`; refresh_beacons replaces that object, so the labels are
    # recomputed at most once per mobility tick
    labelled, label = None, {}

    def issue(requester, service):
        nonlocal labelled, label
        if labelled is not net.adjacency:
            labelled = net.adjacency
            label = {v: i for i, comp in enumerate(mobility.connectivity_components(labelled))
                     for v in comp}
        reachable = label[requester] == label[providers[service]]
        protos[requester].discover(
            service_id=service,
            callback=lambda res, reach=reachable: results.append((res, reach)))

    query_rng = kernel.stream("queries")
    services = sorted(providers)
    for q in range(dc.query_count):
        at = float(query_rng.uniform(0.15 * sim_time, 0.9 * sim_time))
        requester = int(query_rng.choice([node.id for node in nodes]))
        service = services[int(query_rng.integers(0, len(services)))]
        kernel.schedule(at, issue, args=(requester, service), kind="query")

    kernel.run_until(sim_time)
    return DiscoveryRun(results=results, providers=providers)


def run_discovery_experiment(cfg: ScenarioConfig, base_seed: int,
                             replications: int) -> MetricsReport:
    rows = []
    errors = []
    for rep in range(replications):
        seed = replication_seed(base_seed, rep)
        try:
            run = run_discovery_replication(cfg, seed)
            hits = [r for r, _ in run.results if r.cache_hit]
            misses = [r for r, _ in run.results if not r.cache_hit and not r.timed_out]
            timeouts = [r for r, _ in run.results if r.timed_out]
            hit_m, _ = _mean_std([r.latency_s for r in hits])
            miss_m, _ = _mean_std([r.latency_s for r in misses])
            rows.append({
                "replication": rep, "seed": seed,
                "queries": len(run.results), "cache_hits": len(hits),
                "misses_resolved": len(misses), "timeouts": len(timeouts),
                "mean_hit_latency_s": hit_m if hits else None,
                "mean_miss_latency_s": miss_m if misses else None,
            })
        except Exception as exc:
            errors.append({"replication": rep, "seed": seed, "error": str(exc),
                           "error_type": type(exc).__name__})
    miss_all, miss_std = _mean_std([r["mean_miss_latency_s"] for r in rows])
    hit_all, _ = _mean_std([r["mean_hit_latency_s"] for r in rows])
    aggregates = [{"node_count": cfg.discovery.node_count,
                   "service_count": cfg.discovery.service_count,
                   "mean_hit_latency_s": hit_all,
                   "mean_miss_latency_s": miss_all,
                   "std_miss_latency_s": miss_std}]
    return MetricsReport(
        experiment="discovery",
        columns=["replication", "seed", "queries", "cache_hits", "misses_resolved",
                 "timeouts", "mean_hit_latency_s", "mean_miss_latency_s"],
        rows=rows, aggregates=aggregates, config=cfg.echo(),
        seeds=[replication_seed(base_seed, r) for r in range(replications)],
        notes={"latency": "network time from query issue to descriptor arrival"},
        errors=errors)


# -- orchestration ------------------------------------------------------------

_RUNNERS = {
    "detection": run_detection_experiment,
    "spectrum": run_spectrum_experiment,
    "discovery": run_discovery_experiment,
}


def run_experiment(cfg: ScenarioConfig, which: str, seed: int = None,
                   replications: int = None, out_dir: str = None) -> list[MetricsReport]:
    names = EXPERIMENTS if which == "all" else (which,)
    if any(n not in _RUNNERS for n in names):
        raise ValueError(f"unknown experiment {which!r}")
    base_seed = seed if seed is not None else cfg.simulation.seed
    reps = replications if replications is not None else cfg.simulation.replications
    reports = []
    for name in names:
        report = _RUNNERS[name](cfg, base_seed, reps)
        reports.append(report)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"{name}_rows.csv"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(report.csv_text())
            with open(os.path.join(out_dir, f"{name}_report.json"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(report.to_json())
            emit_plots(report, out_dir)
    return reports


def load_report(path) -> MetricsReport:
    """Load a report JSON and verify the aggregates against its own rows."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    report = MetricsReport(experiment=raw["experiment"], columns=raw["columns"],
                           rows=raw["rows"], aggregates=raw["aggregates"],
                           config=raw["config"], seeds=raw["seeds"],
                           notes=raw.get("notes", {}), errors=raw.get("errors", []))
    recomputed = _recompute_aggregates(report)
    for stored, fresh in zip(report.aggregates, recomputed):
        for key, value in fresh.items():
            sv = stored[key]
            if isinstance(value, float):
                if math.isnan(value) and (sv is None or math.isnan(sv)):
                    continue
                if abs(sv - value) > 1e-9:
                    raise ValueError(f"aggregate {key} does not match rows "
                                     f"({sv} vs {value})")
            elif sv != value:
                raise ValueError(f"aggregate {key} does not match rows")
    return report


def _recompute_aggregates(report: MetricsReport) -> list[dict]:
    out = []
    if report.experiment == "detection":
        for agg in report.aggregates:
            sub = [r for r in report.rows if r["cluster_count"] == agg["cluster_count"]]
            fnr_m, fnr_s = _mean_std([r["false_negative_rate_pct"] for r in sub])
            rt_m, rt_s = _mean_std([r["response_time_s"] for r in sub])
            out.append({"cluster_count": agg["cluster_count"],
                        "mean_false_negative_rate_pct": fnr_m,
                        "std_false_negative_rate_pct": fnr_s,
                        "mean_response_time_s": rt_m, "std_response_time_s": rt_s})
    elif report.experiment == "spectrum":
        for agg in report.aggregates:
            sub = [r["mean_switching_time_s"] for r in report.rows
                   if r["pu_count"] == agg["pu_count"] and r["policy"] == agg["policy"]]
            m, s = _mean_std(sub)
            out.append({"pu_count": agg["pu_count"], "policy": agg["policy"],
                        "mean_switching_time_s": m, "std_switching_time_s": s})
    elif report.experiment == "discovery":
        miss_all, miss_std = _mean_std([r["mean_miss_latency_s"] for r in report.rows])
        hit_all, _ = _mean_std([r["mean_hit_latency_s"] for r in report.rows])
        agg = report.aggregates[0]
        out.append({"node_count": agg["node_count"],
                    "service_count": agg["service_count"],
                    "mean_hit_latency_s": hit_all,
                    "mean_miss_latency_s": miss_all,
                    "std_miss_latency_s": miss_std})
    return out


def emit_plots(report: MetricsReport, out_dir: str) -> list[str]:
    """One SVG per figure analogue plus the exact data behind it as CSV."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name: str, text: str):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        written.append(path)

    if report.experiment == "detection" and report.rows:
        pts_fnr = [(a["cluster_count"], a["mean_false_negative_rate_pct"])
                   for a in report.aggregates]
        pts_rt = [(a["cluster_count"], a["mean_response_time_s"])
                  for a in report.aggregates]
        write("fig8a_false_negative_rate.svg", line_chart(
            [("false negative rate", pts_fnr)], "False negative alarm rate",
            "cluster count", "rate (%)"))
        write("fig8b_response_time.svg", line_chart(
            [("response time", pts_rt)], "Detection response time",
            "cluster count", "seconds"))
        write("fig8_data.csv", _agg_csv(report.aggregates))
    elif report.experiment == "spectrum" and report.rows:
        series = []
        for policy in sorted({a["policy"] for a in report.aggregates}):
            pts = [(a["pu_count"], a["mean_switching_time_s"])
                   for a in report.aggregates if a["policy"] == policy]
            series.append((policy, pts))
        if len(series) == 1:
            write("fig9_switching_time.svg", line_chart(
                series, "Spectrum switching time", "primary users", "seconds"))
        else:
            write("fig9_switching_time.svg", line_chart(
                series[:1], "Spectrum switching time", "primary users", "seconds"))
            write("fig10_policy_comparison.svg", line_chart(
                series, "Switching time: history vs baseline", "primary users", "seconds"))
        write("fig9_10_data.csv", _agg_csv(report.aggregates))
    elif report.experiment == "discovery" and report.rows:
        pts = [(r["replication"], r["mean_miss_latency_s"]) for r in report.rows
               if r["mean_miss_latency_s"] is not None]
        if pts:
            write("fig11_discovery_latency.svg", line_chart(
                [("miss latency", pts)], "Service discovery latency",
                "replication", "seconds"))
        write("fig11_data.csv", _agg_csv(report.aggregates))
    return written


def _agg_csv(aggregates: list[dict]) -> str:
    if not aggregates:
        return "\n"
    cols = list(aggregates[0].keys())
    lines = [",".join(cols)]
    for a in aggregates:
        lines.append(",".join(_csv_cell(a[c]) for c in cols))
    return "\n".join(lines) + "\n"
