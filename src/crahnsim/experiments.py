"""Seeded experiment orchestration: one `ExperimentSpec` per experiment (detection,
spectrum, discovery) drives its runs, CSV/JSON reports, report checks and SVG figures."""

import json
import math
import os
import statistics
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import mobility
from .detection import (deploy, make_training_set,
                        run_detection_replication, synthesize_trace, train_detector)
from .discovery import DiscoveryNode
from .kernel import Kernel, stream_seed
# step_waypoint is not called here; it stays importable for tools that patch it per module
from .mobility import Area, place_uniform, step_waypoint  # noqa: F401
from .routing import Network
from .scenario import ScenarioConfig
from .spectrum import SpectrumParams, SpectrumSim
from .svgplot import line_chart


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
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def csv_text(self) -> str:
        return _csv(self.columns, self.rows)


def _csv(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
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


def _missing(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


def replication_seed(base_seed: int, replication: int) -> int:
    return stream_seed(base_seed, f"replication-{replication}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, defined once.

    A grid point is a dict: the leading keys of its aggregate. Each row carries
    the point's `group_keys`, its replication and seed, and the `metrics`
    columns that `replicate(cfg, seed, point, prepared)` returns. `prepare(cfg,
    base_seed, point)` runs once per point, before its replications and
    outside their error guard. Each `stats` entry (row column, mean key, std
    key or None) adds the mean and std over the point's rows to its aggregate.
    """
    name: str
    points: Callable[[dict], list[dict]]  # config echo -> grid points, in run order
    group_keys: tuple[str, ...]
    metrics: tuple[str, ...]
    stats: tuple[tuple[str, str, Optional[str]], ...]
    replicate: Callable[..., dict]
    notes: Callable[[ScenarioConfig, list[dict], list], dict]  # (cfg, rows, [(point, prepared)])
    figures: Callable[["MetricsReport"], list[tuple[str, str]]]  # -> [(file, SVG)]
    data_csv: str  # the aggregates written beside the figures
    prepare: Callable = lambda cfg, base_seed, point: None

    @property
    def columns(self) -> list[str]:
        return [*self.group_keys, "replication", "seed", *self.metrics]

    def run(self, cfg: ScenarioConfig, base_seed: int, replications: int) -> MetricsReport:
        """Every point's replications in order; a failed replication becomes an
        `errors[]` entry and the others continue."""
        rows, errors, prepared = [], [], []
        config = cfg.echo()
        for point in self.points(config):
            ready = self.prepare(cfg, base_seed, point)
            prepared.append((point, ready))
            keys = {k: point[k] for k in self.group_keys}
            for rep in range(replications):
                seed = replication_seed(base_seed, rep)
                try:
                    metrics = self.replicate(cfg, seed, point, ready)
                    rows.append({**keys, "replication": rep, "seed": seed, **metrics})
                except Exception as exc:
                    errors.append({**keys, "replication": rep, "seed": seed,
                                   "error": str(exc), "error_type": type(exc).__name__})
        return MetricsReport(
            experiment=self.name, columns=self.columns, rows=rows,
            aggregates=self.aggregates(config, rows), config=config,
            seeds=[replication_seed(base_seed, r) for r in range(replications)],
            notes=self.notes(cfg, rows, prepared), errors=errors)

    def aggregates(self, config: dict, rows: list[dict]) -> list[dict]:
        out = []
        for point in self.points(config):
            sub = [r for r in rows if all(r[k] == point[k] for k in self.group_keys)]
            agg = dict(point)
            for column, mean_key, std_key in self.stats:
                agg[mean_key], std = _mean_std([r[column] for r in sub])
                if std_key is not None:
                    agg[std_key] = std
            out.append(agg)
        return out

    def check(self, report: MetricsReport) -> None:
        """Raise ValueError unless the stored aggregates are those the report's
        config and rows give: same count, same keys, same values."""
        points = self.points(report.config)
        expected = self.aggregates(report.config, report.rows)
        if len(report.aggregates) != len(expected):
            raise ValueError(f"{len(report.aggregates)} aggregates stored, the config "
                             f"gives {len(expected)}")
        for point, stored, fresh in zip(points, report.aggregates, expected):
            name = "aggregate " + ", ".join(f"{k}={v}" for k, v in point.items())
            if stored.keys() != fresh.keys():
                raise ValueError(f"{name}: keys {sorted(stored.keys() ^ fresh.keys())} "
                                 f"missing or extra")
            for key, value in fresh.items():
                sv = stored[key]
                if _missing(value) or _missing(sv):
                    same = _missing(value) and _missing(sv)
                elif isinstance(value, float):
                    same = isinstance(sv, (int, float)) and abs(sv - value) <= 1e-9
                else:
                    same = sv == value
                if not same:
                    raise ValueError(f"{name}: {key} does not match rows ({sv} vs {value})")


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


def _detection_row(cfg: ScenarioConfig, seed: int, point: dict, trained) -> dict:
    dep, model, _, area = trained
    sim_time = cfg.simulation.sim_time_s
    kernel = Kernel(seed=seed, end=sim_time)
    # the trace stream depends only on the replication, so all cluster counts
    # score the same disasters (paired comparison)
    events = synthesize_trace(kernel.stream("disaster-trace"), area,
                              cfg.detection.disaster_count, cfg.detection.intensity, sim_time)
    res = run_detection_replication(kernel, dep, model, events, sim_time)
    return {"injected": res.injected, "missed": res.missed,
            "false_negative_rate_pct": res.false_negative_rate_pct,
            "response_time_s": (statistics.fmean(res.response_times)
                                if res.response_times else None)}


def _detection_figures(report: MetricsReport) -> list[tuple[str, str]]:
    def chart(key, label, title, ylabel):
        pts = [(a["cluster_count"], a[key]) for a in report.aggregates]
        return line_chart([(label, pts)], title, "cluster count", ylabel)
    return [("fig8a_false_negative_rate.svg",
             chart("mean_false_negative_rate_pct", "false negative rate",
                   "False negative alarm rate", "rate (%)")),
            ("fig8b_response_time.svg",
             chart("mean_response_time_s", "response time", "Detection response time",
                   "seconds"))]


DETECTION = ExperimentSpec(
    name="detection",
    points=lambda config: [{"cluster_count": c}
                           for c in config["detection"]["cluster_counts"]],
    group_keys=("cluster_count",),
    metrics=("injected", "missed", "false_negative_rate_pct", "response_time_s"),
    stats=(("false_negative_rate_pct", "mean_false_negative_rate_pct",
            "std_false_negative_rate_pct"),
           ("response_time_s", "mean_response_time_s", "std_response_time_s")),
    prepare=lambda cfg, base_seed, point: train_detection_model(
        cfg, base_seed, point["cluster_count"]),
    replicate=_detection_row,
    notes=lambda cfg, rows, trained: {
        "false_negative_definition": "per injected disaster event",
        "training": {str(p["cluster_count"]): stats for p, (_, _, stats, _) in trained}},
    figures=_detection_figures,
    data_csv="fig8_data.csv")


# -- spectrum -----------------------------------------------------------------

def spectrum_params(cfg: ScenarioConfig, pu_count: int, policy: str) -> SpectrumParams:
    sp = cfg.spectrum
    return SpectrumParams(pu_count=pu_count, su_count=sp.su_count, n_window=sp.n_window,
                          policy=policy, scale_range=(sp.scale_min, sp.scale_max),
                          su_start_s=sp.su_start_s)


def _spectrum_row(cfg: ScenarioConfig, seed: int, point: dict, _) -> dict:
    sim_time = cfg.simulation.sim_time_s
    kernel = Kernel(seed=seed, end=sim_time)
    sim = SpectrumSim(kernel, spectrum_params(cfg, point["pu_count"], point["policy"]),
                      Area(cfg.simulation.area_width_m, cfg.simulation.area_height_m))
    sim.start()
    kernel.run_until(sim_time)
    m = sim.metric()
    return {"assignments": m["count"], "mean_switching_time_s": m["mean"]}


def _spectrum_figures(report: MetricsReport) -> list[tuple[str, str]]:
    series = [(policy, [(a["pu_count"], a["mean_switching_time_s"])
                        for a in report.aggregates if a["policy"] == policy])
              for policy in sorted({a["policy"] for a in report.aggregates})]
    figures = [("fig9_switching_time.svg", line_chart(
        series[:1], "Spectrum switching time", "primary users", "seconds"))]
    if len(series) > 1:
        figures.append(("fig10_policy_comparison.svg", line_chart(
            series, "Switching time: history vs baseline", "primary users", "seconds")))
    return figures


SPECTRUM = ExperimentSpec(
    name="spectrum",
    points=lambda config: [{"pu_count": n, "policy": policy}
                           for n in config["spectrum"]["pu_counts"]
                           for policy in config["spectrum"]["policies"]],
    group_keys=("pu_count", "policy"),
    metrics=("assignments", "mean_switching_time_s"),
    stats=(("mean_switching_time_s", "mean_switching_time_s", "std_switching_time_s"),),
    replicate=_spectrum_row,
    notes=lambda cfg, rows, _: {
        "grand_mean_switching_time_s": _mean_std(
            [r["mean_switching_time_s"] for r in rows])[0],
        "averaging": "per assignment",
        "tuning_knobs": {"scale_min": cfg.spectrum.scale_min,
                         "scale_max": cfg.spectrum.scale_max,
                         "su_count": cfg.spectrum.su_count}},
    figures=_spectrum_figures,
    data_csv="fig9_10_data.csv")


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

    mobility_rng = kernel.stream("mobility")

    def mobility_tick():
        mobility.step_nodes(nodes, kernel.now, sim.beacon_interval_s, mobility_rng, area,
                            sim.v_min_mps, sim.v_max_mps, sim.pause_max_s)
        net.refresh_beacons()
    kernel.every(sim.beacon_interval_s, mobility_tick, kind="beacon")

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
    # `labelled`; refresh_beacons replaces that object when a row changes, so
    # the labels are recomputed at most once per mobility tick
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


def _discovery_row(cfg: ScenarioConfig, seed: int, point: dict, _) -> dict:
    run = run_discovery_replication(cfg, seed)
    hits = [r for r, _ in run.results if r.cache_hit]
    misses = [r for r, _ in run.results if not r.cache_hit and not r.timed_out]
    timeouts = [r for r, _ in run.results if r.timed_out]
    hit_m, _ = _mean_std([r.latency_s for r in hits])
    miss_m, _ = _mean_std([r.latency_s for r in misses])
    return {"queries": len(run.results), "cache_hits": len(hits),
            "misses_resolved": len(misses), "timeouts": len(timeouts),
            "mean_hit_latency_s": hit_m if hits else None,
            "mean_miss_latency_s": miss_m if misses else None}


def _discovery_figures(report: MetricsReport) -> list[tuple[str, str]]:
    pts = [(r["replication"], r["mean_miss_latency_s"]) for r in report.rows
           if r["mean_miss_latency_s"] is not None]
    if not pts:
        return []
    return [("fig11_discovery_latency.svg", line_chart(
        [("miss latency", pts)], "Service discovery latency", "replication", "seconds"))]


DISCOVERY = ExperimentSpec(
    name="discovery",
    # one point; its rows carry no group key
    points=lambda config: [{"node_count": config["discovery"]["node_count"],
                            "service_count": config["discovery"]["service_count"]}],
    group_keys=(),
    metrics=("queries", "cache_hits", "misses_resolved", "timeouts",
             "mean_hit_latency_s", "mean_miss_latency_s"),
    stats=(("mean_hit_latency_s", "mean_hit_latency_s", None),
           ("mean_miss_latency_s", "mean_miss_latency_s", "std_miss_latency_s")),
    replicate=_discovery_row,
    notes=lambda cfg, rows, _: {
        "latency": "network time from query issue to descriptor arrival"},
    figures=_discovery_figures,
    data_csv="fig11_data.csv")


# -- orchestration ------------------------------------------------------------

SPECS = {spec.name: spec for spec in (DETECTION, SPECTRUM, DISCOVERY)}
EXPERIMENTS = tuple(SPECS)
_RUNNERS = {name: spec.run for name, spec in SPECS.items()}


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
            _write(os.path.join(out_dir, f"{name}_rows.csv"), report.csv_text())
            _write(os.path.join(out_dir, f"{name}_report.json"), report.to_json())
            emit_plots(report, out_dir)
    return reports


def load_report(path) -> MetricsReport:
    """Load a report JSON and verify its aggregates against its own config and rows."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    report = MetricsReport(**raw)
    if report.experiment not in SPECS:
        raise ValueError(f"unknown experiment {report.experiment!r}")
    SPECS[report.experiment].check(report)
    return report


def emit_plots(report: MetricsReport, out_dir: str) -> list[str]:
    """One SVG per figure analogue plus the exact data behind it as CSV."""
    os.makedirs(out_dir, exist_ok=True)
    if not report.rows:
        return []
    spec = SPECS[report.experiment]
    files = spec.figures(report) + [(spec.data_csv, _csv(list(report.aggregates[0]),
                                                         report.aggregates))]
    written = []
    for name, text in files:
        written.append(os.path.join(out_dir, name))
        _write(written[-1], text)
    return written


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
