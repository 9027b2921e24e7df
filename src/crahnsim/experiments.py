"""Seeded experiment orchestration: one `ExperimentSpec` per experiment (detection,
spectrum, discovery) drives its runs, CSV/JSON reports, report checks and SVG figures."""

import json
import math
import os
import re
import statistics
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Optional

from . import mobility
from .detection import (MIN_SIM_TIME_S, deploy, make_training_set,
                        run_detection_replication, synthesize_trace, train_detector)
from .discovery import DiscoveryNode
from .kernel import Kernel, draw_uniform, named_stream, stream_seed
# step_waypoint is not called here; it stays importable for tools that patch it per module
from .mobility import Area, place_uniform, step_waypoint  # noqa: F401
from .routing import Network
from .scenario import ScenarioConfig, ScenarioError
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


def _replication_seeds(config: dict) -> list[int]:
    """The replication seeds of a config echo, in replication order."""
    sim = config["simulation"]
    return [replication_seed(sim["seed"], r) for r in range(sim["replications"])]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, defined once.

    A grid point is a dict: the leading keys of its aggregate. Each row carries
    the point's `group_keys`, its replication and seed, and the `metrics`
    columns that `replicate(cfg, seed, point, prepared)` returns.
    `prepare(cfg, points)` runs once for all points, before any replication
    and outside their error guard, and returns each point's `prepared`, in
    point order. Each `stats` entry (row column, mean key, std key or None)
    adds the mean and std over the point's rows to its aggregate. The base
    seed and the replication count are those of `cfg.simulation`.
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
    prepare: Callable = lambda cfg, points: [None] * len(points)

    @property
    def columns(self) -> list[str]:
        return [*self.group_keys, "replication", "seed", *self.metrics]

    def run(self, cfg: ScenarioConfig) -> MetricsReport:
        """Every point's replications in order; a failed replication becomes an
        `errors[]` entry and the others continue."""
        rows, errors = [], []
        config = cfg.echo()
        seeds = _replication_seeds(config)
        points = self.points(config)
        prepared = list(zip(points, self.prepare(cfg, points)))
        for point, ready in prepared:
            keys = {k: point[k] for k in self.group_keys}
            for rep, seed in enumerate(seeds):
                try:
                    metrics = self.replicate(cfg, seed, point, ready)
                    rows.append({**keys, "replication": rep, "seed": seed, **metrics})
                except Exception as exc:
                    errors.append({**keys, "replication": rep, "seed": seed,
                                   "error": str(exc), "error_type": type(exc).__name__})
        return MetricsReport(
            experiment=self.name, columns=self.columns, rows=rows,
            aggregates=self.aggregates(config, rows), config=config, seeds=seeds,
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

def train_detection_model(cfg: ScenarioConfig, cluster_counts: list[int]) -> list[tuple]:
    """(deployment, detector, training stats, area) per cluster count, each
    from its own named streams; the detectors train in lockstep."""
    base_seed = cfg.simulation.seed
    area = Area(cfg.simulation.area_width_m, cfg.simulation.area_height_m)
    deps, xs, ys = [], [], []
    for c in cluster_counts:
        deps.append(deploy(cfg.detection.sensor_count, c, area,
                           named_stream(base_seed, f"deployment-{c}")))
        x, y = make_training_set(deps[-1], named_stream(base_seed, f"detector-data-{c}"),
                                 area, cfg.detection.intensity)
        xs.append(x)
        ys.append(y)
    trained = train_detector(
        [named_stream(base_seed, f"detector-init-{c}") for c in cluster_counts],
        [named_stream(base_seed, f"detector-train-{c}") for c in cluster_counts], xs, ys)
    return [(dep, model, stats, area) for dep, (model, stats) in zip(deps, trained)]


def _detection_row(cfg: ScenarioConfig, seed: int, point: dict, trained) -> dict:
    dep, model, _, area = trained
    sim_time = cfg.simulation.sim_time_s
    kernel = Kernel(seed=seed, end=sim_time)
    # the trace stream depends only on the replication, so all cluster counts
    # score the same disasters (paired comparison)
    events = synthesize_trace(kernel.stream("disaster-trace"), area,
                              cfg.detection.disaster_count, cfg.detection.intensity, sim_time)
    res = run_detection_replication(kernel, dep, model, events)
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
    prepare=lambda cfg, points: train_detection_model(
        cfg, [p["cluster_count"] for p in points]),
    replicate=_detection_row,
    notes=lambda cfg, rows, trained: {
        "false_negative_definition": "per injected disaster event",
        "training": {str(p["cluster_count"]): stats for p, (_, _, stats, _) in trained}},
    figures=_detection_figures,
    data_csv="fig8_data.csv")


# -- spectrum -----------------------------------------------------------------

def spectrum_params(cfg: ScenarioConfig, pu_count: int, policy: str) -> SpectrumParams:
    sp, sim = cfg.spectrum, cfg.simulation
    return SpectrumParams(pu_count=pu_count, su_count=sp.su_count, n_window=sp.n_window,
                          policy=policy, scale_range=(sp.scale_min, sp.scale_max),
                          su_start_s=sp.su_start_s, v_min_mps=sim.v_min_mps,
                          v_max_mps=sim.v_max_mps, pause_max_s=sim.pause_max_s)


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

def run_discovery_replication(cfg: ScenarioConfig, seed: int) -> list:
    """The `DiscoveryResult` of each query, in the order they complete."""
    sim = cfg.simulation
    dc = cfg.discovery
    area = Area(sim.area_width_m, sim.area_height_m)
    sim_time = sim.sim_time_s
    kernel = Kernel(seed=seed, end=sim_time)
    nodes = place_uniform(dc.node_count, area, kernel.stream("discovery-placement"))
    net = Network(kernel, nodes, sim.radio_range_m)
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
    for i, pid in enumerate(sorted(int(p) for p in provider_ids)):
        protos[pid].host_service(f"svc-{i}", ontology_tag=f"tag-{i % 3}")
        if dc.advert_interval_s <= sim_time:
            offset = (i % 10) * dc.advert_interval_s / 10.0
            kernel.schedule(offset, protos[pid].start_advertising, kind="advert-start")

    results = []

    def issue(requester, service):
        # the callback as a keyword: tools that wrap `discover` read it there
        protos[requester].discover(service_id=service, callback=results.append)

    query_rng = kernel.stream("queries")
    services = sorted(f"svc-{i}" for i in range(dc.service_count))  # svc-10 before svc-2
    node_ids = [node.id for node in nodes]
    for q in range(dc.query_count):
        at = draw_uniform(query_rng, 0.15 * sim_time, 0.9 * sim_time)
        # the draw and value of query_rng.choice(node_ids), without its array
        requester = node_ids[int(query_rng.integers(0, len(node_ids)))]
        service = services[int(query_rng.integers(0, len(services)))]
        kernel.schedule(at, issue, args=(requester, service), kind="query")

    kernel.run_until(sim_time)
    return results


def _discovery_row(cfg: ScenarioConfig, seed: int, point: dict, _) -> dict:
    results = run_discovery_replication(cfg, seed)
    hits = [r for r in results if r.cache_hit]
    misses = [r for r in results if not r.cache_hit and not r.timed_out]
    timeouts = [r for r in results if r.timed_out]
    hit_m, _ = _mean_std([r.latency_s for r in hits])
    miss_m, _ = _mean_std([r.latency_s for r in misses])
    return {"queries": len(results), "cache_hits": len(hits),
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


def experiment_names(which: str) -> tuple[str, ...]:
    """The experiments that `which`, one experiment's name or "all", runs."""
    return EXPERIMENTS if which == "all" else (which,)


def check_runnable(cfg: ScenarioConfig, names) -> None:
    """Raise ScenarioError if the detection experiment is in `names` and its
    disaster traces would not fit in the simulation, or if the spectrum
    experiment is and its SUs would start at or after the end of it."""
    if "detection" in names and not cfg.simulation.sim_time_s >= MIN_SIM_TIME_S:
        # every replication's trace would fail, after all detectors trained
        raise ScenarioError(f"sim_time_s: the detection experiment needs sim_time_s >= "
                            f"{MIN_SIM_TIME_S:g}, got {cfg.simulation.sim_time_s}")
    if "spectrum" in names and not cfg.spectrum.su_start_s < cfg.simulation.sim_time_s:
        # no SU would ever hold a channel: no assignment, a NaN switching time
        raise ScenarioError(f"su_start_s: the spectrum experiment needs su_start_s < "
                            f"sim_time_s, got {cfg.spectrum.su_start_s} >= "
                            f"{cfg.simulation.sim_time_s}")


def run_experiment(cfg: ScenarioConfig, which: str, seed: int = None,
                   replications: int = None, out_dir: str = None) -> list[MetricsReport]:
    """Run one experiment or "all" on `cfg` with `seed` and `replications`,
    if given, in place of the scenario's; they are part of the config that
    runs and that each report echoes. Raises ScenarioError before anything is
    written if that config is invalid or cannot run one of the experiments
    (`check_runnable`)."""
    names = experiment_names(which)
    if any(n not in _RUNNERS for n in names):
        raise ValueError(f"unknown experiment {which!r}")
    overrides = {key: value for key, value in (("seed", seed), ("replications", replications))
                 if value is not None}
    cfg = replace(cfg, simulation=replace(cfg.simulation, **overrides))
    cfg.validate()
    check_runnable(cfg, names)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)  # fails before any runner starts
    reports = []
    for name in names:
        report = _RUNNERS[name](cfg)
        reports.append(report)
        if out_dir is not None:
            _write(os.path.join(out_dir, f"{name}_rows.csv"), report.csv_text())
            _write(os.path.join(out_dir, f"{name}_report.json"), report.to_json())
            emit_plots(report, out_dir)
    return reports


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON type of a config value, by its default's type: (name, name of a list, test)
_JSON_TYPES = {int: ("an integer", "a list of integers", _is_integer),
               float: ("a number", "a list of numbers", _is_number),
               str: ("a string", "a list of strings", lambda value: isinstance(value, str))}


def _config_type(default) -> tuple[str, Callable]:
    """(name, test) of the JSON values that stand for a config value whose
    default is `default`: a float's may be integers, a tuple's are lists."""
    if isinstance(default, tuple):
        _, name, test = _JSON_TYPES[type(default[0])]
        return name, lambda value: isinstance(value, list) and all(map(test, value))
    name, _, test = _JSON_TYPES[type(default)]
    return name, test


def load_report(path) -> MetricsReport:
    """Load a report JSON and verify it against its own config: it must hold
    every field of a report; its config exactly the sections and keys of a
    scenario, each with the default's type, and values that the scenario's
    rules and the report's experiment accept; its seeds those of the config.
    Each row holds the experiment's columns, and each error entry the keys
    that a failed replication writes; each names a cell that the config
    runs, and each cell is named exactly once: the group keys of a grid
    point, an integer replication in range, and that replication's seed.
    Row metrics are numbers or null, error texts strings, and the
    aggregates those the config and rows give."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"a report is a JSON object, got {type(raw).__name__}")
    names = {f.name for f in fields(MetricsReport)}
    if raw.keys() != names:
        raise ValueError(f"report fields {sorted(raw.keys() ^ names)} missing or extra")
    for name in ("rows", "aggregates", "errors"):
        if not (isinstance(raw[name], list) and all(isinstance(e, dict) for e in raw[name])):
            raise ValueError(f"{name} must be a list of objects")
    report = MetricsReport(**raw)
    if not isinstance(report.experiment, str) or report.experiment not in SPECS:
        raise ValueError(f"unknown experiment {report.experiment!r}")
    spec = SPECS[report.experiment]
    if report.columns != spec.columns:
        raise ValueError(f"columns {report.columns} are not the experiment's {spec.columns}")
    _check_config(report.config, report.experiment)
    # the length first: a huge replication count must not build its seed list
    seeds = report.seeds
    if not (isinstance(seeds, list)
            and len(seeds) == report.config["simulation"]["replications"]
            and seeds == _replication_seeds(report.config)):
        raise ValueError("seeds do not follow from the config's seed and replications")
    points = [{k: point[k] for k in spec.group_keys} for point in spec.points(report.config)]
    cells = set()

    def check_cell(name: str, entry: dict, keys: set, word: str) -> None:
        if entry.keys() != keys:
            raise ValueError(f"{name}: {word} {sorted(entry.keys() ^ keys)} missing or extra")
        point = {k: entry[k] for k in spec.group_keys}
        if point not in points:
            raise ValueError(f"{name}: {', '.join(spec.group_keys)} name no grid point "
                             f"of the config")
        for key in ("replication", "seed"):
            if not _is_integer(entry[key]):
                raise ValueError(f"{name}: {key} must be an integer, got "
                                 f"{json.dumps(entry[key])}")
        rep, seed = entry["replication"], entry["seed"]
        if not 0 <= rep < len(seeds):
            raise ValueError(f"{name}: replication {rep} is not one of the config's "
                             f"{len(seeds)}")
        if seed != seeds[rep]:
            raise ValueError(f"{name}: seed {seed} is not replication {rep}'s seed "
                             f"{seeds[rep]}")
        cell = (points.index(point), rep)
        if cell in cells:
            raise ValueError(f"{name}: replication {rep} of its grid point is named twice")
        cells.add(cell)

    columns = set(spec.columns)
    for i, row in enumerate(report.rows):
        check_cell(f"row {i}", row, columns, "columns")
        for key in spec.metrics:
            if not (row[key] is None or _is_number(row[key])):
                raise ValueError(f"row {i}: {key} must be a number or null, got "
                                 f"{json.dumps(row[key])}")
    error_keys = {*spec.group_keys, "replication", "seed", "error", "error_type"}
    for i, error in enumerate(report.errors):
        check_cell(f"error {i}", error, error_keys, "keys")
        for key in ("error", "error_type"):
            if not isinstance(error[key], str):
                raise ValueError(f"error {i}: {key} must be a string, got "
                                 f"{json.dumps(error[key])}")
    spec.check(report)
    if len(cells) < len(points) * len(seeds):
        p, rep = next((p, rep) for p in range(len(points)) for rep in range(len(seeds))
                      if (p, rep) not in cells)
        keys = ", ".join(f"{k}={v}" for k, v in points[p].items())
        name = f"grid point {p} ({keys})" if keys else f"grid point {p}"
        raise ValueError(f"replication {rep} of {name} has neither a row nor an error")
    return report


def _check_config(config, experiment: str) -> None:
    """Raise ValueError, naming the section and key, unless `config` is the
    echo of a scenario that `experiment` runs on: every section and key of a
    scenario and no other, each value of the default's JSON type and
    accepted by `ScenarioConfig.validate` and `check_runnable`."""
    if not isinstance(config, dict):
        raise ValueError("config must be an object")
    echo = ScenarioConfig().echo()
    for section, defaults in echo.items():
        if not isinstance(config.get(section), dict):
            raise ValueError(f"config lacks section {section}")
        values = config[section]
        missing = sorted(defaults.keys() - values.keys())
        if missing:
            raise ValueError(f"config.{section} lacks {', '.join(missing)}")
        for key, default in defaults.items():
            name, test = _config_type(default)
            if not test(values[key]):
                raise ValueError(f"config.{section}.{key} must be {name}, "
                                 f"got {json.dumps(values[key])}")
        extra = sorted(values.keys() - defaults.keys())
        if extra:
            raise ValueError(f"config.{section}.{extra[0]} is not a scenario key")
    extra = sorted(config.keys() - echo.keys())
    if extra:
        raise ValueError(f"config.{extra[0]} is not a scenario section")
    try:
        cfg = ScenarioConfig.from_echo(config)
        cfg.validate()
        check_runnable(cfg, (experiment,))
    except ScenarioError as exc:
        # each message opens with the key it is about, unique across sections
        key = re.match(r"\w+", str(exc)).group()
        section = next(section for section, values in config.items() if key in values)
        raise ValueError(f"config.{section}.{exc}") from exc


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
