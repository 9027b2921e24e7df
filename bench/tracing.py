"""Opt-in tracing of crahnsim from outside the program.

`Tracer` wraps the public functions of each crahnsim module (and the few
methods where a counted event happens), patching every name at the place
where it is looked up at call time: `crahnsim.routing.neighbor_graph` as well
as `crahnsim.mobility.neighbor_graph`, the `_RUNNERS` table rather than the
runner functions' module names, class attributes for methods. Wrappers only
read arguments and results; they draw no random numbers and schedule nothing,
so traced and untraced runs write byte-identical outputs.

Spans (name, start, end, parent, cell) are kept in flat in-memory arrays and
written out once, after the run. A cell is one replication of one grid point
of an experiment; it starts when the experiment constructs a `Kernel` and
ends at the next cell, at detector training, or when the experiment returns.

Self time of a span is its duration minus the durations of its direct
children. Handler code that is not wrapped (event closures, AODV route
bookkeeping) is counted in the self time of the nearest wrapped caller,
usually `kernel.run_until`.
"""

import functools
import math
import time
from array import array
from collections import Counter

import numpy as np

CELL = "experiments.cell"

# Kernel.schedule kinds the experiments use; any other kind counts as "other".
SCHEDULE_KINDS = ("poll", "pu-toggle", "su-start", "mobility", "beacon",
                  "advert-start", "advert", "query", "query-timeout",
                  "advertmsg", "sreqmsg", "srepmsg")
DELIVERY_TYPES = ("AdvertMsg", "SreqMsg", "SrepMsg")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Span and count recorder; `install()` patches crahnsim, `uninstall()` restores it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._cell_id = 0
        self._cell_span = -1
        self._networks: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self._name_id(name))
        self.start.append(self.clock())
        self.end.append(math.nan)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self._cell_id)
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        """Close span `idx` and any span still open above it (an open cell)."""
        while self._stack:
            top = self._stack.pop()
            self.end[top] = self.clock()
            if top == self._cell_span:
                self._end_cell()
            if top == idx:
                return
        raise RuntimeError(f"span {idx} is not open")

    def _end_cell(self) -> None:
        self._cell_span = -1
        self._cell_id = 0
        for net in self._networks:
            self.counts["routing.deliveries"] += net.delivered_msgs
        self._networks.clear()

    def close_cell(self) -> None:
        if self._cell_span >= 0:
            self.close_span(self._cell_span)

    def open_cell(self) -> None:
        self.close_cell()
        self._cell_id = int(self.counts["experiments.cells"]) + 1
        self.counts["experiments.cells"] += 1
        self._cell_span = self.open_span(CELL)

    def wrap(self, name: str, fn, after=None, before=None):
        """Span `name` around `fn`; `after(result, args, kwargs)` and
        `before(args, kwargs)` may update counts or replace arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(idx)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def count(self, fn, after):
        """No span, only `after(result, args, kwargs)`: for calls too frequent to time."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args, kwargs)
            return result
        return counted

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the summed duration of its direct children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive, self) seconds summed per span name."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        incl = np.bincount(names, weights=dur, minlength=len(self.names))
        excl = np.bincount(names, weights=self.self_times(), minlength=len(self.names))
        return ({n: float(incl[i]) for i, n in enumerate(self.names)},
                {n: float(excl[i]) for i, n in enumerate(self.names)})

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name, -1)
        mask = np.frombuffer(self.span_name, dtype=np.int32) == nid
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return dur[mask].tolist()

    def write_spans(self, path) -> None:
        """All spans as one .npz: name ids, start/end seconds from the first
        span, parent span index (-1 at a root) and cell id (0 outside cells)."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = start[0] if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            start_s=start - t0,
                            end_s=np.frombuffer(self.end, dtype=float) - t0,
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            cell=np.frombuffer(self.cell, dtype=np.int32))

    # -- patching ---------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_item(self, table: dict, key, replacement) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = replacement

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def install(self) -> None:
        """Patch crahnsim; every patched name is restored by `uninstall()`."""
        from crahnsim import (detection, discovery, experiments, kernel, mlp, mobility,
                              routing, scenario, spectrum)
        c = self.counts

        def add(key, n=1):
            c[key] += n

        def method(cls, attr, name=None, after=None, before=None):
            fn = cls.__dict__[attr]
            if name is None:
                self.patch(cls, attr, self.count(fn, after))
            else:
                self.patch(cls, attr, self.wrap(name, fn, after, before))

        def function(modules, attr, name, after=None, before=None):
            fn = getattr(modules[0], attr)
            traced = self.wrap(name, fn, after, before)
            for module in modules:
                self.patch(module, attr, traced)

        # kernel
        def on_schedule(_, args, kwargs):
            kind = kwargs.get("kind", "event")
            add("kernel.scheduled")
            add(f"kernel.scheduled.{kind if kind in SCHEDULE_KINDS else 'other'}")
        method(kernel.Kernel, "schedule", after=on_schedule)
        method(kernel.Kernel, "cancel", after=lambda ok, a, k: add("kernel.cancelled", int(ok)))
        method(kernel.Kernel, "run_until", "kernel.run_until",
               after=lambda n, a, k: add("kernel.events_run", n))

        # routing (MAC + AODV)
        def on_network(_, args, kwargs):
            self._networks.append(args[0])
        method(routing.Network, "__init__", after=on_network)
        method(routing.Network, "broadcast", "routing.broadcast",
               after=lambda r, a, k: add("routing.broadcasts"))
        method(routing.Network, "send", "routing.send",
               after=lambda r, a, k: add("routing.unicasts"))
        method(routing.Network, "refresh_beacons", "routing.refresh_beacons")

        def on_receive(args, kwargs):
            t = type(args[1]).__name__
            add(f"routing.received.{t if t in DELIVERY_TYPES else 'other'}")
            return args, kwargs
        method(routing.AodvNode, "receive", "routing.receive", before=on_receive)

        # discovery
        def before_discover(args, kwargs):
            user_cb = kwargs.get("callback")

            def tally(result):
                if result.cache_hit:
                    add("discovery.cache_hits")
                elif result.timed_out:
                    add("discovery.timeouts")
                else:
                    add("discovery.misses_resolved")
                if user_cb is not None:
                    user_cb(result)
            return args, dict(kwargs, callback=tally)

        def after_discover(query, args, kwargs):
            add("discovery.queries")
            add("discovery.floods", int(query.query_id in args[0]._open_queries))
        method(discovery.DiscoveryNode, "discover", "discovery.discover",
               before=before_discover, after=after_discover)
        method(discovery.DiscoveryNode, "advertise", "discovery.advertise",
               after=lambda r, a, k: add("discovery.advertise_calls"))
        method(discovery.DiscoveryNode, "app_receive", "discovery.app_receive")

        # mobility
        function([mobility, routing], "neighbor_graph", "mobility.neighbor_graph",
                 after=lambda r, a, k: add("mobility.neighbor_graph.calls"))
        function([mobility], "connectivity_components", "mobility.components",
                 after=lambda r, a, k: add("mobility.components.calls"))
        function([mobility, experiments, spectrum], "step_waypoint", "mobility.step_waypoint",
                 after=lambda r, a, k: add("mobility.step_waypoint.calls"))

        # spectrum
        method(spectrum.SpectrumSim, "_toggle", after=lambda r, a, k: add("spectrum.pu_toggles"))

        def before_evict(args, kwargs):
            sim, channel_index = args[0], args[1]
            add("spectrum.busy_starts")
            add("spectrum.evictions", int(bool(sim.open_by_channel.get(channel_index))))
            return args, kwargs
        method(spectrum.SpectrumSim, "_evict_channel", "spectrum.evict", before=before_evict)
        method(spectrum.SpectrumSim, "metric", "spectrum.metric",
               after=lambda m, a, k: add("spectrum.assignments", m["count"]))
        function([spectrum], "spectrum_holes", "spectrum.spectrum_holes",
                 after=lambda r, a, k: add("spectrum.hole_scans"))
        self.patch(spectrum, "extract_features",
                   self.count(spectrum.extract_features,
                              lambda r, a, k: add("spectrum.features")))

        # mlp
        def on_train(losses, args, kwargs):
            add("mlp.train.calls")
            add("mlp.train.epochs", len(losses))
        self.patch(detection, "train", self.wrap("mlp.train", detection.train, on_train))

        def on_refit(losses, args, kwargs):
            on_train(losses, args, kwargs)
            add("spectrum.refits")
        self.patch(spectrum, "train", self.wrap("mlp.train", spectrum.train, on_refit))
        method(mlp.Mlp, "_forward_acts", "mlp.forward",
               after=lambda r, a, k: add("mlp.forward.calls"))

        # detection
        function([detection], "context_record", "detection.context_record",
                 after=lambda r, a, k: add("detection.context_records"))
        self.patch(detection, "sensor_magnitudes",
                   self.count(detection.sensor_magnitudes,
                              lambda r, a, k: add("detection.sensor_samples", len(r))))
        self.patch(detection, "detect",
                   self.count(detection.detect, lambda r, a, k: add("detection.polls")))
        function([experiments], "make_training_set", "detection.make_training_set")
        function([experiments], "train_detector", "detection.train_detector")

        # experiments: cells, runners, emission
        real_kernel = experiments.Kernel

        def cell_kernel(*args, **kwargs):
            self.open_cell()
            return real_kernel(*args, **kwargs)
        self.patch(experiments, "Kernel", cell_kernel)

        def before_training(args, kwargs):
            self.close_cell()
            return args, kwargs
        function([experiments], "train_detection_model", "experiments.train_detection_model",
                 before=before_training)
        for exp_name, runner in list(experiments._RUNNERS.items()):
            self.patch_item(experiments._RUNNERS, exp_name,
                            self.wrap(f"experiments.runner.{exp_name}", runner))
        function([experiments], "run_experiment", "experiments.run_experiment")

        # scenario
        function([scenario], "load_scenario", "scenario.load_scenario")

    # -- per-layer metrics --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named in the benchmark's layer map."""
        from crahnsim.experiments import EXPERIMENTS
        incl, excl = self.totals()
        c = self.counts
        m: dict[str, float] = {}
        run_s = incl.get("kernel.run_until", 0.0)
        m["kernel.events_run"] = c["kernel.events_run"]
        m["kernel.scheduled"] = c["kernel.scheduled"]
        for kind in SCHEDULE_KINDS + ("other",):
            m[f"kernel.scheduled.{kind}"] = c[f"kernel.scheduled.{kind}"]
        m["kernel.cancelled"] = c["kernel.cancelled"]
        m["kernel.run_s"] = run_s
        m["kernel.self_s"] = excl.get("kernel.run_until", 0.0)
        m["kernel.events_per_s"] = c["kernel.events_run"] / run_s if run_s > 0 else 0.0

        m["routing.broadcasts"] = c["routing.broadcasts"]
        m["routing.unicasts"] = c["routing.unicasts"]
        m["routing.deliveries"] = c["routing.deliveries"]
        for t in DELIVERY_TYPES + ("other",):
            m[f"routing.deliveries.{t}"] = c[f"routing.received.{t}"]
        m["routing.broadcast_s"] = excl.get("routing.broadcast", 0.0)
        m["routing.send_s"] = excl.get("routing.send", 0.0)
        m["routing.receive_s"] = excl.get("routing.receive", 0.0)
        m["routing.refresh_beacons_s"] = incl.get("routing.refresh_beacons", 0.0)

        queries = c["discovery.queries"]
        resolved = c["discovery.cache_hits"] + c["discovery.misses_resolved"]
        for key in ("queries", "cache_hits", "floods", "timeouts", "misses_resolved",
                    "advertise_calls"):
            m[f"discovery.{key}"] = c[f"discovery.{key}"]
        m["discovery.app_receive_s"] = excl.get("discovery.app_receive", 0.0)
        m["discovery.resolved_ratio"] = resolved / queries if queries else 0.0
        flood_msgs = c["routing.received.SreqMsg"] + c["routing.received.SrepMsg"]
        misses = c["discovery.misses_resolved"]
        m["discovery.flood_msgs_per_resolved"] = flood_msgs / misses if misses else 0.0

        for key, span in (("neighbor_graph", "mobility.neighbor_graph"),
                          ("components", "mobility.components"),
                          ("step_waypoint", "mobility.step_waypoint")):
            m[f"mobility.{key}.calls"] = c[f"mobility.{key}.calls"]
            m[f"mobility.{key}.s"] = excl.get(span, 0.0)

        busy = c["spectrum.busy_starts"]
        for key in ("pu_toggles", "busy_starts", "evictions"):
            m[f"spectrum.{key}"] = c[f"spectrum.{key}"]
        m["spectrum.evictions_per_toggle"] = c["spectrum.evictions"] / busy if busy else 0.0
        m["spectrum.assignments"] = c["spectrum.assignments"]
        m["spectrum.hole_scans"] = c["spectrum.hole_scans"]
        m["spectrum.hole_scan_s"] = excl.get("spectrum.spectrum_holes", 0.0)
        m["spectrum.features"] = c["spectrum.features"]
        m["spectrum.refits"] = c["spectrum.refits"]

        m["mlp.train.calls"] = c["mlp.train.calls"]
        m["mlp.train.epochs"] = c["mlp.train.epochs"]
        m["mlp.train_s"] = excl.get("mlp.train", 0.0)
        m["mlp.forward.calls"] = c["mlp.forward.calls"]
        m["mlp.forward_s"] = excl.get("mlp.forward", 0.0)

        m["detection.context_records"] = c["detection.context_records"]
        m["detection.context_record_s"] = excl.get("detection.context_record", 0.0)
        m["detection.sensor_samples"] = c["detection.sensor_samples"]
        m["detection.training_set_s"] = incl.get("detection.make_training_set", 0.0)
        m["detection.train_detector_s"] = incl.get("detection.train_detector", 0.0)
        m["detection.polls"] = c["detection.polls"]

        cells = self.durations(CELL)
        p50, _ = percentile(cells, 50.0)
        tail, tail_pct = tail_percentile(cells)
        m["experiments.cells"] = len(cells)
        m["experiments.cell_s.p50"] = p50
        m["experiments.cell_s.tail"] = tail
        m["experiments.cell_s.tail_pct"] = tail_pct
        runners = {name: incl.get(f"experiments.runner.{name}", 0.0) for name in EXPERIMENTS}
        for name, seconds in runners.items():
            m[f"experiments.{name}_s"] = seconds
        m["experiments.emit_s"] = (incl.get("experiments.run_experiment", 0.0)
                                   - sum(runners.values()))
        m["scenario.load_s"] = incl.get("scenario.load_scenario", 0.0)
        return m

    def count_check(self) -> list[str]:
        """Invariants between independently taken counts; empty when they hold."""
        c = self.counts
        problems = []
        received = sum(c[f"routing.received.{t}"] for t in DELIVERY_TYPES + ("other",))
        if received != c["routing.deliveries"]:
            problems.append(f"receive calls {received} != Network.delivered_msgs "
                            f"{c['routing.deliveries']}")
        if c["discovery.queries"] - c["discovery.cache_hits"] != c["discovery.floods"]:
            problems.append("discovery misses != floods")
        return problems


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values strictly beyond its rank."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES with at least ten values beyond it, as
    (value, percentile); with fewer than twenty values, the maximum at 100."""
    for pct in TAIL_PERCENTILES:
        value, beyond = percentile(values, pct)
        if beyond >= 10:
            return value, pct
    return (max(values) if values else 0.0), 100.0
