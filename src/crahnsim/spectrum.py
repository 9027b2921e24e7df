"""Primary-user activity modeling, spectrum-hole detection and selection.

Each channel is licensed to one primary user (PU). PUs alternate transmitting
and idle periods (exponential durations, per-PU mean scale). Secondary users
occupy holes and are evicted the instant the licensed PU resumes. Hole
selection is either a history-blind uniform pick or an MLP score trained
online on (hole features -> realized remaining idle time).
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernel import Kernel
from .mlp import Mlp, TrainConfig, train
from .mobility import Area, NodeState, friis_received_power, place_uniform, step_waypoint

DEFAULT_N_WINDOW = 5
EPSILON_DBM_DISTANCE = 1.0  # clamp for co-located nodes when deriving dBm


class NoSpectrumError(RuntimeError):
    """No spectrum hole is available; the secondary user must wait."""


@dataclass
class Channel:
    index: int
    licensed_pu: int


@dataclass
class PuUsageLog:
    pu_id: int
    channel_index: int
    n: int = DEFAULT_N_WINDOW
    durations: list[float] = field(default_factory=list)  # oldest -> newest
    signal_strength_dbm: float = -60.0
    mobility_mps: float = 0.0
    state: str = "idle"  # "transmitting" | "idle"
    state_since: float = 0.0
    last_session_end: float = 0.0


@dataclass
class SpectrumHole:
    channel_index: int
    idle_since: float


@dataclass
class SuAssignment:
    su_id: int
    channel_index: int
    assigned_at: float
    evicted_at: Optional[float] = None
    policy: str = "mlp-history"
    # features of the hole when it was chosen; the scorer learns from them at eviction
    selection_features: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def record_session(log: PuUsageLog, start: float, end: float) -> PuUsageLog:
    """Append one transmission-session duration, keeping only the newest n."""
    if end <= start:
        raise ValueError(f"reversed or empty session interval ({start}, {end})")
    if start < log.last_session_end:
        raise ValueError(
            f"session ({start}, {end}) overlaps recorded history ending at {log.last_session_end}")
    log.durations.append(end - start)
    if len(log.durations) > log.n:
        del log.durations[:len(log.durations) - log.n]
    log.last_session_end = end
    return log


def spectrum_holes(channels: list[Channel], logs: dict[int, PuUsageLog],
                   t: float) -> list[SpectrumHole]:
    """Channels whose PU is not transmitting at t. A channel with no PU log is
    vacuously a hole (idle since the beginning)."""
    holes = []
    for ch in channels:
        log = logs.get(ch.licensed_pu)
        if log is None:
            holes.append(SpectrumHole(ch.index, 0.0))
        elif log.state == "idle":
            holes.append(SpectrumHole(ch.index, log.state_since))
    return holes


def extract_features(log: PuUsageLog, t: float) -> np.ndarray:
    """[n session durations zero-padded oldest-first, signal dBm, mobility, idle elapsed]."""
    if log.state != "idle":
        raise ValueError(f"PU {log.pu_id} is transmitting at t={t}; no hole features")
    padded = [0.0] * (log.n - len(log.durations)) + list(log.durations)
    return np.array(padded + [log.signal_strength_dbm, log.mobility_mps, t - log.state_since])


def score_hole(model: Mlp, features: np.ndarray) -> float:
    """Predicted remaining idle seconds; negative raw outputs clamp to 0."""
    return max(0.0, float(model.forward(features)[0]))


def select_hole(holes: list[SpectrumHole], scores: Optional[dict[int, float]],
                policy: str, rng: Optional[np.random.Generator] = None) -> int:
    if not holes:
        raise NoSpectrumError("no spectrum hole available")
    if policy == "mlp-history":
        best = max(holes, key=lambda h: (scores[h.channel_index], -h.channel_index))
        return best.channel_index
    if policy == "random-baseline":
        return holes[int(rng.integers(0, len(holes)))].channel_index
    raise ValueError(f"unknown policy {policy!r}")


def switching_time_metric(assignments: list[SuAssignment], horizon: float) -> dict:
    """Per-assignment availability durations; open assignments truncate at horizon."""
    samples = []
    for a in assignments:
        end = a.evicted_at if a.evicted_at is not None else horizon
        samples.append(end - a.assigned_at)
    return {
        "count": len(samples),
        "mean": float(np.mean(samples)) if samples else float("nan"),
        "samples": samples,
    }


@dataclass
class SpectrumParams:
    pu_count: int = 10
    su_count: int = 5
    n_window: int = DEFAULT_N_WINDOW
    policy: str = "mlp-history"
    # per-PU activity scale theta ~ U(range); busy ~ Exp(theta), idle ~ Exp(theta).
    # Coupling busy and idle means through one scale is what lets session history
    # predict the remaining idle time.
    scale_range: tuple = (0.2, 2.6)
    su_start_s: float = 100.0  # passive warm-up before SUs transmit
    refit_interval: int = 200
    buffer_cap: int = 400
    hidden_units: int = 8
    train_epochs: int = 150
    refit_epochs: int = 15
    learning_rate: float = 0.2
    wavelength_m: float = 0.125
    mobile_step_s: float = 5.0


class SpectrumSim:
    """Event-driven spectrum management run on one kernel instance."""

    def __init__(self, kernel: Kernel, params: SpectrumParams, area: Optional[Area] = None,
                 pu_schedules: Optional[dict[int, list[float]]] = None):
        self.k = kernel
        self.p = params
        self.area = area or Area()
        place_rng = kernel.stream("spectrum-placement")
        self.pus = place_uniform(params.pu_count, self.area, place_rng, role="primary-user")
        self.sus = place_uniform(params.su_count, self.area, place_rng,
                                 role="rescue-SU", start_id=params.pu_count)
        self.channels = [Channel(i, self.pus[i].id) for i in range(params.pu_count)]
        self.logs = {pu.id: PuUsageLog(pu.id, i, n=params.n_window)
                     for i, pu in enumerate(self.pus)}
        scale_rng = kernel.stream("pu-params")
        self.scales = {pu.id: scale_rng.uniform(*params.scale_range) for pu in self.pus}
        self.activity_rng = kernel.stream("pu-activity")
        self.choice_rng = kernel.stream("hole-choice")
        self.model = Mlp.init([params.n_window + 3, params.hidden_units, 1],
                              kernel.stream("scorer-init"), output_activation="identity")
        self.model_trained = False
        self.assignments: list[SuAssignment] = []
        self.open_by_channel: dict[int, list[SuAssignment]] = {}
        self.waiting: list[int] = []
        self.buffer_x: list[np.ndarray] = []
        self.buffer_y: list[float] = []
        self._since_refit = 0
        self._passive_open: dict[int, np.ndarray] = {}  # pu_id -> features at idle start
        self._busy_start: dict[int, float] = {}
        self._schedules = pu_schedules  # pu_id -> alternating durations [idle, busy, ...]
        self._sched_pos = {pu.id: 0 for pu in self.pus}
        self._su_started = False

    # -- wiring ---------------------------------------------------------------

    def start(self) -> None:
        for pu in self.pus:
            self._schedule_toggle(pu.id, first=True)
        self.k.schedule(self.p.su_start_s, self._start_sus, kind="su-start")
        self.k.schedule(self.p.mobile_step_s, self._mobility_step, kind="mobility")

    def _next_duration(self, pu_id: int) -> float:
        if self._schedules is not None:
            seq = self._schedules[pu_id]
            pos = self._sched_pos[pu_id]
            self._sched_pos[pu_id] = pos + 1
            return seq[pos] if pos < len(seq) else float("inf")
        return float(self.activity_rng.exponential(self.scales[pu_id]))

    def _schedule_toggle(self, pu_id: int, first: bool = False) -> None:
        dur = self._next_duration(pu_id)
        if math.isinf(dur):
            return
        self.k.schedule(self.k.now + dur, lambda p=pu_id: self._toggle(p),
                        target=f"pu{pu_id}", kind="pu-toggle")

    def _mobility_step(self) -> None:
        rng = self.k.stream("mobility")
        for node in self.pus + self.sus:
            step_waypoint(node, self.k.now, self.p.mobile_step_s, rng, self.area)
        if self.k.now + self.p.mobile_step_s <= self.k.end:
            self.k.schedule(self.k.now + self.p.mobile_step_s, self._mobility_step,
                            kind="mobility")

    # -- PU process -----------------------------------------------------------

    def _toggle(self, pu_id: int) -> None:
        log = self.logs[pu_id]
        now = self.k.now
        if log.state == "idle":
            # idle -> transmitting; evictions happen after the state flips so a
            # reselecting SU can never land back on this channel
            self._close_passive(pu_id, now)
            log.state = "transmitting"
            log.state_since = now
            self._busy_start[pu_id] = now
            self._evict_channel(log.channel_index, pu_id, now)
        else:
            # transmitting -> idle
            record_session(log, self._busy_start[pu_id], now)
            log.state = "idle"
            log.state_since = now
            self._update_pu_observables(pu_id)
            self._open_passive(pu_id, now)
            self._serve_waiting(now)
        self._schedule_toggle(pu_id)

    def _update_pu_observables(self, pu_id: int) -> None:
        log = self.logs[pu_id]
        pu = self.pus[log.channel_index]
        su = self.sus[0] if self.sus else None
        if su is not None:
            d = max(pu.distance_to(su), EPSILON_DBM_DISTANCE)
            p_w = friis_received_power(pu.tx_power_w, 1.0, 1.0, self.p.wavelength_m, d)
            log.signal_strength_dbm = 10.0 * math.log10(p_w * 1000.0)
        log.mobility_mps = pu.speed

    # -- passive observation (scorer warm-up and background data) -------------

    def _open_passive(self, pu_id: int, now: float) -> None:
        if self._su_started:
            return  # passive observation is warm-up only
        self._passive_open[pu_id] = extract_features(self.logs[pu_id], now)

    def _close_passive(self, pu_id: int, now: float) -> None:
        feats = self._passive_open.pop(pu_id, None)
        if feats is not None:
            self._add_sample(feats, now - self.logs[pu_id].state_since)

    def _add_sample(self, features: np.ndarray, realized_idle: float) -> None:
        self.buffer_x.append(features)
        self.buffer_y.append(realized_idle)
        if len(self.buffer_x) > self.p.buffer_cap:
            del self.buffer_x[0]
            del self.buffer_y[0]
        self._since_refit += 1
        if self._su_started and self._since_refit >= self.p.refit_interval:
            self._refit()

    def _refit(self) -> None:
        self._since_refit = 0
        if self.p.policy != "mlp-history" or len(self.buffer_x) < 10:
            return
        x = np.array(self.buffer_x)
        y = np.array(self.buffer_y)[:, None]
        if not self.model_trained:
            cfg = TrainConfig(learning_rate=self.p.learning_rate,
                              epochs=self.p.train_epochs, seed=self.k.seed, loss="squared")
            train(self.model, (x, y), cfg)
            self.model_trained = True
        else:
            # warm-start with the standardization frozen at the initial fit
            cfg = TrainConfig(learning_rate=self.p.learning_rate,
                              epochs=self.p.refit_epochs, seed=self.k.seed, loss="squared")
            train(self.model, (x, y), cfg, standardize=False)

    # -- SU behavior ----------------------------------------------------------

    def _start_sus(self) -> None:
        self._su_started = True
        self._refit()
        for su in self.sus:
            self._select_for(su.id, self.k.now)

    def _hole_features(self, su_id: int, hole: SpectrumHole, now: float) -> np.ndarray:
        log = self.logs[self.channels[hole.channel_index].licensed_pu]
        pu = self.pus[hole.channel_index]
        su = self.sus[su_id - self.p.pu_count]
        d = max(pu.distance_to(su), EPSILON_DBM_DISTANCE)
        p_w = friis_received_power(pu.tx_power_w, 1.0, 1.0, self.p.wavelength_m, d)
        feats = extract_features(log, now)
        feats[log.n] = 10.0 * math.log10(p_w * 1000.0)
        feats[log.n + 1] = pu.speed
        return feats

    def _select_for(self, su_id: int, now: float) -> None:
        holes = spectrum_holes(self.channels, self.logs, now)
        if not holes:
            if su_id not in self.waiting:
                self.waiting.append(su_id)
            return
        if self.p.policy == "mlp-history":
            feats = {h.channel_index: self._hole_features(su_id, h, now) for h in holes}
            batch = self.model._standardize(np.array(list(feats.values())))
            raw = self.model._forward_acts(batch)[-1][:, 0]
            scores = {ci: max(0.0, float(r)) for ci, r in zip(feats, raw)}
            chosen = select_hole(holes, scores, "mlp-history")
            features = feats[chosen]
        else:
            chosen = select_hole(holes, None, "random-baseline", self.choice_rng)
            features = self._hole_features(
                su_id, next(h for h in holes if h.channel_index == chosen), now)
        a = SuAssignment(su_id=su_id, channel_index=chosen, assigned_at=now,
                         policy=self.p.policy, selection_features=features)
        self.assignments.append(a)
        self.open_by_channel.setdefault(chosen, []).append(a)

    def _evict_channel(self, channel_index: Optional[int], pu_id: int, now: float) -> None:
        if channel_index is None:
            return
        open_list = self.open_by_channel.pop(channel_index, [])
        for a in open_list:
            a.evicted_at = now
            self._add_sample(a.selection_features, now - a.assigned_at)
        for a in open_list:
            self._select_for(a.su_id, now)

    def _serve_waiting(self, now: float) -> None:
        if not self._su_started:
            return
        waiting, self.waiting = self.waiting, []
        for su_id in waiting:
            self._select_for(su_id, now)

    # -- results --------------------------------------------------------------

    def metric(self) -> dict:
        return switching_time_metric(self.assignments, self.k.end)


def run_spectrum_replication(seed: int, params: SpectrumParams, sim_time_s: float = 500.0,
                             pu_schedules: Optional[dict[int, list[float]]] = None) -> SpectrumSim:
    kernel = Kernel(seed=seed, end=sim_time_s)
    sim = SpectrumSim(kernel, params, pu_schedules=pu_schedules)
    sim.start()
    kernel.run_until(sim_time_s)
    return sim
