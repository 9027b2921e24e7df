"""Primary-user activity modeling, spectrum-hole detection and selection.

Each channel is licensed to one primary user (PU). PUs start idle at t = 0
and alternate idle and transmitting periods (exponential durations, per-PU
mean scale). Secondary users occupy holes and are evicted the instant the
licensed PU resumes. Hole selection is either a history-blind uniform pick or
an MLP score trained online on (hole features -> realized remaining idle time).

A PU's activity does not depend on the SUs, so it is drawn up front as a
timeline: the PU's sorted toggle times, the first one idle -> transmitting.
Whether a channel is a hole, since when, and its last n busy durations are
read from the timeline with `bisect`. The kernel runs a `pu-toggle` event
only for a transition that changes an outcome: a busy start on a channel an
SU holds, the close of a warm-up sample still open when SUs start, and an
idle start while SUs wait. The draws, samples and assignments are bit for bit
those of one kernel event per toggle; `tests/test_fast_paths.py` keeps that
simulation as reference code and checks it.
"""

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernel import Kernel
from .mlp import Mlp, TrainConfig, train
from .mobility import Area, NodeState, friis_received_power, place_uniform, step_waypoint

DEFAULT_N_WINDOW = 5
EPSILON_DBM_DISTANCE = 1.0  # clamp for co-located nodes when deriving dBm
EXPONENTIAL_BLOCK = 1024  # activity draws taken from the stream at once


class NoSpectrumError(RuntimeError):
    """No spectrum hole is available; the secondary user must wait."""


@dataclass
class Channel:
    index: int
    licensed_pu: int


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
    # features of the hole when it was chosen; the scorer learns from them at eviction
    selection_features: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


# -- PU timelines ---------------------------------------------------------------
#
# A timeline is a sorted list of toggle times. Toggles at even indices start a
# transmission, toggles at odd indices end one; a toggle at exactly t has
# happened by t. Busy period j is (times[2j], times[2j + 1]).

def draw_toggle_times(rng: np.random.Generator, scales: list[float],
                      end: float) -> list[list[float]]:
    """Each PU's toggle times up to `end`, every duration ~ Exp(the PU's scale).

    The draws are those of one kernel event per toggle: one per PU in PU
    order, then one per toggle at or before `end`, in (time, scheduling
    order), each giving the time from that toggle to the PU's next one.
    """
    def exponentials():
        while True:
            yield from rng.standard_exponential(EXPONENTIAL_BLOCK).tolist()

    draw = exponentials()
    times: list[list[float]] = [[] for _ in scales]
    heap = [(0.0 + next(draw) * scale, i, i) for i, scale in enumerate(scales)]
    heapq.heapify(heap)
    order = len(scales)
    while heap and heap[0][0] <= end:
        t, _, i = heap[0]
        times[i].append(t)
        heapq.heapreplace(heap, (t + next(draw) * scales[i], order, i))
        order += 1
    return times


def schedule_toggle_times(durations: list[float], end: float) -> list[float]:
    """Toggle times of a hand-written [idle, busy, idle, ...] duration list up
    to `end`; an infinite duration ends the list."""
    times = []
    t = 0.0
    for dur in durations:
        if dur == math.inf:
            break
        if not dur > 0:
            raise ValueError(f"PU period durations must be positive, got {dur}")
        t = float(t + dur)
        if t > end:
            break
        times.append(t)
    return times


def spectrum_holes(channels: list[Channel], timelines: dict[int, list[float]],
                   t: float) -> list[SpectrumHole]:
    """Channels whose PU is not transmitting at t, with the start of the idle
    period (0.0 for the one the PU starts in)."""
    holes = []
    for ch in channels:
        times = timelines[ch.licensed_pu]
        k = bisect_right(times, t)
        if k % 2 == 0:
            holes.append(SpectrumHole(ch.index, times[k - 1] if k else 0.0))
    return holes


def extract_features(times: list[float], t: float, n: int, signal_dbm: float,
                     mobility_mps: float) -> list[float]:
    """[last n busy durations zero-padded oldest-first, signal dBm, mobility,
    idle elapsed] of a PU idle at t."""
    k = bisect_right(times, t)
    if k % 2:
        raise ValueError(f"PU is transmitting at t={t}; no hole features")
    ended = k // 2
    durations = [times[2 * j + 1] - times[2 * j] for j in range(max(0, ended - n), ended)]
    since = times[k - 1] if k else 0.0
    return [0.0] * (n - len(durations)) + durations + [signal_dbm, mobility_mps, t - since]


def score_holes(model: Mlp, batch: np.ndarray) -> list[float]:
    """Predicted remaining idle seconds of each feature row; negative raw
    outputs clamp to 0."""
    raw = model._forward_acts(model._standardize(batch))[-1][:, 0]
    return [max(0.0, float(r)) for r in raw]


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
    """Spectrum management on one kernel instance.

    `start` draws every PU's timeline up to the kernel's horizon `Kernel.end`
    (`pu_schedules`, {pu_id: [idle, busy, idle, ...] durations}, replaces the
    draws); past the horizon every PU reads as idle. PU i licenses channel i.

    Before SUs start, each idle period a PU begins is a warm-up sample: its
    features at the idle start, labeled with the idle time realized until the
    next busy start. Features are taken at each mobility tick and at SU start,
    for the idle periods begun since the last one, from the positions that
    held over that interval. Samples closed by SU start enter the buffer then,
    in close-time order; a sample still open enters it at its busy start.

    Ties: a toggle at exactly t has happened for every event at t. A toggle
    that needs handling is a kernel event scheduled when the need arises (an
    SU assigned, SUs starting, the first SU waiting), and events at one time
    run in scheduling order: a busy start exactly on a mobility tick evicts
    after the tick moved the nodes if its event was scheduled after the tick
    was (one mobility step earlier), and before the tick otherwise. A warm-up
    idle start on a tick takes the positions from before the tick. Drawn
    toggle times never tie.
    """

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
        self._schedules = pu_schedules
        self.timelines: dict[int, list[float]] = {}  # pu_id -> toggle times
        self._armed: set[int] = set()  # PUs whose next busy start has an event
        # warm-up samples (close time, pu_id, idle start, features) before SU start;
        # then pu_id -> (idle start, features) of those still open
        self._warmup: list[tuple[float, int, float, np.ndarray]] = []
        self._warm_open: dict[int, tuple[float, np.ndarray]] = {}
        self._observed_to = 0.0
        # values that hold until the next mobility tick: (pu_id, su_id) -> signal,
        # and the last hole scan
        self._dbm: dict[tuple[int, int], float] = {}
        self._scan_at: Optional[float] = None
        self._scanned: tuple[list[SpectrumHole], list[Optional[list[float]]]] = ([], [])
        self._su_started = False

    # -- wiring ---------------------------------------------------------------

    def start(self) -> None:
        if self._schedules is None:
            drawn = draw_toggle_times(self.activity_rng,
                                      [self.scales[pu.id] for pu in self.pus], self.k.end)
            self.timelines = {pu.id: times for pu, times in zip(self.pus, drawn)}
        else:
            self.timelines = {pu.id: schedule_toggle_times(self._schedules[pu.id], self.k.end)
                              for pu in self.pus}
        self.k.schedule(self.p.su_start_s, self._start_sus, kind="su-start")
        self.k.every(self.p.mobile_step_s, self._mobility_step, kind="mobility")

    def _mobility_step(self) -> None:
        if not self._su_started:
            self._observe_idle_starts(self.k.now)
        rng = self.k.stream("mobility")
        for node in self.pus + self.sus:
            step_waypoint(node, self.k.now, self.p.mobile_step_s, rng, self.area)
        self._dbm.clear()
        self._scan_at = None

    def _received_dbm(self, pu: NodeState, su: NodeState) -> float:
        """PU signal at the SU; nodes only move at mobility ticks, so each
        pair's value is kept until the next one."""
        dbm = self._dbm.get((pu.id, su.id))
        if dbm is None:
            d = max(pu.distance_to(su), EPSILON_DBM_DISTANCE)
            p_w = friis_received_power(pu.tx_power_w, 1.0, 1.0, self.p.wavelength_m, d)
            dbm = self._dbm[pu.id, su.id] = 10.0 * math.log10(p_w * 1000.0)
        return dbm

    # -- PU transitions that change an outcome ---------------------------------

    def _arm(self, pu_id: int, at: float) -> None:
        self.k.schedule(at, self._toggle, args=(pu_id,), target=f"pu{pu_id}", kind="pu-toggle")

    def _arm_busy_start(self, pu_id: int, now: float) -> None:
        """Event at the end of the idle period PU `pu_id` is in at `now`."""
        if pu_id in self._armed:
            return
        times = self.timelines[pu_id]
        k = bisect_right(times, now)
        if k < len(times):
            self._armed.add(pu_id)
            self._arm(pu_id, times[k])

    def _arm_idle_start(self, now: float) -> None:
        """Event at the first idle start after `now`, when every PU transmits."""
        first = None
        for pu in self.pus:
            times = self.timelines[pu.id]
            k = bisect_right(times, now)
            if k < len(times) and (first is None or times[k] < first[0]):
                first = (times[k], pu.id)
        if first is not None:
            self._arm(first[1], first[0])

    def _toggle(self, pu_id: int) -> None:
        now = self.k.now
        k = bisect_right(self.timelines[pu_id], now)
        if k % 2:
            # idle -> transmitting: the toggle at `now` counts, so SUs evicted
            # here can never reselect this channel
            self._armed.discard(pu_id)
            warm = self._warm_open.pop(pu_id, None)
            if warm is not None:
                since, features = warm
                self._add_sample(features, now - since)
            self._evict_channel(pu_id, now)
        else:
            # transmitting -> idle
            self._serve_waiting(now)

    # -- passive observation (scorer warm-up) -----------------------------------

    def _observe_idle_starts(self, now: float) -> None:
        """Warm-up samples of the idle periods begun in (last observation, now],
        with the signal at the first SU and the speed the PU had over it."""
        su = self.sus[0]
        for pu in self.pus:
            times = self.timelines[pu.id]
            first = bisect_right(times, self._observed_to)
            first += first % 2 == 0  # idle starts are at odd indices
            last = bisect_right(times, now)
            if first >= last:
                continue
            dbm = self._received_dbm(pu, su)
            for i in range(first, last, 2):
                since = times[i]
                close = times[i + 1] if i + 1 < len(times) else math.inf
                features = np.array(
                    extract_features(times, since, self.p.n_window, dbm, pu.speed))
                self._warmup.append((close, pu.id, since, features))
        self._observed_to = now

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
        # refits warm-start with the standardization frozen at the initial fit
        epochs = self.p.refit_epochs if self.model_trained else self.p.train_epochs
        cfg = TrainConfig(learning_rate=self.p.learning_rate, epochs=epochs, loss="squared")
        train(self.model, (x, y), cfg, standardize=not self.model_trained)
        self.model_trained = True

    # -- SU behavior ----------------------------------------------------------

    def _start_sus(self) -> None:
        now = self.k.now
        self._observe_idle_starts(now)
        self._warmup.sort(key=lambda sample: sample[0])
        for close, pu_id, since, features in self._warmup:
            if close <= now:
                self._add_sample(features, close - since)
            else:
                self._warm_open[pu_id] = (since, features)
                self._arm_busy_start(pu_id, now)
        self._warmup = []
        self._su_started = True
        self._refit()
        for su in self.sus:
            self._select_for(su.id, now)

    def _scan(self, now: float) -> list[SpectrumHole]:
        """Holes at `now`; the same for every SU selecting at one instant, so
        they and their features are kept until the time or the positions change."""
        if self._scan_at != now:
            holes = spectrum_holes(self.channels, self.timelines, now)
            self._scan_at, self._scanned = now, (holes, [None] * len(holes))
        return self._scanned[0]

    def _hole_features(self, su: NodeState, i: int, now: float) -> list[float]:
        """Features of the i-th hole of the scan at `now`, as seen by `su`."""
        holes, rows = self._scanned
        pu = self.pus[holes[i].channel_index]
        if rows[i] is None:
            rows[i] = extract_features(self.timelines[pu.id], now, self.p.n_window,
                                       0.0, pu.speed)
        features = rows[i].copy()
        features[self.p.n_window] = self._received_dbm(pu, su)
        return features

    def _select_for(self, su_id: int, now: float) -> None:
        holes = self._scan(now)
        if not holes:
            if not self.waiting:
                self._arm_idle_start(now)
            if su_id not in self.waiting:
                self.waiting.append(su_id)
            return
        su = self.sus[su_id - self.p.pu_count]
        if self.p.policy == "mlp-history":
            # one batch per select, rows in channel order: stacking several SUs'
            # rows into one forward pass changes the last bit of some scores
            batch = np.array([self._hole_features(su, i, now) for i in range(len(holes))])
            scores = {h.channel_index: r for h, r in zip(holes, score_holes(self.model, batch))}
            chosen = select_hole(holes, scores, "mlp-history")
            features = batch[next(i for i, h in enumerate(holes) if h.channel_index == chosen)]
        else:
            chosen = select_hole(holes, None, "random-baseline", self.choice_rng)
            features = np.array(self._hole_features(
                su, next(i for i, h in enumerate(holes) if h.channel_index == chosen), now))
        a = SuAssignment(su_id=su_id, channel_index=chosen, assigned_at=now,
                         selection_features=features)
        self.assignments.append(a)
        if chosen not in self.open_by_channel:
            self.open_by_channel[chosen] = []
            self._arm_busy_start(self.channels[chosen].licensed_pu, now)
        self.open_by_channel[chosen].append(a)

    def _evict_channel(self, channel_index: int, now: float) -> None:
        open_list = self.open_by_channel.pop(channel_index, [])
        for a in open_list:
            a.evicted_at = now
            self._add_sample(a.selection_features, now - a.assigned_at)
        for a in open_list:
            self._select_for(a.su_id, now)

    def _serve_waiting(self, now: float) -> None:
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
