"""Primary-user activity modeling, spectrum-hole detection and selection.

PU i licenses channel i, so a channel index is also a PU id. PUs start idle
at t = 0 and alternate idle and transmitting periods (exponential durations,
per-PU mean scale). Secondary users occupy holes and are evicted the instant
the licensed PU resumes. Hole selection is either a history-blind uniform
pick, which reads only the hole set and the `hole-choice` stream, or an MLP
score trained online on (hole features -> realized remaining idle time).

A PU's activity does not depend on the SUs, so it is drawn up front as a
timeline: the PU's sorted toggle times, the first one idle -> transmitting.
PU i draws its durations from its own `pu-activity-{i}` stream. Whether a
channel is a hole, since when, and its last n busy durations are read from
the timeline with `bisect`. The kernel runs a `pu-toggle` event only for a
transition that changes an outcome: a busy start on a channel an SU holds,
the close of a warm-up sample still open when SUs start, and an idle start
while SUs wait. The draws, samples and assignments are bit for bit those of
one kernel event per toggle; `tests/test_fast_paths.py` keeps that
simulation as reference code and checks it.

Grid points are paired: PU positions (`spectrum-placement`) and scales
(`pu-params`) are drawn in PU order, SUs are placed from their own
`su-placement` stream, and timelines come from per-PU streams. So PU i's
position, scale and timeline, and every SU's position, are the same at every
PU count of one seed, until the shared `mobility` stream moves the nodes.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernel import Kernel, bounded_draws, draw_uniform
from .mlp import Mlp, train
# step_waypoint is not called here; it stays importable for tools that patch it per module
from .mobility import (DEFAULT_PAUSE_MAX_S, DEFAULT_V_MAX, DEFAULT_V_MIN,  # noqa: F401
                       Area, NodeState, friis_received_power, place_uniform, step_nodes,
                       step_waypoint)

DEFAULT_SU_COUNT = 5
DEFAULT_N_WINDOW = 5
DEFAULT_SCALE_MIN = 0.2
DEFAULT_SCALE_MAX = 2.6
DEFAULT_SU_START_S = 100.0  # passive warm-up before SUs transmit
EPSILON_DBM_DISTANCE = 1.0  # clamp for co-located nodes when deriving dBm
EXPONENTIAL_BLOCK = 1024  # activity draws taken from the stream at once
HOLE_CHOICE_BLOCK = 256  # 32-bit words taken from the `hole-choice` stream at once
MOBILE_STEP_S = 5.0  # mobility tick
WAVELENGTH_M = 0.125  # carrier wavelength for the PU signal at the SU
PU_TX_POWER_W = 0.1  # every PU's transmit power
# scorer: hidden units, sample buffer, epochs of the first fit and of each refit
HIDDEN_UNITS = 8
BUFFER_CAP = 400
TRAIN_EPOCHS = 150
REFIT_EPOCHS = 15
LEARNING_RATE = 0.2
POLICIES = ("mlp-history", "random-baseline")


@dataclass
class SuAssignment:
    su_id: int
    channel_index: int
    assigned_at: float
    evicted_at: Optional[float] = None
    # features of the hole when it was chosen, which the scorer learns from at
    # eviction; None under random-baseline, which trains no scorer
    selection_features: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


# -- PU timelines ---------------------------------------------------------------
#
# A timeline is a sorted list of toggle times. Toggles at even indices start a
# transmission, toggles at odd indices end one; a toggle at exactly t has
# happened by t. Busy period j is (times[2j], times[2j + 1]).

def draw_toggle_times(rng: np.random.Generator, scale: float, end: float) -> list[float]:
    """One PU's toggle times up to `end` inclusive, every duration ~ Exp(scale)
    drawn from `rng`, the PU's own stream.

    Durations are taken `EXPONENTIAL_BLOCK` at a time, and each block's running
    sum starts from the last time of the block before, so every time is the
    sum of the durations before it taken one at a time: the times of
    `t = t + rng.exponential(scale)` on the same stream.
    """
    blocks = []
    t = 0.0
    while t <= end:
        steps = rng.standard_exponential(EXPONENTIAL_BLOCK) * scale
        blocks.append(np.cumsum(np.concatenate(([t], steps)))[1:])
        t = blocks[-1][-1]
    times = np.concatenate(blocks)
    return times[:np.searchsorted(times, end, side="right")].tolist()


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


def spectrum_holes(timelines: dict[int, list[float]], t: float) -> list[int]:
    """Channels whose PU is not transmitting at t, in the timelines' order."""
    return [i for i, times in timelines.items() if bisect_right(times, t) % 2 == 0]


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


def score_holes(model: Mlp, batch: np.ndarray) -> np.ndarray:
    """Predicted remaining idle seconds of each feature row of a batch, or of
    each batch of a stack (SUs x holes x features), each batch scored as if
    alone; negative and NaN raw outputs clamp to 0 (a raw -0.0 may stay -0.0,
    which equals 0.0)."""
    return np.fmax(model.predict(batch)[..., 0], 0.0)


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
    su_count: int = DEFAULT_SU_COUNT
    n_window: int = DEFAULT_N_WINDOW
    policy: str = "mlp-history"
    # per-PU activity scale theta ~ U(range); busy ~ Exp(theta), idle ~ Exp(theta).
    # Coupling busy and idle means through one scale is what lets session history
    # predict the remaining idle time.
    scale_range: tuple = (DEFAULT_SCALE_MIN, DEFAULT_SCALE_MAX)
    su_start_s: float = DEFAULT_SU_START_S
    refit_interval: int = 200
    # random-waypoint legs of the mobility ticks: speed range (m/s), longest pause (s)
    v_min_mps: float = DEFAULT_V_MIN
    v_max_mps: float = DEFAULT_V_MAX
    pause_max_s: float = DEFAULT_PAUSE_MAX_S


class SpectrumSim:
    """Spectrum management on one kernel instance.

    `start` draws every PU's timeline up to the kernel's horizon `Kernel.end`,
    PU i's from its own `pu-activity-{i}` stream (`pu_schedules`, {pu_id:
    [idle, busy, idle, ...] durations}, replaces the draws); past the horizon
    every PU reads as idle. PU i licenses channel i. SUs are placed from
    their own `su-placement` stream, so a cell shares its PUs and SUs with
    every cell of the same seed and more PUs.

    Under `mlp-history`, before SUs start, each idle period a PU begins is a
    warm-up sample: its features at the idle start, labeled with the idle time
    realized until the next busy start. Features are taken at each mobility
    tick and at SU start, for the idle periods begun since the last one, from
    the positions that held over that interval. Samples closed by SU start
    enter the buffer then, in close-time order; a sample still open enters it
    at its busy start. An assignment adds a sample at its eviction. Under
    `random-baseline` there are no features, no samples and no mobility
    ticks (nodes stay where they were placed); the scorer is still
    initialized, from its own `scorer-init` stream. Each selection scans the
    holes anew; only the PU signals at the SUs are kept, until the next tick.

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
        if params.policy not in POLICIES:
            raise ValueError(f"unknown policy {params.policy!r}")
        self.k = kernel
        self.p = params
        self.area = area or Area()
        self.pus = place_uniform(params.pu_count, self.area, kernel.stream("spectrum-placement"))
        self.sus = place_uniform(params.su_count, self.area, kernel.stream("su-placement"),
                                 start_id=params.pu_count)
        scale_rng = kernel.stream("pu-params")
        self.scales = {pu.id: draw_uniform(scale_rng, *params.scale_range) for pu in self.pus}
        # `rng.integers(0, n)` values; `_select_for` is the stream's only reader
        self._choose = bounded_draws(kernel.stream("hole-choice"), HOLE_CHOICE_BLOCK)
        self.model = Mlp.init([params.n_window + 3, HIDDEN_UNITS, 1],
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
        # (pu_id, su_id) -> signal, which holds until the next mobility tick
        self._dbm: dict[tuple[int, int], float] = {}
        self._su_started = False

    # -- wiring ---------------------------------------------------------------

    def start(self) -> None:
        if self._schedules is None:
            self.timelines = {
                pu.id: draw_toggle_times(self.k.stream(f"pu-activity-{pu.id}"),
                                         self.scales[pu.id], self.k.end)
                for pu in self.pus}
        else:
            self.timelines = {pu.id: schedule_toggle_times(self._schedules[pu.id], self.k.end)
                              for pu in self.pus}
        self.k.schedule(self.p.su_start_s, self._start_sus, kind="su-start")
        if self.p.policy == "mlp-history":  # the random baseline reads no position
            self.k.every(MOBILE_STEP_S, self._mobility_step, kind="mobility")

    def _mobility_step(self) -> None:
        if not self._su_started:
            self._observe_idle_starts(self.k.now)
        p = self.p
        step_nodes(self.pus + self.sus, self.k.now, MOBILE_STEP_S, self.k.stream("mobility"),
                   self.area, p.v_min_mps, p.v_max_mps, p.pause_max_s)
        self._dbm.clear()

    def _received_dbm(self, pu: NodeState, su: NodeState) -> float:
        """PU signal at the SU; nodes only move at mobility ticks, so each
        pair's value is kept until the next one."""
        dbm = self._dbm.get((pu.id, su.id))
        if dbm is None:
            d = max(pu.distance_to(su), EPSILON_DBM_DISTANCE)
            p_w = friis_received_power(PU_TX_POWER_W, 1.0, 1.0, WAVELENGTH_M, d)
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
        with the signal at the first SU and the speed the PU had over it. The
        random baseline trains no scorer and takes none."""
        if self.p.policy != "mlp-history":
            return
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
        if len(self.buffer_x) > BUFFER_CAP:
            del self.buffer_x[0]
            del self.buffer_y[0]
        self._since_refit += 1
        if self._su_started and self._since_refit >= self.p.refit_interval:
            self._refit()

    def _refit(self) -> None:
        self._since_refit = 0
        if len(self.buffer_x) < 10:
            return
        x = np.array(self.buffer_x)
        y = np.array(self.buffer_y)[:, None]
        # refits warm-start with the standardization frozen at the initial fit
        epochs = REFIT_EPOCHS if self.model_trained else TRAIN_EPOCHS
        train(self.model, x, y, learning_rate=LEARNING_RATE, epochs=epochs,
              standardize=not self.model_trained)
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
        self._select_for([su.id for su in self.sus], now)

    def _select_for(self, su_ids: list[int], now: float) -> None:
        """Assign each SU of `su_ids` a hole at `now`, one after the other, or
        queue it to wait. They select from one hole scan, and nothing they are
        assigned changes a score, so under `mlp-history` their batches are
        scored in one pass."""
        if not su_ids:
            return
        holes = spectrum_holes(self.timelines, now)
        if not holes:
            for su_id in su_ids:
                if not self.waiting:
                    self._arm_idle_start(now)
                if su_id not in self.waiting:
                    self.waiting.append(su_id)
            return
        if self.p.policy == "mlp-history":
            # each SU's batch: the holes' feature rows in channel order, with
            # its signal. Stacked (SUs x holes x features), matmul makes one
            # BLAS call per batch, so each SU's scores are those of its batch
            # alone; concatenated rows would change the last bit of some
            n = self.p.n_window  # the signal's column
            batch = np.empty((len(su_ids), len(holes), n + 3))
            batch[:] = [extract_features(self.timelines[c], now, n, 0.0, self.pus[c].speed)
                        for c in holes]
            for s, su_id in enumerate(su_ids):
                su = self.sus[su_id - self.p.pu_count]
                batch[s, :, n] = [self._received_dbm(self.pus[c], su) for c in holes]
            # the best score; the first of equal ones is the lowest channel
            picks = score_holes(self.model, batch).argmax(axis=-1).tolist()
        else:
            batch = None
            picks = [self._choose(len(holes)) for _ in su_ids]
        for s, (su_id, i) in enumerate(zip(su_ids, picks)):
            chosen = holes[i]
            a = SuAssignment(su_id=su_id, channel_index=chosen, assigned_at=now,
                             selection_features=None if batch is None else batch[s, i])
            self.assignments.append(a)
            if chosen not in self.open_by_channel:
                self.open_by_channel[chosen] = []
                self._arm_busy_start(chosen, now)
            self.open_by_channel[chosen].append(a)

    def _evict_channel(self, channel_index: int, now: float) -> None:
        open_list = self.open_by_channel.pop(channel_index, [])
        for a in open_list:
            a.evicted_at = now
            if a.selection_features is not None:
                self._add_sample(a.selection_features, now - a.assigned_at)
        self._select_for([a.su_id for a in open_list], now)

    def _serve_waiting(self, now: float) -> None:
        waiting, self.waiting = self.waiting, []
        self._select_for(waiting, now)

    # -- results --------------------------------------------------------------

    def metric(self) -> dict:
        return switching_time_metric(self.assignments, self.k.end)
