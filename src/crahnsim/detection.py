"""Disaster detection pipeline: sensors -> cluster heads -> sink -> context
records -> MLP detector polled every 10 s, plus the false-negative-rate /
response-time experiment.

Synthetic disaster signal: a sensor at distance d from an epicenter of
intensity I reads I * exp(-d / 200 m) + N(0, 0.1) while the event is active;
quiet background is noise only.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import Kernel, draw_uniform
from .mlp import Mlp, train
from .mobility import Area, NodeState, place_uniform

DISASTER_HAPPENED = 101
DISASTER_NOT_HAPPENED = 102

POLL_PERIOD_S = 10.0
SIGNAL_DECAY_M = 200.0
NOISE_SIGMA = 0.1
FEATURES_PER_CLUSTER = 3  # mean, max, count
DEFAULT_EVENT_DURATION_S = 30.0
PROCESSING_DELAY_PER_CLUSTER_S = 0.020  # kappa
DETECTOR_HIDDEN_UNITS = 8
DETECTOR_LEARNING_RATE = 0.5
MIN_EVENT_GAP_S = 60.0  # spacing of a trace's events, so polling windows see one at a time
TRACE_START_S = 20.0  # no trace event starts earlier
TRACE_END_MARGIN_S = 10.0  # every trace event ends at least this long before the horizon
# the shortest horizon a trace fits in
MIN_SIM_TIME_S = TRACE_START_S + DEFAULT_EVENT_DURATION_S + TRACE_END_MARGIN_S


@dataclass
class DisasterEvent:
    time: float
    epicenter: tuple[float, float]
    intensity: float
    duration_s: float = DEFAULT_EVENT_DURATION_S


def detect(record: np.ndarray, model: Mlp) -> int:
    """The detector's code for one context record: whether the model's one
    sigmoid output for it exceeds 0.5, the rule `train_detector` validates."""
    if model.predict(record[np.newaxis])[0, 0] > 0.5:
        return DISASTER_HAPPENED
    return DISASTER_NOT_HAPPENED


# -- deployment ---------------------------------------------------------------

@dataclass
class Deployment:
    sensors: list[NodeState]
    heads: list[NodeState]
    membership: np.ndarray  # sensor index -> cluster id

    @property
    def cluster_count(self) -> int:
        return len(self.heads)


def deploy(sensor_count: int, cluster_count: int, area: Area,
           rng: np.random.Generator) -> Deployment:
    sensors = place_uniform(sensor_count, area, rng)
    heads = place_uniform(cluster_count, area, rng, start_id=sensor_count)
    membership = np.array([
        int(np.argmin([s.distance_to(h) for h in heads])) for s in sensors])
    return Deployment(sensors=sensors, heads=heads, membership=membership)


# -- synthetic signal ---------------------------------------------------------
#
# One path from sensor window to feature rows: `sensor_magnitudes` synthesizes
# an (instants x sensors) block, `window_features` reduces a stack of blocks to
# per-cluster (mean, max, count) rows. Both keep the scalar arithmetic of a
# per-reading loop: noise comes from one batched draw (the same values as
# sequential draws), each event's gain uses scalar math.hypot/math.exp (their
# numpy counterparts differ in the last bit) and is added to the slice of
# instants where the event is active, and a cluster's readings are reduced
# instant-major, in the order a sink would receive them.

SAMPLES_PER_WINDOW = 5


def window_times(t: float) -> list[float]:
    """Sampling instants of the 10 s window ending at t."""
    return [t - POLL_PERIOD_S + (i + 1) * POLL_PERIOD_S / SAMPLES_PER_WINDOW
            for i in range(SAMPLES_PER_WINDOW)]


def sensor_magnitudes(dep: Deployment, times: list[float], events: list[DisasterEvent],
                      noise_rng: np.random.Generator) -> np.ndarray:
    """(len(times) x sensors) readings at the ascending instants `times`:
    noise plus the gain of every event active at each instant, added in event
    order. An event is active on [time, time + duration), which holds one run
    of consecutive instants."""
    mags = noise_rng.normal(0.0, NOISE_SIGMA, (len(times), len(dep.sensors)))
    coords = [(s.x, s.y) for s in dep.sensors]
    exp, hypot = math.exp, math.hypot
    for ev in events:
        first = bisect_left(times, ev.time)
        end = bisect_left(times, ev.time + ev.duration_s)
        if first < end:
            ex, ey = ev.epicenter
            intensity = ev.intensity
            mags[first:end] += [intensity * exp(-hypot(x - ex, y - ey) / SIGNAL_DECAY_M)
                                for x, y in coords]
    return mags


def window_features(dep: Deployment, blocks: np.ndarray) -> np.ndarray:
    """(records x instants x sensors) readings -> (records x 3*clusters) rows of
    per-cluster (mean, max, count); a cluster without sensors stays zero."""
    records, instants, _ = blocks.shape
    out = np.zeros((records, FEATURES_PER_CLUSTER * dep.cluster_count))
    for c in range(dep.cluster_count):
        members = dep.membership == c
        # the explicit column count: reshape(0, -1) of zero records raises
        vals = blocks[:, :, members].reshape(records, instants * np.count_nonzero(members))
        if vals.shape[1]:
            base = FEATURES_PER_CLUSTER * c
            # the sum and division of np.mean and the reduce of np.max,
            # without their dispatch
            out[:, base] = np.add.reduce(vals, axis=1) / vals.shape[1]
            out[:, base + 1] = np.maximum.reduce(vals, axis=1)
            out[:, base + 2] = vals.shape[1]
    return out


def context_record(dep: Deployment, t: float, events: list[DisasterEvent],
                   noise_rng: np.random.Generator) -> np.ndarray:
    """One detector input: per-cluster (mean, max, count) over the 10 s window
    ending at t, from `SAMPLES_PER_WINDOW` sampling instants per sensor."""
    mags = sensor_magnitudes(dep, window_times(t), events, noise_rng)
    return window_features(dep, mags[np.newaxis])[0]


# -- detector training --------------------------------------------------------

def make_training_set(dep: Deployment, rng: np.random.Generator, area: Area,
                      intensity: float, positives: int = 500, negatives: int = 500):
    """Positive records (one random event each, drawn before its noise) then
    quiet ones; the same draws, in the same order, as one record at a time."""
    times = window_times(POLL_PERIOD_S)
    shape = (len(times), len(dep.sensors))
    blocks = []
    for _ in range(positives):
        ev = DisasterEvent(time=0.0,
                           epicenter=(draw_uniform(rng, 0, area.width),
                                      draw_uniform(rng, 0, area.height)),
                           intensity=draw_uniform(rng, 0.5 * intensity, 1.25 * intensity))
        blocks.append(sensor_magnitudes(dep, times, [ev], rng))
    quiet = rng.normal(0.0, NOISE_SIGMA, (negatives,) + shape)
    x = np.concatenate([window_features(dep, np.reshape(blocks, (positives,) + shape)),
                        window_features(dep, quiet)])
    y = np.concatenate([np.ones((positives, 1)), np.zeros((negatives, 1))])
    return x, y


def train_detector(init_rngs: list[np.random.Generator], split_rngs: list[np.random.Generator],
                   xs: list[np.ndarray], ys: list[np.ndarray],
                   epochs: int = 300) -> list[tuple[Mlp, dict]]:
    """One detector per training set (x, y), all trained in lockstep: each is
    initialized from its `init_rngs` entry and trained on a random 80% of its
    set, split by its `split_rngs` entry, with the floats it gets trained
    alone. Validation classifies the rest of each set as one stack of one-row
    batches, which gives the floats of classifying each row alone, as polls
    do (a batch of several rows can differ in an output's last bit)."""
    models, splits = [], []
    for init_rng, split_rng, x in zip(init_rngs, split_rngs, xs):
        models.append(Mlp.init([x.shape[1], DETECTOR_HIDDEN_UNITS, 1], init_rng,
                               output_activation="sigmoid"))
        n = x.shape[0]
        split = int(0.8 * n)
        order = split_rng.permutation(n)
        splits.append((order[:split], order[split:]))
    losses = train(models, [x[tr] for x, (tr, _) in zip(xs, splits)],
                   [y[tr] for y, (tr, _) in zip(ys, splits)],
                   learning_rate=DETECTOR_LEARNING_RATE, epochs=epochs)
    trained = []
    for k, (model, x, y, (_, va)) in enumerate(zip(models, xs, ys, splits)):
        val_pred = model.predict(x[va][:, np.newaxis, :])[:, 0, 0] > 0.5
        val_acc = float(np.mean(val_pred == (y[va][:, 0] > 0.5)))
        trained.append((model, {"final_loss": losses[-1][k], "val_accuracy": val_acc}))
    return trained


# -- disaster traces ----------------------------------------------------------

def synthesize_trace(rng: np.random.Generator, area: Area, count: int,
                     intensity: float, horizon_s: float) -> list[DisasterEvent]:
    lo, hi = TRACE_START_S, horizon_s - DEFAULT_EVENT_DURATION_S - TRACE_END_MARGIN_S
    times = sorted(rng.uniform(lo, hi, count))
    for i in range(1, len(times)):
        times[i] = max(times[i], times[i - 1] + MIN_EVENT_GAP_S)
    return [DisasterEvent(time=float(t),
                          epicenter=(draw_uniform(rng, 0, area.width),
                                     draw_uniform(rng, 0, area.height)),
                          intensity=float(intensity))
            for t in times if t <= hi]


# -- simulation and experiment ------------------------------------------------

@dataclass
class DetectionRunResult:
    injected: int
    missed: int
    poll_codes: list[tuple[float, int]]
    response_times: list[float]  # per detected event, incl. processing delay

    @property
    def false_negative_rate_pct(self) -> Optional[float]:
        if self.injected == 0:
            return None
        return 100.0 * self.missed / self.injected


def run_detection_replication(kernel: Kernel, dep: Deployment, model: Mlp,
                              events: list[DisasterEvent]) -> DetectionRunResult:
    """Poll the detector every 10 s, from t = 10 s to the kernel's horizon
    `Kernel.end`, and score the trace."""
    noise_rng = kernel.stream("sensor-noise")
    poll_codes: list[tuple[float, int]] = []

    def poll():
        t = kernel.now
        poll_codes.append((t, detect(context_record(dep, t, events, noise_rng), model)))

    kernel.every(POLL_PERIOD_S, poll, target="detector", kind="poll")
    kernel.run_until()

    kappa = PROCESSING_DELAY_PER_CLUSTER_S * dep.cluster_count
    missed = 0
    responses = []
    for ev in events:
        window_end = ev.time + ev.duration_s + POLL_PERIOD_S
        hit = next((pt for pt, code in poll_codes
                    if ev.time <= pt <= window_end and code == DISASTER_HAPPENED), None)
        if hit is None:
            missed += 1
        else:
            responses.append(hit - ev.time + kappa)
    return DetectionRunResult(injected=len(events), missed=missed,
                              poll_codes=poll_codes, response_times=responses)
