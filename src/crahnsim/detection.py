"""Disaster detection pipeline: sensors -> cluster heads -> sink -> context
records -> MLP detector polled every 10 s, plus the false-negative-rate /
response-time experiment.

Synthetic disaster signal: a sensor at distance d from an epicenter of
intensity I reads I * exp(-d / 200 m) + N(0, 0.1) while the event is active;
quiet background is noise only.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import Kernel
from .mlp import DISASTER_HAPPENED, Mlp, TrainConfig, train
from .mobility import Area, NodeState

POLL_PERIOD_S = 10.0
SIGNAL_DECAY_M = 200.0
NOISE_SIGMA = 0.1
FEATURES_PER_CLUSTER = 3  # mean, max, count
DEFAULT_EVENT_DURATION_S = 30.0
PROCESSING_DELAY_PER_CLUSTER_S = 0.020  # kappa


@dataclass
class DisasterEvent:
    time: float
    epicenter: tuple[float, float]
    intensity: float
    duration_s: float = DEFAULT_EVENT_DURATION_S


def detect(record: np.ndarray, model: Mlp) -> int:
    return model.classify_binary(record)


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
    sensors = [NodeState(id=i, x=rng.uniform(0, area.width), y=rng.uniform(0, area.height),
                         role="sensor") for i in range(sensor_count)]
    heads = [NodeState(id=sensor_count + c, x=rng.uniform(0, area.width),
                       y=rng.uniform(0, area.height), role="cluster-head")
             for c in range(cluster_count)]
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
# numpy counterparts differ in the last bit), and a cluster's readings are
# reduced instant-major, in the order a sink would receive them.

SAMPLES_PER_WINDOW = 5
TRAINING_CHUNK_RECORDS = 100  # records reduced at once while building a training set


def window_times(t: float, samples_per_window: int = SAMPLES_PER_WINDOW) -> list[float]:
    """Sampling instants of the 10 s window ending at t."""
    return [t - POLL_PERIOD_S + (i + 1) * POLL_PERIOD_S / samples_per_window
            for i in range(samples_per_window)]


def sensor_magnitudes(dep: Deployment, times: list[float], events: list[DisasterEvent],
                      noise_rng: np.random.Generator) -> np.ndarray:
    """(len(times) x sensors) readings: noise plus the gain of every event
    active at each instant, added in event order."""
    mags = noise_rng.normal(0.0, NOISE_SIGMA, (len(times), len(dep.sensors)))
    for ev in events:
        rows = [j for j, ts in enumerate(times) if ev.time <= ts < ev.time + ev.duration_s]
        if rows:
            ex, ey = ev.epicenter
            mags[rows] += [ev.intensity * math.exp(-math.hypot(s.x - ex, s.y - ey)
                                                   / SIGNAL_DECAY_M)
                           for s in dep.sensors]
    return mags


def window_features(dep: Deployment, blocks: np.ndarray) -> np.ndarray:
    """(records x instants x sensors) readings -> (records x 3*clusters) rows of
    per-cluster (mean, max, count); a cluster without sensors stays zero."""
    records = blocks.shape[0]
    out = np.zeros((records, FEATURES_PER_CLUSTER * dep.cluster_count))
    for c in range(dep.cluster_count):
        vals = blocks[:, :, dep.membership == c].reshape(records, -1)
        if vals.shape[1]:
            base = FEATURES_PER_CLUSTER * c
            out[:, base] = np.mean(vals, axis=1)
            out[:, base + 1] = np.max(vals, axis=1)
            out[:, base + 2] = vals.shape[1]
    return out


def context_record(dep: Deployment, t: float, events: list[DisasterEvent],
                   noise_rng: np.random.Generator,
                   samples_per_window: int = SAMPLES_PER_WINDOW) -> np.ndarray:
    """One detector input: per-cluster (mean, max, count) over the 10 s window
    ending at t, from `samples_per_window` sampling instants per sensor."""
    mags = sensor_magnitudes(dep, window_times(t, samples_per_window), events, noise_rng)
    return window_features(dep, mags[np.newaxis])[0]


# -- detector training --------------------------------------------------------

def make_training_set(dep: Deployment, rng: np.random.Generator, area: Area,
                      intensity: float, positives: int = 500, negatives: int = 500):
    """Positive records (one random event each, drawn before its noise) then
    quiet ones; the same draws, in the same order, as one record at a time."""
    times = window_times(POLL_PERIOD_S)
    shape = (len(times), len(dep.sensors))
    chunks = [np.zeros((0, FEATURES_PER_CLUSTER * dep.cluster_count))]
    for start in range(0, positives, TRAINING_CHUNK_RECORDS):
        blocks = []
        for _ in range(min(TRAINING_CHUNK_RECORDS, positives - start)):
            ev = DisasterEvent(time=0.0,
                               epicenter=(rng.uniform(0, area.width),
                                          rng.uniform(0, area.height)),
                               intensity=rng.uniform(0.5 * intensity, 1.25 * intensity))
            blocks.append(sensor_magnitudes(dep, times, [ev], rng))
        chunks.append(window_features(dep, np.array(blocks)))
    for start in range(0, negatives, TRAINING_CHUNK_RECORDS):
        k = min(TRAINING_CHUNK_RECORDS, negatives - start)
        chunks.append(window_features(dep, rng.normal(0.0, NOISE_SIGMA, (k,) + shape)))
    y = np.concatenate([np.ones((positives, 1)), np.zeros((negatives, 1))])
    return np.concatenate(chunks), y


def train_detector(rng_init: np.random.Generator, x: np.ndarray, y: np.ndarray,
                   hidden_units: int = 8, epochs: int = 300,
                   learning_rate: float = 0.5, seed: int = 0) -> tuple[Mlp, dict]:
    model = Mlp.init([x.shape[1], hidden_units, 1], rng_init, output_activation="sigmoid")
    n = x.shape[0]
    split = int(0.8 * n)
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    tr, va = order[:split], order[split:]
    cfg = TrainConfig(learning_rate=learning_rate, epochs=epochs)
    losses = train(model, (x[tr], y[tr]), cfg)
    val_pred = np.array([model.classify_binary(row) == DISASTER_HAPPENED for row in x[va]])
    val_acc = float(np.mean(val_pred == (y[va][:, 0] > 0.5)))
    return model, {"final_loss": losses[-1], "val_accuracy": val_acc}


# -- disaster traces ----------------------------------------------------------

def synthesize_trace(rng: np.random.Generator, area: Area, count: int,
                     intensity: float, horizon_s: float,
                     min_gap_s: float = 60.0) -> list[DisasterEvent]:
    lo, hi = 20.0, horizon_s - DEFAULT_EVENT_DURATION_S - 10.0
    times = sorted(rng.uniform(lo, hi, count))
    # enforce spacing so events don't overlap in the polling windows
    for i in range(1, len(times)):
        times[i] = max(times[i], times[i - 1] + min_gap_s)
    return [DisasterEvent(time=float(t),
                          epicenter=(float(rng.uniform(0, area.width)),
                                     float(rng.uniform(0, area.height))),
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
                              events: list[DisasterEvent],
                              sim_time_s: float) -> DetectionRunResult:
    """Poll the detector every 10 s through the kernel and score the trace."""
    noise_rng = kernel.stream("sensor-noise")
    poll_codes: list[tuple[float, int]] = []

    def poll():
        t = kernel.now
        if t <= 0:
            code = 102  # no window yet
        else:
            code = detect(context_record(dep, t, events, noise_rng), model)
        poll_codes.append((t, code))

    t = 0.0
    while t <= sim_time_s:
        kernel.schedule(t, poll, target="detector", kind="poll")
        t += POLL_PERIOD_S
    kernel.run_until(sim_time_s)

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
