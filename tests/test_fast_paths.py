"""Fast paths against the slow reference code they replace, bit for bit.

The reference functions below are the scalar, one-record-at-a-time and
per-neighbour forms: sensor synthesis one instant and one sensor at a time,
per-cluster reduction over Python lists, an `order=True` dataclass event
heap, and one MAC delay draw per neighbour. The fast paths must give the same
floats, the same draw order and the same event trace.
"""

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import pytest

from crahnsim.detection import (POLL_PERIOD_S, ClusterReport, Deployment, DisasterEvent,
                                NOISE_SIGMA, SIGNAL_DECAY_M, context_record, deploy,
                                make_training_set, sensor_magnitudes, sink_collect,
                                window_times)
from crahnsim.kernel import Kernel, PastTimeError
from crahnsim.mobility import Area, NodeState
from crahnsim.routing import Network


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# -- reference: scalar detection pipeline -------------------------------------

def ref_sensor_magnitudes(dep, t, events, noise_rng):
    mags = noise_rng.normal(0.0, NOISE_SIGMA, len(dep.sensors))
    for ev in events:
        if ev.time <= t < ev.time + ev.duration_s:
            ex, ey = ev.epicenter
            for i, s in enumerate(dep.sensors):
                d = math.hypot(s.x - ex, s.y - ey)
                mags[i] += ev.intensity * math.exp(-d / SIGNAL_DECAY_M)
    return mags


def ref_context_record(dep, t, events, noise_rng, samples_per_window=5):
    times = [t - POLL_PERIOD_S + (i + 1) * POLL_PERIOD_S / samples_per_window
             for i in range(samples_per_window)]
    per_cluster = {}
    for ts in times:
        mags = ref_sensor_magnitudes(dep, ts, events, noise_rng)
        for i, m in enumerate(mags):
            per_cluster.setdefault(int(dep.membership[i]), []).append(float(m))
    reports = []
    for cid, vals in sorted(per_cluster.items()):
        reports.append(ClusterReport(cid, t - POLL_PERIOD_S, t, float(np.mean(vals)),
                                     float(np.max(vals)), len(vals)))
    return sink_collect(reports, dep.cluster_count)


def ref_make_training_set(dep, rng, area, intensity, positives=500, negatives=500):
    xs, ys = [], []
    for _ in range(positives):
        ev = DisasterEvent(time=0.0,
                           epicenter=(rng.uniform(0, area.width), rng.uniform(0, area.height)),
                           intensity=rng.uniform(0.5 * intensity, 1.25 * intensity))
        xs.append(ref_context_record(dep, POLL_PERIOD_S, [ev], rng))
        ys.append([1.0])
    for _ in range(negatives):
        xs.append(ref_context_record(dep, POLL_PERIOD_S, [], rng))
        ys.append([0.0])
    return np.array(xs), np.array(ys)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _deployment_with_membership(membership, area, rng):
    sensors = [NodeState(id=i, x=float(rng.uniform(0, area.width)),
                         y=float(rng.uniform(0, area.height)), role="sensor")
               for i in range(len(membership))]
    heads = [NodeState(id=len(membership) + c, x=0.0, y=0.0, role="cluster-head")
             for c in range(max(membership) + 2)]
    return Deployment(sensors=sensors, heads=heads, membership=np.array(membership))


def _random_events(rng, area, count, intensity=8.0):
    return [DisasterEvent(time=float(rng.uniform(0.0, 40.0)),
                          epicenter=(float(rng.uniform(0, area.width)),
                                     float(rng.uniform(0, area.height))),
                          intensity=float(rng.uniform(1.0, intensity)),
                          duration_s=float(rng.uniform(1.0, 30.0)))
            for _ in range(count)]


# -- detection oracles ---------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_context_record_matches_scalar_reference(seed):
    area = Area()
    setup = _rng(seed)
    dep = deploy(int(setup.integers(1, 40)), int(setup.integers(1, 7)), area, setup)
    events = _random_events(setup, area, int(setup.integers(0, 4)))
    for t in (10.0, 20.0, 37.5):
        assert _same_bits(context_record(dep, t, events, _rng(100 + seed)),
                          ref_context_record(dep, t, events, _rng(100 + seed)))


def test_empty_clusters_stay_zero():
    area = Area()
    # clusters 1 and 3 have no sensors, one more head than any member names
    dep = _deployment_with_membership([0, 2, 2, 0, 4, 2], area, _rng(1))
    ev = DisasterEvent(time=0.0, epicenter=(500.0, 500.0), intensity=8.0)
    fast = context_record(dep, 10.0, [ev], _rng(2))
    assert _same_bits(fast, ref_context_record(dep, 10.0, [ev], _rng(2)))
    assert fast.shape == (3 * dep.cluster_count,)
    for c in (1, 3, 5):
        assert list(fast[3 * c:3 * c + 3]) == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("sensors", [26, 27, 40, 97])
def test_cluster_above_pairwise_block_matches(sensors):
    # one cluster with 5 * sensors > 128 readings crosses numpy's pairwise-sum block
    area = Area()
    dep = _deployment_with_membership([0] * sensors, area, _rng(sensors))
    assert 5 * sensors > 128
    events = [DisasterEvent(time=3.0, epicenter=(250.0, 600.0), intensity=6.0)]
    assert _same_bits(context_record(dep, 10.0, events, _rng(5)),
                      ref_context_record(dep, 10.0, events, _rng(5)))


def test_two_overlapping_events_add_in_event_order():
    area = Area()
    dep = deploy(25, 3, area, _rng(7))
    events = [DisasterEvent(time=1.0, epicenter=(300.0, 300.0), intensity=8.0),
              DisasterEvent(time=5.0, epicenter=(320.0, 310.0), intensity=5.5,
                            duration_s=12.0)]
    assert _same_bits(context_record(dep, 10.0, events, _rng(8)),
                      ref_context_record(dep, 10.0, events, _rng(8)))
    block = sensor_magnitudes(dep, window_times(10.0), events, _rng(8))
    rows = [ref_sensor_magnitudes(dep, ts, events, rng)
            for rng in [_rng(8)] for ts in window_times(10.0)]
    assert _same_bits(block, np.array(rows))


def test_event_starting_on_a_sampling_instant_is_active_there():
    area = Area()
    dep = deploy(10, 2, area, _rng(9))
    times = window_times(20.0)
    ev = DisasterEvent(time=times[2], epicenter=(100.0, 900.0), intensity=8.0,
                       duration_s=times[4] - times[2])
    # active on instants 2 and 3 only: the start is closed, the end open
    quiet = sensor_magnitudes(dep, times, [], _rng(10))
    loud = sensor_magnitudes(dep, times, [ev], _rng(10))
    assert [bool((loud[j] != quiet[j]).any()) for j in range(5)] == [False, False,
                                                                      True, True, False]
    assert _same_bits(context_record(dep, 20.0, [ev], _rng(10)),
                      ref_context_record(dep, 20.0, [ev], _rng(10)))


@pytest.mark.parametrize("positives,negatives", [(250, 230), (1, 0), (0, 3), (100, 100)])
def test_training_set_matches_reference_and_draw_order(positives, negatives):
    area = Area()
    dep = deploy(14, 4, area, _rng(positives + negatives))
    rng_fast, rng_ref = _rng(11), _rng(11)
    x, y = make_training_set(dep, rng_fast, area, 8.0, positives, negatives)
    rx, ry = ref_make_training_set(dep, rng_ref, area, 8.0, positives, negatives)
    if positives + negatives:
        assert _same_bits(x, rx)
        assert _same_bits(y, ry)
    # both consumed exactly the same draws
    assert rng_fast.random() == rng_ref.random()


# -- reference: dataclass event heap ------------------------------------------

@dataclass(order=True)
class RefEvent:
    at: float
    id: int
    target: str = field(compare=False, default="system")
    kind: str = field(compare=False, default="event")
    fn: Optional[Callable[[], None]] = field(compare=False, default=None, repr=False)


class RefKernel:
    def __init__(self, trace):
        self.now = 0.0
        self._heap = []
        self._next_id = 1
        self._pending = set()
        self.trace = trace

    def schedule(self, at, fn, *, target="system", kind="event"):
        if at < self.now:
            raise PastTimeError(at)
        ev = RefEvent(at=float(at), id=self._next_id, target=target, kind=kind, fn=fn)
        self._next_id += 1
        heapq.heappush(self._heap, ev)
        self._pending.add(ev.id)
        return ev.id

    def cancel(self, event_id):
        if event_id in self._pending:
            self._pending.discard(event_id)
            return True
        return False

    def run_until(self, t_end):
        executed = 0
        while self._heap and self._heap[0].at <= t_end:
            ev = heapq.heappop(self._heap)
            if ev.id not in self._pending:
                continue
            self._pending.discard(ev.id)
            self.now = ev.at
            self.trace.append(f"{ev.at:.6f},{ev.id},{ev.target},{ev.kind}")
            if ev.fn is not None:
                ev.fn()
            executed += 1
        self.now = t_end
        return executed


def _kernel_workload(k, seed):
    """Random schedules, children scheduled from handlers, ties, and cancels of
    pending, already-run and already-cancelled events."""
    rng = _rng(seed)
    ids = []
    log = []

    def handler(n):
        def fire():
            log.append(n)
            r = rng.random()
            if r < 0.4:
                ids.append(k.schedule(k.now + float(rng.integers(0, 3)), handler(n * 10),
                                      target=f"n{n % 7}", kind="child"))
            elif r < 0.7 and ids:
                log.append(("cancel", k.cancel(ids[int(rng.integers(0, len(ids)))])))
        return fire

    for i in range(300):
        at = float(rng.integers(0, 50)) if i % 3 == 0 else float(rng.uniform(0, 50))
        ids.append(k.schedule(at, handler(i), target=f"n{i % 5}", kind=f"k{i % 4}"))
    for _ in range(40):
        log.append(("cancel", k.cancel(ids[int(rng.integers(0, len(ids)))])))
    log.append(("run", k.run_until(25.0)))
    log.append(("cancel", k.cancel(ids[0])))
    log.append(("run", k.run_until(60.0)))
    return log


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_trace_matches_dataclass_heap_with_cancels(seed):
    fast_trace, ref_trace = [], []
    fast_log = _kernel_workload(Kernel(seed=0, end=60.0, trace=fast_trace), seed)
    ref_log = _kernel_workload(RefKernel(ref_trace), seed)
    assert any(entry == ("cancel", True) for entry in ref_log)
    assert fast_trace == ref_trace
    assert fast_log == ref_log


# -- reference: per-neighbour MAC delay draws ---------------------------------

def ref_broadcast(net, src, msg):
    for nbr in sorted(net.adjacency.get(src, ())):
        if net.loss_rate > 0 and net.k.stream("mac-loss").random() < net.loss_rate:
            continue
        lo, hi = net.hop_delay_s
        delay = float(net.k.stream("mac-delay").uniform(lo, hi))
        net.k.schedule(net.k.now + delay, lambda d=nbr: net._deliver(d, src, msg),
                       target=f"n{nbr}", kind=type(msg).__name__.lower())


class Ping:
    pass


def _broadcast_run(loss_rate, broadcast):
    trace = []
    k = Kernel(seed=21, end=10.0, trace=trace)
    rng = _rng(22)
    nodes = [NodeState(id=i, x=float(rng.uniform(0, 400)), y=float(rng.uniform(0, 400)),
                       radio_range_m=250.0) for i in range(30)]
    net = Network(k, nodes, loss_rate=loss_rate)
    for step in range(20):
        src = step % len(nodes)
        k.schedule(0.01 * step, lambda s=src: broadcast(net, s, Ping()), kind="tx")
    k.run_until(10.0)
    return trace, k.stream("mac-delay").random(), k.stream("mac-loss").random()


@pytest.mark.parametrize("loss_rate", [0.0, 0.3])
def test_broadcast_matches_per_neighbour_draws(loss_rate):
    fast = _broadcast_run(loss_rate, Network.broadcast)
    ref = _broadcast_run(loss_rate, ref_broadcast)
    assert len(ref[0]) > 100
    assert fast == ref
