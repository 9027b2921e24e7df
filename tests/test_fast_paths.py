"""Fast paths against the slow reference code they replace, bit for bit.

The reference functions below are the scalar, one-record-at-a-time and
per-neighbour forms: sensor synthesis one instant and one sensor at a time,
per-cluster reduction over Python lists, an `order=True` dataclass event
heap, one MAC delay draw per copy from the stream itself, a beacon refresh
that rebuilds every neighbour row, a random-waypoint step of one node at a
time (`ref_step_waypoint`) for every node of a mobility tick, a spectrum
simulation with one kernel event per primary-user toggle, MLP passes that
allocate a new array per operation, and numpy's own scalar
`Generator.uniform`, `Generator.integers` and `Generator.choice` calls. The fast paths must give the same floats, the same
draw order and the same event trace.

The MLP passes also run on stacks (several SUs' hole batches through the
scorer, the detectors trained in lockstep), whose premise is checked here
by name: with numpy 2.4 and OpenBLAS 0.3.31, matmul makes one BLAS call per
2-D slice of a stack and each slice gets the floats it gets alone. An
upgrade that breaks the premise fails these tests, not only golden digests.
"""

import dataclasses
import heapq
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crahnsim import discovery, experiments, mobility, routing, spectrum
from crahnsim.detection import (DISASTER_HAPPENED, POLL_PERIOD_S, Deployment, DisasterEvent,
                                NOISE_SIGMA, SIGNAL_DECAY_M, context_record, deploy, detect,
                                make_training_set, sensor_magnitudes, train_detector,
                                window_times)
from crahnsim.discovery import (AdvertMsg, DiscoveryNode, DiscoveryResult, ServiceCacheEntry,
                                ServiceDescriptor, ServiceQuery, SreqMsg, SrepMsg)
from crahnsim.kernel import Kernel, PastTimeError, bounded_draws, draw_uniform
from crahnsim.mlp import DivergenceError, Mlp, _sigmoid_in_place, gradients, train
from crahnsim.mobility import (DEFAULT_PAUSE_MAX_S, DEFAULT_V_MAX, DEFAULT_V_MIN, Area,
                               NodeState, connectivity_components, friis_received_power,
                               in_range, neighbor_graph, place_uniform, step_nodes)
from crahnsim.routing import DELAY_BLOCK, AodvNode, DataMsg, Network, RouteEntry, Rrep, Rreq
from crahnsim.scenario import ScenarioConfig
from crahnsim.spectrum import (EPSILON_DBM_DISTANCE, PU_TX_POWER_W, SpectrumParams, SpectrumSim,
                               SuAssignment, switching_time_metric)
from test_discovery import reachability_recorder


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
    vec = np.zeros(3 * dep.cluster_count)
    for cid, vals in per_cluster.items():
        vec[3 * cid:3 * cid + 3] = (float(np.mean(vals)), float(np.max(vals)), len(vals))
    return vec


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
                         y=float(rng.uniform(0, area.height)))
               for i in range(len(membership))]
    heads = [NodeState(id=len(membership) + c, x=0.0, y=0.0)
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


@pytest.mark.parametrize("end_side", [-1, 0, 1])
@pytest.mark.parametrize("start_side", [-1, 0, 1])
def test_event_bounds_beside_sampling_instants_match_per_instant_test(start_side, end_side):
    # starts and ends one ulp before, on and one ulp after an instant; the
    # block adds each gain to a slice of instants, the reference tests each
    dep = deploy(8, 2, Area(), _rng(12))
    times = window_times(30.0)

    def beside(t, side):
        return float(np.nextafter(t, t + side)) if side else t
    start = beside(times[1], start_side)
    events = [DisasterEvent(time=start, epicenter=(400.0, 200.0), intensity=7.0,
                            duration_s=beside(times[3], end_side) - start),
              DisasterEvent(time=beside(times[0], end_side) - 5.0, epicenter=(50.0, 50.0),
                            intensity=3.0, duration_s=5.0),
              DisasterEvent(time=beside(times[4], start_side), epicenter=(900.0, 10.0),
                            intensity=4.0)]
    block = sensor_magnitudes(dep, times, events, _rng(13))
    rng = _rng(13)
    assert _same_bits(block, [ref_sensor_magnitudes(dep, ts, events, rng) for ts in times])


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
    fn: Optional[Callable[..., None]] = field(compare=False, default=None, repr=False)
    args: tuple = field(compare=False, default=(), repr=False)


class RefKernel:
    def __init__(self, trace):
        self.now = 0.0
        self._heap = []
        self._next_id = 1
        self._pending = set()
        self.trace = trace

    def schedule(self, at, fn, *, args=(), target="system", kind="event"):
        if at < self.now:
            raise PastTimeError(at)
        ev = RefEvent(at=float(at), id=self._next_id, target=target, kind=kind, fn=fn,
                      args=args)
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
                ev.fn(*ev.args)
            executed += 1
        self.now = t_end
        return executed


def _kernel_workload(k, seed):
    """Random schedules, children scheduled from handlers, ties, and cancels of
    pending, already-run and already-cancelled events. Half the events are
    closures, half a shared handler with `args=`."""
    rng = _rng(seed)
    ids = []
    log = []

    def fire(n, *extra):
        log.append((n, extra) if extra else n)
        r = rng.random()
        if r < 0.4:
            at = k.now + float(rng.integers(0, 3))
            if n % 2:
                ids.append(k.schedule(at, fire, args=(n * 10, "arg"),
                                      target=f"n{n % 7}", kind="child"))
            else:
                ids.append(k.schedule(at, lambda m=n * 10: fire(m),
                                      target=f"n{n % 7}", kind="child"))
        elif r < 0.7 and ids:
            log.append(("cancel", k.cancel(ids[int(rng.integers(0, len(ids)))])))

    for i in range(300):
        at = float(rng.integers(0, 50)) if i % 3 == 0 else float(rng.uniform(0, 50))
        if i % 2:
            ids.append(k.schedule(at, fire, args=(i,), target=f"n{i % 5}", kind=f"k{i % 4}"))
        else:
            ids.append(k.schedule(at, lambda m=i: fire(m), target=f"n{i % 5}",
                                  kind=f"k{i % 4}"))
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
        lo, hi = net.hop_delay_s
        delay = float(net.k.stream("mac-delay").uniform(lo, hi))
        net.k.schedule(net.k.now + delay, lambda d=nbr: net._deliver(d, src, msg),
                       target=f"n{nbr}", kind=type(msg).__name__.lower())


def ref_send(net, src, dst, msg):
    if dst not in net.adjacency.get(src, ()):
        return False
    lo, hi = net.hop_delay_s
    delay = float(net.k.stream("mac-delay").uniform(lo, hi))
    net.k.schedule(net.k.now + delay, net._deliver, args=(dst, src, msg),
                   target=f"n{dst}", kind=type(msg).__name__.lower())
    return True


def next_delay(net):
    """The next `random()` value the network would turn into a MAC delay."""
    return next(net._delays)


def ref_next_delay(net):
    """The same for the reference MAC, which draws from the stream directly."""
    return net.k.stream("mac-delay").random()


class Ping:
    pass


def _broadcast_run(broadcast, next_delay):
    trace = []
    k = Kernel(seed=21, end=10.0, trace=trace)
    rng = _rng(22)
    nodes = [NodeState(id=i, x=float(rng.uniform(0, 400)), y=float(rng.uniform(0, 400)))
             for i in range(30)]
    net = Network(k, nodes, 250.0)
    for step in range(20):
        src = step % len(nodes)
        k.schedule(0.01 * step, lambda s=src: broadcast(net, s, Ping()), kind="tx")
    k.run_until(10.0)
    return trace, next_delay(net)


def test_broadcast_matches_per_neighbour_draws():
    fast = _broadcast_run(Network.broadcast, next_delay)
    ref = _broadcast_run(ref_broadcast, ref_next_delay)
    assert len(ref[0]) > 100
    assert fast == ref


def _mac_run(hop_delay_s, send, broadcast, next_delay):
    """Unicasts (to the lowest-id neighbour, and once to a non-neighbour)
    mixed with broadcasts; every arrival time exactly, and the next delay
    draw the network would take."""
    k = Kernel(seed=23, end=10.0)
    rng = _rng(24)
    nodes = [NodeState(id=i, x=float(rng.uniform(0, 400)), y=float(rng.uniform(0, 400)))
             for i in range(20)]
    net = Network(k, nodes, 200.0, hop_delay_s=hop_delay_s)
    arrivals = []
    net._deliver = lambda dst, src, msg: arrivals.append((k.now, dst, src, type(msg).__name__))
    for step in range(40):
        src = step % len(nodes)
        if step % 3:
            k.schedule(0.01 * step, broadcast, args=(net, src, Ping()))
        else:
            dst = min(net.adjacency[src] or {src}) if step else src
            k.schedule(0.01 * step, send, args=(net, src, dst, DataMsg(src, dst, None)))
    k.run_until(10.0)
    return arrivals, next_delay(net)


@pytest.mark.parametrize("hop_delay_s", [(0.001, 0.005), (0.0, 0.25), (0.002, 0.002)])
def test_send_delays_equal_scalar_uniform_draws(hop_delay_s):
    fast = _mac_run(hop_delay_s, Network.send, Network.broadcast, next_delay)
    ref = _mac_run(hop_delay_s, ref_send, ref_broadcast, ref_next_delay)
    assert fast == ref
    kinds = [kind for *_, kind in fast[0]]
    assert kinds.count("DataMsg") >= 10 and kinds.count("Ping") > 100


def _block_run(sends, send, broadcast, next_delay):
    """`sends` unicasts, then three rounds of a broadcast to 11 neighbours and
    a unicast, on a complete graph of 12 nodes; every arrival time, and the
    next delay draw the network would take."""
    k = Kernel(seed=25, end=1.0)
    nodes = [NodeState(id=i, x=float(i), y=0.0) for i in range(12)]
    net = Network(k, nodes, 50.0)
    arrivals = []
    net._deliver = lambda dst, src, msg: arrivals.append((k.now, dst, src))
    for i in range(sends):
        send(net, 0, 1 + i % 11, Ping())
    for src in range(3):
        broadcast(net, src, Ping())
        send(net, src, src + 1, Ping())
    k.run_until(1.0)
    return arrivals, next_delay(net)


@pytest.mark.parametrize("sends", [1013, 1020, 1023, 1024, 2040])
def test_block_delays_equal_scalar_draws_across_blocks(sends):
    # the 1024-value boundary falls inside the first broadcast (1013, 1020,
    # 1023), between the last send and the first broadcast (1024), and the
    # 2048 one inside a broadcast after 2040 sends
    assert DELAY_BLOCK == 1024
    fast = _block_run(sends, Network.send, Network.broadcast, next_delay)
    ref = _block_run(sends, ref_send, ref_broadcast, ref_next_delay)
    assert fast == ref
    assert len(fast[0]) == sends + 3 * 12


def test_copy_tests_of_a_node_attached_after_a_broadcast_are_asked():
    k = Kernel(seed=1, end=1.0)
    net = Network(k, [NodeState(id=1, x=0.0, y=0.0), NodeState(id=2, x=10.0, y=0.0)])
    own = SreqMsg(query_id=1, requester=2, requester_seq=1, service_id="svc",
                  ontology_tag=None, hop_count=1, ttl=3)
    net.broadcast(1, own)  # node 2 runs no protocol yet: its copy is scheduled
    DiscoveryNode(2, net)
    net.broadcast(1, own)  # a copy of node 2's own flood: a no-op there
    assert (net.suppressed_msgs, len(k._pending)) == (1, 1)


# -- reference: edge-loop neighbour graph, union-find components, two-pass
# -- local lookup, isinstance dispatch ------------------------------------------

def ref_neighbor_graph(nodes, radio_range_m):
    adj = {n.id: set() for n in nodes}
    if len(nodes) < 2:
        return adj
    pos = np.array([[n.x, n.y] for n in nodes])
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
    ii, jj = np.nonzero(np.triu(d2 <= radio_range_m ** 2, k=1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        adj[nodes[i].id].add(nodes[j].id)
        adj[nodes[j].id].add(nodes[i].id)
    return adj


def ref_refresh_beacons(net):
    """A new adjacency at every refresh: the edge-loop graph, rows sorted."""
    graph = ref_neighbor_graph(list(net.nodes.values()), net.radio_range_m)
    net.adjacency = {v: tuple(sorted(row)) for v, row in graph.items()}


def ref_step_waypoint(node: NodeState, now: float, dt: float, rng: np.random.Generator,
                      area: Area, v_min: float = DEFAULT_V_MIN, v_max: float = DEFAULT_V_MAX,
                      pause_max: float = DEFAULT_PAUSE_MAX_S) -> NodeState:
    """Advance one random-waypoint step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    remaining = dt
    t = now
    while remaining > 1e-12:
        if t < node.pause_until:
            wait = min(node.pause_until - t, remaining)
            t += wait
            remaining -= wait
            if remaining <= 1e-12:
                break
            # pause over: draw the next leg
            node.waypoint = (draw_uniform(rng, 0.0, area.width),
                             draw_uniform(rng, 0.0, area.height))
            node.speed = draw_uniform(rng, v_min, v_max)
            continue
        if node.waypoint is None:
            node.waypoint = (draw_uniform(rng, 0.0, area.width),
                             draw_uniform(rng, 0.0, area.height))
            node.speed = draw_uniform(rng, v_min, v_max)
        if node.speed <= 0:
            break
        wx, wy = node.waypoint
        dist = math.hypot(wx - node.x, wy - node.y)
        travel = node.speed * remaining
        if travel >= dist:
            # arrive exactly, then pause
            node.x, node.y = wx, wy
            used = dist / node.speed
            t += used
            remaining -= used
            node.pause_until = t + draw_uniform(rng, 0.0, pause_max)
            node.waypoint = None
        else:
            frac = travel / dist
            node.x += (wx - node.x) * frac
            node.y += (wy - node.y) * frac
            remaining = 0.0
    node.x = min(max(node.x, 0.0), area.width)
    node.y = min(max(node.y, 0.0), area.height)
    return node


def ref_step_nodes(nodes, now, dt, rng, area, *args):
    for node in nodes:
        ref_step_waypoint(node, now, dt, rng, area, *args)


def ref_connectivity_components(graph):
    parent = {v: v for v in graph}

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for a, nbrs in graph.items():
        for b in nbrs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    comps = {}
    for v in graph:
        comps.setdefault(find(v), set()).add(v)
    return sorted(comps.values(), key=lambda c: min(c))


def ref_lookup_local(node, service_id=None, ontology_tag=None):
    """Hosted services, which never expire, then the live cache: exact id
    matches first, tag matches only if there are none; the first entry of
    fewest hops and lowest provider."""
    now = node.net.k.now
    live = list(node.hosted.values())
    live += [e for e in node.cache.values() if e.expires_at > now]
    for predicate in ((lambda d: service_id is not None and d.service_id == service_id),
                      (lambda d: ontology_tag is not None and d.ontology_tag == ontology_tag)):
        hits = [e for e in live if predicate(e.descriptor)]
        if hits:
            return min(hits, key=lambda e: (e.hops, e.descriptor.provider))
    return None


def ref_receive(node, msg, from_id):
    if isinstance(msg, Rreq):
        node._on_rreq(msg, from_id)
    elif isinstance(msg, Rrep):
        node._on_rrep(msg, from_id)
    elif isinstance(msg, DataMsg):
        node._on_data(msg, from_id)
    else:
        node.app_receive(msg, from_id)


def ref_app_receive(node, msg, from_id):
    if isinstance(msg, AdvertMsg):
        node._on_advert(msg, from_id)
    elif isinstance(msg, SreqMsg):
        node._on_sreq(msg, from_id)
    elif isinstance(msg, SrepMsg):
        node._on_srep(msg, from_id)


def _scattered_nodes(rng, count, side=600.0):
    """Nodes with non-contiguous ids in shuffled order."""
    ids = rng.choice(10 * count + 10, size=count, replace=False).tolist()
    return [NodeState(id=int(i), x=float(rng.uniform(0, side)), y=float(rng.uniform(0, side)))
            for i in ids]


SCATTERED_RANGE_M = 150.0  # on `_scattered_nodes`, neither an empty nor a complete graph


@pytest.mark.parametrize("count", [0, 1, 2, 3, 17, 60])
@pytest.mark.parametrize("seed", range(4))
def test_neighbor_graph_matches_edge_loop(seed, count):
    nodes = _scattered_nodes(_rng(seed), count)
    got = neighbor_graph(nodes, SCATTERED_RANGE_M)
    ref = ref_neighbor_graph(nodes, SCATTERED_RANGE_M)
    assert got == ref
    assert list(got) == [n.id for n in nodes]
    if count == 60:
        assert 0 < sum(map(len, got.values())) < 60 * 59  # neither empty nor complete


_PAIR_345 = [NodeState(id=0, x=0.0, y=0.0), NodeState(id=1, x=3.0, y=4.0)]


@pytest.mark.parametrize("nodes, radio_range_m, edges", [
    # 3-4-5: d**2 == 25 == r**2 exactly, so in range; one ulp short of it, not
    (_PAIR_345, 5.0, {(0, 1)}),
    (_PAIR_345, np.nextafter(5.0, 0.0), set()),
    # coincident nodes, and a third in range of neither
    ([NodeState(id=5, x=10.0, y=20.0), NodeState(id=6, x=10.0, y=20.0),
      NodeState(id=7, x=12.0, y=20.0)],
     1.0, {(5, 6)}),
    # unsorted, non-contiguous ids
    ([NodeState(id=40, x=0.0, y=0.0), NodeState(id=3, x=6.0, y=8.0),
      NodeState(id=17, x=0.0, y=10.0), NodeState(id=8, x=100.0, y=0.0)],
     10.0, {(40, 3), (40, 17), (3, 17)}),
    # no node, one node, two nodes
    ([], 10.0, set()),
    ([NodeState(id=4, x=1.0, y=1.0)], 10.0, set()),
    ([NodeState(id=9, x=1.0, y=1.0), NodeState(id=2, x=1.0, y=11.0)], 10.0, {(9, 2)}),
])
def test_neighbor_graph_boundaries(nodes, radio_range_m, edges):
    got = neighbor_graph(nodes, radio_range_m)
    assert got == ref_neighbor_graph(nodes, radio_range_m)
    assert list(got) == [n.id for n in nodes]
    assert {(a, b) for a, nbrs in got.items() for b in nbrs} == edges | {(b, a) for a, b in edges}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=12),
       st.integers(0, 9).map(float) | st.floats(0.0, 20.0))
def test_in_range_matches_pairwise_loop_on_a_grid(points, radio_range_m):
    """Integer-grid positions, so that pairs exactly at the range (3-4-5,
    or along an axis) and coincident pairs occur."""
    nodes = [NodeState(id=i, x=float(x), y=float(y)) for i, (x, y) in enumerate(points)]
    got = in_range(nodes, radio_range_m)
    r2 = radio_range_m * radio_range_m
    expected = [[i != j and (xi - xj) ** 2 + (yi - yj) ** 2 <= r2
                 for j, (xj, yj) in enumerate(points)] for i, (xi, yi) in enumerate(points)]
    assert got.shape == (len(points),) * 2
    assert got.tolist() == expected


@pytest.mark.parametrize("seed", range(3))
def test_refreshed_rows_match_edge_loop_every_tick(seed):
    """520 ticks of random-waypoint motion over nodes listed out of id order,
    with some static nodes; every fifth tick moves nobody. After each
    refresh the adjacency is the edge-loop graph with sorted rows, keyed in
    list order, and a new dict exactly when a row changed."""
    rng = _rng(seed)
    area = Area(500.0, 500.0)
    nodes = _scattered_nodes(rng, 40, side=500.0)
    assert [n.id for n in nodes] != sorted(n.id for n in nodes)
    static = {node.id for node in nodes[::7]}
    net = Network(Kernel(seed=seed), nodes, SCATTERED_RANGE_M)

    def ref_rows():
        graph = ref_neighbor_graph(nodes, SCATTERED_RANGE_M)
        return {v: tuple(sorted(row)) for v, row in graph.items()}
    assert net.adjacency == ref_rows()
    kept = replaced = kept_after_moves = 0
    moving = [node for node in nodes if node.id not in static]
    for tick in range(520):
        before, expected_before = net.adjacency, dict(net.adjacency)
        if tick % 5:
            step_nodes(moving, float(tick), 1.0, rng, area)
        net.refresh_beacons()
        expected = ref_rows()
        assert net.adjacency == expected
        assert list(net.adjacency) == [n.id for n in nodes]
        if expected == expected_before:
            assert net.adjacency is before
            kept += 1
            kept_after_moves += tick % 5 != 0
        else:
            assert net.adjacency is not before
            replaced += 1
    assert replaced > 100 and kept > 104 and kept_after_moves > 0


def _node_bits(node):
    def bits(v):
        if isinstance(v, float):
            return v.hex()
        return tuple(map(bits, v)) if isinstance(v, tuple) else v
    return tuple(bits(getattr(node, f.name)) for f in dataclasses.fields(node))


def _tick_cases(rng, area, now, dt):
    """Nodes in the states a tick meets: on a leg short of, reaching or
    exactly reaching the waypoint; paused past the tick, until inside it,
    until 1e-13 before its end, until exactly now; with no waypoint, with
    speed 0, at the area's corners; on legs along a border, from -0.0, or
    toward a waypoint outside the area; and random ones."""
    w, h = area.width, area.height
    nodes = []

    def add(x, y, **kw):
        nodes.append(NodeState(id=len(nodes), x=x, y=y, **kw))
    add(10.0, 10.0, speed=1.5, waypoint=(400.0, 300.0))
    add(10.0, 10.0, speed=4.0, waypoint=(11.0, 12.0))
    add(0.0, 0.0, speed=2.0, waypoint=(2.0 * dt, 0.0))  # travel == dist
    add(5.0, 5.0, speed=3.0, waypoint=(5.0, 5.0))  # dist 0
    add(50.0, 60.0, pause_until=now + 3.5 * dt)
    add(50.0, 60.0, pause_until=now + 0.4 * dt)
    add(50.0, 60.0, pause_until=now + dt - 1e-13)
    add(50.0, 60.0, pause_until=now)
    add(50.0, 60.0, speed=2.0, waypoint=(0.0, 0.0), pause_until=now + 0.5 * dt)
    add(70.0, 80.0)
    add(70.0, 80.0, speed=2.5)
    add(70.0, 80.0, speed=0.0, waypoint=(300.0, 300.0))
    for x, y in ((0.0, 0.0), (w, 0.0), (0.0, h), (w, h)):
        add(x, y, speed=5.0, waypoint=(w - x, h - y))
        add(x, y, speed=1.0, waypoint=(x, y))
        add(x, y)
    # legs along each border, both ways, that end on it: one coordinate
    # stays exactly 0.0, width or height for the whole leg
    for x0, y0, x1, y1 in ((3.0, 0.0, w, 0.0), (w - 3.0, 0.0, 0.0, 0.0),
                           (3.0, h, w, h), (w - 3.0, h, 0.0, h),
                           (0.0, 3.0, 0.0, h), (0.0, h - 3.0, 0.0, 0.0),
                           (w, 3.0, w, h), (w, h - 3.0, w, 0.0)):
        add(x0, y0, speed=4.9, waypoint=(x1, y1))
    add(-0.0, 40.0, speed=2.0, waypoint=(0.0, h))
    add(-0.0, 40.0, pause_until=now + 3.5 * dt)
    # legs toward waypoints outside the area, which the clamp stops at its edges
    add(4.0, 5.0, speed=3.0, waypoint=(-30.0, h + 40.0))
    add(w - 4.0, h - 5.0, speed=3.0, waypoint=(w + 30.0, -40.0))
    for _ in range(24):
        x, y = float(rng.uniform(0, w)), float(rng.uniform(0, h))
        speed = float(rng.choice([0.0, 1.0, 4.9]))
        waypoint = (float(rng.uniform(0, w)), float(rng.uniform(0, h)))
        add(x, y, speed=speed, waypoint=waypoint if rng.random() < 0.7 else None,
            pause_until=now + float(rng.choice([-1.0, 0.0, 0.3, 2.0])) * dt)
    return nodes


@pytest.mark.parametrize("dt", [1.0, 5.0, 1e-13, 0.3, 2.5])
@pytest.mark.parametrize("seed", range(3))
def test_tick_loop_matches_per_node_steps(seed, dt):
    """`step_nodes` against `ref_step_waypoint` on every node, over 80
    ticks: every field bit for bit and the stream state after each tick, and
    the next draw at the end."""
    area = Area(400.0, 300.0)
    now = 7.0
    fast = _tick_cases(_rng(seed), area, now, dt)
    ref = _tick_cases(_rng(seed), area, now, dt)
    fast_rng, ref_rng = _rng(seed + 10), _rng(seed + 10)
    for tick in range(80):
        step_nodes(fast, now, dt, fast_rng, area, 1.0, 5.0, 10.0)
        ref_step_nodes(ref, now, dt, ref_rng, area, 1.0, 5.0, 10.0)
        assert [_node_bits(n) for n in fast] == [_node_bits(n) for n in ref], tick
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
        now += dt
    assert fast_rng.random() == ref_rng.random()


def _coordinate(side):
    """On a border, at -0.0, inside the area or outside it."""
    return st.sampled_from([0.0, -0.0, side]) | st.floats(-50.0, side + 50.0)


@st.composite
def _lone_nodes(draw):
    """(node, now, dt, area): a node on or outside the borders or at -0.0,
    with speed 0 or not, with no waypoint, one in or outside the area or one
    a tick's travel away, and a pause that ends before the tick, at its
    start, inside it, 1e-13 before its end, or after it."""
    area = Area(draw(st.sampled_from([100.0, 400.0])), draw(st.sampled_from([100.0, 300.0])))
    dt = draw(st.sampled_from([1.0, 5.0, 1e-13, 0.3, 2.5]) | st.floats(1e-3, 10.0))
    now = draw(st.sampled_from([0.0, 7.0]) | st.floats(0.0, 1000.0))
    pause_until = draw(st.sampled_from([now - dt, now, now + 0.4 * dt, now + dt - 1e-13,
                                        now + 3.5 * dt])
                       | st.floats(-2.0, 3.0).map(lambda k: now + k * dt))
    x, y = draw(_coordinate(area.width)), draw(_coordinate(area.height))
    speed = draw(st.sampled_from([0.0, 2.5]) | st.floats(0.0, 6.0))
    waypoint = draw(st.none() | st.tuples(_coordinate(area.width), _coordinate(area.height))
                    | st.just((x + speed * dt, y)))
    node = NodeState(id=0, x=x, y=y, speed=speed, waypoint=waypoint, pause_until=pause_until)
    return node, now, dt, area


@settings(max_examples=500, deadline=None)
@given(_lone_nodes(), st.integers(0, 2**32 - 1))
def test_tick_of_a_lone_node_matches_reference(case, seed):
    """One `step_nodes` tick of one node against `ref_step_waypoint`: every
    field bit for bit and the stream state."""
    node, now, dt, area = case
    ref = dataclasses.replace(node)
    fast_rng, ref_rng = _rng(seed), _rng(seed)
    step_nodes([node], now, dt, fast_rng, area)
    ref_step_waypoint(ref, now, dt, ref_rng, area)
    assert _node_bits(node) == _node_bits(ref)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


# -- records: built positionally on the run path, keyword form as reference ----

_DESCRIPTOR = dict(service_id="s", provider=3, ontology_tag="t", issued_at=2.5, ttl_s=30.0,
                   provider_seq=7)
# each record's fields in declaration order, every one set away from its default
RECORDS = [
    (RouteEntry, dict(destination=1, next_hop=2, hop_count=3, dest_sequence=4, expires_at=5.5)),
    (Rreq, dict(origin=1, destination=2, broadcast_id=3, origin_sequence=4, hop_count=5,
                ttl=6, dest_sequence_known=7)),
    (Rrep, dict(destination=1, origin=2, dest_sequence=3, hop_count=4)),
    (DataMsg, dict(origin=1, destination=2, payload="p")),
    (ServiceDescriptor, _DESCRIPTOR),
    (ServiceQuery, dict(query_id=1, requester=2, service_id="s", ontology_tag="t",
                        issued_at=1.5, deadline=11.5)),
    (ServiceCacheEntry, dict(descriptor=ServiceDescriptor(**_DESCRIPTOR), hops=2,
                             expires_at=32.5)),
    (AdvertMsg, dict(descriptor=ServiceDescriptor(**_DESCRIPTOR), hop_count=2, hops_left=1)),
    (SreqMsg, dict(query_id=1, requester=2, requester_seq=3, service_id=None,
                   ontology_tag="t", hop_count=4, ttl=5)),
    (SrepMsg, dict(query_id=1, requester=2, descriptor=ServiceDescriptor(**_DESCRIPTOR),
                   dist_to_provider=3)),
    (DiscoveryResult, dict(query=ServiceQuery(1, 2), descriptor=ServiceDescriptor(**_DESCRIPTOR),
                           latency_s=0.25, cache_hit=True, timed_out=True)),
]


def _field_names(cls) -> list:
    """The fields of a dataclass or a NamedTuple, in declaration order."""
    if issubclass(cls, tuple):
        return list(cls._fields)
    return [f.name for f in dataclasses.fields(cls)]


def test_every_record_of_routing_and_discovery_is_listed():
    defined = {obj for module in (routing, discovery) for obj in vars(module).values()
               if (dataclasses.is_dataclass(obj)
                   or isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"))
               and obj.__module__ == module.__name__}
    assert defined == {cls for cls, _ in RECORDS}


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_built_positionally_equals_keyword_form(cls, kwargs):
    assert _field_names(cls) == list(kwargs)
    positional, keyword = cls(*kwargs.values()), cls(**kwargs)
    assert positional == keyword
    assert [getattr(positional, name) for name in kwargs] == list(kwargs.values())
    with pytest.raises(AttributeError):
        positional.not_a_field = 1
    assert not hasattr(positional, "__dict__")


@pytest.mark.parametrize("ttl_s", [0.0, -1.0])
def test_descriptor_built_positionally_runs_its_checks(ttl_s):
    with pytest.raises(ValueError, match="service ttl must be positive"):
        ServiceDescriptor(service_id="s", provider=3, ttl_s=ttl_s)
    with pytest.raises(ValueError, match="service ttl must be positive"):
        ServiceDescriptor("s", 3, "", 0.0, ttl_s, 1)


def _random_graph(rng, count, p):
    ids = rng.choice(5 * count + 5, size=count, replace=False).tolist()
    graph = {int(v): set() for v in ids}
    for a in range(count):
        for b in range(a + 1, count):
            if rng.random() < p:
                graph[ids[a]].add(ids[b])
                graph[ids[b]].add(ids[a])
    return graph


@pytest.mark.parametrize("seed", range(30))
def test_components_match_union_find(seed):
    rng = _rng(seed)
    count = int(rng.integers(0, 60))
    graph = _random_graph(rng, count, float(rng.choice([0.0, 0.01, 0.03, 0.08, 0.5])))
    assert connectivity_components(graph) == ref_connectivity_components(graph)
    nodes = _scattered_nodes(rng, count)
    graph = neighbor_graph(nodes)
    assert connectivity_components(graph) == ref_connectivity_components(graph)


def test_lookup_local_matches_two_pass():
    """Random hosted services and caches with expired entries, hop-count
    ties between providers, ties on (hops, provider) between services of one
    tag, and tag-only hits; the very same entry must come back."""
    rng = _rng(41)
    seen = {"expired-skipped": 0, "tag-only": 0, "tie": 0, "none": 0, "hosted": 0,
            "cached-id-over-hosted-tag": 0}
    for trial in range(150):
        k = Kernel(seed=trial, end=1000.0)
        net = Network(k, [NodeState(id=0, x=0.0, y=0.0)])
        node = DiscoveryNode(0, net)
        for _ in range(int(rng.integers(0, 3))):
            node.host_service(f"svc-{int(rng.integers(0, 6))}",
                              ontology_tag=f"tag-{int(rng.integers(0, 3))}")
        for _ in range(int(rng.integers(0, 25))):
            provider = int(rng.integers(1, 5))
            sid = f"svc-{int(rng.integers(0, 6))}"
            tag, hops = f"tag-{int(rng.integers(0, 3))}", int(rng.integers(0, 3))
            desc = ServiceDescriptor(service_id=sid, provider=provider, ontology_tag=tag,
                                     ttl_s=float(rng.choice([5.0, 30.0])))
            node.cache[(sid, provider)] = ServiceCacheEntry(
                descriptor=desc, hops=hops, expires_at=float(rng.integers(0, 40)) + desc.ttl_s)
        hosted = list(node.hosted.values())
        for _ in range(12):
            k.now = float(rng.integers(0, 50))
            sid = [None, "svc-0", "svc-3", "svc-5", "missing"][int(rng.integers(0, 5))]
            tag = [None, "tag-0", "tag-2", "nothing"][int(rng.integers(0, 4))]
            got, ref = node.lookup_local(sid, tag), ref_lookup_local(node, sid, tag)
            assert got is ref
            matching = [e for e in node.cache.values()
                        if e.descriptor.service_id == sid or e.descriptor.ontology_tag == tag]
            seen["expired-skipped"] += any(e.expires_at <= k.now for e in matching)
            if ref is None:
                seen["none"] += 1
                continue
            seen["tag-only"] += ref.descriptor.service_id != sid
            seen["hosted"] += any(ref is e for e in hosted)
            seen["cached-id-over-hosted-tag"] += (
                ref.descriptor.provider != 0
                and any(e.descriptor.ontology_tag == tag for e in hosted))
            key = (ref.hops, ref.descriptor.provider)
            seen["tie"] += sum(
                (e.hops, e.descriptor.provider) == key
                and e.expires_at > k.now and e.descriptor.ontology_tag == tag
                for e in node.cache.values()) > 1
    assert min(seen.values()) > 5, seen


# -- reference: every broadcast copy scheduled -----------------------------------

def _node_state(node):
    """What a delivery may change at its receiver, as plain comparable values."""
    state = [{d: (e.next_hop, e.hop_count, e.dest_sequence, e.expires_at)
              for d, e in node.routes.items()},
             dict(node._flood_best), node.sequence, node.net.k._next_id]
    if isinstance(node, DiscoveryNode):
        state += [frozenset(node._advert_seen),
                  {key: (e.expires_at, e.descriptor.issued_at, e.hops)
                   for key, e in node.cache.items()},
                  {qid: timeout for qid, (_, _, timeout) in node._open_queries.items()},
                  frozenset(node._replied)]
    return state


def _eid(line):
    return int(line.split(",")[1])


def _strip(line):
    at, _, target, kind = line.split(",")
    return at, target, kind


def _is_duplicate(node, msg):
    """Whether `msg` fails its receiver's duplicate test: a flood copy with no
    fewer hops than the best seen, or an advert already seen (or the node's
    own)."""
    if isinstance(msg, (Rreq, SreqMsg)):
        key = ((msg.origin, msg.broadcast_id) if isinstance(msg, Rreq) else msg.query_id)
        best = node._flood_best.get(key)
        return best is not None and msg.hop_count >= best
    if isinstance(msg, AdvertMsg):
        desc = msg.descriptor
        return (desc.provider == node.id
                or (desc.provider, desc.service_id, desc.issued_at) in node._advert_seen)
    return False


class FloodRuns(NamedTuple):
    fast: object  # outcome of the plain run
    ref: object  # outcome of the reference run
    suppressed: list  # copies never scheduled, as (at, target, kind)
    cancelled: list  # copies scheduled, then cancelled, as (at, target, kind)
    noops: int  # reference deliveries that left their receiver unchanged
    duplicates: dict  # kind -> plain-run deliveries that failed the duplicate test


def _flood_runs(monkeypatch, run, ref_patches=()):
    """`run(trace)` builds a `Kernel(trace=trace)`, runs a scenario on it and
    returns its outcome. It is run three times: as is; marking, with a no-op
    placeholder event scheduled for each copy that `Network.broadcast`
    suppresses, at the copy's time and target, and with each copy that a
    node cancels left in the queue but not delivered; and with
    `ref_broadcast`, which schedules every copy, and `ref_send`, both drawing
    each delay from the stream on its own, snapshotting the receiver around
    every delivery. All three runs must end with their networks about to
    take the same next delay draw. The placeholders and the copies left standing
    must be exactly where the reference delivers (same event ids), the plain
    trace must be the reference trace with those deliveries removed, and
    each of them must have left its receiver's state unchanged in the
    reference run. The plain run's deliveries plus its suppressed and
    cancelled copies must be the reference run's deliveries. In every run,
    no node may end holding a route to itself."""
    protos = []
    real_attach = Network.attach

    def recording_attach(net, proto):
        protos.append(proto)
        real_attach(net, proto)

    def finish(next_delay):
        """Check and forget the run's nodes; their networks' counters, summed,
        and the next delay draw of each network."""
        assert [p.id for p in protos if p.id in p.routes] == []
        nets = {id(p.net): p.net for p in protos}.values()
        protos.clear()
        return ([sum(getattr(net, name) for net in nets)
                 for name in ("delivered_msgs", "suppressed_msgs", "cancelled_msgs")],
                [next_delay(net) for net in nets])

    monkeypatch.setattr(Network, "attach", recording_attach)
    duplicates, fast_trace = {}, []
    real_deliver = Network._deliver

    def counting_deliver(net, dst, src, msg):
        proto = net.protocols.get(dst)
        if proto is not None and _is_duplicate(proto, msg):
            kind = type(msg).__name__.lower()
            duplicates[kind] = duplicates.get(kind, 0) + 1
        real_deliver(net, dst, src, msg)
    with monkeypatch.context() as m:
        m.setattr(Network, "_deliver", counting_deliver)
        fast = run(fast_trace)
    (delivered, suppressed_count, cancelled_count), fast_delays = finish(next_delay)

    marks, cancels, mark_trace, sending = [], {}, [], []
    real_broadcast = Network.broadcast

    def kind_noting_broadcast(net, src, msg):
        sending.append(type(msg).__name__.lower())
        real_broadcast(net, src, msg)
        sending.pop()

    def marking(test):
        def marking_test(node, fields, at):
            if not test(node, fields, at):
                return False
            marks.append(node.net.k.schedule(at, lambda: None, target=f"n{node.id}",
                                             kind=sending[-1]))
            return True
        return marking_test

    def skipping_deliver(net, dst, src, msg):
        if _eid(net.k.trace[-1]) not in cancels:
            real_deliver(net, dst, src, msg)
    with monkeypatch.context() as m:
        m.setattr(Network, "broadcast", kind_noting_broadcast)
        m.setattr(Network, "cancel_copy", lambda net, event_id: cancels.setdefault(event_id))
        m.setattr(Network, "_deliver", skipping_deliver)
        m.setattr(AodvNode, "_ignores_flood", marking(AodvNode._ignores_flood))
        m.setattr(DiscoveryNode, "_ignores_advert", marking(DiscoveryNode._ignores_advert))
        run(mark_trace)
    mark_delays = finish(next_delay)[1]

    noops, ref_trace = set(), []

    def snapshotting_deliver(net, dst, src, msg):
        proto = net.protocols.get(dst)
        before = None if proto is None else _node_state(proto)
        real_deliver(net, dst, src, msg)
        if proto is not None and _node_state(proto) == before:
            noops.add(_eid(net.k.trace[-1]))
    with monkeypatch.context() as m:
        m.setattr(Network, "broadcast", ref_broadcast)
        m.setattr(Network, "send", ref_send)
        m.setattr(Network, "_deliver", snapshotting_deliver)
        for obj, name, value in ref_patches:
            m.setattr(obj, name, value)
        ref = run(ref_trace)
    ref_counts, ref_delays = finish(ref_next_delay)
    ref_delivered = ref_counts[0]
    monkeypatch.setattr(Network, "attach", real_attach)

    marked, cancelled = set(marks), set(cancels)
    assert (len(marked), len(cancelled)) == (suppressed_count, cancelled_count)
    assert not marked & cancelled
    assert mark_trace == ref_trace
    assert [_strip(line) for line in fast_trace] == [
        _strip(line) for line in ref_trace if _eid(line) not in marked | cancelled]
    assert marked | cancelled <= noops
    assert delivered + suppressed_count + cancelled_count == ref_delivered
    assert fast_delays == mark_delays == ref_delays
    return FloodRuns(fast, ref,
                     [_strip(line) for line in ref_trace if _eid(line) in marked],
                     [_strip(line) for line in ref_trace if _eid(line) in cancelled],
                     len(noops), duplicates)


def _traced_replication(cfg, seed):
    def run(trace):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(experiments, "Kernel",
                      lambda *args, **kwargs: Kernel(*args, trace=trace, **kwargs))
            return experiments.run_discovery_replication(cfg, seed)
    return run


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_discovery_replication_matches_reference_paths(monkeypatch, seed):
    """The whole replication with every replaced path swapped back in: the
    per-neighbour broadcast that schedules every copy, the edge-loop
    neighbour graph, the two-pass local lookup and isinstance dispatch. Same
    results; the trace differs only by the suppressed copies, each a no-op
    in the reference run. The tick loop is the per-node `ref_step_waypoint`
    loop, and the adjacency is rebuilt from the edge-loop graph at every
    refresh. The reference run records whether each query's provider is
    reachable when it is issued: the scenario has queries of both kinds."""
    cfg = ScenarioConfig()
    cfg.simulation.sim_time_s = 200.0
    cfg.simulation.radio_range_m = 170.0  # sparse enough for unreachable providers
    cfg.discovery.query_count = 60

    recording_discover, reachable = reachability_recorder()
    fast, ref, suppressed, cancelled, noops, duplicates = _flood_runs(
        monkeypatch, _traced_replication(cfg, seed), [
        (mobility, "step_nodes", ref_step_nodes),
        (Network, "refresh_beacons", ref_refresh_beacons),
        (AodvNode, "receive", ref_receive),
        (DiscoveryNode, "app_receive", ref_app_receive),
        (DiscoveryNode, "lookup_local", ref_lookup_local),
        (DiscoveryNode, "discover", recording_discover)])

    assert fast == ref
    kinds = {kind for _, _, kind in suppressed}
    assert kinds == {"sreqmsg", "advertmsg"}
    assert len(suppressed) > noops / 2  # most no-op deliveries are never scheduled
    assert {kind for _, _, kind in cancelled} <= kinds
    # every copy that arrives as a duplicate is proven a no-op in time
    assert duplicates.get("sreqmsg", 0) == duplicates.get("advertmsg", 0) == 0
    assert len(ref) == len(reachable) == cfg.discovery.query_count
    flags = [reachable[result.query.query_id] for result in ref]
    assert any(flags) and not all(flags)


# -- flood suppression on hand-built networks ---------------------------------------

def _sreq(hops, ttl):
    return SreqMsg(query_id=1, requester=7, requester_seq=1, service_id="svc",
                   ontology_tag=None, hop_count=hops, ttl=ttl)


def _rreq(hops, ttl):
    return Rreq(origin=7, destination=8, broadcast_id=1, origin_sequence=1,
                hop_count=hops, ttl=ttl)


def _advert(hops, hops_left):
    desc = ServiceDescriptor(service_id="svc", provider=7)
    return AdvertMsg(descriptor=desc, hop_count=hops, hops_left=hops_left)


def _line_run(copies, route_lifetime_s=30.0, make=_sreq):
    """Receiver 0 between senders 1 and 2, which do not hear each other. Each
    copy `(t, sender, delay, hops, ttl)` is `make(hops, ttl)`, by default an
    SREQ of one query from requester 7 (`_rreq`: an RREQ from origin 7 for
    an absent node), broadcast by the sender at `t` with a fixed hop delay.
    The outcome is the receiver's route to node 7, its best hop count for
    the flood and the hop counts it forwarded."""
    def run(trace):
        k = Kernel(seed=5, end=1.0, trace=trace)
        nodes = [NodeState(id=0, x=0.0, y=0.0), NodeState(id=1, x=-200.0, y=0.0),
                 NodeState(id=2, x=200.0, y=0.0)]
        net = Network(k, nodes, 250.0)
        protos = [DiscoveryNode(n.id, net, route_lifetime_s=route_lifetime_s) for n in nodes]
        forwarded = []
        real_broadcast = net.broadcast

        def broadcast(src, msg):
            if src == 0:
                forwarded.append(msg.hop_count)
            real_broadcast(src, msg)
        net.broadcast = broadcast

        def send(src, delay, msg):
            net.hop_delay_s = (delay, delay)
            real_broadcast(src, msg)
        for t, src, delay, hops, ttl in copies:
            k.schedule(t, send, args=(src, delay, make(hops, ttl)))
        k.run_until(1.0)
        route = protos[0].routes[7]
        return ((route.next_hop, route.hop_count, route.expires_at),
                next(iter(protos[0]._flood_best.values()), None), forwarded)
    return run


def test_copy_scheduled_later_but_arriving_earlier_is_delivered(monkeypatch):
    # sender 1's copy is recorded as in flight (arrives 0.005); sender 2's,
    # scheduled later, arrives at 0.002 and must install the route; a third
    # copy broadcast after that arrival is the only one suppressed
    fast, ref, suppressed, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.005, 3, 1), (0.001, 2, 0.001, 3, 1), (0.003, 1, 0.002, 3, 1)]))
    assert fast == ref
    assert fast[0][0] == 2
    assert suppressed == [("0.005000", "n0", "sreqmsg")]


def test_equal_arrival_times(monkeypatch):
    assert 0.0 + 0.002 == 0.001 + 0.001
    # RREQs. No more hops: the earlier-scheduled copy runs first, the other is suppressed
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.002, 3, 1), (0.001, 2, 0.001, 3, 1)], make=_rreq))
    assert fast == ref and fast[0][0] == 1
    assert suppressed == [("0.002000", "n0", "rreq")]
    # fewer hops: delivered second, it wins and is forwarded again
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.002, 3, 2), (0.001, 2, 0.001, 2, 2)], make=_rreq))
    assert fast == ref
    assert fast[0][:2] == (2, 2) and fast[1] == 2 and fast[2] == [4, 3]
    assert ("0.002000", "n0", "rreq") not in suppressed
    assert cancelled == []  # due at the same instant, the older copy runs first


def test_equal_arrival_times_sreq_is_forwarded_once(monkeypatch):
    # no more hops: as for RREQs, the later-scheduled copy is suppressed
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.002, 3, 1), (0.001, 2, 0.001, 3, 1)]))
    assert fast == ref and fast[0][0] == 1
    assert suppressed == [("0.002000", "n0", "sreqmsg")]
    # fewer hops: delivered second, it installs its route but is not forwarded
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.002, 3, 2), (0.001, 2, 0.001, 2, 2)]))
    assert fast == ref
    assert fast[0][:2] == (2, 2) and fast[1] == 2 and fast[2] == [4]
    assert ("0.002000", "n0", "sreqmsg") not in suppressed
    assert cancelled == []


def test_later_copy_with_fewer_hops_is_delivered_and_forwarded(monkeypatch):
    fast, ref, suppressed, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.001, 4, 2), (0.002, 2, 0.001, 2, 2), (0.004, 1, 0.001, 3, 2)],
        make=_rreq))
    assert fast == ref
    assert fast[0][:2] == (2, 2) and fast[2] == [5, 3]
    assert [s for s in suppressed if s[1] == "n0"] == [("0.005000", "n0", "rreq")]


def test_later_sreq_copy_with_fewer_hops_is_delivered_not_forwarded(monkeypatch):
    fast, ref, suppressed, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.001, 4, 2), (0.002, 2, 0.001, 2, 2), (0.004, 1, 0.001, 3, 2)]))
    assert fast == ref
    assert fast[0][:2] == (2, 2) and fast[1] == 2 and fast[2] == [5]
    assert [s for s in suppressed if s[1] == "n0"] == [("0.005000", "n0", "sreqmsg")]


@pytest.mark.parametrize("copies", [
    # the route installed by the first copy expires at 0.003, before 0.0035
    [(0.0, 1, 0.001, 3, 1), (0.0015, 2, 0.002, 3, 1)],
    # no route yet, the first copy is in flight; what it installs expires
    # at 0.003, before the second copy arrives at 0.0045
    [(0.0, 1, 0.001, 3, 1), (0.0005, 2, 0.004, 3, 1)]])
def test_route_expiring_before_arrival_keeps_the_copy(monkeypatch, copies):
    fast, ref, suppressed, *_ = _flood_runs(monkeypatch, _line_run(copies, route_lifetime_s=0.002))
    assert fast == ref
    assert fast[0][0] == 2  # the second copy re-installed the stale route
    assert suppressed == []
    # with a lifetime that outlasts the arrival, the same copy is a no-op
    fast, ref, suppressed, *_ = _flood_runs(monkeypatch, _line_run(copies))
    assert fast == ref and fast[0][0] == 1
    assert len(suppressed) == 1


def test_stale_route_replaced_by_a_worse_one_can_improve_again(monkeypatch):
    # the first copy's route (3 hops) expires at 0.003; the second copy
    # arrives at 0.0035 and installs a 5-hop route over the stale one; a
    # 4-hop copy is a duplicate (best is 3) but improves that route, so it
    # must be delivered
    fast, ref, suppressed, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.001, 3, 1), (0.003, 2, 0.0005, 5, 1), (0.004, 1, 0.001, 4, 1)],
        route_lifetime_s=0.002))
    assert fast == ref
    assert fast[0][:2] == (1, 4) and fast[1] == 3
    assert suppressed == []


def test_route_expired_by_scheduling_time_does_not_block_suppression(monkeypatch):
    # the first copy's route expires at 0.003; at 0.0041 the receiver still
    # holds it, stale, while a copy from sender 2 is in flight (due 0.005).
    # That copy finds the route stale and installs one lasting past 0.0061,
    # so the copy due then with no fewer hops is a no-op
    copies = [(0.0, 1, 0.001, 3, 1), (0.004, 2, 0.001, 3, 1), (0.0041, 1, 0.002, 3, 1)]
    fast, ref, suppressed, cancelled, *_ = _flood_runs(
        monkeypatch, _line_run(copies, route_lifetime_s=0.002))
    assert fast == ref and fast[0][:2] == (2, 3)
    assert suppressed == [("0.006100", "n0", "sreqmsg")] and cancelled == []


def test_route_expiring_between_the_two_copies_keeps_the_later(monkeypatch):
    # a 4-hop copy installs a route (expires 0.0025); a 3-hop copy due at
    # 0.0028 is kept; a 2-hop copy due 0.001 cannot cancel it, as the route
    # expires between the two arrivals. The 2-hop copy installs a route
    # expiring at 0.003, so the 3-hop copy arrives as a no-op; but a copy
    # sent at 0.0012, due 0.0032, meets that route expiring between the
    # in-flight 3-hop copy and itself, so it is kept: it re-installs the
    # stale route
    copies = [(0.0, 1, 0.0005, 4, 1), (0.0008, 2, 0.002, 3, 1), (0.0009, 1, 0.0001, 2, 1),
              (0.0012, 2, 0.002, 3, 1)]
    fast, ref, suppressed, cancelled, *_ = _flood_runs(
        monkeypatch, _line_run(copies, route_lifetime_s=0.002))
    assert fast == ref
    assert fast[0][:2] == (2, 3) and fast[1] == 2
    assert suppressed == cancelled == []


def test_copy_dominated_only_by_the_second_in_flight_copy(monkeypatch):
    # in flight: a 2-hop copy due 0.005 and a 4-hop copy due 0.003, neither
    # a no-op given the other; a 4-hop copy due 0.004 is one given the second
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.005, 2, 1), (0.0005, 2, 0.0025, 4, 1), (0.001, 1, 0.003, 4, 1)]))
    assert fast == ref and fast[0][:2] == (1, 2)
    assert suppressed == [("0.004000", "n0", "sreqmsg")] and cancelled == []


def test_strictly_earlier_copy_cancels_the_later(monkeypatch):
    # due 0.002 with no more hops, the second copy makes the first (due
    # 0.003) a no-op: it stays scheduled until then, and is cancelled
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.003, 3, 2), (0.001, 2, 0.001, 3, 2)], make=_rreq))
    assert fast == ref and fast[0][:2] == (2, 3) and fast[2] == [4]
    assert cancelled == [("0.003000", "n0", "rreq")]
    assert ("0.003000", "n0", "rreq") not in suppressed
    # with more hops it cancels nothing: both are delivered, the first improves
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.003, 3, 2), (0.001, 2, 0.001, 4, 2)], make=_rreq))
    assert fast == ref and fast[0][:2] == (1, 3) and fast[2] == [5, 4]
    assert cancelled == []


def test_strictly_earlier_sreq_copy_cancels_the_later(monkeypatch):
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.003, 3, 2), (0.001, 2, 0.001, 3, 2)]))
    assert fast == ref and fast[0][:2] == (2, 3) and fast[2] == [4]
    assert cancelled == [("0.003000", "n0", "sreqmsg")]
    assert ("0.003000", "n0", "sreqmsg") not in suppressed
    # with more hops the first copy is delivered second: it improves the
    # route, and only the copy that arrived first is forwarded
    fast, ref, suppressed, cancelled, *_ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.003, 3, 2), (0.001, 2, 0.001, 4, 2)]))
    assert fast == ref and fast[0][:2] == (1, 3) and fast[1] == 3 and fast[2] == [5]
    assert cancelled == []


def test_advert_cancelled_by_a_copy_due_earlier(monkeypatch):
    # the same advert from both senders: the copy due 0.002 marks it seen,
    # so the one due 0.003 is cancelled; one due 0.004 is never scheduled
    copies = [(0.0, 1, 0.003, 1, 1), (0.001, 2, 0.001, 2, 1), (0.0015, 1, 0.0025, 1, 1)]
    fast, ref, suppressed, cancelled, *_ = _flood_runs(
        monkeypatch, _line_run(copies, make=_advert))
    assert fast == ref and fast[0][:2] == (2, 2)
    assert cancelled == [("0.003000", "n0", "advertmsg")]
    assert suppressed == [("0.004000", "n0", "advertmsg")]


def _run_to_end(build):
    """`build(trace) -> (kernel, network, outcome)` as a `_flood_runs` scenario."""
    def run(trace):
        k, _, outcome = build(trace)
        k.run_until(k.end)
        return outcome()
    return run


def _assert_conservation(build):
    """Every neighbour of a broadcast is either scheduled or counted in
    `suppressed_msgs`, and some are suppressed."""
    k, net, _ = build(None)
    counts = {"copies": 0, "scheduled": 0}
    real_broadcast, real_schedule = net.broadcast, k.schedule

    def broadcast(src, msg):
        counts["copies"] += len(net.adjacency.get(src, ()))
        real_broadcast(src, msg)

    def schedule(at, fn, **kwargs):
        counts["scheduled"] += kwargs.get("kind") in ("rreq", "sreqmsg", "advertmsg")
        return real_schedule(at, fn, **kwargs)
    net.broadcast, k.schedule = broadcast, schedule
    k.run_until(k.end)
    assert net.suppressed_msgs > 0
    assert counts["copies"] == counts["scheduled"] + net.suppressed_msgs
    # in-flight records are dropped on arrival: only copies due after the end remain
    for p in net.protocols.values():
        due = [copy for copies in p._flood_due.values() for copy in copies]
        due += getattr(p, "_advert_due", {}).values()
        assert all(at > k.end for at, *_ in due)


def _aodv_flood(seed):
    def build(trace):
        k = Kernel(seed=seed, end=8.0, trace=trace)
        nodes = place_uniform(25, Area(700.0, 700.0), _rng(seed))
        net = Network(k, nodes)
        protos = {n.id: AodvNode(n.id, net) for n in nodes}
        rng = _rng(seed + 100)
        for i in range(12):  # overlapping floods from several origins
            src, dst = (int(v) for v in rng.choice(len(nodes), size=2, replace=False))
            k.schedule(0.002 * i, protos[src].send_data, args=(dst, f"p{i}"))

        def outcome():
            return [({d: (e.next_hop, e.hop_count, e.dest_sequence)
                      for d, e in p.routes.items()},
                     p.delivered, p.rreq_forwards, p.dropped_replies)
                    for p in protos.values()]
        return k, net, outcome
    return build


@pytest.mark.parametrize("seed", [1, 2])
def test_aodv_rreq_floods_match_reference(monkeypatch, seed):
    fast, ref, suppressed, cancelled, _, duplicates = _flood_runs(
        monkeypatch, _run_to_end(_aodv_flood(seed)))
    assert fast == ref
    assert cancelled and duplicates == {}
    assert suppressed and {kind for _, _, kind in suppressed} == {"rreq"}
    assert any(delivered for _, delivered, _, _ in fast)
    _assert_conservation(_aodv_flood(seed))


def _discovery_flood(seed):
    def build(trace):
        k = Kernel(seed=seed, end=30.0, trace=trace)
        nodes = place_uniform(30, Area(600.0, 600.0), _rng(seed))
        net = Network(k, nodes)
        protos = [DiscoveryNode(n.id, net, advert_interval_s=5.0) for n in nodes]
        for i, p in enumerate(protos[:3]):
            p.host_service(f"svc-{i}")
            k.schedule(0.5 * i, p.start_advertising)
        results = []
        rng = _rng(seed + 200)
        for i in range(20):
            node = protos[int(rng.integers(3, len(protos)))]
            k.schedule(1.0 + 0.01 * i, node.discover,
                       args=(f"svc-{int(rng.integers(0, 4))}", None, results.append))
        return k, net, lambda: results
    return build


def test_discovery_floods_match_reference(monkeypatch):
    fast, ref, suppressed, cancelled, _, duplicates = _flood_runs(
        monkeypatch, _run_to_end(_discovery_flood(11)))
    assert fast == ref
    assert cancelled and duplicates == {}
    assert {kind for _, _, kind in suppressed} == {"sreqmsg", "advertmsg"}
    assert any(r.timed_out for r in fast) and any(not r.cache_hit and not r.timed_out
                                                   for r in fast)
    _assert_conservation(_discovery_flood(11))


# -- reference: one kernel event per primary-user toggle ------------------------

# the spectrum experiment's fixed constants
REF_MOBILE_STEP_S = 5.0
REF_WAVELENGTH_M = 0.125
REF_HIDDEN_UNITS = 8
REF_BUFFER_CAP = 400
REF_TRAIN_EPOCHS = 150
REF_REFIT_EPOCHS = 15
REF_LEARNING_RATE = 0.2


@dataclass
class RefChannel:
    index: int
    licensed_pu: int


@dataclass
class RefHole:
    channel_index: int
    idle_since: float


@dataclass
class RefUsageLog:
    channel_index: int
    n: int
    durations: list = field(default_factory=list)  # oldest -> newest busy durations
    signal_strength_dbm: float = -60.0
    mobility_mps: float = 0.0
    state: str = "idle"
    state_since: float = 0.0
    last_session_end: float = 0.0


def ref_record_session(log, start, end):
    if end <= start or start < log.last_session_end:
        raise ValueError((start, end))
    log.durations.append(end - start)
    del log.durations[:max(0, len(log.durations) - log.n)]
    log.last_session_end = end


def ref_extract_features(log, t):
    if log.state != "idle":
        raise ValueError(t)
    padded = [0.0] * (log.n - len(log.durations)) + list(log.durations)
    return np.array(padded + [log.signal_strength_dbm, log.mobility_mps, t - log.state_since])


def ref_received_dbm(pu, su, wavelength_m):
    d = max(pu.distance_to(su), EPSILON_DBM_DISTANCE)
    p_w = friis_received_power(PU_TX_POWER_W, wavelength_m, d)
    return 10.0 * math.log10(p_w * 1000.0)


def ref_spectrum_holes(channels, logs, t):
    return [RefHole(ch.index, logs[ch.licensed_pu].state_since) for ch in channels
            if logs[ch.licensed_pu].state == "idle"]


class RefSpectrumSim:
    """Every PU toggle is a kernel event that draws the next duration from the
    PU's own stream, updates a usage log, opens or closes a warm-up sample and
    evicts or serves SUs."""

    def __init__(self, kernel, params, pu_schedules=None):
        self.k = kernel
        self.p = params
        self.area = Area()
        self.pus = place_uniform(params.pu_count, self.area, kernel.stream("spectrum-placement"))
        self.sus = place_uniform(params.su_count, self.area, kernel.stream("su-placement"),
                                 start_id=params.pu_count)
        self.channels = [RefChannel(i, self.pus[i].id) for i in range(params.pu_count)]
        self.logs = {pu.id: RefUsageLog(i, params.n_window) for i, pu in enumerate(self.pus)}
        scale_rng = kernel.stream("pu-params")
        self.scales = {pu.id: scale_rng.uniform(*params.scale_range) for pu in self.pus}
        self.choice_rng = kernel.stream("hole-choice")
        self.model = Mlp.init([params.n_window + 3, REF_HIDDEN_UNITS, 1],
                              kernel.stream("scorer-init"), output_activation="identity")
        self.model_trained = False
        self.refits = 0
        self.assignments = []
        self.open_by_channel = {}
        self.waiting = []
        self.buffer_x = []
        self.buffer_y = []
        self._since_refit = 0
        self._passive_open = {}
        self._busy_start = {}
        self._schedules = pu_schedules
        self._sched_pos = {pu.id: 0 for pu in self.pus}
        self._su_started = False

    def start(self):
        for pu in self.pus:
            self._schedule_toggle(pu.id)
        self.k.schedule(self.p.su_start_s, self._start_sus, kind="su-start")
        self.k.schedule(REF_MOBILE_STEP_S, self._mobility_step, kind="mobility")

    def _next_duration(self, pu_id):
        if self._schedules is not None:
            seq = self._schedules[pu_id]
            pos = self._sched_pos[pu_id]
            self._sched_pos[pu_id] = pos + 1
            return seq[pos] if pos < len(seq) else float("inf")
        return float(self.k.stream(f"pu-activity-{pu_id}").exponential(self.scales[pu_id]))

    def _schedule_toggle(self, pu_id):
        dur = self._next_duration(pu_id)
        if not math.isinf(dur):
            self.k.schedule(self.k.now + dur, lambda p=pu_id: self._toggle(p),
                            target=f"pu{pu_id}", kind="pu-toggle")

    def _mobility_step(self):
        rng = self.k.stream("mobility")
        for node in self.pus + self.sus:
            ref_step_waypoint(node, self.k.now, REF_MOBILE_STEP_S, rng, self.area)
        if self.k.now + REF_MOBILE_STEP_S <= self.k.end:
            self.k.schedule(self.k.now + REF_MOBILE_STEP_S, self._mobility_step,
                            kind="mobility")

    def _toggle(self, pu_id):
        log = self.logs[pu_id]
        now = self.k.now
        if log.state == "idle":
            feats = self._passive_open.pop(pu_id, None)
            if feats is not None:
                self._add_sample(feats, now - log.state_since)
            log.state = "transmitting"
            log.state_since = now
            self._busy_start[pu_id] = now
            open_list = self.open_by_channel.pop(log.channel_index, [])
            for a in open_list:
                a.evicted_at = now
                self._add_sample(a.selection_features, now - a.assigned_at)
            for a in open_list:
                self._select_for(a.su_id, now)
        else:
            ref_record_session(log, self._busy_start[pu_id], now)
            log.state = "idle"
            log.state_since = now
            pu = self.pus[log.channel_index]
            if self.sus:
                log.signal_strength_dbm = ref_received_dbm(pu, self.sus[0], REF_WAVELENGTH_M)
            log.mobility_mps = pu.speed
            if not self._su_started:
                self._passive_open[pu_id] = ref_extract_features(log, now)
            else:
                waiting, self.waiting = self.waiting, []
                for su_id in waiting:
                    self._select_for(su_id, now)
        self._schedule_toggle(pu_id)

    def _add_sample(self, features, realized_idle):
        self.buffer_x.append(features)
        self.buffer_y.append(realized_idle)
        if len(self.buffer_x) > REF_BUFFER_CAP:
            del self.buffer_x[0]
            del self.buffer_y[0]
        self._since_refit += 1
        if self._su_started and self._since_refit >= self.p.refit_interval:
            self._refit()

    def _refit(self):
        self._since_refit = 0
        if self.p.policy != "mlp-history" or len(self.buffer_x) < 10:
            return
        self.refits += 1
        x = np.array(self.buffer_x)
        y = np.array(self.buffer_y)[:, None]
        epochs = REF_REFIT_EPOCHS if self.model_trained else REF_TRAIN_EPOCHS
        train(self.model, x, y, learning_rate=REF_LEARNING_RATE, epochs=epochs,
              standardize=not self.model_trained)
        self.model_trained = True

    def _start_sus(self):
        self._su_started = True
        self._refit()
        for su in self.sus:
            self._select_for(su.id, self.k.now)

    def _hole_features(self, su_id, hole, now):
        log = self.logs[self.channels[hole.channel_index].licensed_pu]
        pu = self.pus[hole.channel_index]
        feats = ref_extract_features(log, now)
        feats[log.n] = ref_received_dbm(pu, self.sus[su_id - self.p.pu_count],
                                        REF_WAVELENGTH_M)
        feats[log.n + 1] = pu.speed
        return feats

    def _select_for(self, su_id, now):
        holes = ref_spectrum_holes(self.channels, self.logs, now)
        if not holes:
            if su_id not in self.waiting:
                self.waiting.append(su_id)
            return
        if self.p.policy == "mlp-history":
            feats = {h.channel_index: self._hole_features(su_id, h, now) for h in holes}
            batch = self.model._standardize(np.array(list(feats.values())))
            raw = self.model._forward_acts(batch)[-1][:, 0]
            scores = {ci: max(0.0, float(r)) for ci, r in zip(feats, raw)}
            best = max(holes, key=lambda h: (scores[h.channel_index], -h.channel_index))
            chosen = best.channel_index
            features = feats[chosen]
        else:
            chosen = holes[int(self.choice_rng.integers(0, len(holes)))].channel_index
            features = self._hole_features(
                su_id, next(h for h in holes if h.channel_index == chosen), now)
        a = SuAssignment(su_id=su_id, channel_index=chosen, assigned_at=now,
                         selection_features=features)
        self.assignments.append(a)
        self.open_by_channel.setdefault(chosen, []).append(a)

    def metric(self):
        return switching_time_metric(self.assignments, self.k.end)


def _run_spectrum(make, seed, params, end, schedules=None, until=None):
    kernel = Kernel(seed=seed, end=end)
    sim = make(kernel, params, pu_schedules=schedules)
    sim.start()
    kernel.run_until(end if until is None else until)
    return sim


def _run_timeline(monkeypatch, seed, params, end, schedules=None, until=None):
    """The timeline `SpectrumSim`, counting its scorer trainings."""
    refits = []

    def counting_train(*args, **kwargs):
        refits.append(1)
        return train(*args, **kwargs)
    monkeypatch.setattr(spectrum, "train", counting_train)
    sim = _run_spectrum(SpectrumSim, seed, params, end, schedules, until)
    monkeypatch.undo()
    return sim, len(refits)


def _outcome(sim, refits):
    """What a run decided. The scorer's input (selection features and the
    training buffer) only under `mlp-history`: the random baseline has none."""
    metric = sim.metric()
    out = {
        "assignments": [(a.su_id, a.channel_index, a.assigned_at, a.evicted_at)
                        for a in sim.assignments],
        "refits": refits,
        "metric": (metric["count"], np.float64(metric["mean"]).tobytes(),
                   np.array(metric["samples"], dtype=float).tobytes()),
        "model": [w.tobytes() for w in sim.model.weights + sim.model.biases],
    }
    if sim.p.policy == "mlp-history":
        out["selection_features"] = [np.asarray(a.selection_features, dtype=float).tobytes()
                                     for a in sim.assignments]
        out["buffer_x"] = [np.asarray(x, dtype=float).tobytes() for x in sim.buffer_x]
        out["buffer_y"] = np.array(sim.buffer_y, dtype=float).tobytes()
    return out


def _assert_same_outcome(monkeypatch, seed, params, end, schedules=None):
    copy = None if schedules is None else {k: list(v) for k, v in schedules.items()}
    ref = _run_spectrum(RefSpectrumSim, seed, params, end, copy)
    fast = _outcome(*_run_timeline(monkeypatch, seed, params, end, schedules))
    expected = _outcome(ref, ref.refits)
    assert fast == expected
    return fast


@pytest.mark.parametrize("su_start_s", [0.0, 37.3, 100.0])
@pytest.mark.parametrize("pu_count", [1, 5, 25])
@pytest.mark.parametrize("policy", ["mlp-history", "random-baseline"])
def test_spectrum_timeline_matches_event_per_toggle(monkeypatch, policy, pu_count, su_start_s):
    params = SpectrumParams(pu_count=pu_count, su_count=4, policy=policy,
                            su_start_s=su_start_s, refit_interval=40)
    evictions = 0
    for seed in (3, 17, 29):
        out = _assert_same_outcome(monkeypatch, seed, params, 240.0)
        evictions += sum(a[3] is not None for a in out["assignments"])
    assert evictions > 0
    if policy == "mlp-history" and pu_count > 1:
        assert out["refits"] > 1


EDGE_SCHEDULES = {
    # off the 5 s mobility grid and free of ties, so every order is the same
    "exhausted": {0: [12.3, 4.1, 7.7, math.inf, 3.0], 1: [2.2, 30.9, 11.1],
                  2: [0.7, 1.3, 2.9, 8.6, 14.2, 3.3, 6.1, 9.9]},
    "pu-without-toggles": {0: [], 1: [3.3, 11.9, 21.9, 42.1], 2: [6.6, 1.2]},
}


@pytest.mark.parametrize("su_start_s", [0.0, 37.3, 100.0])
@pytest.mark.parametrize("policy", ["mlp-history", "random-baseline"])
@pytest.mark.parametrize("name", sorted(EDGE_SCHEDULES))
def test_spectrum_hand_schedules_match_event_per_toggle(monkeypatch, name, policy,
                                                        su_start_s):
    params = SpectrumParams(pu_count=3, su_count=2, policy=policy, su_start_s=su_start_s,
                            refit_interval=2)
    for seed in (4, 9):
        out = _assert_same_outcome(monkeypatch, seed, params, 300.0, EDGE_SCHEDULES[name])
        assert out["assignments"]


def test_spectrum_su_start_past_horizon(monkeypatch):
    # no SU ever starts: nothing is assigned and the scorer never trains. The
    # reference fills its buffer with warm-up samples nothing reads; the
    # timeline adds warm-up samples at SU start, so its buffer stays empty.
    params = SpectrumParams(pu_count=5, su_count=3, su_start_s=400.0)
    ref = _run_spectrum(RefSpectrumSim, 8, params, 300.0)
    sim, refits = _run_timeline(monkeypatch, 8, params, 300.0)
    fast, expected = _outcome(sim, refits), _outcome(ref, ref.refits)
    assert ref.buffer_x and not sim.buffer_x
    for key in ("assignments", "refits", "metric", "model"):
        assert fast[key] == expected[key]
    assert fast["assignments"] == [] and fast["refits"] == 0


@pytest.mark.parametrize("scale", [0.2, 1.37, 2.6])
def test_block_exponentials_equal_scalar_draws(scale):
    block, scalar = _rng(31), _rng(31)
    drawn = (block.standard_exponential(2500) * scale).tolist()
    assert drawn == [float(scalar.exponential(scale)) for _ in range(2500)]
    assert block.random() == scalar.random()


def test_spectrum_tie_order_on_hand_schedules():
    """Drawn toggle times never tie; hand-written ones can. Two ties, pinned.

    1. A busy start on a mobility tick (t = 5). The reference's toggle event
       was scheduled at t = 0, before the tick, so it evicts with the old
       positions. The timeline arms the event when the SU is assigned (t = 1),
       after the tick at 5 was scheduled (t = 0, at start), so the evicted SU
       reselects with the positions and speeds the tick set.
    2. Two toggles at one instant (t = 41): the SU's channel goes busy while
       the only other channel also goes busy. The reference runs the two
       toggles one after the other, and between them it assigns the SU to the
       second channel and evicts it at once. On the timeline both toggles have
       happened for every event at 41: the SU waits until t = 61.
    """
    params = SpectrumParams(pu_count=2, su_count=1, policy="mlp-history", su_start_s=1.0)
    n = params.n_window
    tick = {0: [5.0, 50.0], 1: [0.5, 2.0]}
    ref = _run_spectrum(RefSpectrumSim, 5, params, 60.0, {k: list(v) for k, v in tick.items()},
                        until=5.0)
    sim = _run_spectrum(SpectrumSim, 5, params, 60.0, tick, until=5.0)
    for s in (ref, sim):
        assert [(a.channel_index, a.assigned_at, a.evicted_at) for a in s.assignments] == [
            (0, 1.0, 5.0), (1, 5.0, None)]
    moved_speed = sim.pus[1].speed
    assert moved_speed > 0.0  # the tick at 5 started the PU moving
    assert ref.assignments[1].selection_features[n + 1] == 0.0
    assert sim.assignments[1].selection_features[n + 1] == moved_speed
    assert sim.assignments[1].selection_features[n] == ref_received_dbm(
        sim.pus[1], sim.sus[0], REF_WAVELENGTH_M)

    same_instant = {0: [41.0, 20.0], 1: [0.5, 1.0, 39.5, 30.0]}
    ref = _run_spectrum(RefSpectrumSim, 5, params, 100.0,
                        {k: list(v) for k, v in same_instant.items()})
    sim = _run_spectrum(SpectrumSim, 5, params, 100.0, same_instant)
    assert [(a.channel_index, a.assigned_at, a.evicted_at) for a in ref.assignments] == [
        (0, 1.0, 41.0), (1, 41.0, 41.0), (0, 61.0, None)]
    assert [(a.channel_index, a.assigned_at, a.evicted_at) for a in sim.assignments] == [
        (0, 1.0, 41.0), (0, 61.0, None)]


@pytest.mark.parametrize("policy,expected", [
    ("mlp-history", [(5, 1, 1.0, 41.0), (6, 2, 1.0, 41.0), (5, 3, 41.0, None),
                     (6, 3, 41.0, None)]),
    ("random-baseline", [(5, 2, 1.0, 41.0), (6, 1, 1.0, 41.0), (5, 4, 41.0, 65.5),
                         (6, 3, 41.0, None), (5, 3, 65.5, None)]),
])
def test_spectrum_two_evictions_at_one_instant_on_hand_schedules(policy, expected):
    """The two SUs hold channels that go busy at one instant (t = 41, off the
    mobility grid). Each busy start is its own event, so the SUs reselect one
    after the other at one time with no tick in between, from the holes at
    41: channels 3 and 4. Pinned, as the reference runs tied toggles in
    another order. The `mlp-history` picks at 1 were re-pinned when SUs
    began to be placed from their own stream: the scorer sees them elsewhere."""
    schedule = {0: [41.0, 20.0], 1: [41.0, 25.0], 2: [41.0, 30.0],
                3: [0.5, 20.0], 4: [0.5, 30.0, 35.0, 10.0]}
    params = SpectrumParams(pu_count=5, su_count=2, policy=policy, su_start_s=1.0)
    n = params.n_window
    # (busy durations, idle since) of each hole chosen: every hole at 1 has
    # been idle since 0, and channel 3 at 41 since its 20 s busy period ended
    history = {(1.0, c): ([], 0.0) for c in (0, 1, 2)}
    history[41.0, 3] = ([20.0], 20.5)
    kernel = Kernel(seed=2, end=100.0)
    sim = SpectrumSim(kernel, params, pu_schedules=schedule)
    sim.start()
    for now in (1.0, 41.0):
        kernel.run_until(now)  # positions and speeds are those of the selections
        chosen = [a for a in sim.assignments if a.assigned_at == now]
        assert len(chosen) == 2
        for a in chosen:
            if policy == "random-baseline":
                assert a.selection_features is None
                continue
            busy, since = history[now, a.channel_index]
            pu, su = sim.pus[a.channel_index], sim.sus[a.su_id - params.pu_count]
            assert a.selection_features.tolist() == [0.0] * (n - len(busy)) + busy + [
                ref_received_dbm(pu, su, REF_WAVELENGTH_M), pu.speed, now - since]
    kernel.run_until(100.0)
    assert [(a.su_id, a.channel_index, a.assigned_at, a.evicted_at)
            for a in sim.assignments] == expected


# -- reference: allocating MLP arithmetic -----------------------------------------
#
# Each expression is the one the in-place passes of `crahnsim.mlp` replay
# operation by operation; a regrouped operation changes the last bits.

def ref_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def ref_standardize(model, x):
    return (x - model.feat_mean) / model.feat_std


def ref_forward_acts(model, x):
    acts = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        acts.append(z if i == last and model.output_activation == "identity"
                    else ref_sigmoid(z))
    return acts


def ref_batch_loss(model, out, y):
    if model.output_activation == "sigmoid":
        eps = 1e-12
        return float(np.mean(np.sum(
            -(y * np.log(out + eps) + (1 - y) * np.log(1 - out + eps)), axis=1)))
    return float(np.mean(0.5 * np.sum((out - y) ** 2, axis=1)))


def ref_backprop(model, acts, y):
    n = acts[0].shape[0]
    delta = (acts[-1] - y) / n
    grads_w, grads_b = [], []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(acts[layer].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            a = acts[layer]
            delta = (delta @ model.weights[layer].T) * a * (1.0 - a)
    return list(reversed(grads_w)), list(reversed(grads_b))


def ref_train(model, x, y, learning_rate, epochs, standardize=True):
    if standardize:
        model.feat_mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-9] = 1.0
        model.feat_std = std
    xs = ref_standardize(model, x)
    losses = []
    for _ in range(epochs):
        acts = ref_forward_acts(model, xs)
        losses.append(ref_batch_loss(model, acts[-1], y))
        gw, gb = ref_backprop(model, acts, y)
        for w, b, dw, db in zip(model.weights, model.biases, gw, gb):
            w -= learning_rate * dw
            b -= learning_rate * db
    return losses


MLP_NETS = {"2-layer": [5, 7, 2], "3-layer": [5, 6, 4, 1]}


def _mlp_case(sizes, activation, seed):
    """A model and 30 rows of raw data: columns on different scales, one constant."""
    rng = _rng(seed)
    scale = [3.0, 0.5, 40.0, 1.0, 0.0]
    shift = [1.0, -2.0, 7.0, 0.0, 4.0]
    x = rng.normal(0.0, 1.0, (30, sizes[0])) * scale + shift
    y = (rng.random((30, sizes[-1])) if activation == "sigmoid"
         else rng.normal(2.0, 3.0, (30, sizes[-1])))
    return Mlp.init(sizes, rng, output_activation=activation), x, y


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("activation", ["sigmoid", "identity"])
@pytest.mark.parametrize("net", sorted(MLP_NETS))
def test_mlp_passes_match_allocating_reference(net, activation, standardize):
    model, x, y = _mlp_case(MLP_NETS[net], activation, seed=61)
    ref = dataclasses.replace(model, weights=[w.copy() for w in model.weights],
                              biases=[b.copy() for b in model.biases])
    lr = 0.5 if activation == "sigmoid" else 0.05
    losses = train(model, x, y, learning_rate=lr, epochs=50, standardize=standardize)
    assert losses == ref_train(ref, x, y, lr, 50, standardize)
    for got, want in zip(model.weights + model.biases + [model.feat_mean, model.feat_std],
                         ref.weights + ref.biases + [ref.feat_mean, ref.feat_std]):
        assert np.array_equal(got, want)

    for rows in (x[:1], x[7:19]):
        want = ref_forward_acts(ref, ref_standardize(ref, rows))[-1]
        assert np.array_equal(model.predict(rows), want)
    arrays = model.weights + model.biases
    got_w, got_b = gradients(model, x, y)
    assert all(a is b for a, b in zip(model.weights + model.biases, arrays))
    want_w, want_b = ref_backprop(ref, ref_forward_acts(ref, ref_standardize(ref, x)), y)
    for got, want in zip(got_w + got_b, want_w + want_b):
        assert np.array_equal(got, want)


def test_sigmoid_matches_allocating_reference():
    z = np.concatenate([np.linspace(-800.0, 800.0, 97), [0.0, -0.0, 1e-300]])
    assert np.array_equal(_sigmoid_in_place(z.copy()), ref_sigmoid(z))


# -- draw helpers against numpy's scalar calls -----------------------------------

UNIFORM_BOUNDS = [(0, 1), (0, 1000.0), (0.0, 600), (3, 11), (-7, -2), (-7.5, -2.25),
                  (-3.0, 4.5), (2.5, 2.5), (0, 0), (-0.0, 0.0), (-1e300, 1e300),
                  (1e-300, 3e-300), (4.0, 10.0)]


def _random_bounds(rng, count):
    """Pairs low <= high on scales from 1e-3 to 1e5, some of them negative."""
    scales = 10.0 ** rng.integers(-3, 6, count)
    return [tuple(sorted(rng.normal(0.0, scale, 2).tolist())) for scale in scales]


@pytest.mark.parametrize("seed", range(40))
def test_draw_uniform_matches_generator_uniform(seed):
    fast, ref = _rng(seed), _rng(seed)
    for low, high in UNIFORM_BOUNDS + _random_bounds(_rng(1000 + seed), 200):
        got, want = draw_uniform(fast, low, high), ref.uniform(low, high)
        assert (type(got), got.hex()) == (type(want), want.hex()), (low, high)
        # the stream is left where numpy leaves it
        assert fast.random() == ref.random()


@pytest.mark.parametrize("low,high", [(1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0),
                                      (0.0, -math.inf), (math.nan, 1.0), (0.0, math.nan),
                                      (-1e308, 1e308), (math.inf, math.inf),
                                      (-math.inf, -math.inf)])
def test_draw_uniform_raises_as_generator_uniform_does_and_draws_nothing(low, high):
    fast, ref = _rng(3), _rng(3)
    with pytest.raises((ValueError, OverflowError)) as want:
        ref.uniform(low, high)
    with pytest.raises(want.type, match=str(want.value)):
        draw_uniform(fast, low, high)
    assert fast.random() == ref.random() == _rng(3).random()


BOUNDED_NS = [1, 2, 3, 7, 25, 1000, 2**31 + 1, 2**32 - 1, 2**32]


class _CountingStream:
    """A generator whose `integers` calls are recorded."""

    def __init__(self, seed):
        self.rng, self.sizes = _rng(seed), []

    def integers(self, *args, **kwargs):
        self.sizes.append(args[2])
        return self.rng.integers(*args, **kwargs)


def test_bounded_draws_match_generator_integers_across_blocks():
    rejected = 0
    for seed in range(30):
        ns = [BOUNDED_NS[i] for i in _rng(500 + seed).integers(0, len(BOUNDED_NS), 400)]
        stream = _CountingStream(seed)
        draw = bounded_draws(stream, 3)  # refills fall inside rejection runs
        ref = _rng(seed)
        assert [draw(n) for n in ns] == [int(ref.integers(0, n)) for n in ns]
        # the words used are at least those of all full blocks and one more;
        # beyond one per draw with n > 1, each is a rejected try
        rejected += 3 * len(stream.sizes) - 2 - sum(n > 1 for n in ns)
    # 2**31 + 1 rejects about half of its tries, about 1,300 in all
    assert rejected > 1000


def test_bounded_draw_of_one_value_reads_no_word():
    stream = _CountingStream(4)
    draw = bounded_draws(stream, 3)
    assert [draw(1) for _ in range(10)] == [0] * 10
    assert stream.sizes == []
    ref = _rng(4)
    assert [int(ref.integers(0, 1)) for _ in range(10)] == [0] * 10
    # numpy draws nothing either
    assert ref.random() == _rng(4).random()


class _WordStream:
    """A stream whose 32-bit words are given."""

    def __init__(self, words):
        self.words = list(words)

    def integers(self, low, high, size, dtype):
        if not self.words:
            raise AssertionError("more words read than given")
        block, self.words = self.words[:size], self.words[size:]
        return np.array(block, dtype=dtype)


def test_bounded_draw_rejects_exactly_below_the_lemire_threshold():
    # n = 3: a word u gives u * 3 = m; numpy rejects while m mod 2**32 is
    # below (2**32 - 3) % 3 = 1 and returns m >> 32. u = 0 leaves 0 (reject);
    # u = 2863311531, the inverse of 3 mod 2**32, leaves exactly 1 (accept,
    # m >> 32 = 2); u = 2**32 - 1 leaves 2**32 - 3 (accept, 2)
    draw = bounded_draws(_WordStream([0, 2863311531, 2**32 - 1, 5]), 2)
    assert [draw(3), draw(3), draw(3)] == [2, 2, 0]


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_bounded_draw_outside_one_to_two_to_the_32_raises(n):
    stream = _CountingStream(5)
    with pytest.raises(ValueError, match="bounded draw"):
        bounded_draws(stream, 3)(n)
    assert stream.sizes == []


def test_query_requester_draw_matches_generator_choice():
    # run_discovery_replication draws each query's requester from the shared
    # `queries` stream as ids[integers(0, len(ids))]: numpy's choice(ids)
    for seed in range(60):
        for size in (1, 2, 3, 12, 50, 257):
            ids = list(range(100, 100 + 3 * size, 3))
            fast, ref = _rng(seed), _rng(seed)
            for _ in range(5):
                got = ids[int(fast.integers(0, len(ids)))]
                want = ref.choice(ids)
                assert got == want and type(got) is int
                # the stream is left where numpy leaves it
                assert fast.random() == ref.random()


# -- the stacking premise -----------------------------------------------------------
#
# One forward pass over a stack of hole batches, and one lockstep training of
# several models, give every batch and every model the floats it gets alone.

@pytest.mark.parametrize("activation", ["sigmoid", "identity"])
def test_stacked_forward_pass_equals_predict_per_batch(activation):
    rng = _rng(71)
    for features in (3, 8):
        model = Mlp.init([features, 8, 1], rng, output_activation=activation)
        model.feat_mean = rng.normal(0.0, 2.0, features)
        model.feat_std = rng.uniform(0.5, 3.0, features)
        for holes in range(1, 26):
            for stack in range(1, 6):
                batches = rng.normal(0.0, 4.0, (stack, holes, features))
                got = model.predict(batches)
                for batch, scores in zip(batches, got):
                    assert _same_bits(scores, model.predict(batch))


def _lockstep_case(rng, activation):
    """1-5 models of random depth, sharing every layer size past the input,
    with random input widths and row counts from one row up."""
    hidden = [int(n) for n in rng.integers(1, 11, int(rng.integers(0, 3)))]
    outputs = int(rng.integers(1, 6))
    rows = int(rng.choice([1, 2, 5, 40, 300]))
    models, xs, ys = [], [], []
    for _ in range(int(rng.integers(1, 6))):
        width = int(rng.integers(1, 16))
        models.append(Mlp.init([width] + hidden + [outputs], rng, output_activation=activation))
        xs.append(rng.normal(0.0, 1.0, (rows, width)) * rng.uniform(0.1, 20.0, width))
        ys.append(rng.random((rows, outputs)) if activation == "sigmoid"
                  else rng.normal(1.0, 3.0, (rows, outputs)))
    return models, xs, ys


def _params_of(model):
    return model.weights + model.biases + [model.feat_mean, model.feat_std]


def _copy_model(model):
    return dataclasses.replace(model, weights=[w.copy() for w in model.weights],
                               biases=[b.copy() for b in model.biases])


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("activation", ["sigmoid", "identity"])
@pytest.mark.parametrize("seed", range(8))
def test_lockstep_training_equals_train_model_by_model(seed, activation, standardize):
    rng = _rng(900 + seed)
    lr = 0.5 if activation == "sigmoid" else 0.05
    for _ in range(6):
        models, xs, ys = _lockstep_case(rng, activation)
        alone = [_copy_model(m) for m in models]
        ref = [_copy_model(m) for m in models]
        epochs = int(rng.integers(1, 25))
        losses = train(models, xs, ys, learning_rate=lr, epochs=epochs, standardize=standardize)
        assert len(losses) == epochs
        for k, (model, lone, r, x, y) in enumerate(zip(models, alone, ref, xs, ys)):
            lone_losses = train(lone, x, y, learning_rate=lr, epochs=epochs,
                                standardize=standardize)
            assert [epoch[k] for epoch in losses] == lone_losses
            assert lone_losses == ref_train(r, x, y, lr, epochs, standardize)
            for got, want, reference in zip(_params_of(model), _params_of(lone), _params_of(r)):
                assert _same_bits(got, want) and _same_bits(got, reference)


@pytest.mark.parametrize("activation", ["sigmoid", "identity"])
def test_train_warm_starts_from_the_previous_call(activation):
    # the spectrum scorer's refits train again, standardization frozen, a
    # model whose parameters the previous call left as views of its stack
    rng = _rng(31)
    lr = 0.5 if activation == "sigmoid" else 0.05

    def batch(width, rows):
        x = rng.normal(0.0, 1.0, (rows, width)) * rng.uniform(0.1, 20.0, width)
        y = rng.random((rows, 2)) if activation == "sigmoid" else rng.normal(1.0, 3.0, (rows, 2))
        return x, y

    def assert_same_models(got, want):
        for model, ref in zip(got, want):
            for a, b in zip(_params_of(model), _params_of(ref)):
                assert _same_bits(a, b)

    model = Mlp.init([4, 6, 5, 2], rng, output_activation=activation)
    ref = _copy_model(model)
    for (x, y), epochs, standardize in ((batch(4, 30), 20, True), (batch(4, 37), 9, False),
                                        (batch(4, 3), 4, False)):
        assert train(model, x, y, learning_rate=lr, epochs=epochs,
                     standardize=standardize) == ref_train(ref, x, y, lr, epochs, standardize)
        assert_same_models([model], [ref])

    models = [Mlp.init([width, 5, 2], rng, output_activation=activation) for width in (3, 7)]
    refs = [_copy_model(m) for m in models]
    data = [batch(3, 40), batch(7, 40)]
    losses = train(models, [x for x, _ in data], [y for _, y in data], learning_rate=lr,
                   epochs=12)
    for k, (r, (x, y)) in enumerate(zip(refs, data)):
        assert [epoch[k] for epoch in losses] == ref_train(r, x, y, lr, 12)
    assert_same_models(models, refs)
    for model, r, width in zip(models, refs, (3, 7)):
        x, y = batch(width, 25)
        assert train(model, x, y, learning_rate=lr, epochs=8,
                     standardize=False) == ref_train(r, x, y, lr, 8, standardize=False)
    assert_same_models(models, refs)


@pytest.mark.parametrize("features", [3, 9, 15])
def test_one_row_slices_equal_one_row_predict(features):
    rng = _rng(features)
    model = Mlp.init([features, 8, 1], rng, output_activation="sigmoid")
    model.feat_mean = rng.normal(0.0, 1.0, features)
    model.feat_std = rng.uniform(0.2, 2.0, features)
    rows = rng.normal(0.0, 3.0, (400, features))
    # outputs near 0.5, where a last-bit difference would flip a verdict
    rows[:200] = model.feat_mean + rng.normal(0.0, 1e-3, (200, features))
    out = model.predict(rows[:, np.newaxis, :])
    assert out.shape == (400, 1, 1)
    for row, got in zip(rows, out):
        assert _same_bits(got[0], model.predict(row[np.newaxis])[0])
    verdicts = [detect(row, model) == DISASTER_HAPPENED for row in rows]
    assert (out[:, 0, 0] > 0.5).tolist() == verdicts


def test_detector_validation_equals_classifying_each_row():
    rng = _rng(5)
    xs = [rng.normal(0.0, 1.0, (60, 3 * c)) for c in (1, 4)]
    ys = [(x[:, :1] > 0).astype(float) for x in xs]
    trained = train_detector([_rng(10), _rng(11)], [_rng(20), _rng(21)], xs, ys, epochs=30)
    for (model, stats), x, y, split_seed in zip(trained, xs, ys, (20, 21)):
        va = _rng(split_seed).permutation(len(x))[int(0.8 * len(x)):]
        verdicts = [detect(row, model) == DISASTER_HAPPENED for row in x[va]]
        assert stats["val_accuracy"] == float(np.mean(
            np.array(verdicts) == (y[va][:, 0] > 0.5)))


def test_lockstep_stack_with_one_diverging_model():
    # model 1 diverges as the lone model of tests/test_mlp.py does; model 0
    # is fitted exactly (its delta is zero) and never changes
    diverging = Mlp.init([1, 2, 1], _rng(0), output_activation="identity")
    x1 = np.array([[1e3], [-1e3]])
    y1 = x1.copy()
    steady = Mlp.init([2, 2, 1], _rng(1), output_activation="identity")
    x0 = np.array([[0.3, -1.2], [2.0, 0.5]])
    y0 = steady.predict(x0).copy()
    lone, ref, ref_to_failure = (_copy_model(diverging) for _ in range(3))
    steady_before = [p.copy() for p in _params_of(steady)]
    with np.errstate(over="ignore", invalid="ignore"):
        ref_losses = ref_train(ref, x1, y1, 1e9, 60, standardize=False)
        epoch = next(i for i, loss in enumerate(ref_losses, 1) if not math.isfinite(loss))
        ref_train(ref_to_failure, x1, y1, 1e9, epoch, standardize=False)
    # every warning is an error here: none escapes training
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as lone_error:
            train(lone, x1, y1, learning_rate=1e9, epochs=60, standardize=False)
        with pytest.raises(DivergenceError) as stack_error:
            train([steady, diverging], [x0, x1], [y0, y1], learning_rate=1e9, epochs=60,
                  standardize=False)
    assert str(lone_error.value) == f"non-finite loss at epoch {epoch} in model 0"
    assert str(stack_error.value) == f"non-finite loss at epoch {epoch} in model 1"
    # the models hold what training did up to the failing epoch
    for got, lone_got, want in zip(_params_of(diverging), _params_of(lone),
                                   _params_of(ref_to_failure)):
        assert _same_bits(got, want) and _same_bits(lone_got, want)
    for got, want in zip(_params_of(steady), steady_before):
        assert _same_bits(got, want)
