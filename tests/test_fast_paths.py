"""Fast paths against the slow reference code they replace, bit for bit.

The reference functions below are the scalar, one-record-at-a-time and
per-neighbour forms: sensor synthesis one instant and one sensor at a time,
per-cluster reduction over Python lists, an `order=True` dataclass event
heap, one MAC delay draw per neighbour, and a spectrum simulation with one
kernel event per primary-user toggle. The fast paths must give the same
floats, the same draw order and the same event trace.
"""

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import pytest

from crahnsim import experiments, mobility, routing, spectrum
from crahnsim.detection import (POLL_PERIOD_S, Deployment, DisasterEvent, NOISE_SIGMA,
                                SIGNAL_DECAY_M, context_record, deploy, make_training_set,
                                sensor_magnitudes, window_times)
from crahnsim.discovery import (AdvertMsg, DiscoveryNode, ServiceCacheEntry,
                                ServiceDescriptor, SreqMsg, SrepMsg)
from crahnsim.kernel import Kernel, PastTimeError
from crahnsim.mlp import Mlp, TrainConfig, train
from crahnsim.mobility import (Area, NodeState, connectivity_components, friis_received_power,
                               neighbor_graph, place_uniform, step_waypoint)
from crahnsim.routing import AodvNode, DataMsg, Network, Rrep, Rreq
from crahnsim.scenario import ScenarioConfig
from crahnsim.spectrum import (EPSILON_DBM_DISTANCE, Channel, SpectrumHole, SpectrumParams,
                               SpectrumSim, SuAssignment, select_hole, switching_time_metric)


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


# -- reference: edge-loop neighbour graph, union-find components, two-pass
# -- cache lookup, isinstance dispatch ------------------------------------------

def ref_neighbor_graph(nodes):
    adj = {n.id: set() for n in nodes}
    if len(nodes) < 2:
        return adj
    pos = np.array([[n.x, n.y] for n in nodes])
    rng_m = np.array([n.radio_range_m for n in nodes])
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
    limit = np.minimum(rng_m[:, None], rng_m[None, :]) ** 2
    ii, jj = np.nonzero(np.triu(d2 <= limit, k=1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        adj[nodes[i].id].add(nodes[j].id)
        adj[nodes[j].id].add(nodes[i].id)
    return adj


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
    now = node.net.k.now
    live = [e for e in node.cache.values() if e.expires_at > now]
    for predicate in ((lambda e: service_id is not None and e.descriptor.service_id == service_id),
                      (lambda e: ontology_tag is not None
                       and e.descriptor.ontology_tag == ontology_tag)):
        hits = [e for e in live if predicate(e)]
        if hits:
            return min(hits, key=lambda e: (len(e.descriptor.advertised_route),
                                            e.descriptor.provider))
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
    """Nodes with non-contiguous ids in shuffled order and unequal radio ranges."""
    ids = rng.choice(10 * count + 10, size=count, replace=False).tolist()
    return [NodeState(id=int(i), x=float(rng.uniform(0, side)), y=float(rng.uniform(0, side)),
                      radio_range_m=float(rng.uniform(40.0, 300.0))) for i in ids]


@pytest.mark.parametrize("count", [0, 1, 2, 3, 17, 60])
@pytest.mark.parametrize("seed", range(4))
def test_neighbor_graph_matches_edge_loop(seed, count):
    nodes = _scattered_nodes(_rng(seed), count)
    got, ref = neighbor_graph(nodes), ref_neighbor_graph(nodes)
    assert got == ref
    assert list(got) == [n.id for n in nodes]
    if count == 60:
        assert 0 < sum(map(len, got.values())) < 60 * 59  # neither empty nor complete


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
    """Random caches with expired entries, route-length ties between providers,
    ties on (route length, provider) between services of one tag, and tag-only
    hits; the very same entry must come back."""
    rng = _rng(41)
    seen = {"expired-skipped": 0, "tag-only": 0, "tie": 0, "none": 0}
    for trial in range(150):
        k = Kernel(seed=trial, end=1000.0)
        net = Network(k, [NodeState(id=0, x=0.0, y=0.0)])
        node = DiscoveryNode(0, net)
        for _ in range(int(rng.integers(0, 25))):
            provider = int(rng.integers(1, 5))
            sid = f"svc-{int(rng.integers(0, 6))}"
            desc = ServiceDescriptor(
                service_id=sid, provider=provider, ontology_tag=f"tag-{int(rng.integers(0, 3))}",
                advertised_route=[provider] + [9] * int(rng.integers(0, 3)),
                ttl_s=float(rng.choice([5.0, 30.0])))
            node.cache[(sid, provider)] = ServiceCacheEntry(
                descriptor=desc, learned_at=float(rng.integers(0, 40)))
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
            key = (len(ref.descriptor.advertised_route), ref.descriptor.provider)
            seen["tie"] += sum(
                (len(e.descriptor.advertised_route), e.descriptor.provider) == key
                and e.expires_at > k.now and e.descriptor.ontology_tag == tag
                for e in node.cache.values()) > 1
    assert min(seen.values()) > 5, seen


# -- reference: every broadcast copy scheduled -----------------------------------

def _node_state(node):
    """What a delivery may change at its receiver, as plain comparable values."""
    state = [{d: (e.next_hop, e.hop_count, e.dest_sequence, e.expires_at)
              for d, e in node.routes.items()},
             dict(node._rreq_best), node.sequence, node.net.k._next_id]
    if isinstance(node, DiscoveryNode):
        state += [dict(node._sreq_best), frozenset(node._advert_seen),
                  {key: (e.learned_at, e.descriptor.issued_at,
                         tuple(e.descriptor.advertised_route))
                   for key, e in node.cache.items()},
                  {qid: st["timeout"] for qid, st in node._open_queries.items()}]
    return state


def _eid(line):
    return int(line.split(",")[1])


def _strip(line):
    at, _, target, kind = line.split(",")
    return at, target, kind


def _flood_runs(monkeypatch, run, ref_patches=()):
    """`run(trace)` builds a `Kernel(trace=trace)`, runs a scenario on it and
    returns its outcome. It is run three times: as is; with a no-op
    placeholder event scheduled for each copy that `Network.broadcast`
    suppresses, at the copy's time and target; and with `ref_broadcast`,
    which schedules every copy, snapshotting the receiver around every
    delivery. The placeholders must stand exactly where the reference
    delivers (same event ids), the plain trace must be the reference trace
    with those deliveries removed, and each of them must have left its
    receiver's state unchanged in the reference run. In every run, no node
    may end holding a route to itself. Returns the plain and reference
    outcomes, the suppressed copies as (at, target, kind) and the number of
    reference deliveries that were no-ops."""
    protos = []
    real_attach = Network.attach

    def recording_attach(net, proto):
        protos.append(proto)
        real_attach(net, proto)

    def no_self_routes():
        assert [p.id for p in protos if p.id in p.routes] == []
        protos.clear()

    monkeypatch.setattr(Network, "attach", recording_attach)
    fast_trace = []
    fast = run(fast_trace)
    no_self_routes()

    marks, mark_trace = [], []
    real_ignores = AodvNode.ignores

    def marking_ignores(node, msg, at):
        if not real_ignores(node, msg, at):
            return False
        marks.append(node.net.k.schedule(at, None, target=f"n{node.id}",
                                         kind=type(msg).__name__.lower()))
        return True
    with monkeypatch.context() as m:
        m.setattr(AodvNode, "ignores", marking_ignores)
        run(mark_trace)
    no_self_routes()

    noops, ref_trace = set(), []
    real_deliver = Network._deliver

    def snapshotting_deliver(net, dst, src, msg):
        proto = net.protocols.get(dst)
        before = None if proto is None else _node_state(proto)
        real_deliver(net, dst, src, msg)
        if proto is not None and _node_state(proto) == before:
            noops.add(_eid(net.k.trace[-1]))
    with monkeypatch.context() as m:
        m.setattr(Network, "broadcast", ref_broadcast)
        m.setattr(Network, "_deliver", snapshotting_deliver)
        for obj, name, value in ref_patches:
            m.setattr(obj, name, value)
        ref = run(ref_trace)
    no_self_routes()
    monkeypatch.setattr(Network, "attach", real_attach)

    marked = set(marks)
    assert mark_trace == ref_trace
    assert [_strip(line) for line in fast_trace] == [
        _strip(line) for line in ref_trace if _eid(line) not in marked]
    assert marked <= noops
    suppressed = [_strip(line) for line in ref_trace if _eid(line) in marked]
    return fast, ref, suppressed, len(noops)


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
    neighbour graph, union-find components, the two-pass cache lookup and
    isinstance dispatch. Same results; the trace differs only by the
    suppressed copies, each a no-op in the reference run. Each query's
    reachable flag is also checked against components computed at issue
    time, not read from the labels cached per mobility tick."""
    cfg = ScenarioConfig()
    cfg.simulation.sim_time_s = 200.0
    cfg.simulation.radio_range_m = 170.0  # sparse enough for unreachable providers
    cfg.discovery.query_count = 60

    at_issue = {}
    real_discover = DiscoveryNode.discover

    def recording_discover(node, service_id=None, **kwargs):
        query = real_discover(node, service_id=service_id, **kwargs)
        comp = next(c for c in ref_connectivity_components(node.net.adjacency) if node.id in c)
        at_issue[query.query_id] = (service_id, comp)
        return query
    fast, ref, suppressed, noops = _flood_runs(monkeypatch, _traced_replication(cfg, seed), [
        (mobility, "connectivity_components", ref_connectivity_components),
        (mobility, "neighbor_graph", ref_neighbor_graph),
        (routing, "neighbor_graph", ref_neighbor_graph),
        (AodvNode, "receive", ref_receive),
        (DiscoveryNode, "app_receive", ref_app_receive),
        (DiscoveryNode, "lookup_local", ref_lookup_local),
        (DiscoveryNode, "discover", recording_discover)])

    assert fast.providers == ref.providers
    assert fast.results == ref.results
    kinds = {kind for _, _, kind in suppressed}
    assert kinds == {"sreqmsg", "advertmsg"}
    assert len(suppressed) > noops / 2  # most no-op deliveries are never scheduled
    assert len(ref.results) == len(at_issue) == cfg.discovery.query_count
    for result, reachable in ref.results:
        service_id, comp = at_issue[result.query.query_id]
        assert reachable == (ref.providers[service_id] in comp)
    flags = [reachable for _, reachable in fast.results]
    assert any(flags) and not all(flags)


# -- flood suppression on hand-built networks ---------------------------------------

def _sreq(hops, ttl):
    return SreqMsg(query_id=1, requester=7, requester_seq=1, service_id="svc",
                   ontology_tag=None, hop_count=hops, ttl=ttl)


def _line_run(copies, route_lifetime_s=30.0):
    """Receiver 0 between senders 1 and 2, which do not hear each other. Each
    copy `(t, sender, delay, hops, ttl)` is an SREQ of one query broadcast by
    the sender at `t` with a fixed hop delay. The outcome is the receiver's
    route to the requester, its best hop count and the hop counts it
    forwarded."""
    def run(trace):
        k = Kernel(seed=5, end=1.0, trace=trace)
        nodes = [NodeState(id=0, x=0.0, y=0.0, radio_range_m=250.0),
                 NodeState(id=1, x=-200.0, y=0.0, radio_range_m=250.0),
                 NodeState(id=2, x=200.0, y=0.0, radio_range_m=250.0)]
        net = Network(k, nodes)
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
            k.schedule(t, send, args=(src, delay, _sreq(hops, ttl)))
        k.run_until(1.0)
        route = protos[0].routes[7]
        return ((route.next_hop, route.hop_count, route.expires_at),
                protos[0]._sreq_best[1], forwarded)
    return run


def test_copy_scheduled_later_but_arriving_earlier_is_delivered(monkeypatch):
    # sender 1's copy is recorded as in flight (arrives 0.005); sender 2's,
    # scheduled later, arrives at 0.002 and must install the route; a third
    # copy broadcast after that arrival is the only one suppressed
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.005, 3, 1), (0.001, 2, 0.001, 3, 1), (0.003, 1, 0.002, 3, 1)]))
    assert fast == ref
    assert fast[0][0] == 2
    assert suppressed == [("0.005000", "n0", "sreqmsg")]


def test_equal_arrival_times(monkeypatch):
    assert 0.0 + 0.002 == 0.001 + 0.001
    # no more hops: the earlier-scheduled copy runs first, the other is suppressed
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.002, 3, 1), (0.001, 2, 0.001, 3, 1)]))
    assert fast == ref and fast[0][0] == 1
    assert suppressed == [("0.002000", "n0", "sreqmsg")]
    # fewer hops: delivered second, it wins and is forwarded again
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.002, 3, 2), (0.001, 2, 0.001, 2, 2)]))
    assert fast == ref
    assert fast[0][:2] == (2, 2) and fast[1] == 2 and fast[2] == [4, 3]
    assert ("0.002000", "n0", "sreqmsg") not in suppressed


def test_later_copy_with_fewer_hops_is_delivered_and_forwarded(monkeypatch):
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.001, 4, 2), (0.002, 2, 0.001, 2, 2), (0.004, 1, 0.001, 3, 2)]))
    assert fast == ref
    assert fast[0][:2] == (2, 2) and fast[2] == [5, 3]
    assert [s for s in suppressed if s[1] == "n0"] == [("0.005000", "n0", "sreqmsg")]


@pytest.mark.parametrize("copies", [
    # the route installed by the first copy expires at 0.003, before 0.0035
    [(0.0, 1, 0.001, 3, 1), (0.0015, 2, 0.002, 3, 1)],
    # no route yet, the first copy is in flight; what it installs expires
    # at 0.003, before the second copy arrives at 0.0045
    [(0.0, 1, 0.001, 3, 1), (0.0005, 2, 0.004, 3, 1)]])
def test_route_expiring_before_arrival_keeps_the_copy(monkeypatch, copies):
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _line_run(copies, route_lifetime_s=0.002))
    assert fast == ref
    assert fast[0][0] == 2  # the second copy re-installed the stale route
    assert suppressed == []
    # with a lifetime that outlasts the arrival, the same copy is a no-op
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _line_run(copies))
    assert fast == ref and fast[0][0] == 1
    assert len(suppressed) == 1


def test_stale_route_replaced_by_a_worse_one_can_improve_again(monkeypatch):
    # the first copy's route (3 hops) expires at 0.003; the second copy
    # arrives at 0.0035 and installs a 5-hop route over the stale one; a
    # 4-hop copy is a duplicate (best is 3) but improves that route, so it
    # must be delivered
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _line_run(
        [(0.0, 1, 0.001, 3, 1), (0.003, 2, 0.0005, 5, 1), (0.004, 1, 0.001, 4, 1)],
        route_lifetime_s=0.002))
    assert fast == ref
    assert fast[0][:2] == (1, 4) and fast[1] == 3
    assert suppressed == []


class _LossCounter:
    """Stands in for the MAC loss stream and counts the copies it drops."""

    def __init__(self, gen, rate):
        self.gen, self.rate, self.lost = gen, rate, 0

    def random(self, size=None):
        draws = self.gen.random(size)
        if size is not None:
            self.lost += int(np.count_nonzero(draws < self.rate))
        return draws


def _run_to_end(build):
    """`build(trace) -> (kernel, network, outcome)` as a `_flood_runs` scenario."""
    def run(trace):
        k, _, outcome = build(trace)
        k.run_until(k.end)
        return outcome()
    return run


def _assert_conservation(build):
    """Every neighbour that a broadcast's loss draw spares is either scheduled
    or counted in `suppressed_msgs`, and some are suppressed."""
    k, net, _ = build(None)
    counts = {"copies": 0, "scheduled": 0}
    net._loss_rng = _LossCounter(net._loss_rng, net.loss_rate)
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
    assert counts["copies"] - net._loss_rng.lost == counts["scheduled"] + net.suppressed_msgs
    assert (net._loss_rng.lost > 0) == (net.loss_rate > 0)
    # in-flight records are dropped on arrival: only copies due after the end remain
    for p in net.protocols.values():
        due = list(p._rreq_due.values()) + list(getattr(p, "_sreq_due", {}).values())
        assert all(at > k.end for at, *_ in due)
        assert all(at > k.end for at in getattr(p, "_advert_due", {}).values())


def _aodv_flood(seed, loss_rate):
    def build(trace):
        k = Kernel(seed=seed, end=8.0, trace=trace)
        nodes = place_uniform(25, Area(700.0, 700.0), _rng(seed))
        net, protos = routing.build_aodv_network(k, nodes, loss_rate=loss_rate)
        rng = _rng(seed + 100)
        for i in range(12):  # overlapping floods from several origins
            src, dst = (int(v) for v in rng.choice(len(nodes), size=2, replace=False))
            k.schedule(0.002 * i, protos[src].send_data, args=(dst, f"p{i}"))

        def outcome():
            return [({d: (e.next_hop, e.hop_count, e.dest_sequence)
                      for d, e in p.routes.items()},
                     p.delivered, p.rreq_forwards, p.dropped_rreps)
                    for p in protos.values()]
        return k, net, outcome
    return build


@pytest.mark.parametrize("loss_rate", [0.0, 0.3])
@pytest.mark.parametrize("seed", [1, 2])
def test_aodv_rreq_floods_match_reference(monkeypatch, seed, loss_rate):
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _run_to_end(_aodv_flood(seed, loss_rate)))
    assert fast == ref
    assert suppressed and {kind for _, _, kind in suppressed} == {"rreq"}
    assert any(delivered for _, delivered, _, _ in fast)
    _assert_conservation(_aodv_flood(seed, loss_rate))


def _discovery_flood(seed, loss_rate):
    def build(trace):
        k = Kernel(seed=seed, end=30.0, trace=trace)
        nodes = place_uniform(30, Area(600.0, 600.0), _rng(seed))
        net = Network(k, nodes, loss_rate=loss_rate)
        protos = [DiscoveryNode(n.id, net, advert_interval_s=5.0) for n in nodes]
        for i, p in enumerate(protos[:3]):
            p.host_service(f"svc-{i}")
            k.schedule(0.5 * i, p.start_advertising)
        results = []
        rng = _rng(seed + 200)
        for i in range(20):
            node = protos[int(rng.integers(3, len(protos)))]
            k.schedule(1.0 + 0.01 * i, node.discover,
                       args=(f"svc-{int(rng.integers(0, 4))}", None, 2.0, results.append))
        return k, net, lambda: results
    return build


@pytest.mark.parametrize("loss_rate", [0.0, 0.3])
def test_discovery_floods_with_loss_match_reference(monkeypatch, loss_rate):
    fast, ref, suppressed, _ = _flood_runs(monkeypatch, _run_to_end(_discovery_flood(11, loss_rate)))
    assert fast == ref
    assert {kind for _, _, kind in suppressed} == {"sreqmsg", "advertmsg"}
    assert any(r.timed_out for r in fast) and any(not r.cache_hit and not r.timed_out
                                                   for r in fast)
    _assert_conservation(_discovery_flood(11, loss_rate))


# -- reference: one kernel event per primary-user toggle ------------------------

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
    p_w = friis_received_power(pu.tx_power_w, 1.0, 1.0, wavelength_m, d)
    return 10.0 * math.log10(p_w * 1000.0)


def ref_spectrum_holes(channels, logs, t):
    return [SpectrumHole(ch.index, logs[ch.licensed_pu].state_since) for ch in channels
            if logs[ch.licensed_pu].state == "idle"]


class RefSpectrumSim:
    """Every PU toggle is a kernel event that draws the next duration, updates
    a usage log, opens or closes a warm-up sample and evicts or serves SUs."""

    def __init__(self, kernel, params, pu_schedules=None):
        self.k = kernel
        self.p = params
        self.area = Area()
        place_rng = kernel.stream("spectrum-placement")
        self.pus = place_uniform(params.pu_count, self.area, place_rng, role="primary-user")
        self.sus = place_uniform(params.su_count, self.area, place_rng,
                                 role="rescue-SU", start_id=params.pu_count)
        self.channels = [Channel(i, self.pus[i].id) for i in range(params.pu_count)]
        self.logs = {pu.id: RefUsageLog(i, params.n_window) for i, pu in enumerate(self.pus)}
        scale_rng = kernel.stream("pu-params")
        self.scales = {pu.id: scale_rng.uniform(*params.scale_range) for pu in self.pus}
        self.activity_rng = kernel.stream("pu-activity")
        self.choice_rng = kernel.stream("hole-choice")
        self.model = Mlp.init([params.n_window + 3, params.hidden_units, 1],
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
        self.k.schedule(self.p.mobile_step_s, self._mobility_step, kind="mobility")

    def _next_duration(self, pu_id):
        if self._schedules is not None:
            seq = self._schedules[pu_id]
            pos = self._sched_pos[pu_id]
            self._sched_pos[pu_id] = pos + 1
            return seq[pos] if pos < len(seq) else float("inf")
        return float(self.activity_rng.exponential(self.scales[pu_id]))

    def _schedule_toggle(self, pu_id):
        dur = self._next_duration(pu_id)
        if not math.isinf(dur):
            self.k.schedule(self.k.now + dur, lambda p=pu_id: self._toggle(p),
                            target=f"pu{pu_id}", kind="pu-toggle")

    def _mobility_step(self):
        rng = self.k.stream("mobility")
        for node in self.pus + self.sus:
            step_waypoint(node, self.k.now, self.p.mobile_step_s, rng, self.area)
        if self.k.now + self.p.mobile_step_s <= self.k.end:
            self.k.schedule(self.k.now + self.p.mobile_step_s, self._mobility_step,
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
                log.signal_strength_dbm = ref_received_dbm(pu, self.sus[0], self.p.wavelength_m)
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
        if len(self.buffer_x) > self.p.buffer_cap:
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
        epochs = self.p.refit_epochs if self.model_trained else self.p.train_epochs
        cfg = TrainConfig(learning_rate=self.p.learning_rate, epochs=epochs, loss="squared")
        train(self.model, (x, y), cfg, standardize=not self.model_trained)
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
                                        self.p.wavelength_m)
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
            chosen = select_hole(holes, scores, "mlp-history")
            features = feats[chosen]
        else:
            chosen = select_hole(holes, None, "random-baseline", self.choice_rng)
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
    metric = sim.metric()
    return {
        "assignments": [(a.su_id, a.channel_index, a.assigned_at, a.evicted_at,
                         np.asarray(a.selection_features, dtype=float).tobytes())
                        for a in sim.assignments],
        "buffer_x": [np.asarray(x, dtype=float).tobytes() for x in sim.buffer_x],
        "buffer_y": np.array(sim.buffer_y, dtype=float).tobytes(),
        "refits": refits,
        "metric": (metric["count"], np.float64(metric["mean"]).tobytes(),
                   np.array(metric["samples"], dtype=float).tobytes()),
        "model": [w.tobytes() for w in sim.model.weights + sim.model.biases],
    }


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
    params = SpectrumParams(pu_count=2, su_count=1, policy="random-baseline", su_start_s=1.0)
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
        sim.pus[1], sim.sus[0], params.wavelength_m)

    same_instant = {0: [41.0, 20.0], 1: [0.5, 1.0, 39.5, 30.0]}
    ref = _run_spectrum(RefSpectrumSim, 5, params, 100.0,
                        {k: list(v) for k, v in same_instant.items()})
    sim = _run_spectrum(SpectrumSim, 5, params, 100.0, same_instant)
    assert [(a.channel_index, a.assigned_at, a.evicted_at) for a in ref.assignments] == [
        (0, 1.0, 41.0), (1, 41.0, 41.0), (0, 61.0, None)]
    assert [(a.channel_index, a.assigned_at, a.evicted_at) for a in sim.assignments] == [
        (0, 1.0, 41.0), (0, 61.0, None)]
