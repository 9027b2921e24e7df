"""AODV behavior on static topologies: hand traces, BFS oracles, flood bounds."""

import numpy as np
import pytest

from crahnsim.kernel import Kernel
from crahnsim.mobility import Area, NodeState, place_uniform
from crahnsim.routing import (AodvNode, DataMsg, Network, Rrep, build_aodv_network)


def _chain(kernel, count, spacing=100.0, **net_kwargs):
    nodes = [NodeState(id=i, x=i * spacing, y=0.0, radio_range_m=150.0)
             for i in range(count)]
    return build_aodv_network(kernel, nodes, **net_kwargs)


def _bfs_dist(graph, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in graph[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_chain_discovery_installs_symmetric_routes():
    k = Kernel(seed=0, end=10.0)
    net, protos = _chain(k, 3)
    protos[0].send_data(2, "hello")
    k.run_until(5.0)
    assert ("hello", 0) in protos[2].delivered
    assert protos[0].routes[2].next_hop == 1
    assert protos[0].routes[2].hop_count == 2
    assert protos[2].routes[0].next_hop == 1
    assert protos[0].next_hop(2) == 1


def test_destination_receives_rreq_with_bfs_hop_count():
    k = Kernel(seed=1, end=10.0)
    net, protos = _chain(k, 3)
    protos[0].originate_rreq(2)
    k.run_until(5.0)
    # reverse route at the destination reflects two hops to the origin
    assert protos[2].routes[0].hop_count == 2


def test_ttl_one_never_reaches_a_two_hop_destination():
    k = Kernel(seed=2, end=10.0)
    nodes = [NodeState(id=i, x=i * 100.0, y=0.0, radio_range_m=150.0)
             for i in range(4)]
    net = Network(k, nodes)
    protos = {n.id: AodvNode(n.id, net, ttl=1) for n in nodes}
    protos[0].send_data(3, "x")
    k.run_until(10.0)
    assert 3 not in protos[0].routes
    assert ("x", 0) not in protos[3].delivered


def test_duplicate_rreq_with_no_better_hops_not_reforwarded():
    k = Kernel(seed=3, end=10.0)
    net, protos = _chain(k, 4)
    protos[0].send_data(3, "y")
    k.run_until(10.0)
    # every relay forwarded each (origin, bid) a bounded number of times
    for proto in protos.values():
        for count in proto.rreq_forwards.values():
            assert count <= len(protos)


def test_grid_corner_to_corner_equals_bfs():
    k = Kernel(seed=4, end=20.0)
    nodes = [NodeState(id=5 * r + c, x=100.0 * c, y=100.0 * r, radio_range_m=120.0)
             for r in range(5) for c in range(5)]
    net, protos = build_aodv_network(k, nodes)
    protos[0].send_data(24, "z")
    k.run_until(20.0)
    dist = _bfs_dist(net.adjacency, 0)
    assert protos[0].routes[24].hop_count == dist[24] == 8
    assert ("z", 0) in protos[24].delivered


def test_random_static_topologies_install_bfs_optimal_routes():
    # one flood at a time; each settles before the next starts
    for seed in range(12):
        rng = np.random.Generator(np.random.PCG64(seed))
        k = Kernel(seed=seed, end=60.0)
        nodes = place_uniform(25, Area(800.0, 800.0), rng)
        net, protos = build_aodv_network(k, nodes)
        dist = _bfs_dist(net.adjacency, 0)
        targets = [v for v in sorted(dist) if v != 0]
        for i, dst in enumerate(targets):
            k.schedule(float(i), lambda d=dst: protos[0].send_data(d, f"p{d}"))
        k.run_until(len(targets) + 5.0)
        for dst in targets:
            assert protos[0].routes[dst].hop_count == dist[dst], (seed, dst)


def test_loop_freedom_following_next_hops():
    rng = np.random.Generator(np.random.PCG64(31))
    k = Kernel(seed=31, end=30.0)
    nodes = place_uniform(20, Area(600.0, 600.0), rng)
    net, protos = build_aodv_network(k, nodes)
    dist = _bfs_dist(net.adjacency, 0)
    for dst in sorted(dist):
        if dst != 0:
            protos[0].send_data(dst, "probe")
    k.run_until(30.0)
    for dst in sorted(dist):
        if dst == 0:
            continue
        visited = set()
        at = 0
        while at != dst:
            assert at not in visited, "routing loop"
            visited.add(at)
            nh = protos[at].next_hop(dst)
            assert nh is not None
            at = nh


def test_stale_sequence_number_does_not_replace_route():
    k = Kernel(seed=5, end=10.0)
    net, protos = _chain(k, 3)
    protos[0].send_data(2, "w")
    k.run_until(5.0)
    entry = protos[0].routes[2]
    stale = Rrep(destination=2, origin=0, dest_sequence=entry.dest_sequence - 1,
                 hop_count=0)
    protos[0]._on_rrep(stale, from_id=1)
    assert protos[0].routes[2].dest_sequence == entry.dest_sequence


def test_route_expiry_makes_next_hop_absent():
    k = Kernel(seed=6, end=200.0)
    net, protos = _chain(k, 3)
    protos[0].send_data(2, "v")
    k.run_until(5.0)
    assert protos[0].next_hop(2) == 1
    k.run_until(180.0)  # beyond the 30 s route lifetime
    assert protos[0].next_hop(2) is None


def test_rrep_without_reverse_route_is_counted_dropped():
    k = Kernel(seed=7, end=10.0)
    net, protos = _chain(k, 3)
    rrep = Rrep(destination=2, origin=9, dest_sequence=1, hop_count=0)
    protos[1]._on_rrep(rrep, from_id=2)
    assert protos[1].dropped_replies == 1


def test_rrep_whose_next_hop_moved_away_is_counted_dropped():
    k = Kernel(seed=10, end=10.0)
    net, protos = _chain(k, 3)
    protos[0].originate_rreq(2)
    k.run_until(1.0)
    assert protos[1].routes[0].next_hop == 0 and protos[1].dropped_replies == 0
    net.nodes[0].x = -1000.0  # the reverse route's next hop leaves range
    net.refresh_beacons()
    scheduled = k.next_id
    protos[1]._on_rrep(Rrep(destination=2, origin=0, dest_sequence=9, hop_count=0), from_id=2)
    assert protos[1].dropped_replies == 1
    assert k.next_id == scheduled


def test_send_to_a_non_neighbour_is_refused_without_a_delay_draw():
    def run(refused_first):
        log = []
        k = Kernel(seed=11, end=1.0, trace=log)
        net, _ = _chain(k, 3)
        if refused_first:
            assert net.send(0, 2, DataMsg(0, 2, "far")) is False
        assert net.send(0, 1, DataMsg(0, 1, "near")) is True
        k.run_until(1.0)
        return log

    # the neighbour's copy arrives after the same delay either way
    assert run(True) == run(False) != []


def test_configured_loss_drops_traffic():
    k = Kernel(seed=8, end=10.0)
    net, protos = _chain(k, 2)
    lossy_k = Kernel(seed=8, end=10.0)
    lossy_net, lossy_protos = _chain(lossy_k, 2, loss_rate=1.0)
    protos[0].send_data(1, "ok")
    lossy_protos[0].send_data(1, "never")
    k.run_until(10.0)
    lossy_k.run_until(10.0)
    assert ("ok", 0) in protos[1].delivered
    assert lossy_protos[1].delivered == []


def test_flood_forward_total_is_bounded():
    rng = np.random.Generator(np.random.PCG64(44))
    k = Kernel(seed=44, end=30.0)
    nodes = place_uniform(30, Area(700.0, 700.0), rng)
    net, protos = build_aodv_network(k, nodes)
    protos[0].originate_rreq(29)
    k.run_until(30.0)
    total = sum(count for proto in protos.values()
                for count in proto.rreq_forwards.values())
    assert total <= len(nodes) * protos[0].ttl


def test_delivery_is_seed_deterministic():
    def trace(seed):
        log = []
        k = Kernel(seed=seed, end=10.0, trace=log)
        net, protos = _chain(k, 5)
        protos[0].send_data(4, "d")
        k.run_until(10.0)
        return log

    assert trace(3) == trace(3)
