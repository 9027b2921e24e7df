"""Service discovery: adverts, caches, flood-on-miss, gateway lookup."""

import dataclasses

import numpy as np
import pytest

from crahnsim.kernel import Kernel
from crahnsim.mobility import NodeState
from crahnsim.routing import Network
from crahnsim.discovery import (DiscoveryNode, ServiceCacheEntry, ServiceDescriptor,
                                SrepMsg, SreqMsg)


def _chain(kernel, count, spacing=100.0, **kwargs):
    nodes = [NodeState(id=i, x=i * spacing, y=0.0, radio_range_m=150.0)
             for i in range(count)]
    net = Network(kernel, nodes)
    protos = {n.id: DiscoveryNode(n.id, net, **kwargs) for n in nodes}
    return net, protos


def test_descriptor_route_must_start_at_provider():
    with pytest.raises(ValueError):
        ServiceDescriptor(service_id="s", provider=3, advertised_route=[4, 3])
    with pytest.raises(ValueError):
        ServiceDescriptor(service_id="s", provider=3, ttl_s=0.0)


def test_advert_propagates_route_two_hops():
    k = Kernel(seed=0, end=50.0)
    net, protos = _chain(k, 4, advert_hops=2)
    protos[0].host_service("rescue-112", ontology_tag="Safety")
    protos[0].advertise()
    k.run_until(1.0)
    entry_c = protos[2].cache[("rescue-112", 0)]
    assert entry_c.descriptor.advertised_route == [0, 1, 2]
    # hop budget exhausted before the fourth node
    assert ("rescue-112", 0) not in protos[3].cache


def test_isolated_provider_populates_no_cache():
    k = Kernel(seed=1, end=50.0)
    nodes = [NodeState(id=0, x=0.0, y=0.0, radio_range_m=150.0),
             NodeState(id=1, x=900.0, y=0.0, radio_range_m=150.0)]
    net = Network(k, nodes)
    protos = {n.id: DiscoveryNode(n.id, net) for n in nodes}
    protos[0].host_service("svc")
    protos[0].advertise()
    k.run_until(5.0)
    assert protos[1].cache == {}


def test_cache_entry_expires_after_ttl():
    k = Kernel(seed=2, end=100.0)
    net, protos = _chain(k, 2, service_ttl_s=30.0)
    protos[0].host_service("svc")
    protos[0].advertise()
    k.run_until(1.0)
    assert protos[1].lookup_local("svc") is not None
    k.run_until(40.0)
    assert protos[1].lookup_local("svc") is None


def test_lookup_prefers_fewer_route_hops():
    k = Kernel(seed=3, end=50.0)
    net, protos = _chain(k, 3)
    node = protos[2]
    near = ServiceDescriptor(service_id="svc", provider=1, advertised_route=[1, 2])
    far = ServiceDescriptor(service_id="svc", provider=0, advertised_route=[0, 1, 2])
    node.cache[("svc", 0)] = ServiceCacheEntry(far, expires_at=30.0)
    node.cache[("svc", 1)] = ServiceCacheEntry(near, expires_at=30.0)
    assert node.lookup_local("svc").provider == 1


def test_ontology_tag_is_a_fallback_match():
    k = Kernel(seed=4, end=50.0)
    net, protos = _chain(k, 2)
    protos[0].host_service("medic-7", ontology_tag="Safety")
    protos[0].advertise()
    k.run_until(1.0)
    assert protos[1].lookup_local(service_id=None, ontology_tag="Safety") is not None
    assert protos[1].lookup_local("no-such") is None


def test_self_hosted_query_is_local_and_silent():
    k = Kernel(seed=5, end=50.0)
    net, protos = _chain(k, 2)
    protos[0].host_service("svc")
    before = net.delivered_msgs
    results = []
    protos[0].discover("svc", callback=results.append)
    k.run_until(5.0)
    assert results[0].cache_hit and results[0].latency_s == 0.0
    assert net.delivered_msgs == before


def test_self_hosted_tag_query_is_local_and_silent():
    k = Kernel(seed=5, end=50.0)
    net, protos = _chain(k, 3)
    protos[0].host_service("medic-7", ontology_tag="Safety")
    results = []
    protos[0].discover(ontology_tag="Safety", callback=results.append)
    k.run_until(20.0)
    (res,) = results
    assert res.cache_hit and res.descriptor.service_id == "medic-7"
    assert net.delivered_msgs == 0 and not protos[0]._open_queries


def test_sreq_gets_the_answer_the_node_gives_itself():
    # node 1 caches "svc" (exact id) and hosts "medic-7" (tag match only); an
    # (id, tag) query prefers the exact id, from node 1 itself or from node 2
    k = Kernel(seed=12, end=50.0)
    net, protos = _chain(k, 3, advert_hops=1)
    protos[0].host_service("svc")
    protos[0].advertise()
    protos[1].host_service("medic-7", ontology_tag="Safety")
    k.run_until(1.0)
    assert ("svc", 0) not in protos[2].cache
    results = []
    protos[1].discover("svc", "Safety", callback=results.append)
    protos[2].discover("svc", "Safety", callback=results.append)
    k.run_until(20.0)
    own, relayed = results
    assert own.cache_hit and not relayed.cache_hit
    assert (own.descriptor.service_id, own.descriptor.provider) == ("svc", 0)
    assert relayed.descriptor is own.descriptor


def test_srep_without_reverse_route_is_counted_dropped():
    k = Kernel(seed=13, end=10.0)
    net, protos = _chain(k, 3)
    desc = ServiceDescriptor(service_id="svc", provider=2, advertised_route=[2])
    protos[1]._on_srep(SrepMsg(query_id=1, requester=9, descriptor=desc,
                               dist_to_provider=0), from_id=2)
    assert protos[1].dropped_replies == 1


def test_srep_whose_next_hop_moved_away_is_counted_dropped():
    k = Kernel(seed=15, end=20.0)
    net, protos = _chain(k, 3)
    query = protos[0].discover("missing")
    k.run_until(1.0)
    assert protos[1].routes[0].next_hop == 0 and protos[1].dropped_replies == 0
    net.nodes[0].x = -1000.0  # the reverse route's next hop leaves range
    net.refresh_beacons()
    desc = ServiceDescriptor(service_id="svc", provider=2, advertised_route=[2])
    scheduled = k.next_id
    protos[1]._on_srep(SrepMsg(query_id=query.query_id, requester=0, descriptor=desc,
                               dist_to_provider=0), from_id=2)
    assert protos[1].dropped_replies == 1
    assert k.next_id == scheduled


def test_unicast_of_a_nodes_own_sreq_to_it_is_suppressed():
    k = Kernel(seed=16, end=1.0)
    net, protos = _chain(k, 2)
    own = SreqMsg(query_id=1, requester=1, requester_seq=1, service_id="svc",
                  ontology_tag=None, hop_count=1, ttl=3)
    scheduled = k.next_id
    sent = net.send(0, 1, own)
    assert net.suppressed_msgs == 1
    assert k.next_id == scheduled
    assert sent is True


def test_result_descriptor_survives_later_adverts():
    k = Kernel(seed=14, end=50.0)
    net, protos = _chain(k, 3)
    protos[2].host_service("svc")
    results = []
    protos[0].discover("svc", callback=results.append)
    protos[2].discover("svc", callback=results.append)
    k.run_until(5.0)
    assert [r.cache_hit for r in results] == [True, False]  # self-hit first, then the SREP
    before = [dataclasses.astuple(r.descriptor) for r in results]
    protos[2].advertise()
    k.run_until(10.0)
    assert [dataclasses.astuple(r.descriptor) for r in results] == before


def test_cache_hit_sends_zero_messages():
    k = Kernel(seed=6, end=50.0)
    net, protos = _chain(k, 3)
    protos[0].host_service("svc")
    protos[0].advertise()
    k.run_until(1.0)
    before = net.delivered_msgs
    results = []
    protos[2].discover("svc", callback=results.append)
    assert results and results[0].cache_hit
    assert net.delivered_msgs == before


def test_cold_cache_chain_latency_within_hop_delay_bounds():
    k = Kernel(seed=7, end=50.0)
    net, protos = _chain(k, 5)
    protos[4].host_service("svc")
    results = []
    protos[0].discover("svc", callback=results.append)
    k.run_until(20.0)
    (res,) = results
    assert not res.cache_hit and not res.timed_out
    assert res.descriptor.provider == 4
    # 4 request hops out plus 4 reply hops back, each within [1, 5] ms
    assert 8 * 0.001 <= res.latency_s <= 8 * 0.005


def test_resolution_installs_route_saving_an_extra_pass():
    k = Kernel(seed=8, end=50.0)
    net, protos = _chain(k, 5)
    protos[4].host_service("svc")
    results = []
    protos[0].discover("svc", callback=results.append)
    k.run_until(20.0)
    assert results and results[0].descriptor.provider == 4
    originations_before = protos[0].rreq_originations
    protos[0].send_data(4, "payload")
    k.run_until(40.0)
    assert protos[0].rreq_originations == originations_before
    assert ("payload", 0) in protos[4].delivered


def test_gateway_three_hops_away_resolves_with_route():
    k = Kernel(seed=9, end=50.0)
    net, protos = _chain(k, 4)
    protos[3].host_service("gateway")
    results = []
    protos[0].discover(service_id="gateway", callback=results.append)
    k.run_until(20.0)
    (res,) = results
    assert res.descriptor.provider == 3
    assert protos[0].routes[3].hop_count == 3


def test_nearer_of_two_gateways_wins_across_seeds():
    wins = 0
    for seed in range(10):
        k = Kernel(seed=seed, end=50.0)
        net, protos = _chain(k, 5)
        protos[1].host_service("gateway")  # 1 hop from requester
        protos[4].host_service("gateway")  # 4 hops from requester
        results = []
        protos[0].discover(service_id="gateway", callback=results.append)
        k.run_until(20.0)
        if results and results[0].descriptor.provider == 1:
            wins += 1
    assert wins >= 8


def test_partitioned_network_times_out():
    k = Kernel(seed=10, end=50.0)
    nodes = [NodeState(id=0, x=0.0, y=0.0, radio_range_m=150.0),
             NodeState(id=1, x=100.0, y=0.0, radio_range_m=150.0),
             NodeState(id=2, x=900.0, y=900.0, radio_range_m=150.0)]
    net = Network(k, nodes)
    protos = {n.id: DiscoveryNode(n.id, net) for n in nodes}
    protos[2].host_service("gateway")
    results = []
    protos[0].discover(service_id="gateway", callback=results.append)
    k.run_until(30.0)
    (res,) = results
    assert res.timed_out and res.descriptor is None
    assert res.latency_s == pytest.approx(10.0)


def test_later_replies_after_first_win_are_ignored():
    k = Kernel(seed=11, end=50.0)
    net, protos = _chain(k, 3)
    protos[1].host_service("svc")
    protos[2].host_service("svc")
    results = []
    protos[0].discover("svc", callback=results.append)
    k.run_until(20.0)
    assert len(results) == 1


def test_advertised_routes_are_paths_in_the_neighbor_graph():
    rng = np.random.Generator(np.random.PCG64(13))
    k = Kernel(seed=13, end=50.0)
    from crahnsim.mobility import Area, place_uniform
    nodes = place_uniform(25, Area(600.0, 600.0), rng)
    net = Network(k, nodes)
    protos = {n.id: DiscoveryNode(n.id, net) for n in nodes}
    for pid in (0, 5, 9):
        protos[pid].host_service(f"svc-{pid}")
        protos[pid].start_advertising()
    k.run_until(25.0)
    for proto in protos.values():
        for entry in proto.cache.values():
            route = entry.descriptor.advertised_route
            for a, b in zip(route, route[1:]):
                assert b in net.adjacency[a], route
