"""Service discovery: adverts, caches, flood-on-miss, gateway lookup."""

import numpy as np
import pytest

from crahnsim.kernel import Kernel
from crahnsim.mobility import NodeState
from crahnsim.routing import Network
from crahnsim.discovery import DiscoveryNode, ServiceDescriptor


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
    from crahnsim.discovery import ServiceCacheEntry
    node.cache[("svc", 0)] = ServiceCacheEntry(far, learned_at=0.0)
    node.cache[("svc", 1)] = ServiceCacheEntry(near, learned_at=0.0)
    assert node.lookup_local("svc").descriptor.provider == 1


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
    assert ("payload", 0, "data") in protos[4].delivered


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
    protos[0].discover(service_id="gateway", deadline_s=10.0, callback=results.append)
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
