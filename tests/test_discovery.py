"""Service discovery: adverts, caches, flood-on-miss, gateway lookup."""

import dataclasses
import math
from itertools import chain

import numpy as np
import pytest

from crahnsim import experiments
from crahnsim.experiments import run_discovery_replication
from crahnsim.kernel import Kernel
from crahnsim.mobility import NodeState, connectivity_components
from crahnsim.routing import Network
from crahnsim.discovery import (DiscoveryNode, ServiceCacheEntry, ServiceDescriptor,
                                SrepMsg, SreqMsg)
from crahnsim.scenario import ScenarioConfig


def _chain(kernel, count, spacing=100.0, **kwargs):
    nodes = [NodeState(id=i, x=i * spacing, y=0.0) for i in range(count)]
    net = Network(kernel, nodes, 150.0)
    protos = {n.id: DiscoveryNode(n.id, net, **kwargs) for n in nodes}
    return net, protos


def reachability_recorder():
    """A stand-in for `DiscoveryNode.discover` that records, at each call,
    whether the requester and the provider of the service share a component
    of `node.net.adjacency`; and the dict it fills, {query id: reachable}."""
    reachable = {}
    real_discover = DiscoveryNode.discover

    def discover(node, service_id=None, **kwargs):
        provider = next(p.id for p in node.net.protocols.values() if service_id in p.hosted)
        comp = next(c for c in connectivity_components(node.net.adjacency) if node.id in c)
        query = real_discover(node, service_id=service_id, **kwargs)
        reachable[query.query_id] = provider in comp
        return query
    return discover, reachable


def test_descriptor_ttl_must_be_positive():
    with pytest.raises(ValueError):
        ServiceDescriptor(service_id="s", provider=3, ttl_s=0.0)


def test_advert_propagates_route_two_hops():
    k = Kernel(seed=0, end=50.0)
    net, protos = _chain(k, 4, advert_hops=2)
    protos[0].host_service("rescue-112", ontology_tag="Safety")
    protos[0].advertise()
    k.run_until(1.0)
    entry_c = protos[2].cache[("rescue-112", 0)]
    assert entry_c.hops == 2
    assert (protos[2].routes[0].next_hop, protos[2].routes[0].hop_count) == (1, 2)
    # hop budget exhausted before the fourth node
    assert ("rescue-112", 0) not in protos[3].cache


def test_advert_and_its_answers_share_the_providers_descriptor(monkeypatch):
    built = []
    real_post_init = ServiceDescriptor.__post_init__

    def post_init(desc):
        built.append(desc)
        real_post_init(desc)
    monkeypatch.setattr(ServiceDescriptor, "__post_init__", post_init)
    k = Kernel(seed=22, end=50.0)
    net, protos = _chain(k, 4, advert_hops=2)
    protos[0].host_service("rescue-112", ontology_tag="Safety")
    protos[0].host_service("medic-7", ontology_tag="Safety")
    built.clear()
    protos[0].advertise()
    k.run_until(1.0)
    hosted = {sid: entry.descriptor for sid, entry in protos[0].hosted.items()}
    # one descriptor per hosted service and advert round, shared by every cache
    assert len(built) == 2 and {id(d) for d in built} == {id(d) for d in hosted.values()}
    for node in (1, 2):
        for sid, desc in hosted.items():
            assert protos[node].cache[(sid, 0)].descriptor is desc
    assert not protos[3].cache
    # node 3's query is answered by node 2's cache with that same object
    results = []
    protos[3].discover("medic-7", callback=results.append)
    k.run_until(2.0)
    (res,) = results
    assert not res.cache_hit and not res.timed_out
    assert res.descriptor is hosted["medic-7"]
    assert protos[3].routes[0].hop_count == 3
    assert len(built) == len(hosted)


def test_isolated_provider_populates_no_cache():
    k = Kernel(seed=1, end=50.0)
    nodes = [NodeState(id=0, x=0.0, y=0.0), NodeState(id=1, x=900.0, y=0.0)]
    net = Network(k, nodes, 150.0)
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
    near = ServiceDescriptor(service_id="svc", provider=1)
    far = ServiceDescriptor(service_id="svc", provider=0)
    node.cache[("svc", 0)] = ServiceCacheEntry(far, hops=2, expires_at=30.0)
    node.cache[("svc", 1)] = ServiceCacheEntry(near, hops=1, expires_at=30.0)
    assert node.lookup_local("svc").descriptor is near


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
    desc = ServiceDescriptor(service_id="svc", provider=2)
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
    desc = ServiceDescriptor(service_id="svc", provider=2)
    scheduled = k.next_id
    protos[1]._on_srep(SrepMsg(query_id=query.query_id, requester=0, descriptor=desc,
                               dist_to_provider=0), from_id=2)
    assert protos[1].dropped_replies == 1
    assert k.next_id == scheduled


def _open_query_with_relay(seed):
    """Chain 0-1-2 in which node 0's query for an absent service has laid
    node 1's reverse route to node 0; the query is still open."""
    k = Kernel(seed=seed, end=20.0)
    net, protos = _chain(k, 3)
    query = protos[0].discover("missing")
    k.run_until(1.0)
    assert protos[1].routes[0].next_hop == 0
    return k, net, protos, query


def _srep(query, provider, hops):
    desc = ServiceDescriptor(service_id="svc", provider=provider)
    return SrepMsg(query_id=query.query_id, requester=query.requester, descriptor=desc,
                   dist_to_provider=hops)


def test_relay_sends_one_srep_per_query_and_still_learns_routes():
    k, net, protos, query = _open_query_with_relay(17)
    scheduled = k.next_id
    protos[1]._on_srep(_srep(query, 2, 0), from_id=2)
    assert k.next_id == scheduled + 1
    protos[1]._on_srep(_srep(query, 5, 2), from_id=2)
    assert k.next_id == scheduled + 1
    assert (protos[1].duplicate_replies, protos[1].dropped_replies) == (1, 0)
    assert protos[1].routes[5].next_hop == 2  # learned before the reply was dropped


def test_node_that_answered_relays_no_srep_of_the_query():
    k = Kernel(seed=18, end=20.0)
    net, protos = _chain(k, 3)
    protos[1].host_service("svc")
    results = []
    query = protos[0].discover("svc", callback=results.append)
    k.run_until(1.0)
    assert [r.descriptor.provider for r in results] == [1]
    scheduled = k.next_id
    protos[1]._on_srep(_srep(query, 2, 0), from_id=2)
    assert k.next_id == scheduled
    assert protos[1].duplicate_replies == 1


def test_relay_whose_first_srep_was_refused_relays_the_next():
    k, net, protos, query = _open_query_with_relay(19)
    net.nodes[0].x = -1000.0  # the reverse route's next hop leaves range
    net.refresh_beacons()
    protos[1]._on_srep(_srep(query, 2, 0), from_id=2)
    assert protos[1].dropped_replies == 1
    net.nodes[0].x = 0.0
    net.refresh_beacons()
    scheduled = k.next_id
    protos[1]._on_srep(_srep(query, 2, 0), from_id=2)
    assert k.next_id == scheduled + 1
    assert (protos[1].duplicate_replies, protos[1].dropped_replies) == (0, 1)


def test_sreq_is_answered_on_its_first_arrival_only():
    # a later copy with fewer hops improves the route to the requester, but
    # the provider does not answer it again
    k = Kernel(seed=20, end=20.0)
    net, protos = _chain(k, 2)
    protos[1].host_service("svc")
    for hops in (3, 2):
        scheduled = k.next_id
        protos[1]._on_sreq(SreqMsg(query_id=1, requester=0, requester_seq=1, service_id="svc",
                                   ontology_tag=None, hop_count=hops, ttl=5), from_id=0)
        assert protos[1].routes[0].hop_count == hops
        assert k.next_id == scheduled + (hops == 3)
    assert protos[1].duplicate_replies == 0


def test_provider_that_advertised_more_than_it_queried_gets_its_fresh_reverse_route():
    # node 3 learns its route to provider 0 from two adverts, via node 1; then
    # node 1 and node 2 swap places. Node 0's own SREQ reaches node 3 via
    # node 2 and must replace the advert route (adverts and SREQs share one
    # sequence space), or node 3's answer goes to node 1, out of range
    k = Kernel(seed=21, end=40.0)
    nodes = [NodeState(id=0, x=0.0, y=0.0),
             NodeState(id=1, x=100.0, y=0.0),
             NodeState(id=2, x=100.0, y=500.0),
             NodeState(id=3, x=200.0, y=0.0)]
    net = Network(k, nodes, 150.0)
    protos = {n.id: DiscoveryNode(n.id, net, advert_hops=2) for n in nodes}
    protos[0].host_service("svc-a")
    protos[3].host_service("svc-b")
    for _ in range(2):
        protos[0].advertise()
        k.run_until(k.now + 1.0)
    assert protos[3].routes[0].next_hop == 1
    net.nodes[1].y, net.nodes[2].y = 500.0, 0.0
    net.refresh_beacons()
    results = []
    protos[0].discover("svc-b", callback=results.append)
    k.run_until(k.now + 1.0)
    assert protos[3].routes[0].next_hop == 2
    assert protos[3].dropped_replies == 0
    (res,) = results
    assert not res.timed_out and res.descriptor.provider == 3


@pytest.mark.parametrize("seed", [5007, 5019, 5083])
def test_every_reachable_query_resolves(monkeypatch, seed):
    # replication seeds on which a requester's advert-laid routes outrank
    # the reverse routes of its own SREQs unless both share one sequence space
    discover, reach = reachability_recorder()
    monkeypatch.setattr(DiscoveryNode, "discover", discover)
    results = run_discovery_replication(ScenarioConfig(), seed)
    reachable = [res for res in results if reach[res.query.query_id]]
    assert reachable and not any(res.timed_out for res in reachable)


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
    nodes = [NodeState(id=0, x=0.0, y=0.0),
             NodeState(id=1, x=100.0, y=0.0),
             NodeState(id=2, x=900.0, y=900.0)]
    net = Network(k, nodes, 150.0)
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


def test_advertised_routes_are_paths_in_the_neighbor_graph(monkeypatch):
    """A recorder on `_on_advert` rebuilds, hop by hop, the path each
    accepted advert copy took from its provider, checking each hop against
    the adjacency at delivery. Each copy carries the hops its path has
    taken, and each cache entry's hop count is its path's length minus one."""
    paths = {}  # (advert key, node id) -> path from the provider to the node
    real_on_advert = DiscoveryNode._on_advert

    def on_advert(node, msg, from_id):
        key = msg.copy_fields()
        if key[0] != node.id and key not in node._advert_seen:
            assert node.id in node.net.adjacency[from_id], (key, from_id, node.id)
            sent = [key[0]] if from_id == key[0] else paths[(key, from_id)]
            assert msg.hop_count == len(sent), (key, sent)
            paths[(key, node.id)] = sent + [node.id]
        real_on_advert(node, msg, from_id)
    monkeypatch.setattr(DiscoveryNode, "_on_advert", on_advert)
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
    hops = []
    for proto in protos.values():
        for entry in proto.cache.values():
            desc = entry.descriptor
            path = paths[((desc.provider, desc.service_id, desc.issued_at), proto.id)]
            assert entry.hops == len(path) - 1, (proto.id, path)
            hops.append(entry.hops)
    assert set(hops) == {1, 2}


def test_discover_without_a_service_id_or_a_tag_changes_nothing():
    k = Kernel(seed=19, end=50.0)
    net, protos = _chain(k, 5)
    protos[4].host_service("svc", ontology_tag="Safety")
    before = (k.next_id, protos[0]._next_qid, protos[0].sequence,
              net.delivered_msgs, net.suppressed_msgs, net.cancelled_msgs)
    with pytest.raises(ValueError, match="service_id or an ontology_tag"):
        protos[0].discover(callback=lambda result: None)
    assert (k.next_id, protos[0]._next_qid, protos[0].sequence,
            net.delivered_msgs, net.suppressed_msgs, net.cancelled_msgs) == before
    assert not protos[0]._open_queries and not protos[0]._flood_best
    k.run_until(20.0)
    assert net.delivered_msgs == 0


# -- per-flood records and the bounds that end them -------------------------------

def _flood_heavy(sim_time_s=200.0, query_count=120, advert_hops=2):
    """The discovery-flood bench scenario, shortened, with two-hop adverts:
    one replication of 50 mobile nodes."""
    cfg = ScenarioConfig()
    cfg.simulation.sim_time_s = sim_time_s
    cfg.discovery.query_count = query_count
    cfg.discovery.advert_hops = advert_hops
    return cfg


def _networks(monkeypatch):
    """The list that each `Network` built from now on is appended to."""
    nets = []
    real_init = Network.__init__

    def init(net, *args, **kwargs):
        real_init(net, *args, **kwargs)
        nets.append(net)
    monkeypatch.setattr(Network, "__init__", init)
    return nets


def _record_floods(monkeypatch):
    """Wrap `discover` and `advertise` to note each flood at its origination:
    {query id: (issue time, ttl)}, {advert key: advert_hops}, and the list
    of origination times."""
    queries, adverts, originations = {}, {}, []
    real_discover, real_advertise = DiscoveryNode.discover, DiscoveryNode.advertise

    def discover(node, *args, **kwargs):
        query = real_discover(node, *args, **kwargs)
        if query.query_id in node._open_queries:
            queries[query.query_id] = (query.issued_at, node.ttl)
            originations.append(node.net.k.now)
        return query

    def advertise(node):
        real_advertise(node)
        for desc, *_ in node.hosted.values():
            adverts[(node.id, desc.service_id, desc.issued_at)] = node.advert_hops
        originations.append(node.net.k.now)
    monkeypatch.setattr(DiscoveryNode, "discover", discover)
    monkeypatch.setattr(DiscoveryNode, "advertise", advertise)
    return queries, adverts, originations


@pytest.mark.parametrize("hop_delay_s", [None, (0.005, 0.005)])
def test_flood_records_are_read_only_until_their_bounds(monkeypatch, hop_delay_s):
    """The argument behind dropping a flood's records, checked on the reads
    themselves: with d the longest MAC delay and N the node count, an advert
    key is read by `issued_at + advert_hops * d`, a query id in
    `_flood_best` by `issue + ttl * d` and in `_replied` by
    `issue + (ttl + N - 1) * d`. With every delay equal to d, adverts reach
    their bound exactly."""
    if hop_delay_s is not None:
        monkeypatch.setattr(experiments, "Network",
                            lambda kernel, nodes, r: Network(kernel, nodes, r, hop_delay_s))
    nets, reads = _networks(monkeypatch), []

    def reading(name, record, key_of):
        real = getattr(DiscoveryNode, name)

        def read(node, *args):
            reads.append((record, key_of(*args), node.net.k.now))
            return real(node, *args)
        monkeypatch.setattr(DiscoveryNode, name, read)
    reading("_ignores_advert", "advert", lambda key, at: key)
    reading("_on_advert", "advert", lambda msg, via: msg.copy_fields())
    reading("_ignores_flood", "flood", lambda fields, at: fields[0])
    reading("_flood_arrival", "flood", lambda fields, via: fields[0])
    reading("_on_sreq", "flood", lambda msg, via: msg.query_id)
    reading("_send_srep", "replied", lambda srep: srep.query_id)
    queries, adverts, _ = _record_floods(monkeypatch)

    results = run_discovery_replication(_flood_heavy(), 31)
    (net,) = nets
    d, n = net.hop_delay_s[1], len(net.nodes)
    latest = {}
    for record, key, at in reads:
        if record == "advert":
            late = at - (key[2] + adverts[key] * d)
        else:
            issued, ttl = queries[key]
            late = at - (issued + (ttl if record == "flood" else ttl + n - 1) * d)
        assert late <= 1e-9, (record, key, at)
        latest[record] = max(latest.get(record, -math.inf), late)
    assert latest.keys() == {"advert", "flood", "replied"}
    assert any(not r.cache_hit and not r.timed_out for r in results)
    if hop_delay_s is not None:
        assert latest["advert"] == pytest.approx(0.0, abs=1e-9)


def test_dropping_flood_records_changes_no_event(monkeypatch):
    """The same replication with `_forget_floods` made a no-op: the same
    events in the same order and the same results, though that run ends
    holding every record. MAC delays of up to 0.5 s make floods last long
    enough that other floods start while they are in flight."""
    monkeypatch.setattr(experiments, "Network",
                        lambda kernel, nodes, r: Network(kernel, nodes, r, (0.1, 0.5)))

    def run():
        trace = []
        with monkeypatch.context() as m:
            m.setattr(experiments, "Kernel",
                      lambda *args, **kwargs: Kernel(*args, trace=trace, **kwargs))
            nets = _networks(m)
            results = run_discovery_replication(_flood_heavy(), 37)
        held = sum(len(node._advert_seen) + len(node._flood_best) + len(node._replied)
                   for node in nets[0].protocols.values())
        return results, trace, held

    results, trace, held = run()
    monkeypatch.setattr(DiscoveryNode, "_forget_floods", lambda node: None)
    kept_results, kept_trace, kept = run()
    assert trace == kept_trace and results == kept_results
    assert held * 10 < kept, (held, kept)


def test_nodes_hold_only_the_records_of_floods_in_flight(monkeypatch):
    """After a 500 s run of the discovery-flood bench scenario, each node's
    records name only floods whose bound had not passed at the last flood
    origination: an advert's `issued_at + (advert_hops + 1) * d`, a query's
    `issue + (ttl + N) * d`."""
    nets = _networks(monkeypatch)
    queries, adverts, originations = _record_floods(monkeypatch)
    run_discovery_replication(_flood_heavy(500.0, 300, advert_hops=1), 29)
    (net,) = nets
    d, n, last = net.hop_delay_s[1], len(net.nodes), originations[-1]
    assert len(queries) > 100 and len(adverts) > 400
    held = 0
    for node in net.protocols.values():
        for key in chain(node._advert_seen, node._advert_due):
            held += 1
            assert key[2] + (adverts[key] + 1) * d >= last, (node.id, key)
        for qid in chain(node._flood_best, node._flood_due, node._replied):
            held += 1
            issued, ttl = queries[qid]
            assert issued + (ttl + n) * d >= last, (node.id, qid)
    assert held < 2 * len(net.nodes)
