"""Placement, random-waypoint stepping, Friis propagation, connectivity."""

import math

import numpy as np
import pytest

from crahnsim.mobility import (Area, NodeState, connectivity_components,
                               friis_received_power, neighbor_graph,
                               place_uniform, step_waypoint)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_static_roles_do_not_move():
    area = Area()
    for role in ("sensor", "cluster-head", "sink", "detector"):
        node = NodeState(id=0, x=100.0, y=200.0, role=role)
        step_waypoint(node, 0.0, 50.0, _rng(1), area)
        assert (node.x, node.y) == (100.0, 200.0)


def test_exact_arrival_on_hand_geometry():
    # (0,0) -> (3,4) is 5 m; at 5 m/s one second lands exactly on the waypoint
    node = NodeState(id=0, x=0.0, y=0.0, speed=5.0, waypoint=(3.0, 4.0),
                     has_waypoint=True)
    step_waypoint(node, 0.0, 1.0, _rng(1), Area())
    assert node.x == pytest.approx(3.0, abs=1e-9)
    assert node.y == pytest.approx(4.0, abs=1e-9)


def test_partial_leg_moves_proportionally():
    node = NodeState(id=0, x=0.0, y=0.0, speed=5.0, waypoint=(30.0, 40.0),
                     has_waypoint=True)
    step_waypoint(node, 0.0, 1.0, _rng(1), Area())
    assert math.hypot(node.x, node.y) == pytest.approx(5.0, abs=1e-9)


def test_ten_thousand_steps_stay_inside_area():
    area = Area(1000.0, 1000.0)
    node = NodeState(id=0, x=500.0, y=500.0)
    rng = _rng(42)
    for _ in range(10_000):
        step_waypoint(node, 0.0, 1.0, rng, area)
        assert 0.0 <= node.x <= area.width
        assert 0.0 <= node.y <= area.height


def test_waypoint_trajectory_is_seed_deterministic():
    def walk(seed):
        node = NodeState(id=0, x=10.0, y=10.0)
        rng = _rng(seed)
        return [(step_waypoint(node, float(t), 1.0, rng, Area()).x, node.y)
                for t in range(200)]

    assert walk(9) == walk(9)
    assert walk(9) != walk(10)


def test_pause_free_walk_draws_a_speed_for_every_leg():
    node = NodeState(id=0, x=50.0, y=50.0)
    rng = _rng(12)
    legs = set()
    for t in range(2000):
        step_waypoint(node, float(t), 1.0, rng, Area(100.0, 100.0), pause_max=0.0)
        legs.add((node.waypoint, node.speed))
    # each leg has its own waypoint and its own speed
    assert len(legs) == len({w for w, _ in legs}) == len({v for _, v in legs}) > 10


def test_nonpositive_dt_rejected():
    with pytest.raises(ValueError):
        step_waypoint(NodeState(id=0, x=0, y=0), 0.0, 0.0, _rng(1), Area())


def test_friis_inverse_square_law():
    near = friis_received_power(0.1, 1.0, 1.0, 0.125, 100.0)
    far = friis_received_power(0.1, 1.0, 1.0, 0.125, 200.0)
    assert near / far == pytest.approx(4.0, rel=1e-12)


def test_friis_hand_value():
    expected = 0.1 * 0.125 ** 2 / ((4.0 * math.pi * 100.0) ** 2)
    got = friis_received_power(0.1, 1.0, 1.0, 0.125, 100.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(9.89e-10, rel=1e-3)


def test_friis_singularity_and_monotonicity():
    with pytest.raises(ValueError):
        friis_received_power(0.1, 1.0, 1.0, 0.125, 0.0)
    powers = [friis_received_power(0.1, 1.0, 1.0, 0.125, d)
              for d in (1.0, 10.0, 50.0, 250.0, 1000.0)]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_neighbor_graph_trivial_cases():
    assert neighbor_graph([NodeState(id=0, x=0, y=0)]) == {0: set()}
    pair = [NodeState(id=0, x=0, y=0), NodeState(id=1, x=10, y=0)]
    assert neighbor_graph(pair) == {0: {1}, 1: {0}}


def test_neighbor_graph_matches_pairwise_distance_oracle():
    rng = _rng(21)
    nodes = place_uniform(50, Area(), rng)
    adj = neighbor_graph(nodes)
    for a in nodes:
        for b in nodes:
            if a.id == b.id:
                assert b.id not in adj[a.id]
                continue
            within = a.distance_to(b) <= min(a.radio_range_m, b.radio_range_m)
            assert (b.id in adj[a.id]) == within
            assert (b.id in adj[a.id]) == (a.id in adj[b.id])


def test_asymmetric_ranges_use_the_smaller_radio():
    a = NodeState(id=0, x=0, y=0, radio_range_m=300.0)
    b = NodeState(id=1, x=200.0, y=0, radio_range_m=100.0)
    assert neighbor_graph([a, b]) == {0: set(), 1: set()}


def _bfs_components(graph):
    seen = set()
    comps = []
    for start in graph:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in graph[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(comp)
    return sorted(comps, key=min)


def test_connectivity_trivial_cases():
    assert connectivity_components({0: set()}) == [{0}]
    far = [NodeState(id=0, x=0, y=0), NodeState(id=1, x=900, y=900)]
    assert connectivity_components(neighbor_graph(far)) == [{0}, {1}]


def test_components_equal_bfs_oracle_on_100_instances():
    for seed in range(100):
        nodes = place_uniform(30, Area(), _rng(seed))
        graph = neighbor_graph(nodes)
        assert connectivity_components(graph) == _bfs_components(graph)


def test_components_partition_and_adjacency_closure():
    nodes = place_uniform(40, Area(), _rng(77))
    graph = neighbor_graph(nodes)
    comps = connectivity_components(graph)
    union = set()
    for comp in comps:
        assert not (union & comp)  # disjoint
        union |= comp
        for v in comp:
            assert graph[v] <= comp  # closed under adjacency
    assert union == set(graph)


def test_area_validation():
    with pytest.raises(ValueError):
        Area(-1.0, 100.0)
