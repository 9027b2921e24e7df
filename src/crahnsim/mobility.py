"""Node placement, random-waypoint motion, free-space propagation, connectivity."""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

STATIC_ROLES = {"sensor", "cluster-head", "sink", "detector"}

DEFAULT_AREA_M = 1000.0
DEFAULT_RADIO_RANGE_M = 250.0
DEFAULT_V_MIN = 1.0
DEFAULT_V_MAX = 5.0
DEFAULT_PAUSE_MAX_S = 10.0


@dataclass
class Area:
    width: float = DEFAULT_AREA_M
    height: float = DEFAULT_AREA_M

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("area dimensions must be positive")


@dataclass
class NodeState:
    id: int
    x: float
    y: float
    role: str = "rescue-SU"
    speed: float = 0.0
    waypoint: tuple[float, float] = (0.0, 0.0)
    pause_until: float = 0.0
    tx_power_w: float = 0.1
    radio_range_m: float = DEFAULT_RADIO_RANGE_M
    has_waypoint: bool = False

    def distance_to(self, other: "NodeState") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def place_uniform(count: int, area: Area, rng: np.random.Generator,
                  role: str = "rescue-SU", start_id: int = 0) -> list[NodeState]:
    nodes = []
    for i in range(count):
        x = rng.uniform(0.0, area.width)
        y = rng.uniform(0.0, area.height)
        nodes.append(NodeState(id=start_id + i, x=x, y=y, role=role))
    return nodes


def step_waypoint(node: NodeState, now: float, dt: float, rng: np.random.Generator,
                  area: Area, v_min: float = DEFAULT_V_MIN, v_max: float = DEFAULT_V_MAX,
                  pause_max: float = DEFAULT_PAUSE_MAX_S) -> NodeState:
    """Advance one random-waypoint step. Static nodes (speed 0, no waypoint) don't move."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if node.role in STATIC_ROLES and not node.has_waypoint:
        return node
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
            node.waypoint = (rng.uniform(0.0, area.width), rng.uniform(0.0, area.height))
            node.speed = rng.uniform(v_min, v_max)
            node.has_waypoint = True
            continue
        if not node.has_waypoint:
            node.waypoint = (rng.uniform(0.0, area.width), rng.uniform(0.0, area.height))
            if node.speed <= 0:
                node.speed = rng.uniform(v_min, v_max)
            node.has_waypoint = True
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
            node.pause_until = t + rng.uniform(0.0, pause_max)
            node.has_waypoint = False
        else:
            frac = travel / dist
            node.x += (wx - node.x) * frac
            node.y += (wy - node.y) * frac
            remaining = 0.0
    node.x = min(max(node.x, 0.0), area.width)
    node.y = min(max(node.y, 0.0), area.height)
    return node


def friis_received_power(tx_power_w: float, gain_tx: float, gain_rx: float,
                         wavelength_m: float, distance_m: float) -> float:
    """Free-space received power: Pt*Gt*Gr*lambda^2 / ((4*pi*d)^2)."""
    if distance_m <= 0:
        raise ValueError("distance must be positive (free-space singularity at 0)")
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
    return tx_power_w * gain_tx * gain_rx * wavelength_m ** 2 / ((4.0 * math.pi * distance_m) ** 2)


def neighbor_graph(nodes: list[NodeState]) -> dict[int, set[int]]:
    """Symmetric, irreflexive adjacency: edge iff within both radios' range."""
    if len(nodes) < 2:
        return {n.id: set() for n in nodes}
    ids = np.array([n.id for n in nodes])
    pos = np.array([[n.x, n.y] for n in nodes])
    rng_m = np.array([n.radio_range_m for n in nodes])
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
    limit = np.minimum(rng_m[:, None], rng_m[None, :]) ** 2
    # (a - b)**2 == (b - a)**2 exactly, so `within` is symmetric bit for bit
    within = d2 <= limit
    np.fill_diagonal(within, False)
    rows, cols = np.nonzero(within)  # row-major: each row's neighbours are contiguous
    nbr_ids = ids[cols].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(nodes))).tolist()
    return {n.id: set(nbr_ids[start:end])
            for n, start, end in zip(nodes, [0] + ends[:-1], ends)}


def connectivity_components(graph: dict[int, set[int]]) -> list[set[int]]:
    """Connected components by graph search; a partition of node ids, sorted
    by each component's smallest id."""
    comps = []
    unseen = set(graph)
    while unseen:
        comp = {unseen.pop()}
        frontier = comp
        while frontier:
            frontier = set().union(*(graph[v] for v in frontier)) - comp
            comp |= frontier
        unseen -= comp
        comps.append(comp)
    return sorted(comps, key=min)
