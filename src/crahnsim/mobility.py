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


def step_nodes(nodes: list[NodeState], now: float, dt: float, rng: np.random.Generator,
               area: Area, v_min: float = DEFAULT_V_MIN, v_max: float = DEFAULT_V_MAX,
               pause_max: float = DEFAULT_PAUSE_MAX_S) -> None:
    """One mobility tick: `step_waypoint` on each node, in list order.

    A node moving on its leg that does not reach the waypoint within `dt`
    draws nothing; it advances inline, by `step_waypoint`'s own arithmetic.
    Every other node (paused, arriving, without a waypoint, speed 0) goes
    through `step_waypoint`, so positions and draws are bit for bit those of
    calling it on every node."""
    width, height = area.width, area.height
    inline = dt > 1e-12
    hypot = math.hypot
    for node in nodes:
        speed = node.speed
        if inline and node.has_waypoint and speed > 0 and not now < node.pause_until:
            wx, wy = node.waypoint
            x, y = node.x, node.y
            dist = hypot(wx - x, wy - y)
            travel = speed * dt
            if travel < dist:
                frac = travel / dist
                node.x = min(max(x + (wx - x) * frac, 0.0), width)
                node.y = min(max(y + (wy - y) * frac, 0.0), height)
                continue
        step_waypoint(node, now, dt, rng, area, v_min, v_max, pause_max)


def friis_received_power(tx_power_w: float, gain_tx: float, gain_rx: float,
                         wavelength_m: float, distance_m: float) -> float:
    """Free-space received power: Pt*Gt*Gr*lambda^2 / ((4*pi*d)^2)."""
    if distance_m <= 0:
        raise ValueError("distance must be positive (free-space singularity at 0)")
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
    return tx_power_w * gain_tx * gain_rx * wavelength_m ** 2 / ((4.0 * math.pi * distance_m) ** 2)


def in_range(nodes: list[NodeState]) -> np.ndarray:
    """Symmetric, irreflexive n x n matrix, in list order: i and j are in
    range iff dx*dx + dy*dy <= min(r_i, r_j)**2."""
    xs = np.array([n.x for n in nodes])
    ys = np.array([n.y for n in nodes])
    rng_m = np.array([n.radio_range_m for n in nodes])
    # per axis, not over an (n, n, 2) array: dx*dx + dy*dy is bit for bit the
    # sum of squares along the last axis, and (a - b)**2 == (b - a)**2
    # exactly, so the matrix is symmetric bit for bit
    dx = xs[:, None] - xs
    dy = ys[:, None] - ys
    limit = np.minimum(rng_m[:, None], rng_m)
    within = dx * dx + dy * dy <= limit * limit
    within.flat[::len(nodes) + 1] = False  # the diagonal
    return within


def neighbor_graph(nodes: list[NodeState]) -> dict[int, set[int]]:
    """Symmetric, irreflexive adjacency: edge iff within both radios' range."""
    ids = np.array([n.id for n in nodes])
    rows, cols = np.nonzero(in_range(nodes))  # row-major: each row's neighbours are contiguous
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
