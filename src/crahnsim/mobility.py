"""Node placement, random-waypoint motion, free-space propagation, connectivity."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import draw_uniform

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
    speed: float = 0.0
    waypoint: Optional[tuple[float, float]] = None  # None: no leg in progress
    pause_until: float = 0.0

    def distance_to(self, other: "NodeState") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def place_uniform(count: int, area: Area, rng: np.random.Generator,
                  start_id: int = 0) -> list[NodeState]:
    nodes = []
    for i in range(count):
        x = draw_uniform(rng, 0.0, area.width)
        y = draw_uniform(rng, 0.0, area.height)
        nodes.append(NodeState(id=start_id + i, x=x, y=y))
    return nodes


def step_waypoint(node: NodeState, now: float, dt: float, rng: np.random.Generator,
                  area: Area, v_min: float = DEFAULT_V_MIN, v_max: float = DEFAULT_V_MAX,
                  pause_max: float = DEFAULT_PAUSE_MAX_S) -> NodeState:
    """`step_nodes` on one node."""
    step_nodes([node], now, dt, rng, area, v_min, v_max, pause_max)
    return node


def step_nodes(nodes: list[NodeState], now: float, dt: float, rng: np.random.Generator,
               area: Area, v_min: float = DEFAULT_V_MIN, v_max: float = DEFAULT_V_MAX,
               pause_max: float = DEFAULT_PAUSE_MAX_S) -> None:
    """One random-waypoint tick of `dt` seconds from `now`, node by node in
    list order, all drawing from `rng`. A node without a leg draws a
    waypoint in the area and a speed in [v_min, v_max]; on arrival it stands
    on the waypoint and draws a pause in [0, pause_max], and when the pause
    ends within the tick it draws its next leg. A node with speed 0 stays
    put. Each node ends the tick clamped to the area."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    width, height = area.width, area.height
    hypot = math.hypot
    for node in nodes:
        x, y = node.x, node.y
        remaining = dt
        t = now
        while remaining > 1e-12:
            if t < node.pause_until:
                wait = min(node.pause_until - t, remaining)
                t += wait
                remaining -= wait
                if remaining <= 1e-12:
                    break
                node.waypoint = None  # pause over: the next leg is drawn below
            if node.waypoint is None:
                node.waypoint = (draw_uniform(rng, 0.0, width), draw_uniform(rng, 0.0, height))
                node.speed = draw_uniform(rng, v_min, v_max)
                continue
            speed = node.speed
            if speed <= 0:
                break
            wx, wy = node.waypoint
            dist = hypot(wx - x, wy - y)
            travel = speed * remaining
            if travel < dist:
                frac = travel / dist
                x += (wx - x) * frac
                y += (wy - y) * frac
                break
            # arrive exactly, then pause
            x, y = wx, wy
            used = dist / speed
            t += used
            remaining -= used
            node.pause_until = t + draw_uniform(rng, 0.0, pause_max)
            node.waypoint = None
        # `min(max(v, 0.0), w)` without the builtin calls: max keeps its first
        # argument unless 0.0 > v, min unless w < v, so -0.0 and NaN come out
        # as they do there
        x = 0.0 if 0.0 > x else x
        node.x = width if width < x else x
        y = 0.0 if 0.0 > y else y
        node.y = height if height < y else y


def friis_received_power(tx_power_w: float, wavelength_m: float, distance_m: float) -> float:
    """Free-space received power between unit-gain antennas:
    Pt*lambda^2 / ((4*pi*d)^2)."""
    if distance_m <= 0:
        raise ValueError("distance must be positive (free-space singularity at 0)")
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
    return tx_power_w * wavelength_m ** 2 / ((4.0 * math.pi * distance_m) ** 2)


def in_range(nodes: list[NodeState], radio_range_m: float) -> np.ndarray:
    """Symmetric, irreflexive n x n matrix, in list order: i != j are in
    range iff dx*dx + dy*dy <= radio_range_m * radio_range_m."""
    xs = np.array([n.x for n in nodes])
    ys = np.array([n.y for n in nodes])
    # per axis, not over an (n, n, 2) array: dx*dx + dy*dy is bit for bit the
    # sum of squares along the last axis, and (a - b)**2 == (b - a)**2
    # exactly, so the matrix is symmetric bit for bit
    dx = xs[:, None] - xs
    dy = ys[:, None] - ys
    dx *= dx
    dy *= dy
    dx += dy
    within = dx <= radio_range_m * radio_range_m
    within.flat[::len(nodes) + 1] = False
    return within


def neighbor_graph(nodes: list[NodeState],
                   radio_range_m: float = DEFAULT_RADIO_RANGE_M) -> dict[int, set[int]]:
    """Symmetric, irreflexive adjacency of `in_range`: edge iff the two
    nodes are within `radio_range_m` of each other."""
    rows = neighbor_rows(in_range(nodes, radio_range_m), np.array([n.id for n in nodes]))
    return {n.id: set(row) for n, row in zip(nodes, rows)}


def neighbor_rows(within: np.ndarray, ids: np.ndarray) -> list[list[int]]:
    """Row i of the boolean matrix `within` as a list: `ids[j]` for each true
    `within[i, j]`, in column order."""
    # row-major: each row's neighbours are contiguous
    rows, cols = within.nonzero()
    nbr_ids = ids[cols].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(within))).tolist()
    return [nbr_ids[start:end] for start, end in zip([0] + ends[:-1], ends)]


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
