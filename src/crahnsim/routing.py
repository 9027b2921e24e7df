"""AODV-style on-demand routing over a range-limited broadcast MAC abstraction.

The MAC layer is a delay/loss contract: each hop delivers after a uniform
[1, 5] ms delay, with optional Bernoulli loss. Route requests flood with
duplicate suppression; a duplicate carrying a strictly better hop count
updates routes and is re-forwarded, so installed routes converge to minimum
hop counts on static topologies.

A broadcast copy that its receiver would provably handle as a no-op is never
scheduled (`AodvNode.ignores`): the proof rests on state that only moves one
way. Duplicate-suppression records only grow and their best hop counts only
fall; a route's `expires_at` never falls, since every write sets it to
`now + route_lifetime_s`; and while a route is not stale its
`(dest_sequence, -hop_count)` only rises. Dropping such copies changes no
handler's inputs and, as event ids stay increasing in scheduling order, does
not reorder the events that are left.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

from .kernel import Kernel
from .mobility import NodeState, neighbor_graph

DEFAULT_HOP_DELAY_S = (0.001, 0.005)
DEFAULT_TTL = 20
DEFAULT_ROUTE_LIFETIME_S = 30.0


@dataclass
class RouteEntry:
    destination: int
    next_hop: int
    hop_count: int
    dest_sequence: int
    expires_at: float


@dataclass
class Rreq:
    origin: int
    destination: int
    broadcast_id: int
    origin_sequence: int
    hop_count: int  # hops traversed from origin to the receiving node
    ttl: int
    dest_sequence_known: int = 0


@dataclass
class Rrep:
    destination: int
    origin: int
    dest_sequence: int
    hop_count: int  # hops traversed from destination to the receiving node's sender


@dataclass
class DataMsg:
    origin: int
    destination: int
    payload: object
    kind: str = "data"


class Network:
    """Owns node positions, the beacon-derived neighbor graph, and message delivery."""

    def __init__(self, kernel: Kernel, nodes: list[NodeState],
                 hop_delay_s: tuple = DEFAULT_HOP_DELAY_S, loss_rate: float = 0.0):
        self.k = kernel
        self.nodes = {n.id: n for n in nodes}
        self._targets = {n.id: f"n{n.id}" for n in nodes}  # event target label per node
        self.hop_delay_s = hop_delay_s
        self.loss_rate = loss_rate
        self.adjacency = neighbor_graph(nodes)
        self.protocols: dict[int, "AodvNode"] = {}
        self.delivered_msgs = 0
        self.suppressed_msgs = 0  # broadcast copies not scheduled: see AodvNode.ignores
        self._delay_rng = kernel.stream("mac-delay")
        self._loss_rng = kernel.stream("mac-loss")

    def attach(self, proto: "AodvNode") -> None:
        self.protocols[proto.id] = proto

    def refresh_beacons(self) -> None:
        self.adjacency = neighbor_graph(list(self.nodes.values()))

    def _delay(self) -> float:
        lo, hi = self.hop_delay_s
        return float(self._delay_rng.uniform(lo, hi))

    def _lost(self) -> bool:
        return self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate

    def send(self, src: int, dst: int, msg) -> None:
        """Unicast to a current neighbor; silently dropped if out of range or lost."""
        if dst not in self.adjacency.get(src, ()) or self._lost():
            return
        delay = self._delay()
        self.k.schedule(self.k.now + delay, self._deliver, args=(dst, src, msg),
                        target=self._targets[dst], kind=type(msg).__name__.lower())

    def broadcast(self, src: int, msg) -> None:
        """Deliver to each current neighbor that the loss draw spares, in id
        order. Loss and delay have their own streams, so drawing each stream's
        values in one call keeps both sequences unchanged. Every copy gets its
        draws; a copy whose receiving protocol `ignores` it is counted in
        `suppressed_msgs` instead of being scheduled."""
        nbrs = sorted(self.adjacency.get(src, ()))
        if self.loss_rate > 0:
            draws = self._loss_rng.random(len(nbrs))
            nbrs = [nbr for nbr, r in zip(nbrs, draws.tolist()) if not r < self.loss_rate]
        if not nbrs:
            return
        lo, hi = self.hop_delay_s
        delays = self._delay_rng.uniform(lo, hi, size=len(nbrs)).tolist()
        kind = type(msg).__name__.lower()
        schedule, now, deliver, targets = self.k.schedule, self.k.now, self._deliver, self._targets
        protocols = self.protocols
        for nbr, delay in zip(nbrs, delays):
            at = now + delay
            proto = protocols.get(nbr)
            if proto is not None and proto.ignores(msg, at):
                self.suppressed_msgs += 1
                continue
            schedule(at, deliver, args=(nbr, src, msg), target=targets[nbr], kind=kind)

    def _deliver(self, dst: int, src: int, msg) -> None:
        proto = self.protocols.get(dst)
        if proto is not None:
            self.delivered_msgs += 1
            proto.receive(msg, src)


class AodvNode:
    """Per-node AODV state machine plus an application hook for higher layers."""

    def __init__(self, node_id: int, network: Network,
                 ttl: int = DEFAULT_TTL, route_lifetime_s: float = DEFAULT_ROUTE_LIFETIME_S):
        self.id = node_id
        self.net = network
        self.ttl = ttl
        self.route_lifetime_s = route_lifetime_s
        self.routes: dict[int, RouteEntry] = {}
        self.sequence = 0
        self._bid = 0
        self._rreq_best: dict[tuple, int] = {}  # (origin, bid) -> best hop count seen
        self._rreq_due: dict[tuple, tuple] = {}  # (origin, bid) -> in-flight copy, see ignores
        self._replied_bids: dict[tuple, int] = {}  # dest only: bid -> seq used
        self._pending: dict[int, list] = {}  # dest -> queued (payload, kind)
        self.rreq_originations = 0
        self.rreq_forwards: dict[tuple, int] = {}
        self.dropped_rreps = 0
        self.delivered: list[tuple] = []  # (payload, origin, kind)
        self._handlers = {Rreq: self._on_rreq, Rrep: self._on_rrep, DataMsg: self._on_data}
        self._ignore_tests = {Rreq: self._ignores_rreq}
        network.attach(self)

    # -- route table ----------------------------------------------------------

    def next_hop(self, destination: int) -> Optional[int]:
        entry = self.routes.get(destination)
        if entry is None or entry.expires_at < self.net.k.now:
            return None
        entry.expires_at = self.net.k.now + self.route_lifetime_s
        return entry.next_hop

    def _maybe_install(self, destination: int, via: int, hops: int, seq: int) -> bool:
        cur = self.routes.get(destination)
        now = self.net.k.now
        stale = cur is None or cur.expires_at < now
        if stale or seq > cur.dest_sequence or (seq == cur.dest_sequence and hops < cur.hop_count):
            self.routes[destination] = RouteEntry(destination, via, hops, seq,
                                                  now + self.route_lifetime_s)
            return True
        return False

    # -- origination ----------------------------------------------------------

    def originate_rreq(self, destination: int) -> None:
        self.sequence += 1
        self._bid += 1
        self.rreq_originations += 1
        key = (self.id, self._bid)
        self._rreq_best[key] = 0
        known = self.routes[destination].dest_sequence if destination in self.routes else 0
        rreq = Rreq(origin=self.id, destination=destination, broadcast_id=self._bid,
                    origin_sequence=self.sequence, hop_count=1, ttl=self.ttl,
                    dest_sequence_known=known)
        self.net.broadcast(self.id, rreq)

    def send_data(self, destination: int, payload, kind: str = "data") -> None:
        if destination == self.id:
            self.delivered.append((payload, self.id, kind))
            return
        nh = self.next_hop(destination)
        if nh is None:
            self._pending.setdefault(destination, []).append((payload, kind))
            self.originate_rreq(destination)
            return
        self.net.send(self.id, nh, DataMsg(self.id, destination, payload, kind))

    # -- receive dispatch -----------------------------------------------------

    def receive(self, msg, from_id: int) -> None:
        """Dispatch on the exact message type; any other type goes to `app_receive`."""
        handler = self._handlers.get(type(msg))
        if handler is None:
            self.app_receive(msg, from_id)
        else:
            handler(msg, from_id)

    def ignores(self, msg, at: float) -> bool:
        """Whether a broadcast copy of `msg` arriving here at `at` would be a
        no-op, so that `Network.broadcast` need not schedule it. A False answer
        means the copy will be scheduled, and the node notes it as in flight."""
        test = self._ignore_tests.get(type(msg))
        return test is not None and test(msg, at)

    def _ignores_flood(self, best: dict, due: dict, key, origin: int, seq: int,
                       hops: int, at: float) -> bool:
        """The flood-copy rule shared by RREQ and SREQ. The handler does
        `_maybe_install(origin, ., hops, seq)`, then returns if `best[key] <=
        hops`. The copy is a no-op if, with the route to `origin` (if any)
        still live at `at` and any route installed from now on lasting until
        `at`: the duplicate test holds already and the install would do
        nothing, or an earlier-scheduled copy with the same origin and
        sequence and no more hops arrives no later (once delivered, it leaves
        both tests holding). `due[key]` holds one scheduled copy,
        `(at, hops, origin, seq)`, until the handler sees it arrive, so a
        record present is always still in flight."""
        now = self.net.k.now
        entry = self.routes.get(origin)
        if now + self.route_lifetime_s < at or (entry is not None and entry.expires_at < at):
            return False
        b = best.get(key)
        if (b is not None and b <= hops and entry is not None
                and (seq < entry.dest_sequence
                     or (seq == entry.dest_sequence and hops >= entry.hop_count))):
            return True
        d = due.get(key)
        if d is None:
            due[key] = (at, hops, origin, seq)
        elif d[2] == origin and d[3] == seq:
            if d[0] <= at and d[1] <= hops:
                return True
            if at <= d[0] and hops <= d[1]:
                due[key] = (at, hops, origin, seq)
        return False

    def _drop_arrived(self, due: dict, key) -> None:
        """Forget the in-flight record for `key` once its copy has arrived."""
        d = due.get(key)
        if d is not None and d[0] <= self.net.k.now:
            del due[key]

    def _ignores_rreq(self, rreq: Rreq, at: float) -> bool:
        return self._ignores_flood(self._rreq_best, self._rreq_due,
                                   (rreq.origin, rreq.broadcast_id), rreq.origin,
                                   rreq.origin_sequence, rreq.hop_count, at)

    def app_receive(self, msg, from_id: int) -> None:
        """Hook for higher layers (service discovery); default drops."""

    def on_data(self, payload, origin: int, kind: str) -> None:
        """Hook invoked when a data payload reaches this node."""

    # -- AODV handlers --------------------------------------------------------

    def _on_rreq(self, rreq: Rreq, from_id: int) -> None:
        h = rreq.hop_count
        self._maybe_install(rreq.origin, from_id, h, rreq.origin_sequence)
        key = (rreq.origin, rreq.broadcast_id)
        self._drop_arrived(self._rreq_due, key)
        best = self._rreq_best.get(key)
        if best is not None and h >= best:
            return  # duplicate with no better hop count
        self._rreq_best[key] = h

        if self.id == rreq.destination:
            seq = self._replied_bids.get(key)
            if seq is None:
                self.sequence = max(self.sequence + 1, rreq.dest_sequence_known)
                seq = self.sequence
                self._replied_bids[key] = seq
            self._send_rrep_toward(rreq.origin, Rrep(
                destination=self.id, origin=rreq.origin, dest_sequence=seq, hop_count=0))
            return
        # intermediates answer only refresh requests (origin names a known
        # sequence); cold lookups always flood through to the destination so
        # installed routes converge to minimum hop counts
        entry = self.routes.get(rreq.destination)
        if (entry is not None and entry.expires_at >= self.net.k.now
                and rreq.dest_sequence_known > 0
                and entry.dest_sequence >= rreq.dest_sequence_known):
            self._send_rrep_toward(rreq.origin, Rrep(
                destination=rreq.destination, origin=rreq.origin,
                dest_sequence=entry.dest_sequence, hop_count=entry.hop_count))
            return
        if rreq.ttl > 1:
            self.rreq_forwards[key] = self.rreq_forwards.get(key, 0) + 1
            fwd = Rreq(origin=rreq.origin, destination=rreq.destination,
                       broadcast_id=rreq.broadcast_id, origin_sequence=rreq.origin_sequence,
                       hop_count=h + 1, ttl=rreq.ttl - 1,
                       dest_sequence_known=rreq.dest_sequence_known)
            self.net.broadcast(self.id, fwd)

    def _send_rrep_toward(self, origin: int, rrep: Rrep) -> None:
        entry = self.routes.get(origin)
        if entry is None or entry.expires_at < self.net.k.now:
            self.dropped_rreps += 1
            return
        self.net.send(self.id, entry.next_hop, rrep)

    def _on_rrep(self, rrep: Rrep, from_id: int) -> None:
        hops = rrep.hop_count + 1
        self._maybe_install(rrep.destination, from_id, hops, rrep.dest_sequence)
        if self.id == rrep.origin:
            self._flush_pending(rrep.destination)
            return
        fwd = Rrep(destination=rrep.destination, origin=rrep.origin,
                   dest_sequence=rrep.dest_sequence, hop_count=hops)
        self._send_rrep_toward(rrep.origin, fwd)

    def _flush_pending(self, destination: int) -> None:
        queued = self._pending.pop(destination, [])
        for payload, kind in queued:
            self.send_data(destination, payload, kind)

    def _on_data(self, msg: DataMsg, from_id: int) -> None:
        if msg.destination == self.id:
            self.delivered.append((msg.payload, msg.origin, msg.kind))
            self.on_data(msg.payload, msg.origin, msg.kind)
            return
        nh = self.next_hop(msg.destination)
        if nh is None:
            return  # no route at relay; dropped (no RERR machinery)
        self.net.send(self.id, nh, msg)


def build_aodv_network(kernel: Kernel, nodes: list[NodeState], **kwargs) -> tuple[Network, dict[int, AodvNode]]:
    net = Network(kernel, nodes, **kwargs)
    protos = {n.id: AodvNode(n.id, net) for n in nodes}
    return net, protos
