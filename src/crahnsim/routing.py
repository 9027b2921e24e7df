"""AODV-style on-demand routing over a range-limited broadcast MAC abstraction.

The MAC layer is a delay/loss contract: each hop delivers after a uniform
[1, 5] ms delay, with optional Bernoulli loss. Route requests flood with
duplicate suppression; a duplicate carrying a strictly better hop count
updates routes and is re-forwarded, so installed routes converge to minimum
hop counts on static topologies. `AodvNode.live_route` is the one rule for
whether a route is live now. `dropped_replies` counts every reply (RREP, or
SREP in `discovery`) with no live reverse route or whose next hop has left.

`Network.send` (unicast) and `Network.broadcast` differ only in their loss
draws; both hand the copies they keep to `Network._send_copies`, which puts
no copy on the event queue that its receiver would provably handle as a
no-op. It asks each receiver's copy test (`AodvNode.copy_tests`: RREQ here,
SREQ and adverts in `discovery`) and does not schedule a copy the test
rejects; a test that keeps a copy records it as in flight, with its event
id, and cancels (`Kernel.cancel`) each recorded copy that the new one proves
a no-op. The rule is pairwise: copy E makes a later copy L of the same flood
a no-op if E arrives first and leaves the receiver's duplicate test holding
for L with nothing left for L to install (`AodvNode._ignores_flood`). The
proofs rest on state that only moves one way. Duplicate-suppression records
only grow and their best hop counts only fall; a route's `expires_at` never
falls, since every write sets it to `now + route_lifetime_s`; and while a
route is not stale its `(dest_sequence, -hop_count)` only rises. A copy of a
node's own flood is always a no-op: the node recorded hop count 0 for it
when it originated the flood, and no node installs a route to itself.

Each proof holds in the run that delivers every copy, whichever copies are
dropped: E is delivered there even if it is itself dropped here, and then it
is a no-op that changes no state. So dropping copies changes no handler's
inputs, and, as event ids stay increasing in scheduling order and a cancelled
event keeps its id, it does not reorder the events that are left.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import Kernel, block_draws
# neighbor_graph is not called here; it stays importable for tools that patch it per module
from .mobility import NodeState, in_range, neighbor_graph  # noqa: F401

DEFAULT_HOP_DELAY_S = (0.001, 0.005)
DELAY_BLOCK = 1024  # MAC delay draws taken from the stream at once
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

    def copy_fields(self) -> tuple:
        """(flood key, origin, origin sequence, hops): what the copy test reads."""
        return (self.origin, self.broadcast_id), self.origin, self.origin_sequence, self.hop_count


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


class Network:
    """Owns node positions, the beacon-derived neighbor graph, and message delivery."""

    def __init__(self, kernel: Kernel, nodes: list[NodeState],
                 hop_delay_s: tuple = DEFAULT_HOP_DELAY_S, loss_rate: float = 0.0):
        self.k = kernel
        self.nodes = {n.id: n for n in nodes}
        self._targets = {n.id: f"n{n.id}" for n in nodes}  # event target label per node
        self.hop_delay_s = hop_delay_s
        self.loss_rate = loss_rate
        # the in-range matrix of the last refresh, rows and columns in id order
        self._by_id = sorted(self.nodes.values(), key=lambda n: n.id)
        self._ids = np.array([n.id for n in self._by_id])
        self._within: Optional[np.ndarray] = None
        self.adjacency: dict[int, tuple[int, ...]] = {}
        self.refresh_beacons()
        self.protocols: dict[int, "AodvNode"] = {}
        # message type -> (event kind, {node id: copy test}), rebuilt after
        # each `attach`; see _send_copies
        self._types: dict[type, tuple[str, dict]] = {}
        self.delivered_msgs = 0
        self.suppressed_msgs = 0  # copies not scheduled: see AodvNode.copy_tests
        self.cancelled_msgs = 0  # copies scheduled, then cancelled as no-ops
        # `uniform(lo, hi)` is lo + (hi - lo) * random(): numpy's own formula,
        # so each value and its place in the stream are those of the scalar
        # draw; the network is the stream's only reader
        self._delays = block_draws(kernel.stream("mac-delay").random, DELAY_BLOCK)
        self._loss_rng = kernel.stream("mac-loss")

    def attach(self, proto: "AodvNode") -> None:
        self.protocols[proto.id] = proto
        self._types.clear()

    def refresh_beacons(self) -> None:
        """Rebuild the neighbour rows that changed since the last refresh:
        tuples of neighbour ids in increasing order. The adjacency is a new
        dict when a row changed and the same dict otherwise."""
        within = in_range(self._by_id)
        prev, self._within = self._within, within
        if prev is None:
            changed = range(len(within))
            adjacency = {nid: () for nid in self.nodes}
        else:
            changed = np.logical_or.reduce(within != prev, axis=1).nonzero()[0].tolist()
            if not changed:
                return
            adjacency = dict(self.adjacency)
        ids = self._ids
        for i in changed:
            adjacency[self._by_id[i].id] = tuple(ids[within[i]].tolist())
        self.adjacency = adjacency

    def send(self, src: int, dst: int, msg) -> bool:
        """Unicast to a current neighbour: False, drawing nothing, if `dst` is
        not one, else True, whether or not the loss draw spares the copy."""
        if dst not in self.adjacency.get(src, ()):
            return False
        if not (self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate):
            self._send_copies(src, (dst,), msg)
        return True

    def broadcast(self, src: int, msg) -> None:
        """Send to each current neighbour that the loss draw spares, in id
        order. Loss and delay draw from separate streams, so one vector loss
        draw gives the values of one scalar draw per neighbour."""
        nbrs = self.adjacency.get(src, ())
        if self.loss_rate > 0:
            draws = self._loss_rng.random(len(nbrs))
            nbrs = [nbr for nbr, r in zip(nbrs, draws.tolist()) if not r < self.loss_rate]
        if nbrs:
            self._send_copies(src, nbrs, msg)

    def _send_copies(self, src: int, nbrs, msg) -> None:
        """Schedule a copy of `msg` from `src` to each of `nbrs`, in order,
        each after the next MAC delay of the block, unless its receiver's copy
        test (`copy_tests`, fed `copy_fields()`) rejects it: then it is counted
        in `suppressed_msgs`. Nothing is scheduled between a copy's test and
        its `schedule`, so the test knows its event id: `Kernel.next_id`."""
        lo, hi = self.hop_delay_s
        span = hi - lo  # lo + span * r is `uniform(lo, hi)`
        t = type(msg)
        entry = self._types.get(t)
        if entry is None:
            entry = self._types[t] = (t.__name__.lower(), {
                nid: proto.copy_tests[t] for nid, proto in self.protocols.items()
                if t in proto.copy_tests})
        kind, tests = entry
        fields = msg.copy_fields() if tests else None
        schedule, now, deliver, targets = self.k.schedule, self.k.now, self._deliver, self._targets
        # zip stops at the end of `nbrs` before taking another delay
        for nbr, r in zip(nbrs, self._delays):
            at = now + (lo + span * r)
            test = tests.get(nbr)
            if test is not None and test(fields, at):
                self.suppressed_msgs += 1
                continue
            schedule(at, deliver, args=(nbr, src, msg), target=targets[nbr], kind=kind)

    def cancel_copy(self, event_id: int) -> None:
        """Cancel a scheduled copy that its receiver has proven a no-op."""
        if self.k.cancel(event_id):
            self.cancelled_msgs += 1

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
        # flood key ((origin, bid) for RREQ, query id for SREQ) -> best hop
        # count seen, and -> in-flight copies (see _ignores_flood)
        self._flood_best: dict = {}
        self._flood_due: dict[object, list] = {}
        self._replied_bids: dict[tuple, int] = {}  # dest only: bid -> seq used
        self._pending: dict[int, list] = {}  # dest -> queued payloads
        self.rreq_originations = 0
        self.rreq_forwards: dict[tuple, int] = {}
        self.dropped_replies = 0  # RREPs and SREPs not sent: see _send_reply_toward
        self.delivered: list[tuple] = []  # (payload, origin)
        self._handlers = {Rreq: self._on_rreq, Rrep: self._on_rrep, DataMsg: self._on_data}
        # message type -> test(copy_fields, at): True if a copy arriving at
        # `at` would be a no-op (see Network._send_copies). A test
        # runs only right before that copy's `schedule`, so on False it may
        # record `Kernel.next_id` as the copy's event id; it must schedule
        # nothing itself
        self.copy_tests = {Rreq: self._ignores_flood}
        network.attach(self)

    # -- route table ----------------------------------------------------------

    def live_route(self, destination: int) -> Optional[RouteEntry]:
        """The route to `destination` if live now (until `expires_at`, inclusive), else None."""
        entry = self.routes.get(destination)
        if entry is None or entry.expires_at < self.net.k.now:
            return None
        return entry

    def next_hop(self, destination: int) -> Optional[int]:
        """The next hop over a live route, renewing its lifetime; else None."""
        entry = self.live_route(destination)
        if entry is None:
            return None
        entry.expires_at = self.net.k.now + self.route_lifetime_s
        return entry.next_hop

    def _maybe_install(self, destination: int, via: int, hops: int, seq: int) -> None:
        """Install or improve the route to `destination`; never one to this
        node itself (its own flood echoed back, or a reply relayed through it)."""
        if destination == self.id:
            return
        cur = self.live_route(destination)
        if (cur is None or seq > cur.dest_sequence
                or (seq == cur.dest_sequence and hops < cur.hop_count)):
            self.routes[destination] = RouteEntry(destination, via, hops, seq,
                                                  self.net.k.now + self.route_lifetime_s)

    # -- origination ----------------------------------------------------------

    def originate_rreq(self, destination: int) -> None:
        self.sequence += 1
        self._bid += 1
        self.rreq_originations += 1
        key = (self.id, self._bid)
        self._flood_best[key] = 0
        known = self.routes[destination].dest_sequence if destination in self.routes else 0
        rreq = Rreq(origin=self.id, destination=destination, broadcast_id=self._bid,
                    origin_sequence=self.sequence, hop_count=1, ttl=self.ttl,
                    dest_sequence_known=known)
        self.net.broadcast(self.id, rreq)

    def send_data(self, destination: int, payload) -> None:
        if destination == self.id:
            self.delivered.append((payload, self.id))
            return
        nh = self.next_hop(destination)
        if nh is None:
            self._pending.setdefault(destination, []).append(payload)
            self.originate_rreq(destination)
            return
        self.net.send(self.id, nh, DataMsg(self.id, destination, payload))

    # -- receive dispatch -----------------------------------------------------

    def receive(self, msg, from_id: int) -> None:
        """Dispatch on the exact message type; any other type goes to `app_receive`."""
        handler = self._handlers.get(type(msg))
        if handler is None:
            self.app_receive(msg, from_id)
        else:
            handler(msg, from_id)

    def _ignores_flood(self, fields: tuple, at: float) -> bool:
        """The copy test of RREQ and SREQ: whether a copy arriving at `at` is
        a no-op. `fields` is the message's `copy_fields()`: `(key, origin,
        seq, hops)`, for flood `key` from `origin` with sequence `seq`.

        The handler opens with `_flood_arrival`, which does
        `_maybe_install(origin, ., hops, seq)`, then returns if the best hop
        count seen is <= hops. A copy of this node's own flood is a no-op:
        the best is 0 from origination and no node installs a route to
        itself. Otherwise, with any route installed from now on lasting
        until `at`, the copy L is a no-op if

        - the route to `origin` is live at `at` and at least as good, and
          the duplicate test holds already; or
        - an in-flight copy E of the flood arrives first (due earlier, or at
          the same instant and scheduled earlier) with no more hops, and the
          route to `origin` is absent, expires before E arrives, or is live
          at `at`. E then finds a stale route and installs one lasting until
          `at`, or finds a live one that is or becomes at least as good and
          stays live until `at`; either way it leaves both tests holding.

        A kept copy is recorded in `_flood_due[key]` as `(at, hops, event
        id)`, and each recorded copy that it proves a no-op by the same rule
        (so due strictly later) is cancelled: the record holds the in-flight
        copies that no other in-flight copy proves a no-op. A flood's key
        fixes its origin and sequence."""
        key, origin, seq, hops = fields
        if origin == self.id:
            return True
        k = self.net.k
        if k.now + self.route_lifetime_s < at:
            return False
        entry = self.routes.get(origin)
        expires = -math.inf if entry is None else entry.expires_at
        if expires >= at:
            b = self._flood_best.get(key)
            if (b is not None and b <= hops
                    and (seq < entry.dest_sequence
                         or (seq == entry.dest_sequence and hops >= entry.hop_count))):
                return True
        due = self._flood_due.get(key)
        if due is None:
            self._flood_due[key] = [(at, hops, k.next_id)]
            return False
        for e_at, e_hops, _ in due:
            if e_at <= at and e_hops <= hops and (expires < e_at or expires >= at):
                return True
        kept = [(at, hops, k.next_id)]
        for copy in due:
            l_at = copy[0]
            if at < l_at and hops <= copy[1] and (expires < at or expires >= l_at):
                self.net.cancel_copy(copy[2])
            else:
                kept.append(copy)
        self._flood_due[key] = kept
        return False

    def _flood_arrival(self, fields: tuple, via: int) -> bool:
        """The opening of the RREQ and SREQ handlers, fed `copy_fields()`:
        install the reverse route to `origin` via `via`, forget the in-flight
        copies of `key` due by now, and record `hops` as the best seen. False
        for a duplicate with no better hop count."""
        key, origin, seq, hops = fields
        self._maybe_install(origin, via, hops, seq)
        due = self._flood_due.get(key)
        if due is not None:
            now = self.net.k.now
            left = [copy for copy in due if copy[0] > now]
            if left:
                self._flood_due[key] = left
            else:
                del self._flood_due[key]
        best = self._flood_best
        b = best.get(key)
        if b is not None and hops >= b:
            return False
        best[key] = hops
        return True

    def app_receive(self, msg, from_id: int) -> None:
        """Hook for higher layers (service discovery); default drops."""

    # -- AODV handlers --------------------------------------------------------

    def _on_rreq(self, rreq: Rreq, from_id: int) -> None:
        fields = rreq.copy_fields()
        if not self._flood_arrival(fields, from_id):
            return  # duplicate with no better hop count
        key = fields[0]

        if self.id == rreq.destination:
            seq = self._replied_bids.get(key)
            if seq is None:
                self.sequence = max(self.sequence + 1, rreq.dest_sequence_known)
                seq = self.sequence
                self._replied_bids[key] = seq
            self._send_reply_toward(rreq.origin, Rrep(
                destination=self.id, origin=rreq.origin, dest_sequence=seq, hop_count=0))
            return
        # intermediates answer only refresh requests (origin names a known
        # sequence); cold lookups always flood through to the destination so
        # installed routes converge to minimum hop counts
        entry = self.live_route(rreq.destination)
        if (entry is not None and rreq.dest_sequence_known > 0
                and entry.dest_sequence >= rreq.dest_sequence_known):
            self._send_reply_toward(rreq.origin, Rrep(
                destination=rreq.destination, origin=rreq.origin,
                dest_sequence=entry.dest_sequence, hop_count=entry.hop_count))
            return
        if rreq.ttl > 1:
            self.rreq_forwards[key] = self.rreq_forwards.get(key, 0) + 1
            fwd = Rreq(origin=rreq.origin, destination=rreq.destination,
                       broadcast_id=rreq.broadcast_id, origin_sequence=rreq.origin_sequence,
                       hop_count=rreq.hop_count + 1, ttl=rreq.ttl - 1,
                       dest_sequence_known=rreq.dest_sequence_known)
            self.net.broadcast(self.id, fwd)

    def _send_reply_toward(self, origin: int, reply) -> None:
        """Unicast a reply (RREP, or SREP in `discovery`) one hop along the
        reverse route to the flood's `origin`. A reply is dropped and counted
        in `dropped_replies` if there is no live route, or if the route's
        next hop is no longer a neighbour (`Network.send` refuses it)."""
        entry = self.live_route(origin)
        if entry is None or not self.net.send(self.id, entry.next_hop, reply):
            self.dropped_replies += 1

    def _on_rrep(self, rrep: Rrep, from_id: int) -> None:
        hops = rrep.hop_count + 1
        self._maybe_install(rrep.destination, from_id, hops, rrep.dest_sequence)
        if self.id == rrep.origin:
            self._flush_pending(rrep.destination)
            return
        fwd = Rrep(destination=rrep.destination, origin=rrep.origin,
                   dest_sequence=rrep.dest_sequence, hop_count=hops)
        self._send_reply_toward(rrep.origin, fwd)

    def _flush_pending(self, destination: int) -> None:
        for payload in self._pending.pop(destination, []):
            self.send_data(destination, payload)

    def _on_data(self, msg: DataMsg, from_id: int) -> None:
        if msg.destination == self.id:
            self.delivered.append((msg.payload, msg.origin))
            return
        nh = self.next_hop(msg.destination)
        if nh is None:
            return  # no route at relay; dropped (no RERR machinery)
        self.net.send(self.id, nh, msg)


def build_aodv_network(kernel: Kernel, nodes: list[NodeState], **kwargs) -> tuple[Network, dict[int, AodvNode]]:
    net = Network(kernel, nodes, **kwargs)
    protos = {n.id: AodvNode(n.id, net) for n in nodes}
    return net, protos
