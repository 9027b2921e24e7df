"""Service discovery: periodic advertisements carrying hop counts, local
caches, and flood-on-miss resolution that piggybacks route establishment.
Runs on top of the AODV layer.
The resolution flood (SREQ) shares the RREQ arrival step
(`AodvNode._flood_arrival`): every copy installs or improves the reverse
route toward the requester, so the reply also installs a usable route toward
the provider (no separate route discovery afterwards). Unlike an RREQ, an
SREQ is forwarded or answered only on its first arrival at a node, as AODV
discards a request it has already seen (RFC 3561, section 6.5); a later copy
with fewer hops improves the route and nothing else.

`DiscoveryNode.lookup_local` is the one rule for what a node can answer: its
own queries and the SREQs it receives get the same answer. Replies (SREPs)
travel the reverse route by `AodvNode._send_reply_toward`, the path of RREPs.
A node sends at most one SREP per query: once `Network.send` has accepted
its answer or a relayed reply, it drops later SREPs of that query (counted in
`duplicate_replies`) after learning their route to the provider. Adverts
and SREQs take their sequence numbers from the node's one
`AodvNode.sequence`, so a node's newest route announcement always wins. An
advert's one `ServiceDescriptor` is shared by every node that caches it or
answers with it, and each keeps its own hop count to the provider beside it
(`ServiceCacheEntry.hops`), as an AODV route entry does. A descriptor is
never changed, so a result keeps the descriptor it was answered with.

A node's records of an advert or a query (`_advert_seen`, `_flood_best`,
`_replied`) are dropped once no copy or reply of it can read them, at the
next origination (`DiscoveryNode._forget_floods`): a run's memory is bounded
by the floods in flight, not by simulated time.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Optional

from .routing import AodvNode, Network

DEFAULT_ADVERT_INTERVAL_S = 10.0
DEFAULT_ADVERT_HOPS = 2
DEFAULT_SERVICE_TTL_S = 30.0
QUERY_DEADLINE_S = 10.0


@dataclass(slots=True)
class ServiceDescriptor:
    service_id: str
    provider: int
    ontology_tag: str = ""
    issued_at: float = 0.0
    ttl_s: float = DEFAULT_SERVICE_TTL_S
    provider_seq: int = 1

    def __post_init__(self):
        if self.ttl_s <= 0:
            raise ValueError("service ttl must be positive")


class ServiceCacheEntry(NamedTuple):
    descriptor: ServiceDescriptor
    hops: int  # this node's distance to the provider; 0 for a hosted service
    expires_at: float  # learned time + descriptor ttl; inf for a hosted service


@dataclass(slots=True)
class ServiceQuery:
    query_id: int
    requester: int
    service_id: Optional[str] = None
    ontology_tag: Optional[str] = None
    issued_at: float = 0.0
    deadline: float = 0.0


@dataclass(slots=True)
class AdvertMsg:
    descriptor: ServiceDescriptor
    hop_count: int  # hops from the provider to the receiver of this copy
    hops_left: int

    def copy_fields(self) -> tuple:
        """The advert key (provider, service id, issue time): what the copy test reads."""
        desc = self.descriptor
        return desc.provider, desc.service_id, desc.issued_at


@dataclass(slots=True)
class SreqMsg:
    query_id: int
    requester: int
    requester_seq: int
    service_id: Optional[str]
    ontology_tag: Optional[str]
    hop_count: int
    ttl: int

    def copy_fields(self) -> tuple:
        """(flood key, origin, origin sequence, hops): what the copy test reads."""
        return self.query_id, self.requester, self.requester_seq, self.hop_count


@dataclass(slots=True)
class SrepMsg:
    query_id: int
    requester: int
    descriptor: ServiceDescriptor
    dist_to_provider: int


@dataclass(slots=True)
class DiscoveryResult:
    query: ServiceQuery
    descriptor: Optional[ServiceDescriptor]
    latency_s: float
    cache_hit: bool
    timed_out: bool = False


class DiscoveryNode(AodvNode):
    def __init__(self, node_id: int, network: Network,
                 advert_interval_s: float = DEFAULT_ADVERT_INTERVAL_S,
                 advert_hops: int = DEFAULT_ADVERT_HOPS,
                 service_ttl_s: float = DEFAULT_SERVICE_TTL_S, **kwargs):
        super().__init__(node_id, network, **kwargs)
        self.advert_interval_s = advert_interval_s
        self.advert_hops = advert_hops
        self.service_ttl_s = service_ttl_s
        self.hosted: dict[str, ServiceCacheEntry] = {}  # service_id -> entry that never expires
        self.cache: dict[tuple, ServiceCacheEntry] = {}  # (service_id, provider)
        self._advert_seen: set[tuple] = set()
        self._advert_due: dict[tuple, tuple] = {}  # advert key -> (at, event id) of first copy
        self._open_queries: dict[int, tuple] = {}  # query id -> (query, callback, timeout id)
        self._replied: set[int] = set()  # query ids of the SREPs `send` accepted from here
        self.duplicate_replies = 0  # SREPs not sent: this node already sent one for the query
        self._app_handlers = {AdvertMsg: self._on_advert, SreqMsg: self._on_sreq,
                              SrepMsg: self._on_srep}
        self.copy_tests.update({AdvertMsg: self._ignores_advert,
                                SreqMsg: self._ignores_flood})

    # -- hosting and advertisement -------------------------------------------

    def host_service(self, service_id: str, ontology_tag: str = "") -> None:
        self.hosted[service_id] = ServiceCacheEntry(ServiceDescriptor(
            service_id=service_id, provider=self.id, ontology_tag=ontology_tag,
            ttl_s=self.service_ttl_s), 0, math.inf)

    def start_advertising(self) -> None:
        self.advertise()
        k = self.net.k
        if k.now + self.advert_interval_s <= k.end:
            k.every(self.advert_interval_s, self.advertise, target=f"n{self.id}", kind="advert")

    def advertise(self) -> None:
        """Advertise each hosted service with the node's next sequence
        number; the advertised descriptor becomes the hosted one."""
        self._forget_floods()
        now = self.net.k.now
        bound = now + (self.advert_hops + 1) * self.net.hop_delay_s[1]
        for base, _, _ in list(self.hosted.values()):
            self.sequence += 1
            desc = ServiceDescriptor(base.service_id, base.provider, base.ontology_tag,
                                     now, base.ttl_s, self.sequence)
            self.hosted[desc.service_id] = ServiceCacheEntry(desc, 0, math.inf)
            msg = AdvertMsg(desc, 1, self.advert_hops)
            self.net.open_adverts.append((bound, msg.copy_fields()))
            self.net.broadcast(self.id, msg)

    def _forget_floods(self) -> None:
        """Drop, at every node of the network (all `DiscoveryNode`s), the
        records of each advert and query whose bound has passed: no copy,
        handler or reply of it can read them again. It runs at each
        origination, never inside a delivery, so a delivered copy that
        changes nothing leaves its receiver as it was.

        Let d be the network's longest MAC delay (`hop_delay_s[1]`), so that
        a message sent at t arrives by t + d.

        - An advert key `(provider, service id, issued_at)` is read by the
          copy test at each send of a copy and by `_on_advert` at each
          arrival. The provider sends an advert with `advert_hops`, and a
          node forwards it only on its first arrival, with `hops_left` one
          lower, while that stays above 0. So a copy travels at most
          `advert_hops` hops, and the last arrives by
          `issued_at + advert_hops * d`.
        - A query id is read from `_flood_best` (and `_flood_due`) by the
          copy test and at each SREQ arrival. Likewise an SREQ travels at
          most `ttl` hops, so the last copy arrives by `issue + ttl * d`.
          `_replied` is read at each SREP send, which answers an SREQ
          arrival or relays an SREP arrival at once. So a chain of SREPs,
          each sent on the arrival of the one before, starts by
          `issue + ttl * d`. A node sends at most one SREP per query and
          the requester none, so the chain's senders are distinct, at most
          N - 1 of N nodes, and its last SREP arrives by
          `issue + (ttl + N - 1) * d`.

        Each bound here is one hop later than these, so the rounding of the
        summed delays, far below a hop, cannot carry a read past it. The
        in-flight records (`_advert_due`, `_flood_due`) need no dropping: a
        copy leaves them when it is delivered or cancelled. RREQ keys stay.
        Both FIFOs are in origination order; with the same `advert_hops`
        and `ttl` at every node, that is bound order. A FIFO is read only
        at its head, so a bound queued out of order delays the ones behind
        it and never drops a record early."""
        now = self.net.k.now
        nodes = self.net.protocols.values()
        adverts = self.net.open_adverts
        while adverts and adverts[0][0] < now:
            key = adverts.popleft()[1]
            for node in nodes:
                node._advert_seen.discard(key)
        queries = self.net.open_queries
        while queries and queries[0][0] < now:
            qid = queries.popleft()[1]
            for node in nodes:
                node._flood_best.pop(qid, None)
                node._replied.discard(qid)

    # -- local answers --------------------------------------------------------

    def lookup_local(self, service_id: Optional[str] = None,
                     ontology_tag: Optional[str] = None) -> Optional[ServiceCacheEntry]:
        """The entry this node answers a query with, or None: the best of its
        hosted services and unexpired cache entries that match, ranked by
        exact service id before ontology tag, then fewest hops, then lowest
        provider, then hosted before cached and cache order. A hosted service
        never expires and is 0 hops away, so it outranks any cached service
        matched the same way. Sends zero network messages."""
        now = self.net.k.now
        best, best_key = None, None
        for entry in chain(self.hosted.values(), self.cache.values()):
            desc, hops, expires_at = entry
            if service_id is not None and desc.service_id == service_id:
                rank = 0
            elif ontology_tag is not None and desc.ontology_tag == ontology_tag:
                rank = 1
            else:
                continue
            if expires_at <= now:
                continue
            key = (rank, hops, desc.provider)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    # -- discovery ------------------------------------------------------------

    def discover(self, service_id: Optional[str] = None, ontology_tag: Optional[str] = None,
                 callback: Optional[Callable[[DiscoveryResult], None]] = None) -> ServiceQuery:
        """Answer a query for `service_id` or `ontology_tag` from this node's
        own services and cache, else flood an SREQ for it. ValueError, with
        nothing drawn, scheduled or counted, if both are None. Queries are
        numbered 1, 2, ... across the network in issue order. A flooded query
        that no reply resolves times out `QUERY_DEADLINE_S` after its issue,
        or at the kernel's horizon `Kernel.end` if that is sooner, so every
        query ends within the run."""
        if service_id is None and ontology_tag is None:
            raise ValueError("a query needs a service_id or an ontology_tag")
        now = self.net.k.now
        self.net.queries_issued += 1
        qid = self.net.queries_issued
        query = ServiceQuery(qid, self.id, service_id, ontology_tag, now,
                             min(now + QUERY_DEADLINE_S, self.net.k.end))
        hit = self.lookup_local(service_id, ontology_tag)
        if hit is not None:
            if callback:
                callback(DiscoveryResult(query, hit.descriptor, 0.0, True))
            return query
        timeout_id = self.net.k.schedule(query.deadline, self._query_timeout, args=(qid,),
                                         target=f"n{self.id}", kind="query-timeout")
        self.sequence += 1
        self._open_queries[qid] = (query, callback, timeout_id)
        self._forget_floods()
        self.net.open_queries.append(
            (now + (self.ttl + len(self.net.nodes)) * self.net.hop_delay_s[1], qid))
        self._flood_best[qid] = 0
        self.net.broadcast(self.id, SreqMsg(qid, self.id, self.sequence, service_id,
                                            ontology_tag, 1, self.ttl))
        return query

    def _query_timeout(self, qid: int) -> None:
        # the first reply cancels this event, so the query is still open
        query, callback, _ = self._open_queries.pop(qid)
        if callback:
            callback(DiscoveryResult(query, None, self.net.k.now - query.issued_at,
                                     cache_hit=False, timed_out=True))

    # -- message handling ------------------------------------------------------

    def app_receive(self, msg, from_id: int) -> None:
        """Dispatch on the exact message type; other types are dropped."""
        handler = self._app_handlers.get(type(msg))
        if handler is not None:
            handler(msg, from_id)

    def _ignores_advert(self, key: tuple, at: float) -> bool:
        """The copy test of adverts: a copy arriving at `at` is a no-op if this
        node is the provider, has seen the advert, or has a copy of it in
        flight that arrives first (the first arrival marks it seen).
        `_advert_due` keeps the first in-flight copy, `(at, event id)`, until
        it is delivered; a new copy due strictly earlier takes its place and
        cancels it."""
        if key[0] == self.id or key in self._advert_seen:
            return True
        due = self._advert_due.get(key)
        if due is not None:
            if due[0] <= at:
                return True
            self.net.cancel_copy(due[1])
        self._advert_due[key] = (at, self.net.k.next_id)
        return False

    def _on_advert(self, msg: AdvertMsg, from_id: int) -> None:
        key = msg.copy_fields()
        if key[0] == self.id or key in self._advert_seen:
            return
        self._advert_seen.add(key)
        self._advert_due.pop(key, None)
        desc, hops = msg.descriptor, msg.hop_count
        self.cache[(desc.service_id, desc.provider)] = ServiceCacheEntry(
            desc, hops, self.net.k.now + desc.ttl_s)
        # the advert doubles as a route to the provider
        self._maybe_install(desc.provider, from_id, hops, desc.provider_seq)
        if msg.hops_left > 1:
            self.net.broadcast(self.id, AdvertMsg(desc, hops + 1, msg.hops_left - 1))

    def _on_sreq(self, msg: SreqMsg, from_id: int) -> None:
        first = msg.query_id not in self._flood_best
        self._flood_arrival(msg.copy_fields(), from_id)
        if not first:
            return  # a later copy only improves the reverse route
        hit = self.lookup_local(msg.service_id, msg.ontology_tag)
        if hit is not None:
            self._send_srep(SrepMsg(msg.query_id, msg.requester, hit.descriptor, hit.hops))
            return
        if msg.ttl > 1:
            self.net.broadcast(self.id, SreqMsg(
                msg.query_id, msg.requester, msg.requester_seq, msg.service_id,
                msg.ontology_tag, msg.hop_count + 1, msg.ttl - 1))

    def _on_srep(self, msg: SrepMsg, from_id: int) -> None:
        dist = msg.dist_to_provider + 1
        self._maybe_install(msg.descriptor.provider, from_id, dist,
                            msg.descriptor.provider_seq)
        if self.id == msg.requester:
            state = self._open_queries.pop(msg.query_id, None)
            if state is None:
                return  # later reply; first one won
            query, callback, timeout_id = state
            self.net.k.cancel(timeout_id)
            if callback:
                callback(DiscoveryResult(query, msg.descriptor,
                                         self.net.k.now - query.issued_at, False))
            return
        self._send_srep(SrepMsg(msg.query_id, msg.requester, msg.descriptor, dist))

    def _send_srep(self, srep: SrepMsg) -> None:
        """Send an answer or a relayed reply toward the requester, unless
        this node has already sent an SREP of the query: then count it in
        `duplicate_replies`. A reply `send` refuses does not count as sent."""
        if srep.query_id in self._replied:
            self.duplicate_replies += 1
        elif self._send_reply_toward(srep.requester, srep):
            self._replied.add(srep.query_id)
