"""Service discovery: periodic advertisements carrying routes, local caches,
flood-on-miss resolution that piggybacks route establishment, and gateway
discovery (discovery of a `gateway` service). Runs on top of the AODV layer;
the resolution flood reuses the RREQ duplicate/improvement discipline so the
reply also installs a usable route toward the provider (no separate route
discovery afterwards).

`DiscoveryNode.lookup_local` is the one rule for what a node can answer: its
own queries and the SREQs it receives get the same answer. Replies (SREPs)
travel the reverse route by `AodvNode._send_reply_toward`, the path of RREPs.
A descriptor is never changed once built, so a result keeps the descriptor
it was answered with.
"""

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple, Optional

from .routing import AodvNode, Network

DEFAULT_ADVERT_INTERVAL_S = 10.0
DEFAULT_ADVERT_HOPS = 2
DEFAULT_SERVICE_TTL_S = 30.0
QUERY_DEADLINE_S = 10.0


@dataclass
class ServiceDescriptor:
    service_id: str
    provider: int
    ontology_tag: str = ""
    advertised_route: list[int] = field(default_factory=list)  # provider outward
    issued_at: float = 0.0
    ttl_s: float = DEFAULT_SERVICE_TTL_S
    provider_seq: int = 1

    def __post_init__(self):
        if self.ttl_s <= 0:
            raise ValueError("service ttl must be positive")
        if self.advertised_route and self.advertised_route[0] != self.provider:
            raise ValueError("advertised route must start at the provider")


class ServiceCacheEntry(NamedTuple):
    descriptor: ServiceDescriptor
    expires_at: float  # learned time + descriptor ttl; inf for a hosted service


@dataclass
class ServiceQuery:
    query_id: int
    requester: int
    service_id: Optional[str] = None
    ontology_tag: Optional[str] = None
    issued_at: float = 0.0
    deadline: float = 0.0


@dataclass
class AdvertMsg:
    descriptor: ServiceDescriptor
    hops_left: int

    def copy_fields(self) -> tuple:
        """The advert key (provider, service id, issue time): what the copy test reads."""
        desc = self.descriptor
        return desc.provider, desc.service_id, desc.issued_at


@dataclass
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


@dataclass
class SrepMsg:
    query_id: int
    requester: int
    descriptor: ServiceDescriptor
    dist_to_provider: int


@dataclass
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
        self._next_qid = 0
        self._open_queries: dict[int, tuple] = {}  # query id -> (query, callback, timeout id)
        self._app_handlers = {AdvertMsg: self._on_advert, SreqMsg: self._on_sreq,
                              SrepMsg: self._on_srep}
        self.copy_tests.update({AdvertMsg: self._ignores_advert,
                                SreqMsg: self._ignores_flood})

    # -- hosting and advertisement -------------------------------------------

    def host_service(self, service_id: str, ontology_tag: str = "") -> None:
        self.hosted[service_id] = ServiceCacheEntry(ServiceDescriptor(
            service_id=service_id, provider=self.id, ontology_tag=ontology_tag,
            advertised_route=[self.id], ttl_s=self.service_ttl_s), math.inf)

    def start_advertising(self) -> None:
        self.advertise()
        k = self.net.k
        if k.now + self.advert_interval_s <= k.end:
            k.every(self.advert_interval_s, self.advertise, target=f"n{self.id}", kind="advert")

    def advertise(self) -> None:
        """Advertise each hosted service with the next provider sequence
        number; the advertised descriptor becomes the hosted one."""
        for base, _ in list(self.hosted.values()):
            desc = ServiceDescriptor(
                service_id=base.service_id, provider=base.provider,
                ontology_tag=base.ontology_tag, advertised_route=[self.id],
                issued_at=self.net.k.now, ttl_s=base.ttl_s, provider_seq=base.provider_seq + 1)
            self.hosted[desc.service_id] = ServiceCacheEntry(desc, math.inf)
            self.net.broadcast(self.id, AdvertMsg(descriptor=desc, hops_left=self.advert_hops))

    # -- local answers --------------------------------------------------------

    def lookup_local(self, service_id: Optional[str] = None,
                     ontology_tag: Optional[str] = None) -> Optional[ServiceDescriptor]:
        """The answer this node holds for a query, or None: the best of its
        hosted services and unexpired cache entries that match, ranked by
        exact service id before ontology tag, then fewest route hops, then
        lowest provider, then hosted before cached and cache order. A hosted
        service never expires and has a one-hop route, so it outranks any
        cached service matched the same way. Sends zero network messages."""
        now = self.net.k.now
        best, best_key = None, None
        for desc, expires_at in chain(self.hosted.values(), self.cache.values()):
            if service_id is not None and desc.service_id == service_id:
                rank = 0
            elif ontology_tag is not None and desc.ontology_tag == ontology_tag:
                rank = 1
            else:
                continue
            if expires_at <= now:
                continue
            key = (rank, len(desc.advertised_route), desc.provider)
            if best_key is None or key < best_key:
                best, best_key = desc, key
        return best

    # -- discovery ------------------------------------------------------------

    def discover(self, service_id: Optional[str] = None, ontology_tag: Optional[str] = None,
                 callback: Optional[Callable[[DiscoveryResult], None]] = None) -> ServiceQuery:
        now = self.net.k.now
        self._next_qid += 1
        qid = self.id * 1_000_000 + self._next_qid
        query = ServiceQuery(query_id=qid, requester=self.id, service_id=service_id,
                             ontology_tag=ontology_tag, issued_at=now,
                             deadline=now + QUERY_DEADLINE_S)
        hit = self.lookup_local(service_id, ontology_tag)
        if hit is not None:
            if callback:
                callback(DiscoveryResult(query, hit, 0.0, cache_hit=True))
            return query
        timeout_id = self.net.k.schedule(query.deadline, self._query_timeout, args=(qid,),
                                         target=f"n{self.id}", kind="query-timeout")
        self.sequence += 1
        self._open_queries[qid] = (query, callback, timeout_id)
        self._flood_best[qid] = 0
        self.net.broadcast(self.id, SreqMsg(
            query_id=qid, requester=self.id, requester_seq=self.sequence,
            service_id=service_id, ontology_tag=ontology_tag, hop_count=1, ttl=self.ttl))
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
        desc = msg.descriptor
        desc = ServiceDescriptor(
            service_id=desc.service_id, provider=desc.provider, ontology_tag=desc.ontology_tag,
            advertised_route=desc.advertised_route + [self.id], issued_at=desc.issued_at,
            ttl_s=desc.ttl_s, provider_seq=desc.provider_seq)
        self.cache[(desc.service_id, desc.provider)] = ServiceCacheEntry(
            desc, self.net.k.now + desc.ttl_s)
        # the carried route doubles as a route to the provider
        self._maybe_install(desc.provider, from_id, len(desc.advertised_route) - 1,
                            desc.provider_seq)
        if msg.hops_left > 1:
            self.net.broadcast(self.id, AdvertMsg(descriptor=desc,
                                                  hops_left=msg.hops_left - 1))

    def _on_sreq(self, msg: SreqMsg, from_id: int) -> None:
        if not self._flood_arrival(msg.copy_fields(), from_id):
            return
        desc = self.lookup_local(msg.service_id, msg.ontology_tag)
        if desc is not None:
            self._send_reply_toward(msg.requester, SrepMsg(
                query_id=msg.query_id, requester=msg.requester, descriptor=desc,
                dist_to_provider=len(desc.advertised_route) - 1))
            return
        if msg.ttl > 1:
            self.net.broadcast(self.id, SreqMsg(
                query_id=msg.query_id, requester=msg.requester, requester_seq=msg.requester_seq,
                service_id=msg.service_id, ontology_tag=msg.ontology_tag,
                hop_count=msg.hop_count + 1, ttl=msg.ttl - 1))

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
                                         self.net.k.now - query.issued_at, cache_hit=False))
            return
        self._send_reply_toward(msg.requester, SrepMsg(
            query_id=msg.query_id, requester=msg.requester, descriptor=msg.descriptor,
            dist_to_provider=dist))
