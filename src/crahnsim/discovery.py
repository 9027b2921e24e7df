"""Service discovery: periodic advertisements carrying routes, local caches,
flood-on-miss resolution that piggybacks route establishment, and gateway
discovery (discovery of a `gateway` service). Runs on top of the AODV layer;
the resolution flood reuses the RREQ duplicate/improvement discipline so the
reply also installs a usable route toward the provider (no separate route
discovery afterwards).
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

from .routing import AodvNode, Network

DEFAULT_ADVERT_INTERVAL_S = 10.0
DEFAULT_ADVERT_HOPS = 2
DEFAULT_SERVICE_TTL_S = 30.0
DEFAULT_QUERY_DEADLINE_S = 10.0


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


@dataclass
class ServiceCacheEntry:
    descriptor: ServiceDescriptor
    learned_at: float

    @property
    def expires_at(self) -> float:
        return self.learned_at + self.descriptor.ttl_s


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


@dataclass
class SreqMsg:
    query_id: int
    requester: int
    requester_seq: int
    service_id: Optional[str]
    ontology_tag: Optional[str]
    hop_count: int
    ttl: int


@dataclass
class SrepMsg:
    query_id: int
    requester: int
    descriptor: ServiceDescriptor
    dist_to_provider: int
    hop_count: int


@dataclass
class DiscoveryResult:
    query: ServiceQuery
    descriptor: Optional[ServiceDescriptor]
    latency_s: float
    cache_hit: bool
    timed_out: bool = False


def matches(descriptor: ServiceDescriptor, service_id: Optional[str],
            ontology_tag: Optional[str]) -> bool:
    if service_id is not None and descriptor.service_id == service_id:
        return True
    return ontology_tag is not None and descriptor.ontology_tag == ontology_tag


class DiscoveryNode(AodvNode):
    def __init__(self, node_id: int, network: Network,
                 advert_interval_s: float = DEFAULT_ADVERT_INTERVAL_S,
                 advert_hops: int = DEFAULT_ADVERT_HOPS,
                 service_ttl_s: float = DEFAULT_SERVICE_TTL_S, **kwargs):
        super().__init__(node_id, network, **kwargs)
        self.advert_interval_s = advert_interval_s
        self.advert_hops = advert_hops
        self.service_ttl_s = service_ttl_s
        self.hosted: dict[str, ServiceDescriptor] = {}
        self.cache: dict[tuple, ServiceCacheEntry] = {}  # (service_id, provider)
        self._advert_seen: set[tuple] = set()
        self._sreq_best: dict[int, int] = {}  # query_id -> best hop count seen
        self._advert_due: dict[tuple, float] = {}  # advert key -> earliest in-flight arrival
        self._sreq_due: dict[int, tuple] = {}  # query_id -> in-flight copy, see ignores
        self._next_qid = 0
        self._open_queries: dict[int, dict] = {}
        self._app_handlers = {AdvertMsg: self._on_advert, SreqMsg: self._on_sreq,
                              SrepMsg: self._on_srep}
        self._ignore_tests.update({AdvertMsg: self._ignores_advert,
                                   SreqMsg: self._ignores_sreq})

    # -- hosting and advertisement -------------------------------------------

    def host_service(self, service_id: str, ontology_tag: str = "") -> None:
        self.hosted[service_id] = ServiceDescriptor(
            service_id=service_id, provider=self.id, ontology_tag=ontology_tag,
            advertised_route=[self.id], ttl_s=self.service_ttl_s)

    def start_advertising(self) -> None:
        self.advertise()
        k = self.net.k
        if k.now + self.advert_interval_s <= k.end:
            k.every(self.advert_interval_s, self.advertise, target=f"n{self.id}", kind="advert")

    def advertise(self) -> None:
        for base in self.hosted.values():
            base.provider_seq += 1
            desc = ServiceDescriptor(
                service_id=base.service_id, provider=base.provider,
                ontology_tag=base.ontology_tag, advertised_route=[self.id],
                issued_at=self.net.k.now, ttl_s=base.ttl_s, provider_seq=base.provider_seq)
            self.net.broadcast(self.id, AdvertMsg(descriptor=desc, hops_left=self.advert_hops))

    # -- cache ----------------------------------------------------------------

    def lookup_local(self, service_id: Optional[str] = None,
                     ontology_tag: Optional[str] = None) -> Optional[ServiceCacheEntry]:
        """Unexpired match: exact service-id first, ontology tag as fallback;
        ties broken by fewest route hops, then lowest provider, then cache
        order. Sends zero network messages."""
        now = self.net.k.now
        best, best_key = None, None
        for entry in self.cache.values():
            desc = entry.descriptor
            if service_id is not None and desc.service_id == service_id:
                rank = 0
            elif ontology_tag is not None and desc.ontology_tag == ontology_tag:
                rank = 1
            else:
                continue
            if entry.expires_at <= now:
                continue
            key = (rank, len(desc.advertised_route), desc.provider)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    # -- discovery ------------------------------------------------------------

    def discover(self, service_id: Optional[str] = None, ontology_tag: Optional[str] = None,
                 deadline_s: float = DEFAULT_QUERY_DEADLINE_S,
                 callback: Optional[Callable[[DiscoveryResult], None]] = None) -> ServiceQuery:
        now = self.net.k.now
        self._next_qid += 1
        qid = self.id * 1_000_000 + self._next_qid
        query = ServiceQuery(query_id=qid, requester=self.id, service_id=service_id,
                             ontology_tag=ontology_tag, issued_at=now,
                             deadline=now + deadline_s)
        if service_id is not None and service_id in self.hosted:
            result = DiscoveryResult(query, self.hosted[service_id], 0.0, cache_hit=True)
            if callback:
                callback(result)
            return query
        hit = self.lookup_local(service_id, ontology_tag)
        if hit is not None:
            result = DiscoveryResult(query, hit.descriptor, 0.0, cache_hit=True)
            if callback:
                callback(result)
            return query
        timeout_id = self.net.k.schedule(query.deadline, self._query_timeout, args=(qid,),
                                         target=f"n{self.id}", kind="query-timeout")
        self.sequence += 1
        self._open_queries[qid] = {"query": query, "callback": callback,
                                   "timeout": timeout_id}
        self._sreq_best[qid] = 0
        self.net.broadcast(self.id, SreqMsg(
            query_id=qid, requester=self.id, requester_seq=self.sequence,
            service_id=service_id, ontology_tag=ontology_tag, hop_count=1, ttl=self.ttl))
        return query

    def _query_timeout(self, qid: int) -> None:
        state = self._open_queries.pop(qid, None)
        if state is None:
            return
        result = DiscoveryResult(state["query"], None,
                                 self.net.k.now - state["query"].issued_at,
                                 cache_hit=False, timed_out=True)
        if state["callback"]:
            state["callback"](result)

    # -- message handling ------------------------------------------------------

    def app_receive(self, msg, from_id: int) -> None:
        """Dispatch on the exact message type; other types are dropped."""
        handler = self._app_handlers.get(type(msg))
        if handler is not None:
            handler(msg, from_id)

    def _ignores_advert(self, msg: AdvertMsg, at: float) -> bool:
        """No-op if this node is the provider, has seen the advert, or has a
        copy of it scheduled to arrive no later than `at` (which marks it
        seen). `_advert_due` keeps the earliest such arrival until one of the
        copies is delivered."""
        desc = msg.descriptor
        if desc.provider == self.id:
            return True
        key = (desc.provider, desc.service_id, desc.issued_at)
        if key in self._advert_seen:
            return True
        due = self._advert_due.get(key)
        if due is not None and due <= at:
            return True
        self._advert_due[key] = at
        return False

    def _ignores_sreq(self, msg: SreqMsg, at: float) -> bool:
        return self._ignores_flood(self._sreq_best, self._sreq_due, msg.query_id,
                                   msg.requester, msg.requester_seq, msg.hop_count, at)

    def _on_advert(self, msg: AdvertMsg, from_id: int) -> None:
        desc = msg.descriptor
        key = (desc.provider, desc.service_id, desc.issued_at)
        if key in self._advert_seen or desc.provider == self.id:
            return
        self._advert_seen.add(key)
        self._advert_due.pop(key, None)
        desc = ServiceDescriptor(
            service_id=desc.service_id, provider=desc.provider, ontology_tag=desc.ontology_tag,
            advertised_route=desc.advertised_route + [self.id], issued_at=desc.issued_at,
            ttl_s=desc.ttl_s, provider_seq=desc.provider_seq)
        self.cache[(desc.service_id, desc.provider)] = ServiceCacheEntry(
            descriptor=desc, learned_at=self.net.k.now)
        # the carried route doubles as a route to the provider
        self._maybe_install(desc.provider, from_id, len(desc.advertised_route) - 1,
                            desc.provider_seq)
        if msg.hops_left > 1:
            self.net.broadcast(self.id, AdvertMsg(descriptor=desc,
                                                  hops_left=msg.hops_left - 1))

    def _local_answer(self, service_id, ontology_tag):
        for desc in self.hosted.values():
            if matches(desc, service_id, ontology_tag):
                return desc, 0
        entry = self.lookup_local(service_id, ontology_tag)
        if entry is not None:
            return entry.descriptor, len(entry.descriptor.advertised_route) - 1
        return None, 0

    def _on_sreq(self, msg: SreqMsg, from_id: int) -> None:
        if not self._flood_arrival(self._sreq_best, self._sreq_due, msg.query_id,
                                   msg.requester, from_id, msg.hop_count, msg.requester_seq):
            return
        desc, dist = self._local_answer(msg.service_id, msg.ontology_tag)
        if desc is not None:
            self._send_srep(msg.requester, SrepMsg(
                query_id=msg.query_id, requester=msg.requester, descriptor=desc,
                dist_to_provider=dist, hop_count=0))
            return
        if msg.ttl > 1:
            self.net.broadcast(self.id, SreqMsg(
                query_id=msg.query_id, requester=msg.requester, requester_seq=msg.requester_seq,
                service_id=msg.service_id, ontology_tag=msg.ontology_tag,
                hop_count=msg.hop_count + 1, ttl=msg.ttl - 1))

    def _send_srep(self, requester: int, msg: SrepMsg) -> None:
        entry = self.routes.get(requester)
        if entry is None or entry.expires_at < self.net.k.now:
            return
        self.net.send(self.id, entry.next_hop, msg)

    def _on_srep(self, msg: SrepMsg, from_id: int) -> None:
        dist = msg.dist_to_provider + 1
        self._maybe_install(msg.descriptor.provider, from_id, dist,
                            msg.descriptor.provider_seq)
        if self.id == msg.requester:
            state = self._open_queries.pop(msg.query_id, None)
            if state is None:
                return  # later reply; first one won
            self.net.k.cancel(state["timeout"])
            query = state["query"]
            result = DiscoveryResult(query, msg.descriptor,
                                     self.net.k.now - query.issued_at, cache_hit=False)
            if state["callback"]:
                state["callback"](result)
            return
        self._send_srep(msg.requester, SrepMsg(
            query_id=msg.query_id, requester=msg.requester, descriptor=msg.descriptor,
            dist_to_provider=dist, hop_count=msg.hop_count + 1))
