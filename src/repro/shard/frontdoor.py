"""The front door: one routing core, N worker shards, zero drops.

Architecture (the TAPA composition shape — independent stages joined by
bounded streams):

    client ── AlignmentServer ──> FrontDoor.submit ──> ShardLink
              (the one loop)      route by fingerprint   │ bounded
                                   (HashRing)            ▼ in-flight
                                                  worker process
                                                  (pool + cache)

:class:`FrontDoor` is a *core* of the threaded
:class:`~repro.service.AlignmentServer` — the five methods its handler
calls (``docs/service.md``) — so the sharded tier reads request lines
with the same loop as a single process.  ``submit`` fingerprints an
``align`` request with the same :mod:`repro.cache` key the workers cache
under, routes it through the consistent-hash ring to a
:class:`ShardLink`, and forwards it under a front-door-unique id over
the link's plain :class:`~repro.service.AlignmentClient`, whose slot —
answered under the caller's own id — is the one ``submit`` returns.  The
deterministic response payload is therefore byte-identical to what the
worker (and the single-process server) produced.  Both directions are
joined: lines for a link that already owes answers leave through its
client's writer thread, one write for what queued while it waited, and
the answers one worker write carried leave in one write per client
connection.

Backpressure is reject-not-drop at every boundary: a full per-shard
in-flight window, an empty ring, or an unroutable kernel each produce
an immediate ``rejected``/``error`` response; nothing is ever silently
discarded.  Health is active: one heartbeat thread pings every shard and
evicts it after consecutive misses (or a dead process), and a link whose
connection ends is evicted at once; either way its in-flight requests
are failed with explicit errors and the ring remapped so the next
request routes to a survivor.

Control-plane requests (``metrics``/``metrics_text``/``trace``) fan out
to every live shard and come back aggregated: summed counters, merged
histogram envelopes, per-shard detail, ring membership and shard
health — one endpoint for the whole deployment.

:class:`ShardServer` is the facade the CLI and tests use: it spawns the
workers (via :class:`~repro.shard.manager.ShardManager`), serves the
front door, and turns ``close()`` into the full graceful-drain sequence
ending in worker exit codes.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import render_text_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.service.client import AlignmentClient
from repro.service.protocol import (
    MAX_LINE_BYTES,  # noqa: F401 - the door's line limit is the server's
    AlignRequest,
    AlignResponse,
    Status,
    error_response,
    rejection,
)
from repro.service.server import AlignmentServer, Cork, ReplySlot
from repro.shard.deployment import Deployment
from repro.shard.manager import ShardHandle, ShardManager
from repro.shard.ring import DEFAULT_VNODES, HashRing
from repro.shard.router import FingerprintRouter


@dataclass(frozen=True)
class FrontDoorConfig:
    """Tuning knobs of the front door.

    ``shard_inflight_bound`` is the routed-but-unanswered window per
    shard — the bounded stream between the acceptor stage and a worker
    stage; beyond it requests are rejected (the worker's own admission
    queue provides the second, finer bound).  Heartbeats mark a shard
    dead after ``heartbeat_misses`` consecutive unanswered pings.
    """

    shard_inflight_bound: int = 1024
    heartbeat_interval_s: float = 2.0
    heartbeat_timeout_s: float = 3.0
    heartbeat_misses: int = 2
    control_timeout_s: float = 10.0
    drain_timeout_s: float = 30.0
    vnodes: int = DEFAULT_VNODES

    def __post_init__(self) -> None:
        if self.shard_inflight_bound < 1:
            raise ValueError("shard_inflight_bound must be >= 1")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")


class ShardLink:
    """The front door's connection to one worker shard.

    ``lock`` makes the window check and the send one step, so the
    in-flight bound holds however many client connections race for it.
    """

    def __init__(
        self, name: str, host: str, port: int, on_down, chunk_scope: Cork
    ) -> None:
        self.name = name
        self.port = port
        self.up = False  # until the client exists: on_down reads it
        self.lock = threading.Lock()
        self.routed_total = 0
        self.misses = 0
        self.client = AlignmentClient(
            host, port, chunk_scope=chunk_scope,
            on_close=lambda _reason: on_down(
                self, "connection to worker lost"
            ),
        )
        self.up = True

    def stats(self) -> Dict[str, Any]:
        """JSON-safe link summary."""
        in_flight = self.client.in_flight
        return {
            "name": self.name,
            "port": self.port,
            "up": self.up,
            "in_flight": in_flight,
            "routed_total": self.routed_total,
            "answered_total": self.routed_total - in_flight,
        }


class FrontDoor:
    """The routing core: what :class:`ServiceCore` is to one process."""

    def __init__(
        self,
        deployment: Deployment,
        router: FingerprintRouter,
        manager: ShardManager,
        config: Optional[FrontDoorConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.deployment = deployment
        self.router = router
        self.manager = manager
        self.config = config or FrontDoorConfig()
        self.metrics = registry or MetricsRegistry()
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.links: Dict[str, ShardLink] = {}
        self._members = threading.Lock()  # guards ring + links together
        self._ids = itertools.count()
        self._cork = Cork()
        self._stopping = threading.Event()  # set: draining, refuse new work
        self._heart = threading.Thread(
            target=self._heartbeat, name="shard-heartbeat", daemon=True
        )

    # -- lifecycle -----------------------------------------------------

    def attach(self, handle: ShardHandle) -> None:
        """Link one (newly spawned) shard and put it on the ring."""
        link = ShardLink(
            handle.name, self.manager.host, handle.port,
            on_down=self._on_down, chunk_scope=self._cork,
        )
        with self._members:
            if link.up:  # else it went down in between, and was counted
                self.links[handle.name] = link
                self.ring.add(handle.name)
        if link.client.closed:  # hung up before ``up``: on_close found nothing
            self._on_down(link, "connection to worker lost")

    def start(self) -> None:
        """Start the heartbeat thread."""
        self._heart.start()

    def stop(self) -> None:
        """Graceful drain: refuse new work, let in-flight finish, unlink.

        Worker-process drain (and exit-code collection) is the
        manager's synchronous job, done by the caller afterwards.
        """
        self._stopping.set()
        links = list(self.links.values())
        deadline = time.monotonic() + self.config.drain_timeout_s
        while (
            any(link.client.in_flight for link in links)
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        for link in links:
            link.up = False  # a drained link closing is not an eviction
            link.client.close("front door drain deadline exceeded")

    # -- health --------------------------------------------------------

    def _heartbeat(self) -> None:
        """Ping every shard forever; evict one after consecutive misses."""
        while not self._stopping.wait(self.config.heartbeat_interval_s):
            for link in list(self.links.values()):
                handle = self.manager.get(link.name)
                if handle is not None and not handle.alive:
                    self._on_down(link, "worker process died")
                    continue
                self.metrics.counter("frontdoor.heartbeats_total").inc()
                try:
                    link.client.ping(self.config.heartbeat_timeout_s)
                    link.misses = 0
                except (OSError, ValueError):  # timeout or a dead socket
                    link.misses += 1
                    self.metrics.counter(
                        "frontdoor.heartbeat_misses_total"
                    ).inc()
                    if link.misses >= self.config.heartbeat_misses:
                        self._on_down(
                            link,
                            f"missed {link.misses} consecutive heartbeats",
                        )

    def _on_down(self, link: ShardLink, reason: str) -> None:
        """Evict a dead shard: remap the ring, fail its in-flight."""
        with self._members:
            if not link.up:
                return
            link.up = False
            if link.name in self.ring:
                self.ring.remove(link.name)
            self.links.pop(link.name, None)
        self.metrics.counter("frontdoor.shards_evicted_total").inc()
        link.client.fail_pending(
            f"shard {link.name} evicted mid-request ({reason}); retry"
        )
        link.client.close()
        self.manager.evict(link.name)

    # -- request path --------------------------------------------------

    def submit(self, request: AlignRequest) -> ReplySlot:
        """Route one request to its shard; the returned slot always resolves.

        It travels under a front-door-unique id (two clients may both say
        ``req-0``); the link's slot, which answers under the caller's own
        id, is the one returned.
        """
        self.metrics.counter("frontdoor.requests_total").inc()
        original = request.request_id
        if self._stopping.is_set():
            return self._refuse(
                request, rejection(original, "service is draining")
            )
        if not self.router.supports(request.kernel_id):
            # Mirrors ServiceCore._validate so a misaddressed request
            # reads the same against either serving tier.
            return self._refuse(request, error_response(
                original,
                f"kernel #{request.kernel_id} is not deployed on this "
                f"service (deployed: {self.router.kernel_ids()})",
            ))
        fingerprint = self.router.key(
            request.kernel_id, request.query, request.reference
        )
        with self._members:
            try:
                shard = self.ring.route(fingerprint)
            except LookupError:
                shard = None
            link = self.links.get(shard)
        if shard is None:
            return self._refuse(
                request, rejection(original, "no live shards; retry later")
            )
        if link is None or not link.up:
            return self._refuse(request, rejection(
                original, f"shard {shard} is down; retry later"
            ))
        with link.lock:
            if link.client.in_flight < self.config.shard_inflight_bound:
                link.routed_total += 1
                self.metrics.counter("frontdoor.routed_total").inc()
                return link.client.send(request, f"fd-{next(self._ids)}")
        return self._refuse(request, rejection(
            original,
            f"shard {shard} in-flight window is full "
            f"({self.config.shard_inflight_bound}); retry later",
        ))

    def _refuse(self, request: AlignRequest, answer: AlignResponse) -> ReplySlot:
        """Count one refusal and hand back its already answered slot."""
        self.metrics.counter(
            "frontdoor.errors_total" if answer.status is Status.ERROR
            else "frontdoor.rejected_total"
        ).inc()
        slot = ReplySlot(request)
        slot.resolve(answer)
        return slot

    def deliver(self, write, payload: bytes) -> None:
        """``write(payload)`` now, or joined when a link's chunk ends."""
        self._cork.deliver(write, payload)

    # -- control-plane aggregation -------------------------------------

    def _collect(self, kind: str) -> Dict[str, Dict[str, Any]]:
        """Fan one control request out to every live shard."""
        replies: Dict[str, Dict[str, Any]] = {}
        for name, link in sorted(self.links.items()):
            try:
                replies[name] = getattr(link.client, kind)(
                    self.config.control_timeout_s
                )
            except (OSError, ValueError):  # timeout or a dead socket
                replies[name] = {"error": f"shard {name} unreachable"}
        return replies

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Deployment-wide metrics: aggregate + per-shard + topology.

        Counters sum exactly across shards.  Histogram summaries merge
        their exact envelope (count/sum/mean/min/max) — quantiles of
        pre-summarized histograms cannot be combined soundly, so the
        per-shard sections keep the authoritative p50/p95/p99 — plus
        the cumulative bucket counts (summed per bound: shards share
        one geometric bucket grid), which *can* be combined exactly and
        let an autoscale watcher derive windowed quantiles for the
        whole deployment from this one endpoint.
        """
        shard_snapshots = self._collect("metrics")
        counters: Dict[str, int] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        buckets: Dict[str, Dict[Optional[float], int]] = {}
        for snapshot in shard_snapshots.values():
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, stats in snapshot.get("histograms", {}).items():
                merged = histograms.setdefault(
                    name, {"count": 0, "sum": 0.0}
                )
                merged["count"] += stats.get("count", 0)
                merged["sum"] += stats.get("sum", 0.0)
                for stat, pick in (("min", min), ("max", max)):
                    if stats.get(stat) is not None:
                        merged[stat] = (
                            pick(merged[stat], stats[stat])
                            if stat in merged else stats[stat]
                        )
                summed = buckets.setdefault(name, {})
                for bound, count in stats.get("buckets", []):
                    summed[bound] = summed.get(bound, 0) + count
        for name, merged in histograms.items():
            if merged["count"]:
                merged["mean"] = merged["sum"] / merged["count"]
            if buckets.get(name):
                # None (the overflow bucket) sorts last, finite bounds
                # ascending — the same shape one shard emits.
                merged["buckets"] = [
                    [bound, count]
                    for bound, count in sorted(
                        buckets[name].items(),
                        key=lambda item: (item[0] is None, item[0] or 0.0),
                    )
                ]
        local = self.metrics.snapshot()
        counters.update(local.get("counters", {}))
        return {
            "counters": counters,
            "histograms": histograms,
            "frontdoor": {
                "ring": self.ring.describe(),
                "links": [
                    link.stats() for _, link in sorted(self.links.items())
                ],
                "shards": [
                    handle.describe() for handle in self.manager.handles()
                ],
            },
            "shards": shard_snapshots,
            "kernels": self.router.kernel_ids(),
        }

    def metrics_text(self) -> str:
        """Aggregate text rendering plus one section per shard."""
        snapshot = self.metrics_snapshot()
        sections = [render_text_snapshot(snapshot)]
        for name, shard_snapshot in sorted(snapshot["shards"].items()):
            sections.append(f"== {name} ==")
            sections.append(render_text_snapshot(shard_snapshot))
        return "\n".join(sections)

    def trace_snapshot(self) -> Dict[str, Any]:
        """Chrome trace with every shard's events on one timeline.

        Workers run metrics-only recorders by default, so this is
        usually empty-but-valid; under per-shard tracing the merged
        ``traceEvents`` interleave by their own timestamps.
        """
        events: List[Dict[str, Any]] = []
        for reply in self._collect("trace").values():
            events.extend(reply.get("traceEvents", []))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class ShardServer:
    """Facade: spawn shards, serve the front door, drain.

    The constructor is cheap; :meth:`start` does the heavy lifting
    (kernel synthesis for the router, worker spawn with ready
    handshake, the server thread).  ``close()`` runs the full graceful
    drain and returns every worker's exit code — 0 across the board is
    the "clean drain" the CI smoke job asserts.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        deployment: Deployment,
        n_shards: int,
        config: Optional[FrontDoorConfig] = None,
        mp_context: str = "spawn",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.deployment = deployment
        self.n_shards = n_shards
        self.config = config or FrontDoorConfig()
        self.manager = ShardManager(
            deployment, n_shards, mp_context=mp_context
        )
        self._requested_address = address
        self.address: Optional[Tuple[str, int]] = None
        self.frontdoor: Optional[FrontDoor] = None
        self.metrics = registry or MetricsRegistry()
        self._server: Optional[AlignmentServer] = None
        self._closed = False

    def start(self) -> "ShardServer":
        """Spawn every shard and bind the front door; returns self."""
        router = FingerprintRouter.from_deployment(self.deployment)
        handles = self.manager.spawn_all()
        self.frontdoor = FrontDoor(
            self.deployment, router, self.manager,
            config=self.config, registry=self.metrics,
        )
        try:
            for handle in handles:
                self.frontdoor.attach(handle)
            self._server = AlignmentServer(
                self._requested_address, self.frontdoor
            )
        except Exception:
            self.frontdoor.stop()
            self.manager.kill_all()
            raise
        self.frontdoor.start()
        self._server.serve_in_thread()
        self.address = self._server.server_address[:2]
        return self

    def __enter__(self) -> "ShardServer":
        """Context-manager start."""
        return self.start()

    def __exit__(self, *_exc) -> None:
        """Context-manager close (graceful drain)."""
        self.close()

    def close(self) -> Dict[str, Optional[int]]:
        """Graceful drain; returns worker name → exit code (0 = clean)."""
        if self._closed:
            return {}
        self._closed = True
        if self._server is not None:
            self._server.close()  # stops accepting, then FrontDoor.stop()
        return self.manager.drain_all(
            timeout_s=self.config.drain_timeout_s
        )

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Aggregate metrics fetch (for the CLI's exit dump)."""
        if self.frontdoor is None:
            return {"counters": self.metrics.snapshot().get("counters", {})}
        return self.frontdoor.metrics_snapshot()
