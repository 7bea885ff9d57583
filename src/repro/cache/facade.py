"""The cache stack and its opt-in decorator around the device runtime.

:class:`CacheStack` layers the tiers: an in-memory LRU
(:mod:`repro.cache.memory`) in front of an optional persistent shard
store (:mod:`repro.cache.disk`), with single-flight deduplication
(:mod:`repro.cache.singleflight`) guarding the compute path.  A lookup
walks memory → disk → compute; a disk hit is promoted into memory, and
a computed result is written through to both tiers.  Every hit, miss,
promotion, eviction and coalesce reports through the current
:mod:`repro.obs` recorder (``cache.*`` counters) in addition to the
stack's own stats.

:class:`CachedRuntime` is the decorator that makes the stack invisible
to callers: it wraps a :class:`~repro.host.runtime.DeviceRuntime`,
exposes the same ``run`` batch API, and serves each pair from the
tiers when possible — only the misses reach the wrapped runtime (as
one *deduped* batch, so the compiled backend's whole-batch lockstep
sweep covers every distinct miss in one call), and concurrent identical
pairs across threads coalesce onto one engine execution.
Its outcome is a :class:`CachedBatchOutcome` carrying the per-pair
fingerprints and hit flags the serving layer forwards to clients.

Cached values cross the disk boundary through a deterministic JSON
codec (:func:`encode_result` / :func:`decode_result`) covering score,
cells, alignment path and cycle report — everything a served response
is built from (the optional debug ``matrix`` is deliberately dropped).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.disk import DiskStore
from repro.cache.fingerprint import pair_fingerprint, runtime_fingerprint
from repro.cache.memory import MemoryCache
from repro.cache.singleflight import SingleFlight
from repro.core.result import Alignment, AlignmentResult, CycleReport, Move
from repro.host.runtime import BatchOutcome, DeviceRuntime
from repro.obs.recorder import get_recorder
from repro.parallel import WorkError

#: Codec revision; bumped on incompatible entry-encoding changes.
CODEC_VERSION = 1


def encode_result(result: AlignmentResult) -> bytes:
    """Serialize an :class:`AlignmentResult` to deterministic JSON bytes.

    The encoding is content-stable (sorted keys, compact separators) so
    identical results always persist as identical bytes — the property
    the warm-restart byte-identity test leans on.
    """
    alignment = None
    if result.alignment is not None:
        alignment = {
            "moves": "".join(m.value for m in result.alignment.moves),
            "query_start": result.alignment.query_start,
            "query_end": result.alignment.query_end,
            "ref_start": result.alignment.ref_start,
            "ref_end": result.alignment.ref_end,
        }
    cycles = None
    if result.cycles is not None:
        cycles = {
            "init_cycles": result.cycles.init_cycles,
            "load_cycles": result.cycles.load_cycles,
            "compute_cycles": result.cycles.compute_cycles,
            "reduction_cycles": result.cycles.reduction_cycles,
            "traceback_cycles": result.cycles.traceback_cycles,
            "interface_cycles": result.cycles.interface_cycles,
            "wavefronts": result.cycles.wavefronts,
            "ii": result.cycles.ii,
        }
    payload = {
        "v": CODEC_VERSION,
        "score": float(result.score),
        "start": [int(result.start[0]), int(result.start[1])],
        "end": [int(result.end[0]), int(result.end[1])],
        "alignment": alignment,
        "cycles": cycles,
    }
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def decode_result(payload: bytes) -> AlignmentResult:
    """Rebuild an :class:`AlignmentResult` from :func:`encode_result` bytes."""
    doc = json.loads(payload.decode("utf-8"))
    if doc.get("v") != CODEC_VERSION:
        raise ValueError(f"unsupported cache entry version {doc.get('v')!r}")
    alignment = None
    if doc["alignment"] is not None:
        a = doc["alignment"]
        alignment = Alignment(
            moves=tuple(Move(ch) for ch in a["moves"]),
            query_start=a["query_start"],
            query_end=a["query_end"],
            ref_start=a["ref_start"],
            ref_end=a["ref_end"],
        )
    cycles = None
    if doc["cycles"] is not None:
        cycles = CycleReport(**doc["cycles"])
    return AlignmentResult(
        score=doc["score"],
        start=(doc["start"][0], doc["start"][1]),
        end=(doc["end"][0], doc["end"][1]),
        alignment=alignment,
        cycles=cycles,
    )


@dataclass(frozen=True)
class CacheConfig:
    """Sizing and placement knobs of one :class:`CacheStack`.

    ``directory=None`` keeps the stack memory-only (no persistence);
    pointing it at a directory adds the disk tier, which a restarted
    process warm-starts from.
    """

    memory_bytes: int = 64 * 1024 * 1024
    directory: Optional[str] = None
    shard_bytes: int = 16 * 1024 * 1024
    fsync: bool = False


class CacheComputeError(RuntimeError):
    """A coalesced engine failure, re-raised to every waiting follower."""

    def __init__(self, error_type: str, message: str, traceback: str = ""):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message
        self.traceback = traceback


class CacheStack:
    """Two-tier cache (memory over optional disk) with single-flight."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self.memory = MemoryCache(max_bytes=self.config.memory_bytes)
        self.disk: Optional[DiskStore] = None
        if self.config.directory is not None:
            self.disk = DiskStore(
                self.config.directory,
                shard_bytes=self.config.shard_bytes,
                fsync=self.config.fsync,
            )
        self.flights = SingleFlight()

    # -- tier walk -----------------------------------------------------

    def probe(self, key: str) -> Tuple[Optional[AlignmentResult], Optional[str]]:
        """Look ``key`` up in memory then disk (promoting a disk hit).

        Returns ``(result, tier)`` with ``tier`` one of ``"memory"``,
        ``"disk"`` or ``None`` on a full miss.
        """
        recorder = get_recorder()
        value = self.memory.get(key)
        if value is not None:
            recorder.count("cache.memory_hits")
            return value, "memory"
        if self.disk is not None:
            payload = self.disk.get(key)
            if payload is not None:
                result = decode_result(payload)
                self.memory.put(key, result, len(payload))
                recorder.count("cache.disk_hits")
                return result, "disk"
        recorder.count("cache.misses")
        return None, None

    def store(self, key: str, result: AlignmentResult) -> None:
        """Write a computed result through to both tiers."""
        recorder = get_recorder()
        payload = encode_result(result)
        evicted = self.memory.put(key, result, len(payload))
        if evicted:
            recorder.count("cache.evictions", evicted)
        if self.disk is not None:
            self.disk.put(key, payload)

    def get_or_compute(self, key: str, compute) -> Tuple[AlignmentResult, str]:
        """Serve ``key`` from a tier or compute it exactly once.

        ``compute`` is a zero-argument callable producing the
        :class:`AlignmentResult`.  Returns ``(result, source)`` where
        ``source`` is ``"memory"``, ``"disk"``, ``"coalesced"`` or
        ``"engine"``.
        """
        result, tier = self.probe(key)
        if result is not None:
            return result, tier

        def lead() -> AlignmentResult:
            # Double-check under the flight: a concurrent leader may have
            # stored the entry between our probe and winning the flight.
            again, _tier = self.probe(key)
            if again is not None:
                return again
            value = compute()
            self.store(key, value)
            return value

        value, coalesced = self.flights.do(key, lead)
        if coalesced:
            get_recorder().count("cache.coalesced")
            return value, "coalesced"
        return value, "engine"

    # -- maintenance / introspection -----------------------------------

    def clear(self) -> int:
        """Drop both tiers; returns the number of disk entries removed."""
        self.memory.clear()
        return self.disk.clear() if self.disk is not None else 0

    def close(self) -> None:
        """Release the disk tier's append handle."""
        if self.disk is not None:
            self.disk.close()

    def stats(self) -> Dict[str, Any]:
        """JSON-safe combined snapshot of every tier."""
        return {
            "memory": self.memory.stats().to_dict(),
            "disk": self.disk.stats().to_dict() if self.disk else None,
            "singleflight": self.flights.stats().to_dict(),
        }


@dataclass
class CachedBatchOutcome(BatchOutcome):
    """A :class:`BatchOutcome` plus per-pair cache attribution.

    ``fingerprints[i]`` is the content-addressed key of pair ``i``;
    ``cached[i]`` is ``True`` when the pair was served without engine
    work *in this call* (memory hit, disk hit, or coalesced onto a
    concurrent computation).
    """

    fingerprints: List[str] = field(default_factory=list)
    cached: List[bool] = field(default_factory=list)

    @property
    def hits(self) -> int:
        """Pairs served without engine work in this call."""
        return sum(1 for flag in self.cached if flag)

    @property
    def hit_rate(self) -> float:
        """Fraction of the batch served from the cache tiers."""
        return self.hits / len(self.cached) if self.cached else 0.0


class CachedRuntime:
    """Drop-in :class:`DeviceRuntime` decorator serving from a cache stack.

    The wrapped runtime only sees the *misses* of each batch — deduped,
    as a single inner batch, so the scheduler model behaves exactly as
    for an uncached runtime of that batch.
    The modelled schedule therefore covers only the pairs the device
    actually ran: a fully warm batch reports a zero-cycle schedule, which
    is the honest account of a device that did no work.
    """

    def __init__(self, runtime: DeviceRuntime, stack: CacheStack) -> None:
        self.runtime = runtime
        self.stack = stack
        self.runtime_key = runtime_fingerprint(
            runtime.spec,
            runtime.params,
            runtime.config.n_pe,
            runtime.report.ii,
            runtime.config.max_query_len,
            runtime.config.max_ref_len,
        )

    # -- DeviceRuntime surface ----------------------------------------

    @property
    def spec(self):
        """The wrapped runtime's kernel spec."""
        return self.runtime.spec

    @property
    def config(self):
        """The wrapped runtime's launch configuration."""
        return self.runtime.config

    @property
    def params(self):
        """The wrapped runtime's scoring parameters."""
        return self.runtime.params

    @property
    def report(self):
        """The wrapped runtime's synthesis report."""
        return self.runtime.report

    @property
    def backend(self):
        """The wrapped runtime's alignment backend.

        Deliberately absent from :attr:`runtime_key`: backends are
        bit-identical, so a cache warmed by one backend must hit from
        the other.
        """
        return self.runtime.backend

    def pair_key(self, query: Sequence[Any], reference: Sequence[Any]) -> str:
        """Content-addressed key of one pair on this runtime."""
        return pair_fingerprint(self.runtime_key, query, reference)

    # -- the batch entry point ----------------------------------------

    def run(
        self, pairs: Sequence[Tuple[Sequence[Any], Sequence[Any]]]
    ) -> CachedBatchOutcome:
        """Align a batch, serving every known pair from the cache tiers.

        Semantics match :meth:`DeviceRuntime.run` — index-aligned
        results, per-pair failures isolated in ``errors`` — with two
        additions: ``fingerprints``/``cached`` attribution on the
        outcome, and cross-thread single-flight (an identical pair being
        computed by another thread is awaited, not recomputed).
        """
        recorder = get_recorder()
        pairs = list(pairs)
        n = len(pairs)
        keys = [self.pair_key(q, r) for q, r in pairs]
        results: List[Optional[AlignmentResult]] = [None] * n
        cached = [False] * n
        errors: List[WorkError] = []
        pending: Dict[str, List[int]] = {}
        with recorder.span("cache.run", kernel=self.spec.name, pairs=n):
            for index, key in enumerate(keys):
                value, _tier = self.stack.probe(key)
                if value is not None:
                    results[index] = value
                    cached[index] = True
                else:
                    pending.setdefault(key, []).append(index)
            lead: Dict[str, Any] = {}
            follow: Dict[str, Any] = {}
            for key in pending:
                flight, leader = self.stack.flights.begin(key)
                if leader:
                    lead[key] = flight
                else:
                    follow[key] = flight
            if follow:
                recorder.count(
                    "cache.coalesced",
                    sum(len(pending[key]) for key in follow),
                )
            lead_keys = list(lead)
            lead_pairs = [pairs[pending[key][0]] for key in lead_keys]
            inner = self._run_lead(lead_keys, lead_pairs)
            self._settle(lead, lead_keys, inner, pending, results, cached,
                         errors)
            for key, flight in follow.items():
                self._await(flight, pending[key], results, cached, errors)
            if recorder.enabled:
                recorder.count("cache.pairs", n)
        outcome = inner["outcome"]
        return CachedBatchOutcome(
            results=results,
            schedule=outcome.schedule,
            clock_mhz=outcome.clock_mhz,
            errors=sorted(errors, key=lambda e: e.index),
            fingerprints=keys,
            cached=cached,
        )

    # -- internals -----------------------------------------------------

    def _run_lead(
        self,
        lead_keys: List[str],
        lead_pairs: List[Tuple[Sequence[Any], Sequence[Any]]],
    ) -> Dict[str, Any]:
        """Run the deduped miss set as one inner batch.

        Returns the inner outcome plus a key → error map.  Flights are
        *not* settled here; :meth:`_settle` does that so an unexpected
        inner exception can still fail every open flight (no follower
        may hang).
        """
        try:
            outcome = self.runtime.run(lead_pairs)
        except BaseException as exc:
            failure = CacheComputeError(type(exc).__name__, str(exc))
            return {"outcome": None, "errors": {
                key: failure for key in lead_keys
            }, "raised": exc}
        errors = {
            lead_keys[err.index]: CacheComputeError(
                err.error_type, err.message, err.traceback
            )
            for err in outcome.errors
        }
        return {"outcome": outcome, "errors": errors, "raised": None}

    def _settle(
        self,
        lead: Dict[str, Any],
        lead_keys: List[str],
        inner: Dict[str, Any],
        pending: Dict[str, List[int]],
        results: List[Optional[AlignmentResult]],
        cached: List[bool],
        errors: List[WorkError],
    ) -> None:
        """Settle every led flight and fill the indices it covers."""
        outcome = inner["outcome"]
        key_errors: Dict[str, CacheComputeError] = inner["errors"]
        if inner["raised"] is not None:
            for key in lead_keys:
                self.stack.flights.fail(lead[key], key_errors[key])
            raise inner["raised"]
        for position, key in enumerate(lead_keys):
            flight = lead[key]
            failure = key_errors.get(key)
            if failure is not None:
                self.stack.flights.fail(flight, failure)
                for index in pending[key]:
                    errors.append(WorkError(
                        index, failure.error_type, failure.message,
                        traceback=failure.traceback,
                    ))
                continue
            result = outcome.results[position]
            self.stack.store(key, result)
            self.stack.flights.finish(flight, result)
            indices = pending[key]
            for index in indices:
                results[index] = result
            # Duplicate appearances beyond the first were not engine work.
            for index in indices[1:]:
                cached[index] = True

    def _await(
        self,
        flight: Any,
        indices: List[int],
        results: List[Optional[AlignmentResult]],
        cached: List[bool],
        errors: List[WorkError],
    ) -> None:
        """Wait on another thread's flight for the given batch indices."""
        try:
            value = self.stack.flights.wait(flight)
        except CacheComputeError as exc:
            for index in indices:
                errors.append(WorkError(
                    index, exc.error_type, exc.message,
                    traceback=exc.traceback,
                ))
            return
        except BaseException as exc:  # noqa: BLE001 - isolation contract
            for index in indices:
                errors.append(WorkError(index, type(exc).__name__, str(exc)))
            return
        for index in indices:
            results[index] = value
            cached[index] = True
