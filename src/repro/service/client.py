"""Clients of the alignment service, plus an open-loop load generator.

:class:`AlignmentClient` speaks the JSON-line protocol over TCP: a
reader thread demultiplexes responses by request id, so many requests
can be in flight on one connection (the wire analogue of ``N_K``
channels).  :class:`InProcClient` offers the same surface directly over
a :class:`~repro.service.server.ServiceCore` — no sockets — which is
what the CI smoke job and the latency benchmark use.

:class:`LoadGenerator` drives either client *open-loop*: arrival times
are drawn from a seeded Poisson process at the offered rate and requests
fire at their scheduled instants regardless of completions, so queueing
delay shows up in the measured latency instead of throttling the
offered load (closed-loop generators hide saturation).

Failure handling is explicit rather than hung: ``connect_timeout``
bounds the TCP handshake, ``read_timeout`` bounds how long an
*outstanding* request may wait for any byte from the server (an idle
connection is never torn down), and :func:`connect_with_retry` wraps
construction in a bounded exponential backoff — the shape a caller
needs when the server is still spawning shards.
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple,
)

from repro.service.protocol import (
    AlignRequest,
    AlignResponse,
    ProtocolError,
    Status,
    decode_line,
    encode_line,
)
from repro.service.server import ReplySlot, ServiceCore


def exact_percentile(samples: Sequence[float], q: float) -> float:
    """Exact ``q``-percentile (nearest-rank) of a non-empty sample list.

    >>> exact_percentile([1.0, 2.0, 3.0, 4.0], 0.5)
    2.0
    """
    if not samples:
        raise ValueError("need at least one sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass(frozen=True)
class LoadProfile:
    """A deterministic time-varying multiplier on the offered rate.

    Three shapes cover the non-stationary traffic the autoscale demo
    (and any capacity experiment) needs:

    * ``const[:mult]`` — a flat multiplier (default 1.0; the identity
      profile, equivalent to not passing one);
    * ``step:<t>:<mult>`` — 1.0 until ``t`` seconds into the run, then
      ``mult`` (the overload step an SLO-recovery demo applies);
    * ``ramp:<t0>:<t1>:<mult>`` — 1.0 until ``t0``, linear up (or down)
      to ``mult`` by ``t1``, then flat.

    ``at(t)`` is the instantaneous multiplier; the generator draws each
    Poisson gap at ``rate * at(elapsed)``, so the arrival process stays
    open-loop and seeded-reproducible while its intensity shifts.
    """

    kind: str = "const"
    t0_s: float = 0.0
    t1_s: float = 0.0
    multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("const", "step", "ramp"):
            raise ValueError(
                f"profile kind must be const/step/ramp, got {self.kind!r}"
            )
        if self.multiplier <= 0:
            raise ValueError(
                f"profile multiplier must be positive, got {self.multiplier}"
            )
        if self.t0_s < 0:
            raise ValueError(f"profile start must be >= 0, got {self.t0_s}")
        if self.kind == "ramp" and self.t1_s <= self.t0_s:
            raise ValueError(
                f"ramp needs t1 > t0, got t0={self.t0_s} t1={self.t1_s}"
            )

    @staticmethod
    def parse(text: str) -> "LoadProfile":
        """Parse the CLI spelling (``step:<t>:<mult>`` etc.)."""
        parts = text.split(":")
        try:
            if parts[0] == "const" and len(parts) in (1, 2):
                mult = float(parts[1]) if len(parts) == 2 else 1.0
                return LoadProfile(kind="const", multiplier=mult)
            if parts[0] == "step" and len(parts) == 3:
                return LoadProfile(
                    kind="step", t0_s=float(parts[1]),
                    multiplier=float(parts[2]),
                )
            if parts[0] == "ramp" and len(parts) == 4:
                return LoadProfile(
                    kind="ramp", t0_s=float(parts[1]), t1_s=float(parts[2]),
                    multiplier=float(parts[3]),
                )
        except ValueError as exc:
            if "profile" in str(exc):
                raise
            raise ValueError(
                f"cannot parse load profile {text!r}: {exc}"
            ) from None
        raise ValueError(
            f"cannot parse load profile {text!r}; expected const[:mult], "
            f"step:<t>:<mult> or ramp:<t0>:<t1>:<mult>"
        )

    def at(self, t_s: float) -> float:
        """Instantaneous rate multiplier ``t_s`` seconds into the run."""
        if self.kind == "const":
            return self.multiplier
        if self.kind == "step":
            return self.multiplier if t_s >= self.t0_s else 1.0
        if t_s <= self.t0_s:
            return 1.0
        if t_s >= self.t1_s:
            return self.multiplier
        fraction = (t_s - self.t0_s) / (self.t1_s - self.t0_s)
        return 1.0 + (self.multiplier - 1.0) * fraction

    def phase_bounds(self) -> List[float]:
        """Run offsets (seconds) where the offered intensity changes."""
        if self.kind == "step":
            return [self.t0_s]
        if self.kind == "ramp":
            return [self.t0_s, self.t1_s]
        return []

    def describe(self) -> str:
        """The parseable spelling back."""
        if self.kind == "const":
            return f"const:{self.multiplier:g}"
        if self.kind == "step":
            return f"step:{self.t0_s:g}:{self.multiplier:g}"
        return f"ramp:{self.t0_s:g}:{self.t1_s:g}:{self.multiplier:g}"


class _Submitter:
    """What both clients share: ids, building a request, blocking on it.

    A subclass says how a built request travels (``send``).
    """

    _id_prefix = "req"

    def __init__(self) -> None:
        self._ids = itertools.count()

    def _next_id(self) -> str:
        return f"{self._id_prefix}-{next(self._ids)}"

    def submit(
        self,
        kernel_id: int,
        query: Sequence[Any],
        reference: Sequence[Any],
        deadline_ms: Optional[float] = None,
        priority: int = 0,
        request_id: Optional[str] = None,
    ) -> ReplySlot:
        """Fire one request; returns its reply slot immediately."""
        return self.send(AlignRequest(
            request_id=request_id or self._next_id(),
            kernel_id=kernel_id,
            query=tuple(query),
            reference=tuple(reference),
            deadline_ms=deadline_ms,
            priority=priority,
        ))

    def align(
        self,
        kernel_id: int,
        query: Sequence[Any],
        reference: Sequence[Any],
        timeout: Optional[float] = 30.0,
        **kwargs: Any,
    ) -> AlignResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(kernel_id, query, reference, **kwargs).result(timeout)


class InProcClient(_Submitter):
    """The client surface over an in-process :class:`ServiceCore`."""

    _id_prefix = "inproc"

    def __init__(self, core: ServiceCore) -> None:
        super().__init__()
        self.core = core

    def send(self, request: AlignRequest) -> ReplySlot:
        """Hand one built request to the core."""
        return self.core.submit(request)

    def metrics(self) -> Dict:
        """Live metrics snapshot."""
        return self.core.metrics_snapshot()

    def metrics_text(self) -> str:
        """Plain-text rendering of the metrics snapshot."""
        return self.core.metrics_text()

    def trace(self) -> Dict:
        """Chrome trace JSON captured by the core's recorder."""
        return self.core.trace_snapshot()

    def close(self) -> None:
        """No-op (the core's owner stops it)."""


class ConnectError(ConnectionError):
    """Raised when every connection attempt of a retry budget failed."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for connection attempts.

    Attempt ``i`` (0-based) sleeps
    ``min(max_delay_s, base_delay_s * multiplier ** i)`` before the
    next try; after ``attempts`` failures the caller gives up.  The
    schedule is deterministic — reproducible tests beat jittered ones
    here, and a handful of clients retrying a local service do not
    need thundering-herd protection.
    """

    attempts: int = 5
    base_delay_s: float = 0.1
    max_delay_s: float = 2.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_s(self, attempt: int) -> float:
        """Backoff before the attempt after ``attempt`` (0-based)."""
        return min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** attempt
        )


def connect_with_retry(
    host: str,
    port: int,
    policy: Optional[RetryPolicy] = None,
    connect_timeout: float = 10.0,
    read_timeout: Optional[float] = None,
) -> "AlignmentClient":
    """Connect to a service, retrying with backoff while it comes up.

    Raises :class:`ConnectError` (chaining the last socket error) once
    the policy's attempt budget is exhausted.
    """
    policy = policy or RetryPolicy()
    last: Optional[OSError] = None
    for attempt in range(policy.attempts):
        try:
            return AlignmentClient(
                host, port,
                connect_timeout=connect_timeout,
                read_timeout=read_timeout,
            )
        except OSError as exc:
            last = exc
            if attempt + 1 < policy.attempts:
                time.sleep(policy.delay_s(attempt))
    raise ConnectError(
        f"could not connect to {host}:{port} after "
        f"{policy.attempts} attempts: {last}"
    ) from last


class AlignmentClient(_Submitter):
    """JSON-line TCP client with response demultiplexing by id.

    ``read_timeout`` bounds how long any *outstanding* request may go
    without the server producing a byte; when it trips, every pending
    request resolves as an error and the connection closes.  A quiet
    connection with nothing in flight is left alone.

    A request line is written at once when nothing is in flight — its
    answer waits on this write alone — and otherwise left to a writer
    thread, which joins whatever queued while it waited to run: with
    answers already owed, a ``sendall`` per line buys no latency and
    hands the interpreter lock around once per request (a burst, or a
    relay's handler with more lines to read).  Two things serve a caller
    that relays (the shard front door): ``on_close(reason)`` is called
    once when the connection ends, however it ends, before what is still
    pending is failed; ``chunk_scope`` is a reusable context manager
    entered around the responses of each received chunk, so what one
    server write carried can be passed on as one write
    (:class:`~repro.service.server.Cork`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        read_timeout: Optional[float] = None,
        on_close: Optional[Callable[[str], None]] = None,
        chunk_scope: Optional[ContextManager] = None,
    ) -> None:
        super().__init__()
        self._sock = socket.create_connection((host, port), connect_timeout)
        self._read_timeout = read_timeout
        self._on_close = on_close
        self._chunk_scope = chunk_scope or contextlib.nullcontext()
        self._sock.settimeout(read_timeout)
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[str, ReplySlot] = {}
        self._metrics_waiters: Dict[str, "queue.SimpleQueue[Dict]"] = {}
        self._closed = False
        self._outbox: "queue.SimpleQueue[Optional[bytes]]" = queue.SimpleQueue()
        threading.Thread(
            target=self._write_loop, name="alignment-client-writer", daemon=True
        ).start()
        self._reader = threading.Thread(
            target=self._read_loop, name="alignment-client-reader", daemon=True
        )
        self._reader.start()

    @property
    def in_flight(self) -> int:
        """Requests sent and not yet answered."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        """Whether the connection has ended."""
        return self._closed

    def _send(self, payload: bytes, join: bool = False) -> None:
        """Write ``payload`` now, or with ``join`` leave it to the writer."""
        if join:
            self._outbox.put(payload)
        else:
            with self._write_lock:
                self._sock.sendall(payload)

    def _write_loop(self) -> None:
        """Send what queued, joined, until closed."""
        outbox = self._outbox
        while True:
            lines = [outbox.get()]
            while not outbox.empty():
                lines.append(outbox.get())
            if None in lines:  # close()
                return
            try:
                self._send(b"".join(lines))
            except OSError:
                return self.close("connection lost while sending")

    def _read_loop(self) -> None:
        """Demultiplex every incoming line to its waiting slot.

        Reads raw ``recv`` chunks into a line buffer rather than
        iterating a file object: a read timeout must be able to fire
        *without* corrupting a partially received line, because an
        idle-connection timeout is ignored and reading continues.
        """
        buffer = bytearray()
        reason = "connection closed before a response arrived"
        try:
            while True:
                try:
                    chunk = self._sock.recv(65536)
                except socket.timeout:
                    with self._pending_lock:
                        overdue = bool(self._pending)
                    if not overdue:
                        continue
                    reason = (
                        "no response within the read timeout "
                        f"({self._read_timeout}s)"
                    )
                    break
                if not chunk:
                    break
                buffer.extend(chunk)
                with self._chunk_scope:
                    while True:
                        newline = buffer.find(b"\n")
                        if newline < 0:
                            break
                        line = bytes(buffer[:newline]).strip()
                        del buffer[:newline + 1]
                        if line:
                            self._dispatch_line(line)
        except (OSError, ValueError):
            pass
        finally:
            self.close(reason)

    def _dispatch_line(self, line: bytes) -> None:
        """Route one decoded server line to its waiter."""
        try:
            message = decode_line(line)
        except ProtocolError:
            return
        message_id = message.get("id")
        if message_id is None:
            return
        if message.get("type") == "result":
            with self._pending_lock:
                slot = self._pending.pop(message_id, None)
            if slot is not None:
                message["id"] = slot.request.request_id  # see send(wire_id=)
                slot.resolve(AlignResponse.from_dict(message))
        else:  # a control-plane reply, whatever its kind: _control knows
            with self._pending_lock:
                box = self._metrics_waiters.pop(message_id, None)
            if box is not None:
                box.put(message)

    def fail_pending(self, reason: str) -> None:
        """Answer every outstanding request with an explicit error."""
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for slot in pending:
            slot.resolve(AlignResponse(
                request_id=slot.request.request_id,
                status=Status.ERROR,
                error=reason,
            ))

    def send(
        self, request: AlignRequest, wire_id: Optional[str] = None
    ) -> ReplySlot:
        """Fire one built request over the wire; returns its reply slot.

        A relay whose callers' ids may collide has it travel under a
        ``wire_id`` of its own; the answer still carries the request's id.
        """
        slot = ReplySlot(request)
        if wire_id is None:
            wire_id = request.request_id
        else:
            request = AlignRequest(
                wire_id, request.kernel_id, request.query, request.reference,
                request.deadline_ms, request.priority,
            )
        try:
            line = request.to_line()
            with self._pending_lock:
                if self._closed:  # fail_pending() has run: never strand a slot
                    raise OSError("closed")
                owed = bool(self._pending)
                self._pending[wire_id] = slot
            self._send(line, join=owed)
        except (OSError, ValueError):
            with self._pending_lock:
                self._pending.pop(wire_id, None)
            slot.resolve(AlignResponse(
                request_id=slot.request.request_id,
                status=Status.ERROR,
                error="connection lost while sending",
            ))
        return slot

    def _control(self, kind: str, timeout: float) -> Dict:
        """Round-trip one control-plane message; returns the reply."""
        message_id = self._next_id()
        box: "queue.SimpleQueue[Dict]" = queue.SimpleQueue()
        with self._pending_lock:
            self._metrics_waiters[message_id] = box
        try:
            self._send(encode_line({"type": kind, "id": message_id}))
            return box.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                "no control-plane reply from the server"
            ) from None
        finally:  # an unanswered probe must not outlive its timeout
            with self._pending_lock:
                self._metrics_waiters.pop(message_id, None)

    def metrics(self, timeout: float = 10.0) -> Dict:
        """Fetch the server's live metrics snapshot."""
        return self._control("metrics", timeout)["snapshot"]

    def metrics_text(self, timeout: float = 10.0) -> str:
        """Fetch the server's metrics snapshot as plain text."""
        return self._control("metrics_text", timeout)["text"]

    def trace(self, timeout: float = 10.0) -> Dict:
        """Fetch the server-side Chrome trace JSON (empty if not tracing)."""
        return self._control("trace", timeout)["trace"]

    def ping(self, timeout: float = 10.0) -> bool:
        """Round-trip liveness probe."""
        return self._control("ping", timeout).get("type") == "pong"

    def close(
        self, reason: str = "connection closed before a response arrived"
    ) -> None:
        """Close the connection (pending requests resolve as errors)."""
        with self._pending_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._outbox.put(None)
        if self._on_close is not None:
            self._on_close(reason)
        self.fail_pending(reason)


@dataclass
class LoadReport:
    """Outcome of one open-loop run at one offered load."""

    offered_rps: float
    sent: int
    ok: int
    rejected: int
    errors: int
    elapsed_s: float
    latencies_ms: List[float] = field(default_factory=list, repr=False)
    #: (completion offset seconds, latency ms) per OK response — the
    #: time-resolved view a shifting-load run is analysed with.
    samples: List[Tuple[float, float]] = field(
        default_factory=list, repr=False
    )

    @property
    def achieved_rps(self) -> float:
        """Completed-OK throughput over the run."""
        return self.ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def percentile_ms(self, q: float) -> Optional[float]:
        """Exact latency percentile of the OK responses."""
        if not self.latencies_ms:
            return None
        return exact_percentile(self.latencies_ms, q)

    def window_latencies_ms(self, t0_s: float, t1_s: float) -> List[float]:
        """OK latencies whose requests completed in ``[t0_s, t1_s)``."""
        return [
            latency for done_s, latency in self.samples
            if t0_s <= done_s < t1_s
        ]

    def window_percentile_ms(
        self, t0_s: float, t1_s: float, q: float
    ) -> Optional[float]:
        """Exact latency percentile within one completion window.

        This is how a non-stationary run is judged: the percentile of
        the *recovery* window, not the whole-run percentile the overload
        phase dominates.
        """
        window = self.window_latencies_ms(t0_s, t1_s)
        if not window:
            return None
        return exact_percentile(window, q)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (what the benchmark persists)."""
        return {
            "offered_rps": self.offered_rps,
            "sent": self.sent,
            "ok": self.ok,
            "rejected": self.rejected,
            "errors": self.errors,
            "elapsed_s": self.elapsed_s,
            "achieved_rps": self.achieved_rps,
            "p50_ms": self.percentile_ms(0.50),
            "p95_ms": self.percentile_ms(0.95),
            "p99_ms": self.percentile_ms(0.99),
        }

    @staticmethod
    def merge(reports: Sequence["LoadReport"]) -> "LoadReport":
        """Combine per-worker reports of one concurrent run.

        Counts and offered load add; elapsed time is the slowest
        worker's (they run simultaneously); latency samples pool, so
        percentiles of the merged report are exact over every request.
        """
        if not reports:
            raise ValueError("need at least one report to merge")
        merged_latencies: List[float] = []
        merged_samples: List[Tuple[float, float]] = []
        for report in reports:
            merged_latencies.extend(report.latencies_ms)
            merged_samples.extend(report.samples)
        merged_samples.sort()
        return LoadReport(
            offered_rps=sum(r.offered_rps for r in reports),
            sent=sum(r.sent for r in reports),
            ok=sum(r.ok for r in reports),
            rejected=sum(r.rejected for r in reports),
            errors=sum(r.errors for r in reports),
            elapsed_s=max(r.elapsed_s for r in reports),
            latencies_ms=merged_latencies,
            samples=merged_samples,
        )

    def summary(self) -> str:
        """One-line human rendering."""
        p50 = self.percentile_ms(0.50)
        p99 = self.percentile_ms(0.99)
        return (
            f"offered {self.offered_rps:8.1f} rps | achieved "
            f"{self.achieved_rps:8.1f} rps | ok {self.ok} rej {self.rejected} "
            f"err {self.errors} | p50 "
            f"{p50 if p50 is None else format(p50, '.2f')} ms | p99 "
            f"{p99 if p99 is None else format(p99, '.2f')} ms"
        )


class LoadGenerator:
    """Seeded open-loop Poisson traffic over any client.

    ``workload`` is a list of ``(kernel_id, query, reference)`` tuples;
    requests cycle through it.  Arrival gaps are ``Exp(rate)`` draws
    from ``random.Random(seed)``, so a run is reproducible end to end.
    """

    def __init__(
        self,
        client: Any,
        workload: Sequence[Tuple[int, Sequence[Any], Sequence[Any]]],
        seed: int = 0,
    ) -> None:
        if not workload:
            raise ValueError("the load generator needs a non-empty workload")
        self.client = client
        self.workload = list(workload)
        self.seed = seed

    def run(
        self,
        rate_rps: float,
        n_requests: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        result_timeout: float = 120.0,
        duration_s: Optional[float] = None,
        profile: Optional[LoadProfile] = None,
    ) -> LoadReport:
        """Offer open-loop Poisson load and collect every answer.

        The run is bounded by ``n_requests``, ``duration_s``, or both
        (whichever trips first); at least one must be given.  ``profile``
        modulates the instantaneous rate over the run (step/ramp — see
        :class:`LoadProfile`): each arrival gap is drawn at
        ``rate_rps * profile.at(elapsed)``, keeping the process seeded
        and reproducible while its intensity shifts.  The report's
        ``samples`` carry per-response completion offsets, so phase-wise
        percentiles (baseline / overload / recovery) come from
        :meth:`LoadReport.window_percentile_ms`.
        """
        if rate_rps <= 0:
            raise ValueError(f"rate must be positive, got {rate_rps}")
        if n_requests is None and duration_s is None:
            raise ValueError("bound the run with n_requests or duration_s")
        if n_requests is not None and n_requests < 1:
            raise ValueError(f"need at least one request, got {n_requests}")
        if duration_s is not None and duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        rng = random.Random(self.seed)
        started = time.perf_counter()
        next_fire = started
        slots: List[ReplySlot] = []
        done_at: List[Optional[float]] = []
        index = 0
        while True:
            if n_requests is not None and index >= n_requests:
                break
            if duration_s is not None and next_fire - started >= duration_s:
                break
            delay = next_fire - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            kernel_id, query, reference = self.workload[index % len(self.workload)]
            slot = self.client.submit(
                kernel_id, query, reference, deadline_ms=deadline_ms
            )
            slots.append(slot)
            done_at.append(None)

            def _stamp(_response, _i=index, _list=done_at):
                _list[_i] = time.perf_counter() - started

            slot.add_done_callback(_stamp)
            instant_rate = rate_rps * (
                profile.at(next_fire - started) if profile is not None else 1.0
            )
            next_fire += rng.expovariate(instant_rate)
            index += 1
        ok = rejected = errors = 0
        latencies: List[float] = []
        samples: List[Tuple[float, float]] = []
        for slot_index, slot in enumerate(slots):
            response = slot.result(timeout=result_timeout)
            if response.status is Status.OK:
                ok += 1
                if response.latency_ms is not None:
                    latencies.append(response.latency_ms)
                    completed = done_at[slot_index]
                    if completed is None:
                        # done-callback raced result(); harvest time is
                        # an upper bound good enough for windowing
                        completed = time.perf_counter() - started
                    samples.append((completed, response.latency_ms))
            elif response.status is Status.REJECTED:
                rejected += 1
            else:
                errors += 1
        elapsed = time.perf_counter() - started
        samples.sort()
        return LoadReport(
            offered_rps=rate_rps,
            sent=len(slots),
            ok=ok,
            rejected=rejected,
            errors=errors,
            elapsed_s=elapsed,
            latencies_ms=latencies,
            samples=samples,
        )

    def replay(
        self,
        deadline_ms: Optional[float] = None,
        result_timeout: float = 120.0,
        window: int = 64,
    ) -> LoadReport:
        """Replay the workload once, in order, closed-loop.

        The trace-replay mode: instead of Poisson arrivals at a chosen
        rate, every workload entry is submitted exactly once in its
        recorded order, with at most ``window`` requests in flight —
        the shape of a pipeline driving the service as fast as it will
        go.  ``offered_rps`` on the report is the achieved submission
        rate (there is no synthetic arrival process to offer).
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        started = time.perf_counter()
        pending: List[ReplySlot] = []
        ok = rejected = errors = 0
        latencies: List[float] = []

        def settle(slot: ReplySlot) -> None:
            nonlocal ok, rejected, errors
            response = slot.result(timeout=result_timeout)
            if response.status is Status.OK:
                ok += 1
                if response.latency_ms is not None:
                    latencies.append(response.latency_ms)
            elif response.status is Status.REJECTED:
                rejected += 1
            else:
                errors += 1

        for kernel_id, query, reference in self.workload:
            if len(pending) >= window:
                settle(pending.pop(0))
            pending.append(self.client.submit(
                kernel_id, query, reference, deadline_ms=deadline_ms
            ))
        for slot in pending:
            settle(slot)
        elapsed = time.perf_counter() - started
        sent = len(self.workload)
        return LoadReport(
            offered_rps=sent / elapsed if elapsed > 0 else 0.0,
            sent=sent,
            ok=ok,
            rejected=rejected,
            errors=errors,
            elapsed_s=elapsed,
            latencies_ms=latencies,
        )

    def run_concurrent(
        self,
        rate_rps: float,
        n_requests: int,
        concurrency: int,
        deadline_ms: Optional[float] = None,
        result_timeout: float = 120.0,
        profile: Optional[LoadProfile] = None,
    ) -> LoadReport:
        """Offer the load from ``concurrency`` firing threads.

        One open-loop thread caps out when the per-request submit cost
        approaches the inter-arrival gap; splitting the offered rate
        across workers keeps the *aggregate* arrival process honest at
        rates a single thread cannot sustain (each worker draws its own
        seeded Poisson gaps at ``rate/concurrency``).  Worker ``i``
        starts at a rotated offset of the workload so concurrent
        workers exercise different keys, and the merged report pools
        every latency sample.
        """
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if concurrency == 1:
            return self.run(
                rate_rps, n_requests,
                deadline_ms=deadline_ms, result_timeout=result_timeout,
                profile=profile,
            )
        share, remainder = divmod(n_requests, concurrency)
        results: List[Optional[LoadReport]] = [None] * concurrency
        errors: List[BaseException] = []

        def worker(index: int) -> None:
            count = share + (1 if index < remainder else 0)
            if count == 0:
                return
            offset = (index * len(self.workload)) // concurrency
            rotated = self.workload[offset:] + self.workload[:offset]
            generator = LoadGenerator(
                self.client, rotated, seed=self.seed + index
            )
            try:
                results[index] = generator.run(
                    rate_rps / concurrency, count,
                    deadline_ms=deadline_ms, result_timeout=result_timeout,
                    profile=profile,
                )
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(
                target=worker, args=(index,),
                name=f"loadgen-{index}", daemon=True,
            )
            for index in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return LoadReport.merge([r for r in results if r is not None])
