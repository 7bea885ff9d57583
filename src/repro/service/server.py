"""The serving core and its threaded TCP front end.

:class:`ServiceCore` is the transport-agnostic engine: requests enter
through :meth:`ServiceCore.submit` and resolve a :class:`ReplySlot`
(a minimal future) with an :class:`~repro.service.protocol.AlignResponse`.
Internally a request flows

    submit → validate → batcher.offer → (idle/size/deadline flush)
           → dispatch executor → DevicePool.execute → resolve slots
           → batcher.done (boards what queued meanwhile)

with every hop reported to the core's :mod:`repro.obs` recorder (counters
and histograms always; spans too when tracing).  Admission failures
(backpressure, unknown kernel, overlong pair, struct alphabet) resolve
immediately — every submitted request is *answered*, never dropped.

:class:`AlignmentServer` wraps the core in a ``ThreadingTCPServer``
speaking the JSON-line protocol (``TCP_NODELAY``): one handler thread per
connection reads requests; the dispatch thread resolving a flush writes
its responses in one ``sendall`` per connection (a write lock keeps lines
atomic), so responses may legally arrive out of request order — clients
demultiplex by id.  The server asks only five methods of its core
(``docs/service.md``), so the sharded tier's routing core
(:class:`repro.shard.frontdoor.FrontDoor`) is served by the same loop.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.kernels import get_kernel
from repro.obs.export import chrome_trace, render_text_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import MetricsRecorder, Recorder
from repro.service.batcher import BatcherConfig, DynamicBatcher, PendingEntry
from repro.service.pool import DevicePool, PoolRejection
from repro.service.protocol import (
    MAX_LINE_BYTES,
    OVERSIZE_LINE_RESPONSE,
    AlignRequest,
    AlignResponse,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    rejection,
    response_from_result,
)

#: Histogram bounds of ``batch_size`` and ``batch_occupancy``.
_BATCH_SIZE_BOUNDS = [float(b) for b in range(1, 129)]
_OCCUPANCY_BOUNDS = [k / 64.0 for k in range(1, 65)]


class ReplySlot:
    """A minimal thread-safe future holding one response.

    Done callbacks run on the resolving thread (or inline when already
    resolved); exceptions they raise are swallowed so one broken client
    connection cannot poison a dispatch thread.
    """

    def __init__(self, request: AlignRequest) -> None:
        self.request = request
        self._event = threading.Event()
        self._response: Optional[AlignResponse] = None
        self._callbacks: List[Callable[[AlignResponse], None]] = []
        self._lock = threading.Lock()

    def resolve(self, response: AlignResponse) -> None:
        """Deliver the response exactly once (later calls are ignored)."""
        with self._lock:
            if self._response is not None:
                return
            self._response = response
            callbacks = list(self._callbacks)
            self._callbacks.clear()
        self._event.set()
        for callback in callbacks:
            try:
                callback(response)
            except Exception:  # noqa: BLE001 - callbacks must not poison dispatch
                pass

    def add_done_callback(
        self, callback: Callable[[AlignResponse], None]
    ) -> None:
        """Run ``callback(response)`` on resolution (inline if done)."""
        with self._lock:
            if self._response is None:
                self._callbacks.append(callback)
                return
            response = self._response
        try:
            callback(response)
        except Exception:  # noqa: BLE001 - same contract as resolve()
            pass

    def result(self, timeout: Optional[float] = None) -> AlignResponse:
        """Block until resolved; raises ``TimeoutError`` on expiry."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} unresolved after {timeout}s"
            )
        assert self._response is not None
        return self._response

    @property
    def done(self) -> bool:
        """Whether the response has been delivered."""
        return self._event.is_set()


class Cork(threading.local):
    """Holds one thread's connection writes so that they leave joined.

    Inside ``with cork:`` every :meth:`deliver` on that thread is held;
    on exit each connection gets one ``write`` of its joined payloads.
    Outside any scope :meth:`deliver` writes at once.  The scope is the
    unit one producer answers in: a flush on a dispatch thread, a
    received chunk on a shard link's reader thread.
    """

    held: Optional[Dict[Callable[[bytes], None], List[bytes]]] = None

    def __enter__(self) -> None:
        self.held = {}

    def __exit__(self, *_exc) -> None:
        held, self.held = self.held, None
        for write, payloads in held.items():
            write(b"".join(payloads))

    def deliver(self, write: Callable[[bytes], None], payload: bytes) -> None:
        """``write(payload)`` now, or joined when this thread's scope ends."""
        if self.held is None:
            write(payload)
        else:
            self.held.setdefault(write, []).append(payload)


class ServiceCore:
    """Transport-agnostic serving engine: batcher + pool + observability.

    Every hop records through ``self.recorder`` — by default a
    :class:`~repro.obs.recorder.MetricsRecorder` over the service's
    :class:`~repro.obs.metrics.MetricsRegistry` (always-on counters and
    histograms, no trace buffer).  Pass a
    :class:`~repro.obs.recorder.TraceRecorder` to additionally capture
    request/batch spans exportable as Chrome trace JSON (the ``repro
    trace`` command and the server's ``trace`` endpoint do this).
    """

    def __init__(
        self,
        pool: DevicePool,
        config: Optional[BatcherConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        dispatchers: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.pool = pool
        self.config = config or BatcherConfig()
        if recorder is None:
            recorder = MetricsRecorder(metrics or MetricsRegistry())
        self.recorder = recorder
        self.metrics = getattr(recorder, "metrics", None) or metrics \
            or MetricsRegistry()
        self._clock = clock
        self.batcher = DynamicBatcher(
            self.config, self._on_flush, clock=clock,
            slots=lambda kernel_id: len(pool.active_members(kernel_id)),
        )
        self._cork = Cork()
        workers = dispatchers if dispatchers is not None else len(pool.members)
        if workers < 1:
            raise ValueError(f"dispatchers must be >= 1, got {workers}")
        self._dispatch = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="service-dispatch"
        )
        self._running = False

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "ServiceCore":
        """Start the batcher's flusher thread."""
        self._running = True
        self.batcher.start()
        return self

    def stop(self) -> None:
        """Flush residual work, drain dispatches, and refuse new traffic."""
        self._running = False
        self.batcher.stop()
        self._dispatch.shutdown(wait=True)

    def __enter__(self) -> "ServiceCore":
        """Context-manager start."""
        return self.start()

    def __exit__(self, *_exc) -> None:
        """Context-manager stop."""
        self.stop()

    # -- request path -------------------------------------------------

    def submit(self, request: AlignRequest) -> ReplySlot:
        """Admit one request; the returned slot always resolves."""
        slot = ReplySlot(request)
        with self.recorder.span(
            "service.submit", kernel=request.kernel_id,
            request_id=request.request_id,
        ):
            self.recorder.count("requests_total")
            problem = self._validate(request)
            if problem is not None:
                self.recorder.count("errors_total")
                slot.resolve(error_response(request.request_id, problem))
                return slot
            if not self._running:
                self.recorder.count("rejected_total")
                slot.resolve(
                    rejection(request.request_id, "service is stopped")
                )
                return slot
            admitted = self.batcher.offer(
                request.kernel_id,
                payload=slot,
                priority=request.priority,
                deadline_ms=request.deadline_ms,
            )
            if not admitted:
                self.recorder.count("rejected_total")
                self.recorder.count(
                    f"kernel.{request.kernel_id}.rejected_total"
                )
                slot.resolve(
                    rejection(
                        request.request_id,
                        f"kernel #{request.kernel_id} queue is full "
                        f"(depth {self.config.max_queue_depth}); retry later",
                    )
                )
                return slot
            self.recorder.count("admitted_total")
            # Per-kernel admission/queue/latency instruments carry the
            # demand signal the autoscale watcher differentiates.
            self.recorder.count(f"kernel.{request.kernel_id}.admitted_total")
        return slot

    def _validate(self, request: AlignRequest) -> Optional[str]:
        """Admission-time checks; a string describes the refusal."""
        if not self.pool.supports(request.kernel_id):
            known = self.pool.kernel_ids()
            return (
                f"kernel #{request.kernel_id} is not deployed on this "
                f"service (deployed: {known})"
            )
        try:
            spec = get_kernel(request.kernel_id)
        except KeyError:
            spec = None
        if spec is not None and spec.alphabet.is_struct:
            return (
                f"kernel #{request.kernel_id} consumes struct symbols, "
                f"which the JSON-line protocol cannot carry"
            )
        max_q, max_r = self.pool.max_lengths(request.kernel_id)
        if len(request.query) > max_q or len(request.reference) > max_r:
            return (
                f"pair {len(request.query)}x{len(request.reference)} exceeds "
                f"the deployed maxima {max_q}x{max_r}"
            )
        return None

    # -- batch execution ----------------------------------------------

    def _on_flush(
        self, kernel_id: int, entries: List[PendingEntry], trigger: str
    ) -> None:
        """Batcher callback: account the flush and hand off to dispatch."""
        self.recorder.count("flushes_total")
        self.recorder.count(f"flush_{trigger}_total")
        self.recorder.observe(
            "batch_size", len(entries), bounds=_BATCH_SIZE_BOUNDS
        )
        self.recorder.observe(
            "batch_occupancy", len(entries) / self.config.max_batch,
            bounds=_OCCUPANCY_BOUNDS,
        )
        try:
            self._dispatch.submit(self._run_batch, kernel_id, entries, trigger)
        except RuntimeError:
            # Executor already shut down: answer rather than drop.
            self.batcher.done(kernel_id)
            for entry in entries:
                entry.payload.resolve(rejection(
                    entry.payload.request.request_id,
                    "service shut down before dispatch",
                ))

    def _run_batch(
        self, kernel_id: int, entries: List[PendingEntry], trigger: str
    ) -> None:
        """Run one flush: its responses leave joined, then its slot is free."""
        try:
            with self._cork:
                self._execute(kernel_id, entries, trigger)
        finally:
            self.batcher.done(kernel_id)

    def deliver(self, write: Callable[[bytes], None], payload: bytes) -> None:
        """``write(payload)`` now, or joined when the resolving flush ends."""
        self._cork.deliver(write, payload)

    def _execute(
        self, kernel_id: int, entries: List[PendingEntry], trigger: str
    ) -> None:
        """Execute one flushed batch on the pool and resolve its slots."""
        pairs = [
            (entry.payload.request.query, entry.payload.request.reference)
            for entry in entries
        ]
        dispatched_at = self._clock()
        for entry in entries:
            queued_ms = (dispatched_at - entry.enqueued_at) * 1000.0
            self.recorder.observe("queue_ms", queued_ms)
            self.recorder.observe(f"kernel.{kernel_id}.queue_ms", queued_ms)
        try:
            with self.recorder.span(
                "service.batch", kernel=kernel_id, size=len(entries),
                trigger=trigger,
            ):
                outcome, _member = self.pool.execute(kernel_id, pairs)
        except (PoolRejection, ValueError) as exc:
            self.recorder.count("errors_total", len(entries))
            self.recorder.count(
                f"kernel.{kernel_id}.completed_total", len(entries)
            )
            for entry in entries:
                entry.payload.resolve(
                    error_response(entry.payload.request.request_id, str(exc))
                )
            return
        errors = {err.index: err for err in outcome.errors}
        fingerprints = getattr(outcome, "fingerprints", None)
        cached_flags = getattr(outcome, "cached", None)
        if cached_flags:
            hits = sum(1 for flag in cached_flags if flag)
            if hits:
                self.recorder.count("cache_hits_total", hits)
            if hits < len(cached_flags):
                self.recorder.count(
                    "cache_misses_total", len(cached_flags) - hits
                )
        now = self._clock()
        for index, entry in enumerate(entries):
            request = entry.payload.request
            latency_ms = (now - entry.enqueued_at) * 1000.0
            if index in errors:
                self.recorder.count("errors_total")
                response = error_response(
                    request.request_id, errors[index].message
                )
            else:
                self.recorder.count("aligned_total")
                response = response_from_result(
                    request.request_id,
                    outcome.results[index],
                    latency_ms=latency_ms,
                    fingerprint=(
                        fingerprints[index] if fingerprints else None
                    ),
                    cached=(
                        cached_flags[index] if cached_flags is not None
                        else None
                    ),
                )
            self.recorder.observe("latency_ms", latency_ms)
            self.recorder.observe(f"kernel.{kernel_id}.latency_ms", latency_ms)
            self.recorder.count(f"kernel.{kernel_id}.completed_total")
            # The queueing + compute interval of this request, anchored at
            # its enqueue time — visible as an async lane in trace exports.
            self.recorder.record_span(
                "service.request", entry.enqueued_at, now,
                kernel=kernel_id, request_id=request.request_id,
                ok=index not in errors,
            )
            entry.payload.resolve(response)

    # -- introspection ------------------------------------------------

    def metrics_snapshot(self) -> Dict:
        """Service metrics plus live pool stats (JSON-safe)."""
        snapshot = self.recorder.snapshot()
        snapshot["pool"] = self.pool.stats()
        snapshot["kernels"] = self.pool.kernel_ids()
        cache = getattr(self.pool, "cache", None)
        if cache is not None:
            snapshot["cache"] = cache.stats()
        return snapshot

    def metrics_text(self) -> str:
        """Plain-text rendering of :meth:`metrics_snapshot`."""
        return render_text_snapshot(self.metrics_snapshot())

    def trace_snapshot(self) -> Dict:
        """Chrome trace JSON of whatever the recorder has captured.

        With the default :class:`MetricsRecorder` the event list is empty
        (only counters are kept); a :class:`TraceRecorder` yields the full
        span/counter timeline.
        """
        return chrome_trace(self.recorder)


class _ServiceHandler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines, answer asynchronously."""

    def handle(self) -> None:
        """Pump requests until EOF; responses write as they resolve."""
        core: ServiceCore = self.server.core  # type: ignore[attr-defined]
        write_lock = threading.Lock()
        # One write per flush: Nagle would only hold it for the client's ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def send(payload: bytes) -> None:
            try:
                with write_lock:
                    self.connection.sendall(payload)
            except (OSError, ValueError):
                pass  # connection gone; the metrics still counted the work

        for raw in iter(lambda: self.rfile.readline(MAX_LINE_BYTES + 1), b""):
            if len(raw) > MAX_LINE_BYTES:  # hostile or broken: answer, hang up
                send(OVERSIZE_LINE_RESPONSE)
                break
            line = raw.strip()
            if not line:
                continue
            message = None
            try:
                message = decode_line(line)
                kind = message.get("type")
                if kind == "align":
                    request = AlignRequest.from_dict(message)
                    slot = core.submit(request)
                    slot.add_done_callback(
                        lambda response: core.deliver(send, response.to_line())
                    )
                elif kind == "metrics":
                    send(encode_line({
                        "type": "metrics",
                        "id": message.get("id"),
                        "snapshot": core.metrics_snapshot(),
                    }))
                elif kind == "metrics_text":
                    send(encode_line({
                        "type": "metrics_text",
                        "id": message.get("id"),
                        "text": core.metrics_text(),
                    }))
                elif kind == "trace":
                    send(encode_line({
                        "type": "trace",
                        "id": message.get("id"),
                        "trace": core.trace_snapshot(),
                    }))
                elif kind == "ping":
                    send(encode_line({"type": "pong", "id": message.get("id")}))
                else:
                    raise ProtocolError(f"unknown message type {kind!r}")
            except ProtocolError as exc:
                send(encode_line({
                    "type": "result",
                    "id": message.get("id") if isinstance(message, dict) else None,
                    "status": "error",
                    "error": str(exc),
                }))


class AlignmentServer(socketserver.ThreadingTCPServer):
    """Threaded JSON-line TCP front end over a :class:`ServiceCore`.

    Binds immediately; call :meth:`serve_in_thread` (tests, loadgen) or
    ``serve_forever`` (CLI).  ``server_address`` reports the bound
    (host, port) — pass port 0 to let the OS choose.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: Tuple[str, int], core: ServiceCore
    ) -> None:
        self.core = core
        super().__init__(address, _ServiceHandler)

    def serve_in_thread(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread and return it."""
        thread = threading.Thread(
            target=self.serve_forever, name="alignment-server", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> None:
        """Stop accepting, close the socket, and stop the core."""
        self.shutdown()
        self.server_close()
        self.core.stop()
