"""Clients of the alignment service.

:class:`AlignmentClient` speaks the JSON-line protocol over TCP: a
reader thread demultiplexes responses by request id, so many requests
can be in flight on one connection (the wire analogue of ``N_K``
channels).  :class:`InProcClient` offers the same surface directly over
a :class:`~repro.service.server.ServiceCore` — no sockets — which is
what the CI smoke job and the latency benchmark use.  Traffic to drive
either one comes from :mod:`repro.service.loadgen`.

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
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, Optional, Sequence

from repro.service.protocol import (
    AlignRequest,
    AlignResponse,
    ProtocolError,
    Status,
    decode_line,
    encode_line,
)
from repro.service.server import ReplySlot, ServiceCore


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
