"""Wire protocol of the alignment service: JSON lines, one message each.

Requests and responses are frozen dataclasses with a *deterministic*
JSON-line encoding (sorted keys, compact separators, no NaN), so the same
logical message always serializes to the same bytes.  The end-to-end
tests rely on that: a response produced by the service must be
byte-identical to one built locally from ``DeviceRuntime.run`` on the
same pair.

Message types on the wire (the ``type`` field):

* ``"align"``        — an :class:`AlignRequest`;
* ``"result"``       — an :class:`AlignResponse`;
* ``"metrics"``      — metrics snapshot request (id echoed in the reply);
* ``"metrics_text"`` — plain-text rendering of the metrics snapshot;
* ``"trace"``        — Chrome trace-event JSON of the server's recorder;
* ``"ping"``         — liveness probe, answered with ``"pong"``.

Sequences travel as lists of integer symbol codes (the engine's native
representation for DNA/protein/quantised-signal alphabets); kernels with
struct alphabets are not servable over this protocol and are rejected
with an ``error`` response at admission.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Protocol revision; bumped on incompatible wire changes.
WIRE_VERSION = 1


class ProtocolError(ValueError):
    """A malformed or unsupported wire message."""


class Status(str, enum.Enum):
    """Terminal status of one request.

    ``OK`` — aligned; ``REJECTED`` — refused at admission (backpressure:
    the request was answered, never silently dropped); ``ERROR`` — the
    request was admitted but could not be aligned.
    """

    OK = "ok"
    REJECTED = "rejected"
    ERROR = "error"


def encode_line(payload: Dict[str, Any]) -> bytes:
    """Serialize one message dict to a deterministic JSON line."""
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return text.encode("utf-8") + b"\n"


#: The longest request line the server reads.
MAX_LINE_BYTES = 2 ** 16
#: What they answer a longer one with before hanging up.
OVERSIZE_LINE_RESPONSE = encode_line({
    "type": "result", "id": None, "status": "error",
    "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
})


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable wire line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"wire line must be a JSON object, got {type(payload).__name__}"
        )
    return payload


@dataclass(frozen=True)
class AlignRequest:
    """One alignment request.

    ``deadline_ms`` is the client's latency budget: the batcher flushes a
    partial batch early enough to honour the tightest deadline it holds.
    ``priority`` breaks ties when a flush cannot take the whole queue —
    higher values board earlier batches.
    """

    request_id: str
    kernel_id: int
    query: Tuple[Any, ...]
    reference: Tuple[Any, ...]
    deadline_ms: Optional[float] = None
    priority: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to a JSON-safe wire dict."""
        payload: Dict[str, Any] = {
            "type": "align",
            "v": WIRE_VERSION,
            "id": self.request_id,
            "kernel": self.kernel_id,
            "query": list(self.query),
            "reference": list(self.reference),
            "priority": self.priority,
        }
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AlignRequest":
        """Parse a wire dict, validating shape and field types."""
        if payload.get("type") != "align":
            raise ProtocolError(f"not an align request: {payload.get('type')!r}")
        try:
            request_id = payload["id"]
            kernel_id = payload["kernel"]
            query = payload["query"]
            reference = payload["reference"]
        except KeyError as exc:
            raise ProtocolError(f"align request missing field {exc}") from None
        if not isinstance(request_id, str) or not request_id:
            raise ProtocolError("request id must be a non-empty string")
        if not isinstance(kernel_id, int):
            raise ProtocolError("kernel must be an integer id")
        for name, seq in (("query", query), ("reference", reference)):
            if not isinstance(seq, list) or not seq:
                raise ProtocolError(f"{name} must be a non-empty list")
        deadline = payload.get("deadline_ms")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ProtocolError("deadline_ms must be a positive number")
        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            raise ProtocolError("priority must be an integer")
        return cls(
            request_id=request_id,
            kernel_id=kernel_id,
            query=tuple(query),
            reference=tuple(reference),
            deadline_ms=None if deadline is None else float(deadline),
            priority=priority,
        )

    def to_line(self) -> bytes:
        """Deterministic JSON-line encoding."""
        return encode_line(self.to_dict())


@dataclass(frozen=True)
class AlignResponse:
    """The service's terminal answer to one request.

    ``fingerprint`` is the content-addressed cache key of the request
    (present when the service runs with caching enabled) — a pure
    function of kernel config and sequence bytes, so it lands in the
    deterministic payload.  ``cached`` tells whether *this* execution
    was served without engine work; like ``latency_ms`` it varies
    between identical requests, so it travels only in the full wire
    form and is dropped from the deterministic encoding.
    """

    request_id: str
    status: Status
    score: Optional[float] = None
    cigar: str = ""
    start: Optional[Tuple[int, int]] = None
    end: Optional[Tuple[int, int]] = None
    cycles: Optional[int] = None
    latency_ms: Optional[float] = None
    error: str = ""
    fingerprint: Optional[str] = None
    cached: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """Whether the request was aligned."""
        return self.status is Status.OK

    def to_dict(self, with_latency: bool = True) -> Dict[str, Any]:
        """Flatten to a JSON-safe wire dict.

        ``with_latency=False`` drops the execution-dependent fields —
        wall-clock latency and the ``cached`` attribution flag — leaving
        only the deterministic alignment payload, the form the
        byte-identity tests compare.  The ``fingerprint`` is itself
        deterministic, so it stays in both forms.
        """
        payload: Dict[str, Any] = {
            "type": "result",
            "v": WIRE_VERSION,
            "id": self.request_id,
            "status": self.status.value,
        }
        if self.status is Status.OK:
            payload["score"] = self.score
            payload["cigar"] = self.cigar
            payload["start"] = list(self.start)
            payload["end"] = list(self.end)
            payload["cycles"] = self.cycles
        else:
            payload["error"] = self.error
        if self.fingerprint is not None:
            payload["fingerprint"] = self.fingerprint
        if with_latency and self.latency_ms is not None:
            payload["latency_ms"] = self.latency_ms
        if with_latency and self.cached is not None:
            payload["cached"] = self.cached
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AlignResponse":
        """Parse a wire dict back into a response."""
        if payload.get("type") != "result":
            raise ProtocolError(f"not a result message: {payload.get('type')!r}")
        try:
            status = Status(payload["status"])
            request_id = payload["id"]
        except (KeyError, ValueError) as exc:
            raise ProtocolError(f"malformed result message: {exc}") from None
        start = payload.get("start")
        end = payload.get("end")
        return cls(
            request_id=request_id,
            status=status,
            score=payload.get("score"),
            cigar=payload.get("cigar", ""),
            start=None if start is None else tuple(start),
            end=None if end is None else tuple(end),
            cycles=payload.get("cycles"),
            latency_ms=payload.get("latency_ms"),
            error=payload.get("error", ""),
            fingerprint=payload.get("fingerprint"),
            cached=payload.get("cached"),
        )

    def to_line(self, with_latency: bool = True) -> bytes:
        """Deterministic JSON-line encoding."""
        return encode_line(self.to_dict(with_latency=with_latency))


def response_from_result(
    request_id: str,
    result: Any,
    latency_ms: Optional[float] = None,
    fingerprint: Optional[str] = None,
    cached: Optional[bool] = None,
) -> AlignResponse:
    """Build an OK response from an engine :class:`AlignmentResult`.

    Normalizes the score to ``float`` so serial/pooled/local executions
    encode identically regardless of numpy scalar types.  ``fingerprint``
    and ``cached`` carry the cache attribution when the serving pool
    runs with a cache stack.
    """
    return AlignResponse(
        request_id=request_id,
        status=Status.OK,
        score=float(result.score),
        cigar=result.cigar,
        start=(int(result.start[0]), int(result.start[1])),
        end=(int(result.end[0]), int(result.end[1])),
        cycles=int(result.cycles.total) if result.cycles else None,
        latency_ms=latency_ms,
        fingerprint=fingerprint,
        cached=cached,
    )


def rejection(request_id: str, reason: str) -> AlignResponse:
    """Build a backpressure rejection (answered, never dropped)."""
    return AlignResponse(
        request_id=request_id, status=Status.REJECTED, error=reason
    )


def error_response(request_id: str, reason: str) -> AlignResponse:
    """Build an error response for an admitted-but-failed request."""
    return AlignResponse(request_id=request_id, status=Status.ERROR, error=reason)
