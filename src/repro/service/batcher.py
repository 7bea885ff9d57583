"""Per-kernel dynamic batching: the software twin of the block arbiter.

On the device, an arbiter keeps ``N_B`` blocks fed from a channel queue
and a block never idles while work is ready.  :class:`DynamicBatcher` is
work-conserving the same way: batches form *because* the runtime is busy,
not because a clock ran out.  Three triggers flush a kernel's queue:

* **idle trigger** — while fewer batches of the kernel are in flight than
  ``slots(kernel_id)`` (its routable runtimes) the queue boards at once:
  on ``offer``, and on ``done`` for what queued behind a busy runtime;
* **size trigger** — the moment the queue holds ``max_batch`` requests a
  full batch flushes, busy or not;
* **deadline trigger** — a flusher thread caps the wait behind a busy
  runtime at ``max_delay_ms``, tightened by any request-carried
  ``deadline_ms`` (half the budget may queue, half is left to execute).

Admission control is the backpressure half: when a kernel's pending
queue is at ``max_queue_depth``, :meth:`DynamicBatcher.offer` refuses
the request (the caller answers it with a ``rejected`` response — never
a silent drop), bounding both memory and worst-case queueing delay.

The batcher is policy only: it never touches a runtime.  Flushed batches
are handed to the ``flush`` callable (the service core routes them to
the device pool), keeping the layer unit-testable with a stub.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: Fraction of a request's deadline budget the batcher may spend queueing;
#: the remainder is left for dispatch + execution.
QUEUE_BUDGET_FRACTION = 0.5

#: Flush trigger labels (also the metrics counter suffixes).
TRIGGER_IDLE = "idle"
TRIGGER_SIZE = "size"
TRIGGER_DEADLINE = "deadline"
TRIGGER_SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class BatcherConfig:
    """Batching policy knobs.

    ``max_batch`` mirrors ``N_B`` — a flush should fill the blocks of
    one runtime; ``max_delay_ms`` caps how long a request waits behind a
    busy runtime (without ``slots``: how long a partial batch lingers);
    ``max_queue_depth`` is the per-kernel admission bound.
    """

    max_batch: int = 8
    max_delay_ms: float = 20.0
    max_queue_depth: int = 256

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms <= 0:
            raise ValueError(
                f"max_delay_ms must be positive, got {self.max_delay_ms}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


@dataclass
class PendingEntry:
    """One queued request plus its bookkeeping.

    ``payload`` is opaque to the batcher (the service core stores the
    reply slot there).  ``flush_at`` is the absolute monotonic time by
    which this entry must leave the queue.
    """

    kernel_id: int
    priority: int
    payload: Any
    enqueued_at: float
    flush_at: float
    seq: int = 0

    @property
    def boarding_key(self):
        """Sort key deciding who boards a flush first."""
        return (-self.priority, self.seq)


class DynamicBatcher:
    """Idle-, size- and deadline-triggered per-kernel batching with admission.

    ``flush(kernel_id, entries, trigger)`` is invoked with the boarded
    entries (priority order) and the trigger label, on the thread that
    offered or reported :meth:`done`, or (deadline) on the flusher thread:
    it must hand real work off quickly (the service core enqueues to its
    dispatch executor) and answer each flush with one :meth:`done`.
    Without ``slots`` nothing is ever idle: size and deadline alone flush.
    """

    def __init__(
        self,
        config: BatcherConfig,
        flush: Callable[[int, List[PendingEntry], str], None],
        clock: Callable[[], float] = time.monotonic,
        slots: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.config = config
        self._flush = flush
        self._clock = clock
        self._slots = slots
        self._in_flight: Dict[int, int] = {}
        self._wake_at: Optional[float] = None  # earliest deadline flusher saw
        self._queues: Dict[int, List[PendingEntry]] = {}
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._seq = 0
        self._running = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Start the deadline flusher thread (idempotent)."""
        with self._lock:
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(
            target=self._flusher_loop, name="batcher-flusher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the flusher and idle boarding; flush every residual entry."""
        with self._lock:
            was_running = self._running
            self._running = False
            self._slots = None  # the flush taker may be gone: never idle now
            self._wakeup.notify_all()
        if was_running and self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for kernel_id, entries in self._drain_all():
            if entries:
                self._flush(kernel_id, entries, TRIGGER_SHUTDOWN)

    # -- admission ----------------------------------------------------

    def offer(
        self,
        kernel_id: int,
        payload: Any,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
    ) -> bool:
        """Admit one request; ``False`` means backpressure-rejected.

        The entry's flush deadline is ``max_delay_ms``, tightened to a
        :data:`QUEUE_BUDGET_FRACTION` share of any request deadline.
        """
        now = self._clock()
        linger_ms = self.config.max_delay_ms
        if deadline_ms is not None:
            linger_ms = min(linger_ms, deadline_ms * QUEUE_BUDGET_FRACTION)
        trigger: Optional[str] = None
        with self._lock:
            queue = self._queues.setdefault(kernel_id, [])
            if len(queue) >= self.config.max_queue_depth:
                return False
            entry = PendingEntry(
                kernel_id=kernel_id,
                priority=priority,
                payload=payload,
                enqueued_at=now,
                flush_at=now + linger_ms / 1000.0,
                seq=self._seq,
            )
            self._seq += 1
            queue.append(entry)
            if len(queue) >= self.config.max_batch:
                trigger = TRIGGER_SIZE
            elif self._idle(kernel_id):
                trigger = TRIGGER_IDLE
            elif self._wake_at is None or entry.flush_at < self._wake_at:
                self._wake_at = entry.flush_at
                self._wakeup.notify_all()
            batch = self._board(kernel_id) if trigger else None
        if batch:
            self._flush(kernel_id, batch, trigger)
        return True

    def done(self, kernel_id: int) -> None:
        """One flushed batch finished: board what queued behind it."""
        with self._lock:
            self._in_flight[kernel_id] -= 1
            waiting = self._queues.get(kernel_id) and self._idle(kernel_id)
            batch = self._board(kernel_id) if waiting else None
        if batch:
            self._flush(kernel_id, batch, TRIGGER_IDLE)

    def depth(self, kernel_id: int) -> int:
        """Currently queued (unflushed) entries for one kernel."""
        with self._lock:
            return len(self._queues.get(kernel_id, ()))

    # -- internals ----------------------------------------------------

    def _idle(self, kernel_id: int) -> bool:
        """Whether a runtime of ``kernel_id`` is free (lock held)."""
        return (self._slots is not None
                and self._in_flight.get(kernel_id, 0) < self._slots(kernel_id))

    def _board(self, kernel_id: int) -> List[PendingEntry]:
        """Pop the next batch in boarding order, now in flight (lock held)."""
        queue = self._queues[kernel_id]
        queue.sort(key=lambda e: e.boarding_key)
        boarded = queue[: self.config.max_batch]
        del queue[: self.config.max_batch]
        self._in_flight[kernel_id] = self._in_flight.get(kernel_id, 0) + 1
        return boarded

    def _drain_all(self) -> List:
        """Pop every queue completely, in batch-sized slices (shutdown)."""
        drained: List = []
        with self._lock:
            for kernel_id, queue in self._queues.items():
                while queue:
                    drained.append((kernel_id, self._board(kernel_id)))
        return drained

    def _earliest_flush_at(self) -> Optional[float]:
        """Soonest deadline across all queues (lock held)."""
        deadlines = [
            min(entry.flush_at for entry in queue)
            for queue in self._queues.values()
            if queue
        ]
        return min(deadlines) if deadlines else None

    def _flusher_loop(self) -> None:
        """Wake at the earliest deadline and flush expired queues."""
        while True:
            expired: List = []
            with self._lock:
                if not self._running:
                    return
                earliest = self._wake_at = self._earliest_flush_at()
                now = self._clock()
                if earliest is None:
                    self._wakeup.wait(timeout=0.5)
                    continue
                if earliest > now:
                    self._wakeup.wait(timeout=min(earliest - now, 0.5))
                    continue
                for kernel_id, queue in self._queues.items():
                    if queue and min(e.flush_at for e in queue) <= now:
                        expired.append((kernel_id, self._board(kernel_id)))
            for kernel_id, batch in expired:
                if batch:
                    self._flush(kernel_id, batch, TRIGGER_DEADLINE)
