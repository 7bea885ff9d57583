"""Process-pool batch execution layer (the host analogue of N_K channels).

The paper gets its throughput by replicating the kernel ``N_K`` times and
letting the host drain a batch of alignments across the copies.  This
module is the software twin of that host program: a batch of work items is
fanned out across CPU cores, chunked to amortize dispatch overhead (the
``DISPATCH_CYCLES`` of :mod:`repro.host.scheduler`, but for processes),
and reassembled in submission order.

Three properties the rest of the system relies on:

* **Determinism** — every item gets a seed derived only from
  ``(base_seed, index)`` via :func:`derive_seed`, and outcomes are returned
  in index order, so a run with ``workers=4`` is indistinguishable from a
  run with ``workers=1``.
* **Failure isolation** — a worker exception becomes a structured
  :class:`WorkError` record on that item; the rest of the batch
  completes normally.
* **Serial transparency** — ``workers=1`` executes in-process through the
  exact same chunk runner the pool uses, so the serial path stays
  bit-identical and debuggable.

Work functions must be module-level callables taking ``(item, seed)``:
they cross process boundaries by reference, and items must be picklable
(pass ``kernel_id`` instead of a :class:`~repro.core.spec.KernelSpec`,
whose closures do not pickle).
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs.recorder import get_recorder

__all__ = [
    "BatchError",
    "BatchResult",
    "ItemOutcome",
    "ParallelExecutor",
    "WorkError",
    "derive_seed",
]


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-item seed: a 63-bit digest of ``(base_seed, index)``.

    Hash-based (not ``base_seed + index``) so neighbouring items never get
    correlated RNG streams, and stable across platforms and Python
    versions so recorded reproducers stay valid.

    >>> derive_seed(0, 0) == derive_seed(0, 0)
    True
    >>> derive_seed(0, 1) != derive_seed(1, 0)
    True
    """
    payload = f"{base_seed}:{index}".encode("ascii")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class WorkError:
    """Structured record of one failed work item."""

    index: int
    error_type: str
    message: str
    #: Formatted traceback — diagnostic only, excluded from equality so
    #: serial and pooled runs compare equal.
    traceback: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"item {self.index}: {self.error_type}: {self.message}"


@dataclass(frozen=True)
class ItemOutcome:
    """Result slot for one work item, ordered by submission index."""

    index: int
    ok: bool
    value: Any = None
    error: Optional[WorkError] = None


class BatchError(RuntimeError):
    """Raised by :meth:`BatchResult.values` when any item failed.

    The message carries the first failure's *worker-side* traceback (when
    one was captured) so the original raise site survives the process
    boundary — without it, only the exception repr reaches the caller
    and the actual failing line in the work function is lost.
    """

    def __init__(self, errors: Sequence[WorkError]):
        self.errors = list(errors)
        preview = "; ".join(str(e) for e in self.errors[:3])
        more = f" (+{len(self.errors) - 3} more)" if len(self.errors) > 3 else ""
        message = f"{len(self.errors)} work item(s) failed: {preview}{more}"
        traced = next((e for e in self.errors if e.traceback), None)
        if traced is not None:
            message += (
                f"\nworker traceback of item "
                f"{traced.index}:\n{traced.traceback.rstrip()}"
            )
        super().__init__(message)


@dataclass
class BatchResult:
    """Outcomes of one batch, in submission order, plus wall-clock cost."""

    outcomes: List[ItemOutcome]
    workers: int
    elapsed_s: float = field(default=0.0, compare=False)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def errors(self) -> List[WorkError]:
        """Structured records of every failed item."""
        return [o.error for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        """Whether every item completed."""
        return not self.errors

    def values(self, strict: bool = True) -> List[Any]:
        """Item values in submission order.

        With ``strict`` (default) any failure raises :class:`BatchError`;
        otherwise failed slots hold ``None`` so callers can zip outcomes
        against inputs.
        """
        if strict and not self.ok:
            raise BatchError(self.errors)
        return [o.value if o.ok else None for o in self.outcomes]


def _run_chunk(
    fn: Callable[[Any, int], Any],
    entries: Sequence[Tuple[int, int, Any]],
) -> List[ItemOutcome]:
    """Execute one chunk of ``(index, seed, item)`` entries.

    Shared by the pool workers and the in-process serial path, which is
    what keeps ``workers=1`` bit-identical to ``workers=N``.
    """
    import traceback as tb_module

    outcomes: List[ItemOutcome] = []
    for index, seed, item in entries:
        try:
            value = fn(item, seed)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            outcomes.append(ItemOutcome(
                index=index, ok=False,
                error=WorkError(
                    index, type(exc).__name__, str(exc),
                    traceback=tb_module.format_exc(),
                ),
            ))
        else:
            outcomes.append(ItemOutcome(index=index, ok=True, value=value))
    return outcomes


def default_workers() -> int:
    """Worker count used when none is requested: the usable core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class ParallelExecutor:
    """Chunked, order-preserving, failure-isolating process-pool mapper.

    ``workers`` is the process count: ``None`` uses
    :func:`default_workers`; ``1`` runs in-process (no pool, no
    pickling).  A batch is split into about four chunks per worker —
    large enough to amortize process dispatch, small enough to
    load-balance uneven item costs.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else default_workers()

    def _chunks(
        self, entries: List[Tuple[int, int, Any]]
    ) -> List[List[Tuple[int, int, Any]]]:
        size = max(1, -(-len(entries) // (self.workers * 4)))
        return [entries[k:k + size] for k in range(0, len(entries), size)]

    def map(
        self,
        fn: Callable[[Any, int], Any],
        items: Sequence[Any],
        seed: int = 0,
    ) -> BatchResult:
        """Apply ``fn(item, derived_seed)`` to every item.

        Returns a :class:`BatchResult` whose outcomes are in submission
        order regardless of worker scheduling.  Elapsed time (and the
        ``parallel.map`` span) are measured with ``time.monotonic`` so
        they survive wall-clock adjustments mid-batch.
        """
        recorder = get_recorder()
        started = time.monotonic()
        entries = [
            (index, derive_seed(seed, index), item)
            for index, item in enumerate(items)
        ]
        if not entries:
            return BatchResult(outcomes=[], workers=self.workers, elapsed_s=0.0)
        if self.workers == 1:
            with recorder.span("parallel.map", workers=1, items=len(entries),
                               chunks=1):
                outcomes = _run_chunk(fn, entries)
            self._record(recorder, outcomes, chunks=1)
            return BatchResult(
                outcomes=outcomes, workers=1,
                elapsed_s=time.monotonic() - started,
            )
        chunks = self._chunks(entries)
        outcomes = []
        with recorder.span("parallel.map", workers=self.workers,
                           items=len(entries), chunks=len(chunks)):
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(chunks))
            ) as pool:
                with recorder.span("parallel.dispatch", chunks=len(chunks)):
                    futures = [
                        pool.submit(_run_chunk, fn, chunk)
                        for chunk in chunks
                    ]
                with recorder.span("parallel.drain", chunks=len(chunks)):
                    for future in futures:
                        outcomes.extend(future.result())
        outcomes.sort(key=lambda o: o.index)
        self._record(recorder, outcomes, chunks=len(chunks))
        return BatchResult(
            outcomes=outcomes, workers=self.workers,
            elapsed_s=time.monotonic() - started,
        )

    @staticmethod
    def _record(recorder, outcomes: List[ItemOutcome], chunks: int) -> None:
        """Report batch counters to the current recorder (cheap if null)."""
        if not recorder.enabled:
            return
        recorder.count("parallel.items", len(outcomes))
        recorder.count("parallel.chunks", chunks)
        failures = sum(1 for o in outcomes if not o.ok)
        if failures:
            recorder.count("parallel.item_failures", failures)

