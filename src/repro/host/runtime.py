"""Device runtime: the host program's user-facing API (Section 4, step 6).

``DeviceRuntime`` bundles what the paper's OpenCL host code does by hand:
it owns a synthesized kernel configuration, accepts batches of sequence
pairs, runs each pair through the functional engine (results) while the
scheduler model accounts for block occupancy (performance), and reports
batch-level throughput and utilization.

``run(pairs)`` is the single batch entry point and has no per-call
knobs, like the paper's host program draining a batch across its
``N_K`` kernel copies.

A runtime's backend is decided once, at construction
(:data:`repro.backend.DEFAULT_BACKEND` unless named).  There is one
wavefront driver and ``run`` reaches it one way: when the backend has a
whole-batch callable (``backend="compiled"``) the entire batch goes to
one :func:`repro.backend.compiled_align_batch` sweep.  Only when the
backend has no such callable, or the sweep raises, do the pairs run one
by one in-process — for the compiled backend the same driver on batches
of one — which is what turns a failing pair into a :class:`WorkError`
record instead of losing the batch.

Execution reports through the current :mod:`repro.obs` recorder: a
``host.run`` span brackets the batch, with child ``host.execute``
(functional work) and ``host.schedule`` (performance model) spans — the
split that separates where wall-clock goes from what the modelled device
would have done.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.backend import DEFAULT_BACKEND, get_backend, get_batch_backend, prewarm
from repro.core.result import AlignmentResult
from repro.core.spec import KernelSpec
from repro.host.scheduler import AlignmentBatch, HostScheduler, ScheduleResult
from repro.obs.recorder import get_recorder
from repro.parallel import ParallelExecutor, WorkError
from repro.synth.compiler import LaunchConfig, SynthesisReport, synthesize


@dataclass
class BatchOutcome:
    """Results plus the modelled performance of one submitted batch.

    ``results`` is index-aligned with the submitted pairs; a pair whose
    alignment failed holds ``None`` there and a :class:`WorkError` (with
    the matching index) in ``errors``.
    """

    results: List[Optional[AlignmentResult]]
    schedule: ScheduleResult
    clock_mhz: float
    errors: List[WorkError] = field(default_factory=list)

    @property
    def alignments_per_sec(self) -> float:
        """Batch throughput under the schedule model."""
        return self.schedule.throughput(self.clock_mhz)

    @property
    def utilization(self) -> float:
        """Mean block occupancy while draining the batch."""
        return self.schedule.utilization


class DeviceRuntime:
    """A deployed kernel: functional alignment + performance accounting."""

    def __init__(
        self,
        spec: KernelSpec,
        config: Optional[LaunchConfig] = None,
        params: Any = None,
        backend: str = DEFAULT_BACKEND,
        pace: Optional[float] = None,
    ) -> None:
        if pace is not None and pace <= 0:
            raise ValueError(f"pace must be positive, got {pace}")
        self.spec = spec
        self.config = config or LaunchConfig()
        self.params = params if params is not None else spec.default_params
        self.backend = backend
        #: Wall-clock pacing: when set, ``run`` sleeps until the batch
        #: has taken at least ``pace`` x the modelled device time
        #: (``makespan_cycles / fmax``).  This makes a runtime behave
        #: like the device it models — service time scales with N_PE /
        #: N_B and a replica is real, GIL-free parallel capacity (the
        #: sleep releases the GIL) — which is what the autoscale demo
        #: and capacity experiments need from a simulated fleet.
        self.pace = pace
        self._align_fn = get_backend(backend)
        self._batch_fn = get_batch_backend(backend)
        if self._batch_fn is not None:
            # Pre-warm lowering on the construction path (memoized in the
            # compiler cache) so the first request never pays for it;
            # specs outside the compiled surface keep failing lazily at
            # align time, exactly as before.
            prewarm(spec, self.params)
        self.report: SynthesisReport = synthesize(spec, self.config)
        if not self.report.feasible:
            raise ValueError(
                f"{spec.name} at N_PE={self.config.n_pe} N_B={self.config.n_b} "
                f"N_K={self.config.n_k} does not fit the device: "
                f"{self.report.overflows()}"
            )
        self._scheduler = HostScheduler(self.config.n_k, self.config.n_b)

    # -- the batch entry point ----------------------------------------

    def run(
        self, pairs: Sequence[Tuple[Sequence[Any], Sequence[Any]]]
    ) -> BatchOutcome:
        """Align a batch with failure isolation.

        Failed pairs surface in ``errors`` with their batch index, and
        surviving pairs are unaffected.  An empty batch is a no-op: the
        scheduler already models it as a zero-cycle schedule, so online
        callers (the service batcher) never special-case it.
        """
        started = time.monotonic()
        recorder = get_recorder()
        pairs = list(pairs)
        with recorder.span("host.run", kernel=self.spec.name, pairs=len(pairs)):
            results: Optional[List[Optional[AlignmentResult]]] = None
            errors: List[WorkError] = []
            with recorder.span("host.execute", pairs=len(pairs)):
                if self._batch_fn is not None:
                    try:
                        results = list(self._batch_fn(
                            self.spec, pairs, params=self.params,
                            n_pe=self.config.n_pe, ii=self.report.ii,
                            max_query_len=self.config.max_query_len,
                            max_ref_len=self.config.max_ref_len,
                        ))
                        if recorder.enabled:
                            recorder.count("host.batched_fast_path")
                    except Exception:
                        # fall through to the per-pair path, which turns
                        # the failing pair(s) into WorkError records
                        # instead of poisoning the whole batch
                        results = None
                if results is None:
                    batch_result = ParallelExecutor(workers=1).map(
                        lambda pair, _seed: self._align_pair(*pair), pairs
                    )
                    results = batch_result.values(strict=False)
                    errors = batch_result.errors
            with recorder.span("host.schedule", jobs=len(pairs)):
                batch = AlignmentBatch()
                for result in results:
                    if result is not None:
                        batch.add(result.cycles.total)
                schedule = self._scheduler.run(batch)
            if self.pace is not None and schedule.makespan_cycles > 0:
                modelled_s = (
                    schedule.makespan_cycles / (self.report.fmax_mhz * 1e6)
                )
                remaining = (
                    started + modelled_s * self.pace - time.monotonic()
                )
                if remaining > 0:
                    time.sleep(remaining)
        if recorder.enabled:
            recorder.count("host.pairs", len(pairs))
            recorder.count("host.pair_errors", len(errors))
            recorder.gauge("host.block_utilization", schedule.utilization)
            recorder.gauge("host.dispatch_fraction", schedule.dispatch_fraction)
        return BatchOutcome(
            results=results,
            schedule=schedule,
            clock_mhz=self.report.fmax_mhz,
            errors=errors,
        )

    def _align_pair(
        self,
        query: Sequence[Any],
        reference: Sequence[Any],
    ) -> AlignmentResult:
        """One pair on one block (the per-pair path's work item)."""
        return self._align_fn(
            self.spec, query, reference, params=self.params,
            n_pe=self.config.n_pe, ii=self.report.ii,
            max_query_len=self.config.max_query_len,
            max_ref_len=self.config.max_ref_len,
        )
