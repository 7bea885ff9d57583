"""Kernel verification harness — the paper's C-simulation step as an API.

``verify_kernel`` runs a kernel over a workload of realistic input pairs
at several PE counts and checks, for every run:

1. systolic output == row-major oracle (score, start cell, moves),
2. recovered tracebacks terminate and stay inside the matrix (the walker
   enforces this; failures surface as exceptions),
3. the engine's cycle total equals the closed-form model.

A :class:`VerificationReport` summarises pass/fail per check so front-end
authors can validate a new kernel with one call (see
``examples/custom_kernel.py`` for the workflow it supports).  With
``workers > 1`` the per-pair checks fan out across a process pool (see
:mod:`repro.parallel`); that path needs the spec to be a registered
kernel, since worker processes re-resolve it by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from repro.core.spec import KernelSpec
from repro.parallel import ParallelExecutor
from repro.reference.dp_oracle import oracle_align
from repro.synth.throughput import cycles_per_alignment


@dataclass(frozen=True)
class VerificationFailure:
    """One mismatch found during verification."""

    check: str
    n_pe: int
    pair_index: int
    detail: str


@dataclass
class VerificationReport:
    """Outcome of verifying one kernel over a workload."""

    kernel_name: str
    pairs_checked: int
    runs: int
    failures: List[VerificationFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every run matched the oracle and the cycle model."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable verification summary."""
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)})"
        lines = [
            f"verification of {self.kernel_name}: {status} "
            f"({self.pairs_checked} pairs x {self.runs // max(1, self.pairs_checked)} "
            f"configurations)"
        ]
        for failure in self.failures[:10]:
            lines.append(
                f"  [{failure.check}] n_pe={failure.n_pe} "
                f"pair={failure.pair_index}: {failure.detail}"
            )
        return "\n".join(lines)


def _check_pair(
    spec: KernelSpec,
    index: int,
    query: Sequence[Any],
    reference: Sequence[Any],
    n_pe_values: Sequence[int],
    backend: str = "systolic",
) -> Tuple[int, List[VerificationFailure]]:
    """All checks for one pair at every PE count: (runs, failures)."""
    from repro.backend import get_backend

    align_fn = get_backend(backend)
    failures: List[VerificationFailure] = []
    runs = 0
    expected = oracle_align(spec, query, reference)
    for n_pe in n_pe_values:
        runs += 1
        actual = align_fn(spec, query, reference, n_pe=n_pe)
        if actual.score != expected.score:
            failures.append(
                VerificationFailure(
                    "score", n_pe, index,
                    f"{backend} {actual.score} != oracle {expected.score}",
                )
            )
            continue
        if actual.start != expected.start:
            failures.append(
                VerificationFailure(
                    "start_cell", n_pe, index,
                    f"{backend} {actual.start} != oracle {expected.start}",
                )
            )
        if spec.has_traceback:
            ours = actual.alignment.moves if actual.alignment else None
            theirs = expected.alignment.moves if expected.alignment else None
            if ours != theirs:
                failures.append(
                    VerificationFailure(
                        "traceback", n_pe, index,
                        "recovered move sequences differ",
                    )
                )
        tb_len = (
            actual.alignment.aligned_length if actual.alignment else 0
        )
        predicted = cycles_per_alignment(
            spec, n_pe, len(query), len(reference), ii=1, tb_path_len=tb_len
        )
        if actual.cycles.total != predicted:
            failures.append(
                VerificationFailure(
                    "cycles", n_pe, index,
                    f"engine {actual.cycles.total} != model {predicted}",
                )
            )
    return runs, failures


def _verify_pair_task(payload: Tuple, _seed: int):
    """Picklable pooled work item: re-resolve the spec by id, check one pair."""
    from repro.kernels import get_kernel

    kernel_id, index, query, reference, n_pe_values, backend = payload
    return _check_pair(
        get_kernel(kernel_id), index, query, reference, n_pe_values, backend
    )


def verify_kernel(
    spec: KernelSpec,
    pairs: Sequence[Tuple[Any, Any]],
    n_pe_values: Sequence[int] = (1, 4, 8),
    workers: int = 1,
    backend: str = "systolic",
) -> VerificationReport:
    """Verify a kernel against the oracle and cycle model on ``pairs``.

    ``backend`` selects the engine under test (``"systolic"`` or
    ``"compiled"``); the oracle and the closed-form cycle model are the
    same either way, so a compiled-backend run checks the full
    bit-identity contract including cycle totals.
    """
    if not pairs:
        raise ValueError("verification needs at least one sequence pair")
    report = VerificationReport(
        kernel_name=spec.name, pairs_checked=len(pairs), runs=0
    )
    if workers == 1:
        checked = [
            _check_pair(spec, index, query, reference, n_pe_values, backend)
            for index, (query, reference) in enumerate(pairs)
        ]
    else:
        from repro.kernels import is_registered

        if not is_registered(spec):
            raise ValueError(
                f"parallel verification needs a registered kernel so "
                f"workers can resolve it by id; {spec.name!r} is not "
                f"kernel #{spec.kernel_id} in the registry — use workers=1"
            )
        payloads = [
            (spec.kernel_id, index, query, reference, tuple(n_pe_values),
             backend)
            for index, (query, reference) in enumerate(pairs)
        ]
        executor = ParallelExecutor(workers=workers)
        checked = executor.map(_verify_pair_task, payloads).values()
    for runs, failures in checked:
        report.runs += runs
        report.failures.extend(failures)
    return report
