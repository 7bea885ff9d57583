"""Bulk functional-verification campaigns (Section 6.1's 1,000 reads).

The paper verifies every kernel's final alignment output over large
simulated workloads.  A campaign does the same in two tiers:

* **broad tier** — every pair is scored by the independent textbook
  implementation (:mod:`repro.reference.dispatch`) and by the row-major
  oracle; scores must agree pair-by-pair;
* **deep tier** — a sample of pairs additionally runs through an engine
  backend (``backend="systolic"`` names the register-accurate one) and is
  checked with :func:`repro.verify.verify_kernel`.

This keeps large campaigns tractable while every layer of the stack is
exercised on every run.  Both tiers accept ``workers``: the broad tier's
kernel×pair work items fan out across a process pool via
:mod:`repro.parallel`, and :func:`run_full_campaign` shares one pool
across *all* kernels' items at once — the host-side image of the paper's
N_K kernel replication.  Reports are deterministic: a run with
``workers=4`` produces byte-identical summaries to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import DEFAULT_BACKEND
from repro.experiments.workloads import WORKLOADS
from repro.kernels import get_kernel, kernel_ids
from repro.parallel import ParallelExecutor
from repro.reference.dispatch import classic_score
from repro.reference.dp_oracle import oracle_align
from repro.verify import verify_kernel


@dataclass
class CampaignReport:
    """Outcome of one kernel's verification campaign."""

    kernel_id: int
    kernel_name: str
    pairs: int
    engine_sample: int
    score_mismatches: List[Tuple[int, float, float]] = field(default_factory=list)
    engine_passed: bool = True
    harness_errors: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Broad-tier scores agree and the deep-tier engine sample passed."""
        return (
            not self.score_mismatches
            and not self.harness_errors
            and self.engine_passed
        )

    def summary(self) -> str:
        """Human-readable campaign verdict."""
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"campaign {self.kernel_name} (#{self.kernel_id}): {status} — "
            f"{self.pairs} pairs (textbook vs oracle), "
            f"{self.engine_sample} through the full engine"
        ]
        for index, ours, theirs in self.score_mismatches[:5]:
            lines.append(f"  pair {index}: oracle {ours} != textbook {theirs}")
        for error in self.harness_errors[:5]:
            lines.append(f"  harness error: {error}")
        if not self.engine_passed:
            lines.append("  engine sample FAILED verification")
        return "\n".join(lines)


def _score_pair_task(payload: Tuple, _seed: int) -> Tuple[float, float]:
    """Pooled broad-tier item: (oracle score, textbook score) of one pair."""
    kernel_id, query, reference = payload
    spec = get_kernel(kernel_id)
    return (
        oracle_align(spec, query, reference).score,
        classic_score(kernel_id, query, reference),
    )


def _make_campaign_pairs(
    kernel_id: int, n_pairs: int, max_length: int, seed: int
) -> List[Tuple]:
    workload = WORKLOADS[kernel_id]
    return [
        (q[:max_length], r[:max_length])
        for q, r in workload.make_pairs(n_pairs, seed)
    ]


def _fill_broad_tier(
    report: CampaignReport,
    pairs: Sequence[Tuple],
    scored: Sequence,
    atol: float,
) -> None:
    """Record mismatches/errors from index-ordered scoring outcomes."""
    for index, outcome in enumerate(scored):
        if not outcome.ok:
            report.harness_errors.append(
                f"pair {index}: {outcome.error.error_type}: "
                f"{outcome.error.message}"
            )
            continue
        oracle_score, textbook = outcome.value
        if not np.isclose(oracle_score, textbook, atol=atol):
            report.score_mismatches.append((index, oracle_score, textbook))


def run_campaign(
    kernel_id: int,
    n_pairs: int = 50,
    engine_sample: int = 3,
    max_length: int = 64,
    seed: int = 0,
    atol: float = 1e-2,
    workers: int = 1,
    backend: str = DEFAULT_BACKEND,
) -> CampaignReport:
    """Run a two-tier verification campaign for one kernel.

    ``workers`` parallelizes the broad tier across pairs; the report is
    identical whatever the worker count.  ``backend`` selects which
    engine the deep tier runs the sample through (the broad tier is
    oracle-vs-textbook and backend-independent).
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    spec = get_kernel(kernel_id)
    pairs = _make_campaign_pairs(kernel_id, n_pairs, max_length, seed)
    report = CampaignReport(
        kernel_id=kernel_id,
        kernel_name=spec.name,
        pairs=len(pairs),
        engine_sample=min(engine_sample, len(pairs)),
    )
    executor = ParallelExecutor(workers=workers)
    scored = executor.map(
        _score_pair_task,
        [(kernel_id, query, reference) for query, reference in pairs],
        seed=seed,
    )
    _fill_broad_tier(report, pairs, scored.outcomes, atol)
    sample = pairs[: report.engine_sample]
    verification = verify_kernel(spec, sample, n_pe_values=(4,), backend=backend)
    report.engine_passed = verification.passed
    return report


@dataclass
class FullCampaignReport:
    """Every kernel's campaign, run through one shared worker pool."""

    reports: Dict[int, CampaignReport] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every kernel's campaign passed."""
        return all(report.passed for report in self.reports.values())

    def summary(self) -> str:
        """Deterministic multi-kernel verdict, one block per kernel."""
        lines = [
            f"full campaign: {'PASS' if self.passed else 'FAIL'} — "
            f"{len(self.reports)} kernels, "
            f"{sum(r.pairs for r in self.reports.values())} broad-tier pairs"
        ]
        for kid in sorted(self.reports):
            lines.append(self.reports[kid].summary())
        return "\n".join(lines)


def run_full_campaign(
    kernels: Optional[Sequence[int]] = None,
    n_pairs: int = 25,
    engine_sample: int = 2,
    max_length: int = 48,
    seed: int = 0,
    atol: float = 1e-2,
    workers: int = 1,
    backend: str = DEFAULT_BACKEND,
) -> FullCampaignReport:
    """Campaign every kernel, fanning kernel×pair items over one pool.

    Unlike looping :func:`run_campaign`, the broad-tier items of *all*
    kernels are interleaved in a single batch, so a slow kernel cannot
    leave workers idle while others still have queued pairs.
    """
    kids = sorted(kernels) if kernels is not None else kernel_ids()
    full = FullCampaignReport()
    all_pairs: Dict[int, List[Tuple]] = {}
    payloads: List[Tuple] = []
    spans: List[Tuple[int, int, int]] = []  # (kernel_id, start, stop)
    for kid in kids:
        pairs = _make_campaign_pairs(kid, n_pairs, max_length, seed)
        all_pairs[kid] = pairs
        spans.append((kid, len(payloads), len(payloads) + len(pairs)))
        payloads.extend((kid, query, reference) for query, reference in pairs)
        full.reports[kid] = CampaignReport(
            kernel_id=kid,
            kernel_name=get_kernel(kid).name,
            pairs=len(pairs),
            engine_sample=min(engine_sample, len(pairs)),
        )
    executor = ParallelExecutor(workers=workers)
    scored = executor.map(_score_pair_task, payloads, seed=seed)
    for kid, start, stop in spans:
        report = full.reports[kid]
        _fill_broad_tier(
            report, all_pairs[kid], scored.outcomes[start:stop], atol
        )
        sample = all_pairs[kid][: report.engine_sample]
        verification = verify_kernel(
            get_kernel(kid), sample, n_pe_values=(4,), backend=backend
        )
        report.engine_passed = verification.passed
    return full
