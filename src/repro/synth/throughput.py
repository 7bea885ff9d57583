"""Cycle and throughput model (the co-simulation stage of Fig. 2A).

``cycles_per_alignment`` is the closed form of the systolic engine's cycle
accounting — a unit test asserts the two agree exactly — so experiments
can sweep (N_PE, N_B, N_K) over Table 2-sized workloads without simulating
millions of alignments.
"""

from __future__ import annotations

from typing import Optional

from repro.core.spec import EndRule, KernelSpec
from repro.systolic import engine as _engine
from repro.systolic import schedule as _schedule


def reduction_cycles(spec: KernelSpec, n_pe: int) -> int:
    """Cycles of the cross-PE optimum reduction (0 for bottom-right)."""
    return _schedule.reduction_cycles(spec.start_rule, n_pe)


def expected_traceback_length(spec: KernelSpec, query_len: int, ref_len: int) -> int:
    """Expected traceback walk length for the throughput model.

    The engine measures the true path; for closed-form sweeps we use
    workload-typical expectations per end rule.
    """
    if not spec.has_traceback:
        return 0
    end = spec.traceback.end
    if end is EndRule.TOP_LEFT:
        return int(0.85 * (query_len + ref_len))
    if end is EndRule.TOP_ROW:
        return int(1.1 * query_len)
    if end is EndRule.TOP_ROW_OR_LEFT_COL:
        return int(0.8 * (query_len + ref_len))
    return int(0.5 * (query_len + ref_len))  # SENTINEL (local)


def cycles_per_alignment(
    spec: KernelSpec,
    n_pe: int,
    query_len: int,
    ref_len: int,
    ii: int = 1,
    tb_path_len: Optional[int] = None,
    model_interface: bool = True,
) -> int:
    """Total block cycles for one alignment (matches the engine's report)."""
    if query_len < 1 or ref_len < 1:
        raise ValueError("sequence lengths must be >= 1")
    if tb_path_len is None:
        tb_path_len = expected_traceback_length(spec, query_len, ref_len)
    return _schedule.closed_form_cycles(
        spec, query_len, ref_len, n_pe, ii,
        traceback_cycles=(
            tb_path_len + _engine.TRACEBACK_SETUP_CYCLES
            if spec.has_traceback else 0
        ),
        interface_cycles_per_base=(
            _engine.INTERFACE_CYCLES_PER_BASE if model_interface else 0
        ),
    ).total


def throughput_alignments_per_sec(
    cycles: int, frequency_mhz: float, n_blocks: int
) -> float:
    """Device throughput: ``n_blocks`` independent blocks, one alignment each
    per ``cycles`` at ``frequency_mhz``."""
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if frequency_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_mhz}")
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    return n_blocks * frequency_mhz * 1e6 / cycles
