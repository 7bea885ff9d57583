"""Per-matrix finishing shared by every compiled alignment.

The anti-diagonal sweep itself lives in :mod:`repro.backend.batch` —
there is exactly one, and ``compiled_align`` is a batch of one through
it.  This module holds what each swept DP matrix needs afterwards, on
its own ``(n_rows+1, n_cols+1)`` slice: the start-cell search, the
pointer-matrix view the traceback walker reads, the collected-matrix
assembly, and the bit-identical :class:`~repro.core.result.CycleReport`
reconstructed from the closed-form chunk schedule instead of simulated
cycle by cycle.

Bit-identity note (enforced by ``repro.verify_fuzz``'s four-way
differential and ``tests/test_backend_equivalence.py``): the start-cell
search restricts ``argmax``/``argmin`` to a computed mask, and NumPy's
first-occurrence tie rule on the row-major flattened matrix equals the
engine's smallest-(i, j) tie break.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.result import CycleReport
from repro.core.spec import KernelSpec, Objective, StartRule
from repro.systolic.engine import (
    INTERFACE_CYCLES_PER_BASE,
    SystolicAlignmentError,
)
from repro.systolic.schedule import chunk_schedules
from repro.systolic.traceback import TracebackError


class _DensePointerStore:
    """Dense pointer matrix behind the traceback walker's read API.

    Unwritten cells read as 0, matching both the oracle's zero-filled
    pointer matrix and the engine's zero-initialised banked memory.
    """

    def __init__(self, ptrs: np.ndarray):
        self._ptrs = ptrs

    def read(self, i: int, j: int) -> int:
        return int(self._ptrs[i, j])


def select_start(
    spec: KernelSpec,
    layer: np.ndarray,
    computed: np.ndarray,
    n_rows: int,
    n_cols: int,
) -> Tuple[float, Tuple[int, int]]:
    """Locate the reported score / traceback start cell of one matrix.

    ``layer`` and ``computed`` are the score layer and computed-cell mask
    of one (n_rows+1, n_cols+1) DP matrix.  NumPy's first-occurrence tie
    rule over the row-major flattened matrix equals the engine's
    smallest-(i, j) tie break, and a per-pair slice of a bucket's arrays
    keeps that (i, j)-lexicographic row-major order.
    """
    if spec.start_rule is StartRule.BOTTOM_RIGHT:
        if not computed[n_rows, n_cols]:
            raise SystolicAlignmentError(
                f"{spec.name}: bottom-right cell was never computed"
            )
        return layer[n_rows, n_cols], (n_rows, n_cols)
    eligible = computed.copy()
    if spec.start_rule is StartRule.LAST_ROW_MAX:
        eligible[:n_rows, :] = False
    elif spec.start_rule is StartRule.LAST_ROW_OR_COL_MAX:
        edge = np.zeros_like(eligible)
        edge[n_rows, :] = True
        edge[:, n_cols] = True
        eligible &= edge
    if not eligible.any():
        raise TracebackError(
            f"{spec.name}: no cell satisfied start rule "
            f"{spec.start_rule.value}"
        )
    if spec.objective is Objective.MAXIMIZE:
        flat = int(np.argmax(np.where(eligible, layer, -np.inf)))
    else:
        flat = int(np.argmin(np.where(eligible, layer, np.inf)))
    si, sj = divmod(flat, n_cols + 1)
    return layer[si, sj], (si, sj)


def cycle_report(
    spec: KernelSpec,
    n_rows: int,
    n_cols: int,
    n_pe: int,
    ii: int,
    traceback_cycles: int,
    model_interface: bool,
) -> CycleReport:
    """Closed-form :class:`CycleReport` of one pair on the modelled array.

    The same arithmetic the systolic engine accumulates while running,
    reconstructed from the chunk schedule.
    """
    chunks = chunk_schedules(n_rows, n_cols, n_pe, spec.banding)
    total_wavefronts = sum(len(chunk.wavefronts) for chunk in chunks)
    if spec.start_rule is StartRule.BOTTOM_RIGHT:
        reduction_cycles = 0
    else:
        reduction_cycles = max(1, math.ceil(math.log2(max(2, n_pe)))) + 2
    return CycleReport(
        init_cycles=(n_cols + 1) + (n_rows + 1),
        load_cycles=n_rows,
        compute_cycles=total_wavefronts * ii,
        reduction_cycles=reduction_cycles,
        traceback_cycles=traceback_cycles,
        interface_cycles=(
            INTERFACE_CYCLES_PER_BASE * (n_rows + n_cols)
            if model_interface else 0
        ),
        wavefronts=total_wavefronts,
        ii=ii,
    )


def assemble_matrix(
    spec: KernelSpec,
    row0: np.ndarray,
    col0: np.ndarray,
    work: np.ndarray,
    computed: np.ndarray,
) -> np.ndarray:
    """Collected DP matrix: dtype inferred from the sentinel (int64 for
    ap_int kernels), init row/col *unmasked* — same construction as the
    engine and oracle."""
    sentinel = spec.sentinel()
    matrix = np.full(work.shape, sentinel)
    matrix[:, 0, :] = row0.T
    matrix[:, :, 0] = col0.T
    for k in range(spec.n_layers):
        matrix[k][computed] = work[k][computed].astype(matrix.dtype)
    return matrix
