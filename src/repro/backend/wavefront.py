"""Per-matrix finishing shared by every compiled alignment.

The one anti-diagonal sweep lives in :mod:`repro.backend.batch` and
stores each matrix *skewed*, one row per anti-diagonal (cell ``(i, j)``
at ``[i + j, i]``).  This module holds what a swept matrix needs
afterwards: its row-major view and the closed form of the cells a sweep
computes (mask and count) for ``collect_matrix`` and the cell counters, the
pointer reader behind the scalar traceback walker, the collected-matrix
assembly, and the bit-identical :class:`~repro.core.result.CycleReport`
from the closed-form wavefront count instead of a cycle-by-cycle
simulation.  The start cell is not found here: both loop bodies of the sweep
carry it per lane (``docs/backends.md``, "Reduction and traceback in the
driver").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.result import CycleReport
from repro.core.spec import KernelSpec
from repro.systolic.engine import INTERFACE_CYCLES_PER_BASE
from repro.systolic.schedule import closed_form_cycles


def unskew(diagonals: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Row-major ``(n_rows+1, n_cols+1)`` view of one skewed matrix.

    ``diagonals[d, i]`` holds cell ``(i, d - i)``, so stepping ``i`` moves
    one row down *and* one column right in storage and stepping ``j`` one
    row down: a pure stride change, no copy.
    """
    per_diag, per_row = diagonals.strides
    return np.lib.stride_tricks.as_strided(
        diagonals, (n_rows + 1, n_cols + 1), (per_diag + per_row, per_diag),
        writeable=False,
    )


def computed_cells(
    n_rows: int, n_cols: int, banding: Optional[int]
) -> np.ndarray:
    """Mask of the cells a sweep computes: ``1 <= i <= Q``, ``1 <= j <= R``
    and ``|i - j| <= W`` — everything else is init row/column or sentinel."""
    i, j = np.ogrid[: n_rows + 1, : n_cols + 1]
    cells = (i > 0) & (j > 0)
    if banding is not None:
        cells &= np.abs(i - j) <= banding
    return cells


def count_cells(n_rows: int, n_cols: int, banding: Optional[int]) -> int:
    """``np.count_nonzero(computed_cells(...))`` without the mask: the whole
    Q x R block less the two triangles the band cuts off it."""
    if banding is None:
        return n_rows * n_cols

    def tri(n: int) -> int:
        return n * (n + 1) // 2 if n > 0 else 0

    right, below = n_cols - banding - 1, n_rows - banding - 1
    return (n_rows * n_cols - tri(right) + tri(right - n_rows)
            - tri(below) + tri(below - n_cols))


class SkewedPointers:
    """One lane's skewed pointer rows behind the traceback walker's read API.

    Unwritten cells read as 0, matching both the oracle's zero-filled
    pointer matrix and the engine's zero-initialised banked memory.
    """

    def __init__(self, ptrs: np.ndarray):
        self._ptrs = memoryview(ptrs)  # indexes straight to a Python int

    def read(self, i: int, j: int) -> int:
        """The pointer stored for matrix cell (i, j)."""
        return self._ptrs[i + j, i]


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
    reconstructed from the closed-form wavefront count.
    """
    return closed_form_cycles(
        spec, n_rows, n_cols, n_pe, ii, traceback_cycles,
        INTERFACE_CYCLES_PER_BASE if model_interface else 0,
    )


def assemble_matrix(
    spec: KernelSpec,
    row0: np.ndarray,
    col0: np.ndarray,
    layers: Sequence[np.ndarray],
    computed: np.ndarray,
) -> np.ndarray:
    """Collected DP matrix: dtype inferred from the sentinel (int64 for
    ap_int kernels), init row/col *unmasked* — same construction as the
    engine and oracle.  ``layers`` are the (un-skewed) swept layers."""
    matrix = np.full((len(layers),) + computed.shape, spec.sentinel())
    matrix[:, 0, :] = row0.T
    matrix[:, :, 0] = col0.T
    for k, layer in enumerate(layers):
        matrix[k][computed] = layer[computed].astype(matrix.dtype)
    return matrix
