"""Spec-driven row-major DP oracle.

Computes the identical recurrence as :func:`repro.systolic.align`, but in
the obvious row-by-row order with a dense pointer matrix — no chunks, no
wavefronts, no PE registers.  Systolic output must match this oracle
cell-for-cell; the pair of implementations cross-checks the back-end's
dataflow against the kernel's mathematical definition.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import AlignmentResult
from repro.core.spec import KernelSpec, PEInput, StartRule, band_contains
from repro.systolic.traceback import walk_traceback


class _MatrixPointerStore:
    """Adapter exposing a dense pointer matrix via the memory-read API."""

    def __init__(self, ptrs: np.ndarray):
        self._ptrs = ptrs

    def read(self, i: int, j: int) -> int:
        return int(self._ptrs[i, j])


def oracle_align(
    spec: KernelSpec,
    query: Sequence[Any],
    reference: Sequence[Any],
    params: Any = None,
    collect_matrix: bool = False,
) -> AlignmentResult:
    """Row-major evaluation of ``spec`` over one sequence pair."""
    n_rows, n_cols = len(query), len(reference)
    if n_rows < 1 or n_cols < 1:
        raise ValueError("query and reference must be non-empty")
    if params is None:
        params = spec.default_params
    n_layers = spec.n_layers
    sentinel_row = (spec.sentinel(),) * n_layers
    banding = spec.banding
    quantize = spec.score_type.quantize
    row0 = spec.init_row_scores(params, n_cols + 1)
    col0 = spec.init_col_scores(params, n_rows + 1)

    matrix: Optional[np.ndarray] = None
    if collect_matrix:
        matrix = np.full((n_layers, n_rows + 1, n_cols + 1), sentinel_row[0])
        matrix[:, 0, :] = row0.T
        matrix[:, :, 0] = col0.T
    ptrs = np.zeros((n_rows + 1, n_cols + 1), dtype=np.int64)

    cell = PEInput(up=(), diag=(), left=(), qry=None, ref=None, params=params)
    best: Optional[Tuple[float, int, int]] = None

    def eligible(i: int, j: int) -> bool:
        rule = spec.start_rule
        if rule is StartRule.GLOBAL_MAX:
            return True
        if rule is StartRule.BOTTOM_RIGHT:
            return i == n_rows and j == n_cols
        if rule is StartRule.LAST_ROW_MAX:
            return i == n_rows
        return i == n_rows or j == n_cols

    def boundary(i: int, j: int, init: np.ndarray) -> Tuple[float, ...]:
        return tuple(init) if band_contains(banding, i, j) else sentinel_row

    # What a neighbour read sees, as the engine's registers hold it: a
    # computed cell's quantized output, the init arrays' values on row and
    # column 0, the sentinel outside the band.  Two rows live at a time.
    above = [boundary(0, j, col0[0] if j == 0 else row0[j])
             for j in range(n_cols + 1)]
    for i in range(1, n_rows + 1):
        row = [sentinel_row] * (n_cols + 1)
        row[0] = boundary(i, 0, col0[i])
        for j in range(1, n_cols + 1):
            if not band_contains(banding, i, j):
                continue
            cell.up = above[j]
            cell.diag = above[j - 1]
            cell.left = row[j - 1]
            cell.qry = query[i - 1]
            cell.ref = reference[j - 1]
            out, ptr = spec.pe_func(cell)
            row[j] = out = tuple(map(quantize, out))
            if matrix is not None:
                matrix[:, i, j] = out
            ptrs[i, j] = ptr
            if eligible(i, j):
                value = out[spec.score_layer]
                if best is None or spec.better(value, best[0]):
                    best = (value, i, j)
                # Row-major scan order already yields smallest-(i, j) ties.
        above = row

    if best is None:
        raise ValueError(
            f"{spec.name}: no cell satisfied start rule "
            f"{spec.start_rule.value}"
        )
    score, si, sj = best
    start = (si, sj)
    alignment = None
    if spec.has_traceback:
        alignment = walk_traceback(spec, _MatrixPointerStore(ptrs), start)
    if alignment is not None:
        end = (alignment.query_start, alignment.ref_start)
    else:
        end = (0, 0)
    return AlignmentResult(
        score=score,
        start=start,
        end=end,
        alignment=alignment,
        cycles=None,
        matrix=matrix,
    )
