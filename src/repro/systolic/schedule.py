"""Wavefront schedule geometry of the chunked linear systolic array.

The DP matrix has the query along rows (1..Q) and the reference along
columns (1..R); row 0 and column 0 hold initialization scores.  Rows are
split into chunks of ``n_pe`` consecutive rows; within a chunk, PE ``p``
owns row ``chunk_base + p + 1`` and at wavefront ``w`` computes column
``j = w - p + 1``.  With a fixed band of half-width ``B``, only wavefronts
containing at least one in-band cell are issued (the band-tightened loop
bounds of banded RTL designs such as BSW).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.result import CycleReport
from repro.core.spec import KernelSpec, StartRule, band_contains


@dataclass(frozen=True)
class ChunkSchedule:
    """One chunk's geometry.

    ``base`` is the 0-based row offset (the chunk covers matrix rows
    ``base+1 .. base+rows``); ``wavefronts`` lists, per issued wavefront,
    its wavefront index ``w`` (which fixes every PE's column).
    """

    base: int
    rows: int
    wavefronts: Tuple[int, ...]


def _wavefront_active(
    w: int, base: int, rows: int, n_cols: int, banding: Optional[int]
) -> bool:
    """Whether wavefront ``w`` of a chunk touches any in-band cell."""
    for p in range(rows):
        j = w - p + 1
        if not 1 <= j <= n_cols:
            continue
        i = base + p + 1
        if band_contains(banding, i, j):
            return True
    return False


def _check_geometry(n_rows: int, n_cols: int, n_pe: int) -> None:
    if n_rows < 1 or n_cols < 1:
        raise ValueError(f"matrix must be at least 1x1, got {n_rows}x{n_cols}")
    if n_pe < 1:
        raise ValueError(f"n_pe must be >= 1, got {n_pe}")


def chunk_schedules(
    n_rows: int, n_cols: int, n_pe: int, banding: Optional[int] = None
) -> List[ChunkSchedule]:
    """Build the full chunk/wavefront schedule for a Q x R matrix.

    ``n_rows`` = query length Q, ``n_cols`` = reference length R.
    """
    _check_geometry(n_rows, n_cols, n_pe)
    chunks: List[ChunkSchedule] = []
    for base in range(0, n_rows, n_pe):
        rows = min(n_pe, n_rows - base)
        total = n_cols + rows - 1
        if banding is None:
            wavefronts = tuple(range(total))
        else:
            wavefronts = tuple(
                w
                for w in range(total)
                if _wavefront_active(w, base, rows, n_cols, banding)
            )
        chunks.append(ChunkSchedule(base=base, rows=rows, wavefronts=wavefronts))
    return chunks


@functools.lru_cache(maxsize=4096)  # a batch repeats few distinct shapes
def count_wavefronts(
    n_rows: int, n_cols: int, n_pe: int, banding: Optional[int] = None
) -> int:
    """``sum(len(c.wavefronts) for c in chunk_schedules(...))`` in closed form.

    Wavefront ``w`` of a chunk is anti-diagonal ``d = base + w + 2``
    clipped to the chunk's rows, so it is issued iff the row interval
    ``[max(base+1, d-R, ceil((d-W)/2)), min(base+rows, d-1, floor((d+W)/2))]``
    is non-empty.  Requiring every lower bound <= every upper bound turns
    that into an interval of ``d`` (even ``d`` only when ``W == 0``), so
    each chunk costs O(1) instead of one ``band_contains`` per cell.
    """
    _check_geometry(n_rows, n_cols, n_pe)
    total = 0
    for base in range(0, n_rows, n_pe):
        last_row = min(base + n_pe, n_rows)
        if banding is None:
            total += n_cols + last_row - base - 1
            continue
        lo = max(base + 2, 2 * base + 2 - banding)
        hi = min(last_row + n_cols, 2 * min(n_cols, last_row) + banding)
        if banding == 0:  # odd diagonals hold no |i - j| <= 0 cell
            lo, hi = (lo + 1) // 2, hi // 2
        total += max(0, hi - lo + 1)
    return total


def count_cycles(
    n_rows: int,
    n_cols: int,
    n_pe: int,
    ii: int = 1,
    banding: Optional[int] = None,
) -> Tuple[int, int]:
    """Closed-form (compute_cycles, load_cycles) of the wavefront pipeline.

    ``compute`` is issued wavefronts × II; ``load`` is one cycle per query
    symbol (each chunk serially loads its rows' symbols into the PEs,
    which DP-HLS does not overlap with computation — Section 7.3).
    """
    return count_wavefronts(n_rows, n_cols, n_pe, banding) * ii, n_rows


def reduction_cycles(start_rule: StartRule, n_pe: int) -> int:
    """Cycles of the log-depth cross-PE optimum reduction (Section 5.2);
    a bottom-right start reads one known cell and reduces nothing."""
    if start_rule is StartRule.BOTTOM_RIGHT:
        return 0
    return max(1, math.ceil(math.log2(max(2, n_pe)))) + 2


def closed_form_cycles(
    spec: KernelSpec, n_rows: int, n_cols: int, n_pe: int, ii: int,
    traceback_cycles: int, interface_cycles_per_base: int,
) -> CycleReport:
    """The :class:`CycleReport` the engine accumulates, without running it.

    The traceback walk is the one stage with no closed form: the caller
    passes its measured (or expected) cycles.  ``tests/test_cycles.py``
    pins the rest to the engine's own accounting.
    """
    wavefronts = count_wavefronts(n_rows, n_cols, n_pe, spec.banding)
    return CycleReport(
        init_cycles=(n_cols + 1) + (n_rows + 1),
        load_cycles=n_rows,
        compute_cycles=wavefronts * ii,
        reduction_cycles=reduction_cycles(spec.start_rule, n_pe),
        traceback_cycles=traceback_cycles,
        interface_cycles=interface_cycles_per_base * (n_rows + n_cols),
        wavefronts=wavefronts,
        ii=ii,
    )
