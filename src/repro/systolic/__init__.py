"""The DP-HLS back-end: a linear systolic array simulator.

This package is the functional model of what the paper's fixed HLS pragmas
make the compiler produce (Section 5): the query is processed in chunks of
``N_PE`` rows, a wavefront pipeline sweeps each chunk while the reference
streams through the PE array, a preserved-row buffer carries the last PE's
outputs into the next chunk, traceback pointers land in per-PE memory banks
with coalesced addresses, and per-PE local-maximum tracking plus a reduction
locates the traceback start cell.

The simulator is *register-accurate*: every value a PE consumes comes from
the register or buffer the hardware would read, so a kernel that works here
has a correct systolic dataflow by construction.
"""

from repro.systolic.engine import SystolicAlignmentError, align
from repro.systolic.schedule import (
    ChunkSchedule,
    chunk_schedules,
    count_cycles,
    count_wavefronts,
)
from repro.systolic.tb_memory import TracebackMemory
from repro.systolic.traceback import BestCellTracker, TracebackError, walk_traceback

__all__ = [
    "align",
    "SystolicAlignmentError",
    "ChunkSchedule",
    "chunk_schedules",
    "count_cycles",
    "count_wavefronts",
    "TracebackMemory",
    "BestCellTracker",
    "TracebackError",
    "walk_traceback",
]
