"""Alignment results and cycle accounting.

The systolic engine returns an :class:`AlignmentResult`: the optimal score,
where the traceback started/ended in the DP matrix, the recovered alignment
(when the kernel has a traceback stage) and a :class:`CycleReport` holding
the co-simulation-style cycle breakdown used by the throughput model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


class Move(enum.Enum):
    """One traceback step in the DP matrix.

    The matrix has the query along rows (index ``i``) and the reference
    along columns (index ``j``).  Following the paper's listings, moving up
    consumes a query symbol (``AL_DEL``), moving left consumes a reference
    symbol (``AL_INS``) and the diagonal consumes one of each (``AL_MMI``).
    """

    MATCH = "M"   # diagonal: (i-1, j-1)
    DEL = "D"     # up:       (i-1, j)   — gap in the reference
    INS = "I"     # left:     (i,   j-1) — gap in the query
    END = "E"     # terminate the traceback


@dataclass(frozen=True)
class CycleReport:
    """Cycle breakdown of one alignment on one systolic block.

    Mirrors the stages the paper's co-simulation accounts for: sequential
    row/column initialization, per-chunk query loading, the wavefront
    pipeline itself, the reduction locating the traceback start cell, the
    traceback walk, and host-interface overhead.
    """

    init_cycles: int = 0
    load_cycles: int = 0
    compute_cycles: int = 0
    reduction_cycles: int = 0
    traceback_cycles: int = 0
    interface_cycles: int = 0
    wavefronts: int = 0
    ii: int = 1

    @property
    def total(self) -> int:
        """Total cycles from input handoff to result availability."""
        return (
            self.init_cycles
            + self.load_cycles
            + self.compute_cycles
            + self.reduction_cycles
            + self.traceback_cycles
            + self.interface_cycles
        )

    def seconds(self, frequency_hz: float) -> float:
        """Wall-clock latency at a given clock frequency."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.total / frequency_hz


def compress_cigar(moves: Sequence[Move]) -> str:
    """Run-length encode a move sequence into a CIGAR string.

    >>> compress_cigar([Move.MATCH, Move.MATCH, Move.INS])
    '2M1I'
    """
    out: List[str] = []
    run_char: Optional[str] = None
    run_len = 0
    for move in moves:
        if move is Move.END:
            continue
        if move.value == run_char:
            run_len += 1
        else:
            if run_char is not None:
                out.append(f"{run_len}{run_char}")
            run_char = move.value
            run_len = 1
    if run_char is not None:
        out.append(f"{run_len}{run_char}")
    return "".join(out)


def expand_cigar(cigar: str) -> Tuple[Move, ...]:
    """Decode a CIGAR string back into its move sequence.

    The exact inverse of :func:`compress_cigar` for END-free paths
    (END is dropped by compression, so round-trips exclude it) — what
    lets a served CIGAR reconstruct the device's traceback losslessly.

    >>> expand_cigar('2M1I')
    (<Move.MATCH: 'M'>, <Move.MATCH: 'M'>, <Move.INS: 'I'>)
    """
    moves: List[Move] = []
    count = 0
    for ch in cigar:
        if ch.isdigit():
            count = count * 10 + int(ch)
            continue
        if count < 1:
            raise ValueError(f"malformed CIGAR {cigar!r}: zero-length run")
        try:
            move = Move(ch)
        except ValueError:
            raise ValueError(
                f"malformed CIGAR {cigar!r}: unknown op {ch!r}"
            ) from None
        moves.extend([move] * count)
        count = 0
    if count:
        raise ValueError(f"malformed CIGAR {cigar!r}: trailing count")
    return tuple(moves)


@dataclass
class Alignment:
    """A recovered alignment path through the DP matrix.

    ``moves`` run from the top-left end of the path to the bottom-right,
    i.e. in sequence order.  ``query_start``/``ref_start`` are 0-based
    offsets of the first aligned symbol; ``query_end``/``ref_end`` are
    exclusive ends.
    """

    moves: Tuple[Move, ...]
    query_start: int
    query_end: int
    ref_start: int
    ref_end: int

    @property
    def cigar(self) -> str:
        """CIGAR representation of the path."""
        return compress_cigar(self.moves)

    @property
    def aligned_length(self) -> int:
        """Number of alignment columns (excluding END)."""
        return len(self.moves) - self.moves.count(Move.END)

    def pretty(self, query: Sequence, reference: Sequence, letters: str = "ACGT") -> str:
        """Render the alignment as three text rows (query / bars / reference).

        ``letters`` maps integer symbol codes to characters; symbols outside
        the map (e.g. numeric signals) are rendered as ``*``.
        """

        def render(symbol) -> str:
            if isinstance(symbol, int) and 0 <= symbol < len(letters):
                return letters[symbol]
            return "*"

        top: List[str] = []
        mid: List[str] = []
        bot: List[str] = []
        qi, rj = self.query_start, self.ref_start
        for move in self.moves:
            if move is Move.MATCH:
                q, r = render(query[qi]), render(reference[rj])
                top.append(q)
                bot.append(r)
                mid.append("|" if q == r else ".")
                qi += 1
                rj += 1
            elif move is Move.DEL:
                top.append(render(query[qi]))
                bot.append("-")
                mid.append(" ")
                qi += 1
            elif move is Move.INS:
                top.append("-")
                bot.append(render(reference[rj]))
                mid.append(" ")
                rj += 1
        return "\n".join(("".join(top), "".join(mid), "".join(bot)))


@dataclass
class AlignmentResult:
    """Everything one kernel invocation produces.

    ``score`` is the value of the reported scoring layer at the traceback
    start cell (or the reduced optimum for score-only kernels).  ``start``
    and ``end`` are (i, j) cells in the (Q+1)x(R+1) DP matrix — ``start``
    is where the traceback began (bottom/right end of the path).
    """

    score: float
    start: Tuple[int, int]
    end: Tuple[int, int] = (0, 0)
    alignment: Optional[Alignment] = None
    cycles: Optional[CycleReport] = None
    matrix: Optional[object] = None  # np.ndarray when requested

    @property
    def cigar(self) -> str:
        """CIGAR of the alignment ('' for score-only kernels)."""
        return self.alignment.cigar if self.alignment else ""
