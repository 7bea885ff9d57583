"""Traceback-start reduction and the FSM traceback walker (Section 5.2).

``BestCellTracker`` models the per-PE local-optimum registers: each PE
remembers the best score among the cells it computed that satisfy the
kernel's start rule, and a log-depth reduction across PEs yields the global
start cell.  Ties are broken toward the smallest (i, j), which the reference
oracles replicate so systolic and oracle results are comparable cell-for-cell.

``walk_traceback`` replays the kernel's traceback finite state machine over
the banked pointer memory, applying the end rule (Section 2.2.3) and the
matrix-boundary moves along row 0 / column 0.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import Alignment, Move
from repro.core.spec import EndRule, KernelSpec, StartRule, TBTransition
from repro.systolic.schedule import reduction_cycles
from repro.systolic.tb_memory import TracebackMemory


class TracebackError(RuntimeError):
    """Raised when a kernel's traceback FSM misbehaves (loops or escapes)."""


class BestCellTracker:
    """Per-PE best-cell registers plus the cross-PE reduction."""

    def __init__(self, spec: KernelSpec, n_pe: int, n_rows: int, n_cols: int):
        self._spec = spec
        self._rule = spec.start_rule
        self._n_rows = n_rows
        self._n_cols = n_cols
        self.n_pe = n_pe
        #: per-PE (score, i, j) or None
        self._best: List[Optional[Tuple[float, int, int]]] = [None] * n_pe

    def eligible(self, i: int, j: int) -> bool:
        """Whether cell (i, j) can be a traceback start under the rule."""
        if self._rule is StartRule.GLOBAL_MAX:
            return True
        if self._rule is StartRule.BOTTOM_RIGHT:
            return i == self._n_rows and j == self._n_cols
        if self._rule is StartRule.LAST_ROW_MAX:
            return i == self._n_rows
        return i == self._n_rows or j == self._n_cols  # LAST_ROW_OR_COL_MAX

    def observe(self, pe: int, i: int, j: int, score: float) -> None:
        """One PE sees one computed cell (called every active cycle)."""
        if not self.eligible(i, j):
            return
        current = self._best[pe]
        if current is None or self._spec.better(score, current[0]):
            self._best[pe] = (score, i, j)
            return
        # Equal scores: keep the smallest (i, j) for deterministic ties.
        if not self._spec.better(current[0], score):
            if (i, j) < (current[1], current[2]):
                self._best[pe] = (score, i, j)

    def reduce(self) -> Tuple[float, int, int]:
        """Cross-PE reduction to the global optimum start cell."""
        winner: Optional[Tuple[float, int, int]] = None
        for entry in self._best:
            if entry is None:
                continue
            if winner is None or self._spec.better(entry[0], winner[0]):
                winner = entry
            elif not self._spec.better(winner[0], entry[0]):
                if (entry[1], entry[2]) < (winner[1], winner[2]):
                    winner = entry
        if winner is None:
            raise TracebackError(
                f"{self._spec.name}: no cell satisfied start rule "
                f"{self._rule.value}"
            )
        return winner

    def reduction_cycles(self) -> int:
        """Cycles of the log-depth maximum reduction (Section 5.2)."""
        return reduction_cycles(self._rule, self.n_pe)


#: What a byte of a table or a walked path reads as, and the byte where the
#: FSM has to be asked itself: it raised, did not answer a :class:`Move`, or
#: left the 255 states a byte can index.
MOVE_OF, TRAP = (Move.MATCH, Move.DEL, Move.INS, Move.END), 255


@functools.lru_cache(maxsize=256)  # specs share few FSMs; a miss rebuilds
def transition_table(
    fsm: TBTransition, initial_state: int, ptr_bits: int
) -> Tuple[Dict[Tuple[int, int], Tuple[Move, int]], np.ndarray, np.ndarray]:
    """One traceback FSM as data, what both walkers read instead of calling
    it: ``fsm`` closed from ``initial_state`` over every pointer of
    ``ptr_bits`` bits (at most a byte's worth: wider pointers ask the FSM as
    they come).  ``steps`` is the scalar walker's view — a call that raises
    is not kept, so it raises again wherever it recurs — and ``move`` /
    ``next_state`` are the same answers as ``(states, pointers)`` bytes for
    :mod:`repro.backend.native`'s walker, states numbered in discovery order."""
    n_ptr = 1 << min(ptr_bits, 8)
    states, index = [initial_state], {initial_state: 0}
    steps: Dict[Tuple[int, int], Tuple[Move, int]] = {}
    for state in states:  # grows while new states are reached
        for ptr in range(n_ptr):
            try:
                move, after = steps[state, ptr] = fsm(state, ptr)
                if after not in index and len(states) < TRAP:
                    index[after] = len(states)
                    states.append(after)
            except Exception:  # the walker that meets it lets the FSM raise
                steps.pop((state, ptr), None)
    codes = np.full((2, len(states), n_ptr), TRAP, np.uint8)
    for (state, ptr), (move, after) in steps.items():
        if move in MOVE_OF and after in index:
            codes[:, index[state], ptr] = MOVE_OF.index(move), index[after]
    return (steps, *codes)


def stop_flags(end_rule: EndRule) -> Tuple[bool, bool]:
    """(stop at row 0, stop at column 0): row 0 ends every walk but
    TOP_LEFT's; column 0 every other but TOP_ROW's (SENTINEL too: the path
    has reached a zero-score init cell)."""
    stop_at_row0 = end_rule is not EndRule.TOP_LEFT
    return stop_at_row0, stop_at_row0 and end_rule is not EndRule.TOP_ROW


def walk_traceback(
    spec: KernelSpec,
    memory: TracebackMemory,
    start: Tuple[int, int],
) -> Alignment:
    """Replay the traceback FSM from ``start`` until the end rule fires."""
    if spec.traceback is None or spec.tb_transition is None:
        raise TracebackError(f"{spec.name} has no traceback stage")
    end_rule = spec.traceback.end
    stop_at_row0, stop_at_col0 = stop_flags(end_rule)
    known = transition_table(
        spec.tb_transition, spec.traceback.initial_state, spec.tb_ptr_bits
    )[0]
    read = memory.read
    state = spec.traceback.initial_state
    i, j = start
    moves: List[Move] = []
    max_steps = i + j + 5
    for _step in range(max_steps):
        if i == 0:
            if stop_at_row0 or j == 0:
                break
            # Row 0: only leftward (reference-consuming) moves remain.
            moves.append(Move.INS)
            j -= 1
            continue
        if j == 0:
            if stop_at_col0:
                break
            moves.append(Move.DEL)
            i -= 1
            continue
        key = (state, read(i, j))
        move, state = known.get(key) or spec.tb_transition(*key)
        if move is Move.MATCH:
            i -= 1
            j -= 1
        elif move is Move.DEL:
            i -= 1
        elif move is Move.INS:
            j -= 1
        elif move is Move.END:
            break
        else:  # pragma: no cover - defensive
            raise TracebackError(f"{spec.name}: FSM produced {move!r}")
        moves.append(move)
    else:
        raise TracebackError(
            f"{spec.name}: traceback did not terminate within {max_steps} "
            f"steps from cell {start} (end rule {end_rule.value})"
        )
    moves.reverse()
    return Alignment(
        moves=tuple(moves),
        query_start=i,
        query_end=start[0],
        ref_start=j,
        ref_end=start[1],
    )
