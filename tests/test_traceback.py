"""Tests for the traceback walker and the best-cell tracker."""

import pytest

from repro.core.result import Move
from repro.core.spec import (
    TB_DIAG,
    TB_END,
    TB_LEFT,
    TB_UP,
    EndRule,
    Objective,
    StartRule,
    TracebackSpec,
)
from repro.systolic.traceback import (
    MOVE_OF,
    TRAP,
    BestCellTracker,
    TracebackError,
    stop_flags,
    transition_table,
    walk_traceback,
)
from tests.test_spec import make_spec
from repro.kernels.common import affine_tb, linear_tb, two_piece_tb


class FakeMemory:
    """Pointer store backed by a dict; unset cells read TB_END."""

    def __init__(self, ptrs):
        self._ptrs = ptrs

    def read(self, i, j):
        return self._ptrs.get((i, j), TB_END)


def tb_spec(end_rule, start_rule=StartRule.BOTTOM_RIGHT):
    return make_spec(
        start_rule=start_rule,
        traceback=TracebackSpec(end=end_rule),
        tb_transition=linear_tb,
    )


class TestWalker:
    def test_pure_diagonal_global(self):
        spec = tb_spec(EndRule.TOP_LEFT)
        ptrs = {(i, i): TB_DIAG for i in range(1, 4)}
        aln = walk_traceback(spec, FakeMemory(ptrs), (3, 3))
        assert aln.cigar == "3M"
        assert (aln.query_start, aln.ref_start) == (0, 0)

    def test_global_boundary_walks_row0(self):
        spec = tb_spec(EndRule.TOP_LEFT)
        ptrs = {(1, 3): TB_DIAG}
        aln = walk_traceback(spec, FakeMemory(ptrs), (1, 3))
        # one diagonal into row 0, then INS moves to (0, 0)
        assert aln.cigar == "2I1M"
        assert aln.query_start == 0 and aln.ref_start == 0

    def test_global_boundary_walks_col0(self):
        spec = tb_spec(EndRule.TOP_LEFT)
        ptrs = {(3, 1): TB_DIAG}
        aln = walk_traceback(spec, FakeMemory(ptrs), (3, 1))
        assert aln.cigar == "2D1M"

    def test_local_stops_at_end_pointer(self):
        spec = tb_spec(EndRule.SENTINEL, StartRule.GLOBAL_MAX)
        ptrs = {(3, 3): TB_DIAG, (2, 2): TB_DIAG, (1, 1): TB_END}
        aln = walk_traceback(spec, FakeMemory(ptrs), (3, 3))
        assert aln.cigar == "2M"
        assert (aln.query_start, aln.ref_start) == (1, 1)

    def test_semiglobal_stops_at_top_row(self):
        spec = tb_spec(EndRule.TOP_ROW, StartRule.LAST_ROW_MAX)
        ptrs = {(2, 5): TB_DIAG, (1, 4): TB_DIAG}
        aln = walk_traceback(spec, FakeMemory(ptrs), (2, 5))
        assert aln.cigar == "2M"
        assert aln.ref_start == 3  # free reference prefix

    def test_overlap_stops_at_left_col(self):
        spec = tb_spec(EndRule.TOP_ROW_OR_LEFT_COL, StartRule.LAST_ROW_OR_COL_MAX)
        ptrs = {(3, 2): TB_DIAG, (2, 1): TB_DIAG}
        aln = walk_traceback(spec, FakeMemory(ptrs), (3, 2))
        assert aln.cigar == "2M"
        assert aln.query_start == 1 and aln.ref_start == 0

    def test_mixed_moves(self):
        spec = tb_spec(EndRule.TOP_LEFT)
        ptrs = {
            (3, 3): TB_UP,
            (2, 3): TB_LEFT,
            (2, 2): TB_DIAG,
            (1, 1): TB_DIAG,
        }
        aln = walk_traceback(spec, FakeMemory(ptrs), (3, 3))
        assert aln.cigar == "2M1I1D"

    def test_score_only_kernel_rejected(self):
        spec = make_spec()
        with pytest.raises(TracebackError):
            walk_traceback(spec, FakeMemory({}), (1, 1))

    def test_transitions_are_asked_once_per_state_and_pointer(self):
        asked = []

        def counting_tb(state, ptr):
            asked.append((state, ptr))
            return linear_tb(state, ptr)

        spec = make_spec(
            traceback=TracebackSpec(end=EndRule.TOP_LEFT), tb_transition=counting_tb
        )
        ptrs = {(3, 3): TB_UP, (2, 3): TB_LEFT, (2, 2): TB_DIAG, (1, 1): TB_DIAG}
        first = walk_traceback(spec, FakeMemory(ptrs), (3, 3))
        again = walk_traceback(spec, FakeMemory(ptrs), (3, 3))
        assert first == again and first.cigar == "2M1I1D"
        # the eager table: every pointer of every reachable state, once
        assert sorted(asked) == [(0, TB_DIAG), (0, TB_UP), (0, TB_LEFT), (0, TB_END)]

    def test_fsm_error_surfaces_every_time(self):
        def strict_tb(state, ptr):
            if ptr > TB_END:
                raise ValueError(f"malformed pointer {ptr}")
            return linear_tb(state, ptr)

        spec = make_spec(
            traceback=TracebackSpec(end=EndRule.TOP_LEFT), tb_transition=strict_tb
        )
        ptrs = {(2, 2): TB_DIAG, (1, 1): 7}
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed pointer 7"):
                walk_traceback(spec, FakeMemory(ptrs), (2, 2))


class TestTransitionTable:
    """The eager table both walkers read: bytes and dict are one closure."""

    @pytest.mark.parametrize("fsm, bits, n_states", [
        (linear_tb, 2, 1), (affine_tb, 4, 3), (two_piece_tb, 7, 5),
    ])
    def test_registry_fsms_close_without_a_trap(self, fsm, bits, n_states):
        steps, move_of, next_state = table = transition_table(fsm, 0, bits)
        assert move_of.shape == next_state.shape == (n_states, 1 << bits)
        assert move_of.dtype == next_state.dtype == "uint8"
        assert TRAP not in move_of
        assert move_of.flags.c_contiguous and next_state.flags.c_contiguous
        for state in range(n_states):  # these FSMs number their states 0..n-1
            for ptr in range(1 << bits):
                move, after = fsm(state, ptr)
                assert steps[state, ptr] == (move, after)
                assert MOVE_OF[move_of[state, ptr]] is move
                assert next_state[state, ptr] == after
        assert transition_table(fsm, 0, bits) is table  # built once

    def test_states_are_numbered_in_discovery_order(self):
        def hop(state, ptr):
            return Move.MATCH, {7: 40, 40: -3, -3: 7}[state]

        _steps, _move_of, next_state = transition_table(hop, 7, 2)
        assert next_state.tolist() == [[1] * 4, [2] * 4, [0] * 4]

    def test_a_raising_or_non_move_answer_is_a_trap_and_not_kept(self):
        def picky(state, ptr):
            if ptr == 2:
                raise ValueError("no such pointer")
            return ("M" if ptr == 3 else Move.DEL), state

        steps, move_of, _next_state = transition_table(picky, 0, 2)
        assert move_of.tolist() == [[1, 1, TRAP, TRAP]]
        assert (0, 2) not in steps and steps[0, 3] == ("M", 0)

    def test_more_states_than_a_byte_indexes(self):
        def counter(state, ptr):
            return Move.MATCH, state + 1

        _steps, move_of, next_state = transition_table(counter, 0, 2)
        assert move_of.shape == (TRAP, 4)
        assert (move_of[:-1] == 0).all() and (move_of[-1] == TRAP).all()
        assert next_state[:-1, 0].tolist() == list(range(1, TRAP))

    def test_pointers_wider_than_a_byte_are_asked_as_they_come(self):
        asked = []

        def wide(state, ptr):
            asked.append(ptr)
            return (Move.MATCH if ptr == 300 else Move.END), 0

        spec = make_spec(
            traceback=TracebackSpec(end=EndRule.TOP_LEFT), tb_transition=wide,
            tb_ptr_bits=12,
        )
        assert transition_table(wide, 0, 12)[1].shape == (1, 256)
        del asked[:]
        aln = walk_traceback(spec, FakeMemory({(2, 2): 300, (1, 1): 5}), (2, 2))
        assert aln.cigar == "1M" and asked == [300]

    @pytest.mark.parametrize("rule, flags", [
        (EndRule.TOP_LEFT, (False, False)), (EndRule.SENTINEL, (True, True)),
        (EndRule.TOP_ROW, (True, False)), (EndRule.TOP_ROW_OR_LEFT_COL, (True, True)),
    ])
    def test_stop_flags(self, rule, flags):
        assert stop_flags(rule) == flags


class TestBestCellTracker:
    def make_tracker(self, rule, n_rows=4, n_cols=4, objective=Objective.MAXIMIZE):
        spec = make_spec(start_rule=rule, objective=objective)
        return BestCellTracker(spec, n_pe=2, n_rows=n_rows, n_cols=n_cols)

    def test_global_max(self):
        t = self.make_tracker(StartRule.GLOBAL_MAX)
        t.observe(0, 1, 1, 5.0)
        t.observe(1, 2, 3, 9.0)
        t.observe(0, 3, 1, 7.0)
        assert t.reduce() == (9.0, 2, 3)

    def test_last_row_only(self):
        t = self.make_tracker(StartRule.LAST_ROW_MAX)
        t.observe(0, 3, 1, 100.0)  # not last row -> ignored
        t.observe(1, 4, 2, 5.0)
        assert t.reduce() == (5.0, 4, 2)

    def test_last_row_or_col(self):
        t = self.make_tracker(StartRule.LAST_ROW_OR_COL_MAX)
        t.observe(0, 1, 4, 6.0)  # last column counts
        t.observe(1, 4, 1, 5.0)
        assert t.reduce() == (6.0, 1, 4)

    def test_minimize_objective(self):
        t = self.make_tracker(StartRule.GLOBAL_MAX, objective=Objective.MINIMIZE)
        t.observe(0, 1, 1, 5.0)
        t.observe(1, 2, 2, 2.0)
        assert t.reduce() == (2.0, 2, 2)

    def test_tie_breaks_to_smallest_cell(self):
        t = self.make_tracker(StartRule.GLOBAL_MAX)
        t.observe(1, 2, 2, 7.0)
        t.observe(0, 1, 3, 7.0)
        assert t.reduce() == (7.0, 1, 3)

    def test_tie_within_pe_keeps_first(self):
        t = self.make_tracker(StartRule.GLOBAL_MAX)
        t.observe(0, 1, 2, 7.0)
        t.observe(0, 1, 1, 7.0)  # smaller j, same score
        assert t.reduce() == (7.0, 1, 1)

    def test_empty_tracker_raises(self):
        t = self.make_tracker(StartRule.GLOBAL_MAX)
        with pytest.raises(TracebackError):
            t.reduce()

    def test_reduction_cycles_zero_for_bottom_right(self):
        t = self.make_tracker(StartRule.BOTTOM_RIGHT)
        assert t.reduction_cycles() == 0

    def test_reduction_cycles_log_depth(self):
        spec = make_spec(start_rule=StartRule.GLOBAL_MAX)
        t = BestCellTracker(spec, n_pe=32, n_rows=4, n_cols=4)
        assert t.reduction_cycles() == 5 + 2
