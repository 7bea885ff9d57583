"""Tests for alignment results, CIGAR handling and cycle reports."""

import pytest

from repro.core.result import (
    Alignment,
    CycleReport,
    Move,
    compress_cigar,
)


class TestCigar:
    def test_empty(self):
        assert compress_cigar([]) == ""

    def test_single_run(self):
        assert compress_cigar([Move.MATCH] * 3) == "3M"

    def test_mixed(self):
        moves = [Move.MATCH, Move.MATCH, Move.INS, Move.DEL, Move.DEL]
        assert compress_cigar(moves) == "2M1I2D"

    def test_end_moves_skipped(self):
        assert compress_cigar([Move.MATCH, Move.END]) == "1M"

    def test_alternating(self):
        moves = [Move.MATCH, Move.INS, Move.MATCH, Move.INS]
        assert compress_cigar(moves) == "1M1I1M1I"


class TestAlignment:
    def make(self):
        return Alignment(
            moves=(Move.MATCH, Move.DEL, Move.MATCH, Move.INS),
            query_start=0,
            query_end=3,
            ref_start=0,
            ref_end=3,
        )

    def test_cigar(self):
        assert self.make().cigar == "1M1D1M1I"

    def test_aligned_length(self):
        assert self.make().aligned_length == 4
        ended = Alignment((Move.END, Move.MATCH, Move.INS, Move.END), 0, 1, 0, 2)
        assert ended.aligned_length == 2

    def test_pretty_rows_aligned(self):
        aln = self.make()
        text = aln.pretty((0, 1, 2), (0, 1, 3))
        top, mid, bot = text.split("\n")
        assert len(top) == len(mid) == len(bot) == 4
        assert top == "AC-G" or "-" in top

    def test_pretty_gap_symbols(self):
        aln = Alignment((Move.INS,), 0, 0, 0, 1)
        top, _mid, bot = aln.pretty((), (2,)).split("\n")
        assert top == "-"
        assert bot == "G"

    def test_pretty_match_bar(self):
        aln = Alignment((Move.MATCH,), 0, 1, 0, 1)
        _top, mid, _bot = aln.pretty((0,), (0,)).split("\n")
        assert mid == "|"

    def test_pretty_mismatch_dot(self):
        aln = Alignment((Move.MATCH,), 0, 1, 0, 1)
        _top, mid, _bot = aln.pretty((0,), (1,)).split("\n")
        assert mid == "."


class TestCycleReport:
    def test_total(self):
        report = CycleReport(
            init_cycles=10, load_cycles=5, compute_cycles=100,
            reduction_cycles=3, traceback_cycles=20, interface_cycles=40,
        )
        assert report.total == 178

    def test_seconds(self):
        report = CycleReport(compute_cycles=1000)
        assert report.seconds(1e6) == pytest.approx(1e-3)

    def test_seconds_invalid_frequency(self):
        with pytest.raises(ValueError):
            CycleReport(compute_cycles=1).seconds(0)

    def test_defaults_zero(self):
        assert CycleReport().total == 0
