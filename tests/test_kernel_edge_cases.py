"""Edge-case behaviour of individual kernels.

Boundary conditions the broad equivalence tests visit only by chance:
exact two-piece crossovers, affine open-vs-extend ties, DTW shape
asymmetry, Viterbi state transitions, profile gap columns, sDTW free
placement at the reference edges.
"""

import numpy as np
import pytest

from repro.core.alphabet import encode_dna
from repro.kernels import get_kernel
from repro.reference import oracle_align
from repro.systolic import align
from tests.conftest import random_dna


class TestTwoPieceCrossover:
    """cost(L) = max(o1 + L*e1, o2 + L*e2); pieces cross at L = 20 with
    the default parameters (o1=-4, e1=-2, o2=-24, e2=-1)."""

    @pytest.mark.parametrize("gap_len", (19, 20, 21))
    def test_exact_crossover_scores(self, gap_len):
        spec = get_kernel(5)
        p = spec.default_params
        ref = tuple(random_dna(40 + gap_len, seed=gap_len))
        qry = ref[:20] + ref[20 + gap_len:]
        result = align(spec, qry, ref, n_pe=8)
        expected_gap = max(
            p.gap_open1 + p.gap_extend1 * gap_len,
            p.gap_open2 + p.gap_extend2 * gap_len,
        )
        assert result.score == 40 * p.match + expected_gap

    def test_at_crossover_both_pieces_equal(self):
        p = get_kernel(5).default_params
        L = 20
        assert p.gap_open1 + p.gap_extend1 * L == p.gap_open2 + p.gap_extend2 * L


class TestAffineTies:
    def test_open_vs_extend_tie_prefers_open(self):
        """When extending and re-opening cost the same, the kernel's
        strict '>' comparison keeps the open (ext flag False) — pinned
        behaviour that traceback correctness relies on."""
        from repro.core.spec import PEInput
        from repro.kernels.common import AFFINE_I_EXT

        spec = get_kernel(2)
        p = spec.default_params
        # choose left H and left I so open == extend exactly
        h_left = 10.0
        i_left = h_left + p.gap_open  # ext: i_left + e == h_left + o + e
        cell = PEInput(
            up=(0.0, 0.0, 0.0), diag=(0.0, 0.0, 0.0),
            left=(h_left, i_left, 0.0), qry=0, ref=1, params=p,
        )
        _scores, ptr = spec.pe_func(cell)
        assert not (ptr & AFFINE_I_EXT)

    def test_gap_open_cost_exact(self):
        spec = get_kernel(2)
        p = spec.default_params
        ref = encode_dna("ACGTACGTAC")
        qry = ref[:5] + ref[6:]  # single deletion
        result = align(spec, qry, ref, n_pe=4)
        assert result.score == 9 * p.match + p.gap_open + p.gap_extend


class TestDtwShapes:
    def test_query_longer_than_reference(self):
        from repro.data.signals import random_complex_signal, warp_signal

        spec = get_kernel(9)
        ref = random_complex_signal(10, seed=1)
        qry = warp_signal(ref, stretch=2.0, noise=0.0, seed=2)
        assert len(qry) == 2 * len(ref)
        ours = align(spec, qry, ref, n_pe=4)
        oracle = oracle_align(spec, qry, ref)
        assert ours.score == oracle.score
        # a noiseless stretch warps back to near-zero distance
        assert ours.score < 1e-6

    def test_single_sample_signals(self):
        spec = get_kernel(9)
        a = ((1.0, 0.0),)
        b = ((0.0, 1.0),)
        result = align(spec, a, b, n_pe=1)
        assert result.score == pytest.approx(2.0)


class TestViterbiTransitions:
    def test_gap_open_vs_extend_costs(self):
        """One length-2 reference gap costs mu + lambda, not 2*mu."""
        spec = get_kernel(10)
        p = spec.default_params
        seq = random_dna(12, seed=3)
        with_gap = seq[:6] + seq[8:]   # query missing 2 bases
        score = align(spec, with_gap, seq, n_pe=4).score
        match_e = p.emission[0][0]
        # 10 matched emissions + open + extend (fixed-point tolerance)
        expected = 10 * match_e + p.log_mu + p.log_lambda
        assert np.isclose(score, expected, atol=0.05)


class TestProfileGapColumns:
    def test_gap_heavy_column_scores_low(self):
        spec = get_kernel(8)
        solid = ((1.0, 0.0, 0.0, 0.0, 0.0),) * 6
        gappy = ((0.5, 0.0, 0.0, 0.0, 0.5),) * 6
        same = align(spec, solid, solid, n_pe=2).score
        degraded = align(spec, gappy, solid, n_pe=2).score
        assert same > degraded

    def test_column_validation_helper(self):
        from repro.kernels.profile import profile_column

        col = profile_column(0.25, 0.25, 0.25, 0.25, 0.0)
        assert sum(col) == 1.0
        with pytest.raises(ValueError):
            profile_column(0.9, 0.9, 0.0, 0.0, 0.0)


class TestSdtwEdges:
    def test_match_at_reference_start(self):
        spec = get_kernel(14)
        reference = (200, 200, 50, 50, 50)
        query = (200, 200)
        result = align(spec, query, reference, n_pe=2)
        assert result.score == 0
        # warping may repeat-match ref[0]; ties break to the smallest j,
        # but the zero-distance placement must sit in the 200-run
        assert result.start[0] == len(query)
        assert result.start[1] <= 2

    def test_match_at_reference_end(self):
        spec = get_kernel(14)
        reference = (50, 50, 50, 200, 200)
        query = (200, 200)
        result = align(spec, query, reference, n_pe=2)
        assert result.score == 0
        assert result.start[0] == len(query)
        assert result.start[1] >= 4  # inside the trailing 200-run

    def test_query_longer_than_reference_still_works(self):
        spec = get_kernel(14)
        result = align(spec, (10, 20, 30, 40), (10, 40), n_pe=2)
        oracle = oracle_align(spec, (10, 20, 30, 40), (10, 40))
        assert result.score == oracle.score


class TestOverlapEdges:
    def test_contained_read_prefers_containment_edge(self):
        """When b sits inside a, the overlap path ends on a row/col edge."""
        spec = get_kernel(6)
        outer = random_dna(30, seed=4)
        inner = outer[10:20]
        result = align(spec, outer, inner, n_pe=4)
        si, sj = result.start
        assert si == len(outer) or sj == len(inner)

    def test_no_overlap_scores_low(self):
        spec = get_kernel(6)
        a = (0,) * 15
        b = (3,) * 15
        result = align(spec, a, b, n_pe=4)
        assert result.score <= 0 or result.alignment.aligned_length <= 2
