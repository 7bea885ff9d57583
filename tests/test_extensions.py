"""Tests for the extension kernels (beyond Table 1)."""

import pytest

from repro.kernels.extensions import (
    EXTENSION_KERNELS,
    GLOBAL_LINEAR_N,
    N_CODE,
    SAKOE_CHIBA_BAND,
    SAKOE_CHIBA_DTW,
    SEMIGLOBAL_AFFINE,
)
from repro.reference import oracle_align
from repro.reference.classic import gotoh_global, nw_linear
from repro.reference.rescore import rescore_affine
from repro.systolic import align
from tests.conftest import mutated_copy, random_dna


class TestEngineEquivalence:
    @pytest.mark.parametrize("spec", EXTENSION_KERNELS, ids=lambda s: s.name)
    def test_matches_oracle(self, spec):
        if spec is SAKOE_CHIBA_DTW:
            from repro.data.signals import random_complex_signal, warp_signal

            r = random_complex_signal(24, seed=1)
            q = warp_signal(r, seed=2)[:24]
        elif spec.alphabet.name == "profile_protein":
            from repro.data.protein import random_protein
            from tests.test_fastq_protein_profile import one_hot_protein_profile

            q = one_hot_protein_profile(random_protein(8, seed=3))
            r = one_hot_protein_profile(random_protein(8, seed=4))
        else:
            r = random_dna(30, seed=3)
            q = mutated_copy(r, seed=4)[:30]
            if spec is GLOBAL_LINEAR_N:
                q = q[:len(r)] + r[len(q):]  # keep |Q-R| small is irrelevant here
        ours = align(spec, q, r, n_pe=4)
        ref = oracle_align(spec, q, r)
        assert ours.score == ref.score
        if spec.has_traceback:
            assert ours.alignment.moves == ref.alignment.moves


class TestDna5:
    def test_without_ns_matches_kernel1(self):
        """On pure ACGT input, DNA5 scoring equals Needleman-Wunsch."""
        ref = random_dna(24, seed=5)
        qry = mutated_copy(ref, seed=6)
        params = GLOBAL_LINEAR_N.default_params
        ours = align(GLOBAL_LINEAR_N, qry, ref, n_pe=4).score
        assert ours == nw_linear(qry, ref, match=2, mismatch=-2,
                                 gap=params.linear_gap)

    def test_n_scores_neutrally(self):
        seq = random_dna(16, seed=7)
        masked = seq[:8] + (N_CODE,) + seq[9:]
        clean_score = align(GLOBAL_LINEAR_N, seq, seq, n_pe=4).score
        masked_score = align(GLOBAL_LINEAR_N, masked, seq, n_pe=4).score
        # one N replaces a +2 match by a 0 — never as bad as a mismatch
        assert masked_score == clean_score - 2

    def test_all_n_query_scores_zero_matches(self):
        seq = random_dna(10, seed=8)
        all_n = (N_CODE,) * 10
        assert align(GLOBAL_LINEAR_N, all_n, seq, n_pe=4).score == 0


class TestSemiglobalAffine:
    def test_contained_read_full_match(self):
        read = random_dna(12, seed=9)
        reference = random_dna(10, seed=10) + read + random_dna(10, seed=11)
        result = align(SEMIGLOBAL_AFFINE, read, reference, n_pe=4)
        assert result.cigar == "12M"
        assert result.score == 12 * SEMIGLOBAL_AFFINE.default_params.match

    def test_affine_gap_consolidation(self):
        reference = random_dna(30, seed=12)
        read = reference[5:14] + reference[18:27]  # internal 4-base deletion
        result = align(SEMIGLOBAL_AFFINE, read, reference, n_pe=4)
        assert "4I" in result.cigar

    def test_path_rescores_to_optimum(self):
        reference = random_dna(40, seed=13)
        read = mutated_copy(reference[8:32], seed=14)
        result = align(SEMIGLOBAL_AFFINE, read, reference, n_pe=4)
        p = SEMIGLOBAL_AFFINE.default_params
        rescored = rescore_affine(
            result.alignment, read, reference,
            p.match, p.mismatch, p.gap_open, p.gap_extend,
        )
        assert rescored == result.score

    def test_no_worse_than_global_affine(self):
        """Free reference ends can only help relative to global."""
        reference = random_dna(30, seed=15)
        read = mutated_copy(reference[4:26], seed=16)
        semi = align(SEMIGLOBAL_AFFINE, read, reference, n_pe=4).score
        glob = gotoh_global(read, reference)
        assert semi >= glob


class TestSakoeChiba:
    def test_derived_from_dtw(self):
        assert SAKOE_CHIBA_DTW.banding == SAKOE_CHIBA_BAND
        assert SAKOE_CHIBA_DTW.objective.value == "min"

    def test_band_never_beats_unbanded(self):
        from repro.data.signals import random_complex_signal, warp_signal
        from repro.kernels import get_kernel

        ref = random_complex_signal(32, seed=17)
        qry = warp_signal(ref, seed=18)[:32]
        banded = align(SAKOE_CHIBA_DTW, qry, ref, n_pe=4).score
        free = align(get_kernel(9), qry, ref, n_pe=4).score
        assert banded >= free  # banding can only restrict the warping path

    def test_band_cuts_cycles(self):
        from repro.data.signals import random_complex_signal
        from repro.kernels import get_kernel

        sig = random_complex_signal(64, seed=19)
        banded = align(SAKOE_CHIBA_DTW, sig, sig, n_pe=8).cycles
        free = align(get_kernel(9), sig, sig, n_pe=8).cycles
        assert banded.compute_cycles < free.compute_cycles
