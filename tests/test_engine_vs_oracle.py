"""Systolic engine vs row-major oracle: cell-exact equivalence.

These are the framework's core correctness tests.  The engine runs the
chunked wavefront schedule with PE registers, banked traceback memory and
reduction; the oracle runs the same KernelSpec in the obvious row-major
order.  Scores, start cells and recovered alignments must match exactly
for every kernel, over randomized workloads and pathological shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import KERNELS, get_kernel
from repro.reference import oracle_align
from repro.systolic import align
from tests.conftest import mutated_copy, random_dna

DNA_KERNELS = (1, 2, 3, 4, 5, 6, 7, 10, 12)
BANDED_GLOBAL_KERNELS = (11, 13)
ALL_KERNELS = tuple(sorted(KERNELS))


def assert_equivalent(spec, query, reference, n_pe):
    ours = align(spec, query, reference, n_pe=n_pe)
    ref = oracle_align(spec, query, reference)
    assert ours.score == ref.score, (
        f"{spec.name}: systolic score {ours.score} != oracle {ref.score}"
    )
    assert ours.start == ref.start
    if spec.has_traceback:
        assert ours.alignment is not None and ref.alignment is not None
        assert ours.alignment.moves == ref.alignment.moves
        assert ours.end == ref.end


def workload_pair(kid: int, seed: int, length: int):
    """A realistic (query, reference) pair for any kernel."""
    if kid in BANDED_GLOBAL_KERNELS:
        ref = random_dna(length, seed)
        qry = random_dna(length, seed + 1000)  # equal lengths for the band
        return qry, ref
    if kid in DNA_KERNELS:
        ref = random_dna(length, seed)
        return mutated_copy(ref, seed + 1000), ref
    if kid == 8:
        from repro.data.profiles import profile_pair

        return profile_pair(n_cols=max(4, length // 2), seed=seed)
    if kid == 9:
        from repro.data.signals import random_complex_signal, warp_signal

        ref = random_complex_signal(length, seed=seed)
        return warp_signal(ref, seed=seed + 1)[:length], ref
    if kid == 14:
        from repro.data.signals import sdtw_pair

        return sdtw_pair(ref_bases=max(10, length // 3), seed=seed)
    if kid == 15:
        from repro.data.protein import mutate_protein, random_protein

        ref = random_protein(length, seed=seed)
        return mutate_protein(ref, seed=seed + 1)[:length], ref
    raise AssertionError(f"no workload for kernel #{kid}")


@pytest.mark.parametrize("kid", ALL_KERNELS)
@pytest.mark.parametrize("n_pe", (1, 3, 8))
def test_engine_matches_oracle(kid, n_pe):
    spec = get_kernel(kid)
    query, reference = workload_pair(kid, seed=kid * 7 + n_pe, length=40)
    assert_equivalent(spec, query, reference, n_pe)


@pytest.mark.parametrize("kid", ALL_KERNELS)
def test_engine_matches_oracle_multiple_seeds(kid):
    spec = get_kernel(kid)
    for seed in range(3):
        query, reference = workload_pair(kid, seed=seed * 31 + kid, length=28)
        assert_equivalent(spec, query, reference, n_pe=4)


@pytest.mark.parametrize("kid", (1, 2, 3, 6, 7))
def test_extreme_shapes(kid):
    """Very asymmetric matrices exercise chunking and wavefront edges."""
    spec = get_kernel(kid)
    tall_q = random_dna(37, seed=kid)
    wide_r = random_dna(5, seed=kid + 1)
    assert_equivalent(spec, tall_q, wide_r, n_pe=4)
    assert_equivalent(spec, wide_r, tall_q, n_pe=4)


@pytest.mark.parametrize("kid", (1, 3, 14))
def test_single_symbol_sequences(kid):
    spec = get_kernel(kid)
    if kid == 14:
        query, reference = (100,), (90, 110, 100)
    else:
        query, reference = (0,), (0, 1, 2)
    assert_equivalent(spec, query, reference, n_pe=2)


def test_npe_larger_than_query():
    spec = get_kernel(1)
    query = random_dna(3, seed=5)
    reference = random_dna(9, seed=6)
    assert_equivalent(spec, query, reference, n_pe=16)


@given(
    q=st.lists(st.integers(0, 3), min_size=1, max_size=24),
    r=st.lists(st.integers(0, 3), min_size=1, max_size=24),
    n_pe=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_global_linear_property(q, r, n_pe):
    assert_equivalent(get_kernel(1), tuple(q), tuple(r), n_pe)


@given(
    q=st.lists(st.integers(0, 3), min_size=1, max_size=20),
    r=st.lists(st.integers(0, 3), min_size=1, max_size=20),
    n_pe=st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_local_affine_property(q, r, n_pe):
    assert_equivalent(get_kernel(4), tuple(q), tuple(r), n_pe)


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(8, 24),
    n_pe=st.integers(1, 6),
)
@settings(max_examples=30, deadline=None)
def test_banded_two_piece_property(seed, n, n_pe):
    q = random_dna(n, seed)
    r = random_dna(n, seed + 1)
    assert_equivalent(get_kernel(13), q, r, n_pe)


class TestEngineValidation:
    def test_empty_sequences_rejected(self):
        spec = get_kernel(1)
        with pytest.raises(ValueError):
            align(spec, (), (0, 1))

    def test_max_length_enforced(self):
        spec = get_kernel(1)
        q = random_dna(10, 1)
        with pytest.raises(ValueError, match="tiling"):
            align(spec, q, q, max_query_len=4)

    def test_banded_global_needs_near_square(self):
        spec = get_kernel(11)
        q = random_dna(8, 1)
        r = random_dna(80, 2)
        with pytest.raises(ValueError, match="band"):
            align(spec, q, r)

    def test_mis_encoded_symbols_rejected(self):
        spec = get_kernel(1)
        with pytest.raises(ValueError, match="alphabet"):
            align(spec, ("A", "C"), (0, 1))  # letters instead of codes
        with pytest.raises(ValueError, match="alphabet"):
            align(spec, (7, 1), (0, 1))  # out-of-range code

    def test_collect_matrix_matches_oracle(self):
        spec = get_kernel(2)
        q, r = random_dna(12, 3), random_dna(15, 4)
        ours = align(spec, q, r, n_pe=4, collect_matrix=True)
        ref = oracle_align(spec, q, r, collect_matrix=True)
        assert np.array_equal(ours.matrix, ref.matrix)
