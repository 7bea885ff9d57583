"""Edge-case tests for the systolic engine and the batch executor.

Covers the shapes the fuzzer leans on hardest: single-base queries,
query lengths not divisible by N_PE, bands narrower than one chunk of
PEs, empty batches, and failure injection in the host batch path.
"""

import pytest

from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.reference.dp_oracle import oracle_align
from repro.synth import LaunchConfig
from repro.systolic.engine import align
from tests.conftest import mutated_copy, random_dna


def _assert_engine_matches_oracle(kid, query, reference, n_pe):
    spec = get_kernel(kid)
    actual = align(spec, query, reference, n_pe=n_pe)
    expected = oracle_align(spec, query, reference)
    assert actual.score == expected.score, (
        f"kernel {kid} n_pe={n_pe}: engine {actual.score} "
        f"!= oracle {expected.score}"
    )
    assert actual.start == expected.start
    if spec.has_traceback and expected.alignment is not None:
        assert actual.alignment.moves == expected.alignment.moves


class TestSingleBaseQuery:
    @pytest.mark.parametrize("kid", (1, 2, 3, 4, 6, 7))
    def test_one_base_query_long_reference(self, kid):
        reference = random_dna(17, seed=kid)
        _assert_engine_matches_oracle(kid, (2,), reference, n_pe=4)

    @pytest.mark.parametrize("kid", (1, 3))
    def test_one_base_both_sides(self, kid):
        _assert_engine_matches_oracle(kid, (1,), (1,), n_pe=1)
        _assert_engine_matches_oracle(kid, (1,), (3,), n_pe=8)


class TestRaggedChunks:
    @pytest.mark.parametrize("length,n_pe", ((13, 4), (7, 8), (9, 5), (31, 8)))
    def test_query_not_divisible_by_n_pe(self, length, n_pe):
        reference = random_dna(19, seed=length)
        query = random_dna(length, seed=length + 1)
        _assert_engine_matches_oracle(2, query, reference, n_pe=n_pe)

    def test_n_pe_larger_than_query(self):
        query = random_dna(3, seed=1)
        reference = random_dna(21, seed=2)
        _assert_engine_matches_oracle(4, query, reference, n_pe=16)


class TestNarrowBand:
    @pytest.mark.parametrize("kid", (11, 12))
    def test_band_narrower_than_one_chunk(self, kid):
        """With N_PE=48 > band=32, whole PEs sit outside the band."""
        spec = get_kernel(kid)
        assert spec.banding < 48
        reference = random_dna(56, seed=3)
        query = mutated_copy(reference, seed=4, error_rate=0.1)
        n = min(len(query), len(reference))
        _assert_engine_matches_oracle(kid, query[:n], reference[:n], n_pe=48)

    def test_banded_rejects_out_of_band_lengths(self):
        spec = get_kernel(11)
        with pytest.raises(ValueError, match="band"):
            align(spec, random_dna(2, seed=5), random_dna(50, seed=6), n_pe=4)


def _runtime(**overrides):
    base = dict(n_pe=8, n_b=2, n_k=2, max_query_len=64, max_ref_len=64)
    base.update(overrides)
    return DeviceRuntime(
        get_kernel(1), LaunchConfig(**base), backend="systolic"
    )


def _pairs(n, length=24):
    out = []
    for k in range(n):
        ref = random_dna(length, seed=300 + k)
        out.append((mutated_copy(ref, 400 + k)[:length], ref))
    return out


class TestBatchEdgeCases:
    @pytest.mark.parametrize("n_k", (1, 2))
    def test_empty_run_returns_empty_outcome(self, n_k):
        """run([]) is a no-op batch, whatever the kernel count."""
        outcome = _runtime(n_k=n_k).run([])
        assert outcome.results == [] and outcome.errors == []
        assert outcome.schedule.makespan_cycles == 0

    def test_single_pair_batch(self):
        outcome = _runtime().run(_pairs(1))
        assert len(outcome.results) == 1 and outcome.errors == []
        assert outcome.alignments_per_sec > 0

    @pytest.mark.parametrize("n_k", (1, 2))
    def test_poisoned_pair_does_not_lose_the_batch(self, n_k):
        """One invalid pair yields an error record; the rest align."""
        pairs = _pairs(5)
        pairs.insert(2, ((99,), (0, 1, 2)))  # symbol outside the alphabet
        outcome = _runtime(n_k=n_k).run(pairs)
        assert len(outcome.errors) == 1
        error = outcome.errors[0]
        assert error.index == 2
        assert error.error_type == "SystolicAlignmentError"
        assert outcome.results[2] is None
        assert sum(r is not None for r in outcome.results) == 5
        # The schedule only accounts for the pairs that actually ran.
        assert outcome.schedule.n_jobs == 5
