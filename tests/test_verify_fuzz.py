"""Tests for the differential fuzzing harness (repro.verify_fuzz)."""

import dataclasses

import pytest

from repro.core.spec import StartRule
from repro.kernels import get_kernel, kernel_ids
from repro.systolic.engine import align
from repro.verify_fuzz import (
    FuzzCase,
    case_failures,
    corpus_digest,
    fuzz,
    generate_case,
    make_corpus,
    run_corpus,
    shrink_case,
)


class TestGeneration:
    def test_case_is_deterministic(self):
        assert generate_case(1, 77, max_len=16) == generate_case(1, 77, max_len=16)

    def test_lengths_within_bounds(self):
        for seed in range(30):
            case = generate_case(3, seed, max_len=12)
            assert 1 <= len(case.query) <= 12
            assert 1 <= len(case.reference) <= 12

    @pytest.mark.parametrize("kid", (11, 13))
    def test_banded_global_lengths_respect_band(self, kid):
        spec = get_kernel(kid)
        assert spec.start_rule is StartRule.BOTTOM_RIGHT
        for seed in range(20):
            case = generate_case(kid, seed, max_len=24)
            assert abs(len(case.query) - len(case.reference)) <= spec.banding

    def test_every_kernel_generates(self):
        for kid in kernel_ids():
            case = generate_case(kid, case_seed=kid, max_len=10)
            assert case.kernel_id == kid
            assert case.n_pe >= 1

    def test_corpus_is_byte_identical_for_same_seed(self):
        a = make_corpus(kernels=(1, 9, 15), cases_per_kernel=4, seed=5)
        b = make_corpus(kernels=(1, 9, 15), cases_per_kernel=4, seed=5)
        assert a == b
        assert corpus_digest(a) == corpus_digest(b)

    def test_corpus_changes_with_seed(self):
        a = make_corpus(kernels=(1,), cases_per_kernel=4, seed=0)
        b = make_corpus(kernels=(1,), cases_per_kernel=4, seed=1)
        assert corpus_digest(a) != corpus_digest(b)

    def test_invalid_case_count(self):
        with pytest.raises(ValueError, match="cases_per_kernel"):
            make_corpus(cases_per_kernel=0)


class TestChecks:
    def test_clean_case_has_no_failures(self):
        case = generate_case(1, 3, max_len=16)
        assert case_failures(case) == []

    def test_engine_crash_is_a_finding(self):
        def crashing_engine(*_args, **_kwargs):
            raise RuntimeError("synthetic engine crash")

        case = generate_case(1, 3, max_len=16)
        failures = case_failures(case, align_fn=crashing_engine)
        assert [f.check for f in failures] == ["engine_exception"]
        assert "synthetic engine crash" in failures[0].detail


    def test_a_relative_score_error_of_one_in_a_million_is_reported(self):
        """The engine-vs-oracle score check is exact, not ``np.isclose``."""
        def drifting(*args, **kwargs):
            result = align(*args, **kwargs)
            return dataclasses.replace(result, score=result.score * (1 + 1e-6))

        case = generate_case(1, 3, max_len=16)
        assert drifting(get_kernel(1), case.query, case.reference).score != 0
        failures = case_failures(case, align_fn=drifting)
        assert [f.check for f in failures] == ["engine_score"]


def _buggy_align(spec, query, reference, **kwargs):
    """A fault-injected engine: misscore whenever the query has >= 3 symbols."""
    result = align(spec, query, reference, **kwargs)
    if len(query) >= 3:
        return dataclasses.replace(result, score=result.score + 1)
    return result


class TestShrinking:
    def test_forced_mismatch_shrinks_to_minimal_reproducer(self):
        corpus = [
            FuzzCase(
                kernel_id=1, case_seed=0,
                query=(0, 1, 2, 3, 0, 1, 2, 3),
                reference=(0, 1, 2, 2, 0, 1, 3, 3),
                n_pe=4,
            )
        ]
        report = run_corpus(corpus, align_fn=_buggy_align)
        assert not report.passed
        assert len(report.mismatches) == 1
        mismatch = report.mismatches[0]
        assert mismatch.failure.check == "engine_score"
        # The injected bug fires iff |Q| >= 3, so the minimal reproducer
        # is exactly a 3-symbol query against a 1-symbol reference.
        assert len(mismatch.shrunk_query) == 3
        assert len(mismatch.shrunk_reference) == 1
        assert mismatch.shrink_rounds > 0
        assert "shrunk to" in report.summary()

    def test_shrink_respects_band_constraint(self):
        spec = get_kernel(11)
        case = generate_case(11, 5, max_len=24)

        def always_fails(_candidate):
            return True

        minimal, _rounds = shrink_case(case, always_fails)
        assert abs(len(minimal.query) - len(minimal.reference)) <= spec.banding
        assert len(minimal.query) >= 1 and len(minimal.reference) >= 1

    def test_shrink_stops_at_local_minimum(self):
        case = FuzzCase(1, 0, (0, 1), (0, 1), n_pe=1)

        def never_fails(_candidate):
            return False

        minimal, rounds = shrink_case(case, never_fails)
        assert minimal == case and rounds == 0


class TestFuzzEntryPoint:
    def test_fixed_mode_counts(self):
        report = fuzz(kernels=(1, 3), cases_per_kernel=3, seed=0, max_len=10)
        assert report.total_cases == 6
        assert report.cases_by_kernel == {1: 3, 3: 3}
        assert report.passed, report.summary()

    def test_budget_mode_runs_at_least_one_round(self):
        report = fuzz(
            kernels=(1,), cases_per_kernel=1, seed=0, max_len=8,
            budget_s=0.001,
        )
        assert report.total_cases >= 1

    def test_summary_mentions_every_kernel(self):
        report = fuzz(kernels=(1, 9), cases_per_kernel=1, seed=0, max_len=8)
        assert "global_linear" in report.summary()
        assert "dtw" in report.summary()
