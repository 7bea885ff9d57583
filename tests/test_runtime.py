"""Tests for the DeviceRuntime host API."""

import pytest

from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.kernels.global_linear import ScoringParams
from repro.synth import LaunchConfig
from tests.conftest import mutated_copy, random_dna


def small_config(**overrides):
    base = dict(n_pe=8, n_b=2, n_k=2, max_query_len=64, max_ref_len=64)
    base.update(overrides)
    return LaunchConfig(**base)


def pairs(n, length=40):
    out = []
    for k in range(n):
        ref = random_dna(length, seed=100 + k)
        out.append((mutated_copy(ref, 200 + k)[:length], ref))
    return out


class TestDeviceRuntime:
    def test_run_single_pair(self):
        runtime = DeviceRuntime(get_kernel(1), small_config())
        q, r = pairs(1)[0]
        outcome = runtime.run([(q, r)])
        assert outcome.results[0].alignment is not None
        assert outcome.errors == []

    def test_run_results_and_performance(self):
        runtime = DeviceRuntime(get_kernel(1), small_config())
        outcome = runtime.run(pairs(8))
        assert len(outcome.results) == 8
        assert outcome.alignments_per_sec > 0
        assert 0 < outcome.utilization <= 1.0

    def test_batch_uses_all_blocks(self):
        narrow = DeviceRuntime(get_kernel(1), small_config(n_b=1, n_k=1))
        wide = DeviceRuntime(get_kernel(1), small_config(n_b=2, n_k=2))
        batch = pairs(16)
        slow = narrow.run(batch)
        fast = wide.run(batch)
        assert fast.alignments_per_sec > 2 * slow.alignments_per_sec

    def test_workers_is_keyword_only(self):
        runtime = DeviceRuntime(get_kernel(1), small_config())
        with pytest.raises(TypeError):
            runtime.run(pairs(1), 2)  # noqa: B026 - the point of the test

    def test_custom_params(self):
        harsh = ScoringParams(match=1, mismatch=-9, linear_gap=-9)
        default_rt = DeviceRuntime(get_kernel(1), small_config())
        harsh_rt = DeviceRuntime(get_kernel(1), small_config(), params=harsh)
        q, r = pairs(1)[0]
        harsh_score = harsh_rt.run([(q, r)]).results[0].score
        default_score = default_rt.run([(q, r)]).results[0].score
        assert harsh_score <= default_score

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            DeviceRuntime(
                get_kernel(8), LaunchConfig(n_pe=32, n_b=16, n_k=8)
            )

    def test_over_length_pair_isolated(self):
        """A too-long pair becomes a structured error, not an abort."""
        runtime = DeviceRuntime(get_kernel(1), small_config())
        long_pair = pairs(1, length=100)[0]
        outcome = runtime.run([long_pair])
        assert outcome.results == [None]
        assert len(outcome.errors) == 1
        assert "tiling" in outcome.errors[0].message

    def test_empty_run_is_a_noop(self):
        """run([]) returns an empty outcome (the service batcher may
        legitimately flush nothing)."""
        runtime = DeviceRuntime(get_kernel(1), small_config())
        outcome = runtime.run([])
        assert outcome.results == []
        assert outcome.errors == []
        assert outcome.schedule.makespan_cycles == 0
        assert outcome.utilization == 0.0
        assert outcome.alignments_per_sec == 0.0

    def test_ii_propagates_from_synthesis(self):
        runtime = DeviceRuntime(
            get_kernel(9), small_config(n_b=1, n_k=1)
        )
        from repro.data.signals import random_complex_signal, warp_signal

        ref = random_complex_signal(32, seed=1)
        qry = warp_signal(ref, seed=2)[:32]
        result = runtime.run([(qry, ref)]).results[0]
        assert result.cycles.ii == 4  # DTW's multiplier-bound II


class TestRunOptions:
    """``run`` takes the batch and nothing else."""

    def test_unknown_kwarg_rejected(self):
        runtime = DeviceRuntime(get_kernel(1), small_config())
        with pytest.raises(TypeError, match="unexpected keyword"):
            runtime.run(pairs(1), wrokers=2)

    def test_per_call_backend_override_is_bit_identical(self):
        # the backend is decided once, at construction: one runtime each
        batch = pairs(3)
        systolic, compiled = (
            DeviceRuntime(get_kernel(1), small_config(), backend=name).run(batch)
            for name in ("systolic", "compiled")
        )
        assert [r.score for r in systolic.results] == [
            r.score for r in compiled.results
        ]
        assert [r.alignment.cigar for r in systolic.results] == [
            r.alignment.cigar for r in compiled.results
        ]

    def test_deleted_shims_are_gone(self):
        runtime = DeviceRuntime(get_kernel(1), small_config())
        for name in ("align_one", "align_batch", "submit"):
            assert not hasattr(runtime, name)
