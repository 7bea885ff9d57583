"""Tests for the kernel verification harness."""

from dataclasses import replace

import pytest

from repro.experiments.workloads import WORKLOADS
from repro.kernels import KERNELS, get_kernel
from repro.verify import verify_kernel


def small_pairs(kid, n=2, length=24):
    pairs = WORKLOADS[kid].make_pairs(n, seed=kid)
    return [(q[:length], r[:length]) for q, r in pairs]


class TestVerifyKernel:
    def test_correct_kernel_passes(self):
        report = verify_kernel(get_kernel(2), small_pairs(2), n_pe_values=(1, 4))
        assert report.passed
        assert report.runs == 4
        assert "PASS" in report.summary()

    def test_score_only_kernel_passes(self):
        report = verify_kernel(get_kernel(12), small_pairs(12), n_pe_values=(3,))
        assert report.passed

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            verify_kernel(get_kernel(1), [])

    def test_broken_kernel_detected(self):
        """A deliberately wrong PE function must produce failures."""
        base = get_kernel(1)

        def broken_pe(cell):
            scores, ptr = base.pe_func(cell)
            # corrupt the recurrence: forget the gap candidate from above
            from repro.core.spec import TB_DIAG, TB_LEFT
            from repro.kernels.common import pick_best, substitution

            p = cell.params
            match = cell.diag[0] + substitution(
                cell.qry, cell.ref, p.match, p.mismatch
            )
            ins = cell.left[0] + p.linear_gap
            return pick_best([(match, TB_DIAG), (ins, TB_LEFT)]), 0

        broken = replace(base, name="broken", pe_func=lambda c: (
            (broken_pe(c)[0][0],), broken_pe(c)[1]
        ))
        # broken vs *its own* oracle still matches (same spec!), so verify
        # against the oracle of the original kernel by comparing scores.
        from repro.reference import oracle_align
        from repro.systolic import align

        q, r = small_pairs(1, n=1)[0]
        assert align(broken, q, r, n_pe=4).score != \
            oracle_align(base, q, r).score

    def test_failure_detail_names_the_backend_under_test(self, monkeypatch):
        """A compiled-backend mismatch must not blame the systolic engine."""
        import repro.backend

        real = repro.backend.BACKENDS["compiled"]

        def off_by_one(*args, **kwargs):
            result = real(*args, **kwargs)
            return replace(result, score=result.score + 1)

        monkeypatch.setitem(repro.backend.BACKENDS, "compiled", off_by_one)
        report = verify_kernel(
            get_kernel(1), small_pairs(1, n=1), n_pe_values=(4,),
            backend="compiled",
        )
        (failure,) = report.failures
        assert failure.check == "score"
        assert failure.detail.startswith("compiled "), failure.detail

    def test_a_relative_score_error_of_one_in_a_million_is_reported(
        self, monkeypatch
    ):
        """The engine-vs-oracle score check is exact, not ``np.isclose``."""
        import repro.backend

        real = repro.backend.BACKENDS["systolic"]

        def drifting(*args, **kwargs):
            result = real(*args, **kwargs)
            return replace(result, score=result.score * (1 + 1e-6))

        monkeypatch.setitem(repro.backend.BACKENDS, "systolic", drifting)
        pairs = small_pairs(1, n=1)
        assert real(get_kernel(1), *pairs[0], n_pe=4).score != 0
        report = verify_kernel(get_kernel(1), pairs, n_pe_values=(4,))
        assert [f.check for f in report.failures] == ["score"]

    def test_all_kernels_verify_quickly(self):
        """One tiny pair per kernel through the harness."""
        for kid in sorted(KERNELS):
            pairs = [
                (q[:16], r[:16]) for q, r in WORKLOADS[kid].make_pairs(1, seed=kid)
            ]
            report = verify_kernel(KERNELS[kid], pairs, n_pe_values=(3,))
            assert report.passed, report.summary()
