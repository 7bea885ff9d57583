"""Tests for the bulk verification campaign and its substrates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import compiled_align
from repro.campaign import run_campaign
from repro.kernels import KERNELS, get_kernel
from repro.reference.classic import nw_linear, sw_linear
from repro.reference.dispatch import classic_score
from tests.conftest import mutated_copy, random_dna


def nw_linear_score(query, reference):
    """Kernel #1 on the compiled backend: the repo's vectorised NW scorer."""
    return compiled_align(get_kernel(1), query, reference).score


def sw_linear_score(query, reference):
    """Kernel #3 on the compiled backend: the vectorised SW scorer."""
    return compiled_align(get_kernel(3), query, reference).score


class TestDispatch:
    @pytest.mark.parametrize("kid", sorted(KERNELS))
    def test_every_kernel_dispatches(self, kid):
        from repro.experiments.workloads import WORKLOADS

        q, r = WORKLOADS[kid].make_pairs(1, seed=kid)[0]
        q, r = q[:20], r[:20]
        score = classic_score(kid, q, r)
        assert isinstance(score, float)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            classic_score(42, (0,), (0,))


class TestVectorized:
    @pytest.mark.parametrize("seed", range(6))
    def test_nw_matches_classic(self, seed):
        r = random_dna(20 + 5 * seed, seed)
        q = mutated_copy(r, seed + 50)
        assert nw_linear_score(q, r) == nw_linear(q, r)

    @pytest.mark.parametrize("seed", range(6))
    def test_sw_matches_classic(self, seed):
        r = random_dna(20 + 5 * seed, seed + 10)
        q = mutated_copy(r, seed + 60)
        assert sw_linear_score(q, r) == sw_linear(q, r)

    @given(
        q=st.lists(st.integers(0, 3), min_size=1, max_size=16),
        r=st.lists(st.integers(0, 3), min_size=1, max_size=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_nw_property(self, q, r):
        assert nw_linear_score(tuple(q), tuple(r)) == nw_linear(q, r)

    @given(
        q=st.lists(st.integers(0, 3), min_size=1, max_size=16),
        r=st.lists(st.integers(0, 3), min_size=1, max_size=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_sw_property(self, q, r):
        assert sw_linear_score(tuple(q), tuple(r)) == sw_linear(q, r)

    def test_asymmetric_shapes(self):
        q = random_dna(3, 1)
        r = random_dna(30, 2)
        assert nw_linear_score(q, r) == nw_linear(q, r)
        assert nw_linear_score(r, q) == nw_linear(r, q)


class TestCampaign:
    @pytest.mark.parametrize("kid", (1, 2, 5, 9, 14))
    def test_campaign_passes(self, kid):
        report = run_campaign(kid, n_pairs=4, engine_sample=1, max_length=24)
        assert report.passed, report.summary()

    def test_summary_format(self):
        report = run_campaign(3, n_pairs=2, engine_sample=1, max_length=20)
        assert "PASS" in report.summary()
        assert "local_linear" in report.summary()

    def test_invalid_pairs(self):
        with pytest.raises(ValueError):
            run_campaign(1, n_pairs=0)
