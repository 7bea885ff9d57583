"""Tests for KernelSpec validation and helpers."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.alphabet import DNA
from repro.core.spec import (
    EndRule,
    KernelSpec,
    Objective,
    StartRule,
    TracebackSpec,
    band_contains,
    trace_pe,
)
from repro.core.expr import ExprTable, ExprValue
from repro.hdl_types import ap_int
from repro.kernels.common import linear_tb, zero_init
from repro.kernels.global_linear import SPEC as NW_SPEC


@dataclass(frozen=True)
class _Params:
    match: int = 1
    table: tuple = ((1, 2), (3, 4))


def _pe(cell):
    return (cell.diag[0],), 0


def make_spec(**overrides):
    base = dict(
        name="toy",
        kernel_id=99,
        alphabet=DNA,
        score_type=ap_int(16),
        n_layers=1,
        objective=Objective.MAXIMIZE,
        pe_func=_pe,
        init_row=zero_init(1),
        init_col=zero_init(1),
        default_params=_Params(),
        start_rule=StartRule.BOTTOM_RIGHT,
    )
    base.update(overrides)
    return KernelSpec(**base)


class TestValidation:
    def test_minimal_spec_ok(self):
        spec = make_spec()
        assert not spec.has_traceback

    def test_bad_n_layers(self):
        with pytest.raises(ValueError):
            make_spec(n_layers=0)

    def test_bad_score_layer(self):
        with pytest.raises(ValueError):
            make_spec(score_layer=1)

    def test_bad_banding(self):
        with pytest.raises(ValueError):
            make_spec(banding=0)

    def test_traceback_requires_transition(self):
        with pytest.raises(ValueError):
            make_spec(traceback=TracebackSpec(end=EndRule.TOP_LEFT))

    def test_transition_requires_traceback(self):
        with pytest.raises(ValueError):
            make_spec(tb_transition=linear_tb)

    def test_ptr_bits_minimum(self):
        with pytest.raises(ValueError):
            make_spec(tb_ptr_bits=1)


class TestObjectiveHelpers:
    def test_max_better(self):
        spec = make_spec()
        assert spec.better(2, 1) and not spec.better(1, 2)

    def test_min_better(self):
        spec = make_spec(objective=Objective.MINIMIZE)
        assert spec.better(1, 2) and not spec.better(2, 1)

    def test_sentinel_sign(self):
        assert make_spec().sentinel() < 0
        assert make_spec(objective=Objective.MINIMIZE).sentinel() > 0

    def test_quantize_delegates(self):
        spec = make_spec()
        assert spec.quantize(70000) == ap_int(16).quantize(70000)


class TestInitValidation:
    def test_init_shape_checked(self):
        def bad_init(_params, length):
            return np.zeros((length, 2))

        spec = make_spec(init_row=bad_init)
        with pytest.raises(ValueError, match="init_row"):
            spec.init_row_scores(spec.default_params, 5)

    def test_init_ok(self):
        spec = make_spec()
        scores = spec.init_col_scores(spec.default_params, 5)
        assert scores.shape == (5, 1)


def traced_params(params):
    """The parameter mirror ``pe_func`` sees during expression tracing."""
    seen = []

    def pe(cell):
        seen.append(cell.params)
        return (cell.diag[0],), 0

    trace_pe(make_spec(pe_func=pe, default_params=params))
    return seen[0]


class TestWrapParams:
    def test_scalar_field_traced(self):
        assert isinstance(traced_params(_Params()).match, ExprValue)

    def test_table_field_traced(self):
        mirror = traced_params(_Params())
        assert isinstance(mirror.table, ExprTable)
        assert mirror.table.shape == (2, 2)

    def test_numpy_scalar_field_is_a_scalar(self):
        mirror = traced_params(_Params(match=np.int64(2)))
        assert isinstance(mirror.match, ExprValue)
        mirror = traced_params(_Params(match=np.asarray(2.5)))
        assert isinstance(mirror.match, ExprValue)

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            traced_params({"match": 1})

    def test_unsupported_field_rejected(self):
        @dataclass
        class Bad:
            thing: object = object()

        with pytest.raises(TypeError):
            traced_params(Bad())


class TestTraceDatapath:
    def test_real_kernel_traces(self):
        graph = NW_SPEC.trace_datapath()
        assert graph.critical_depth > 0

    def test_traced_once_per_spec(self):
        calls = []

        def pe(cell):
            calls.append(cell)
            return (cell.diag[0] + cell.params.match,), 0

        spec = make_spec(pe_func=pe)
        assert spec.trace_datapath() is spec.trace_datapath()
        assert trace_pe(spec) is trace_pe(spec, _Params(match=7))
        assert len(calls) == 1

    def test_layer_count_checked(self):
        spec = make_spec(n_layers=2, init_row=zero_init(2), init_col=zero_init(2))
        # _pe returns one layer but spec declares two
        with pytest.raises(ValueError, match="layers"):
            spec.trace_datapath()


class TestBandContains:
    def test_unbanded_always_true(self):
        assert band_contains(None, 0, 10**6)

    @pytest.mark.parametrize(
        "i,j,inside", [(5, 5, True), (5, 8, True), (5, 9, False), (9, 5, False)]
    )
    def test_band_boundary(self, i, j, inside):
        assert band_contains(3, i, j) is inside
