"""Tests for expression tracing and the datapath cost walk over its DAG."""

import pytest

from repro.core.datapath import OpKind, summarize
from repro.core.expr import ExprTable, ExprValue
from repro.core.ops import eq, lookup, select, vabs, vmax, vmin


def leaf(source="x"):
    return ExprValue.input(source)


def cost(*values, symbol_bits=None):
    """Summary of the DAG under ``values``: 16-bit leaves unless listed."""
    return summarize([v.node for v in values], 16, symbol_bits or {})


class TestTracedArithmetic:
    def test_add_records_adder(self):
        assert cost(leaf() + 3).count(OpKind.ADD) == 1

    def test_sub_records_adder(self):
        assert cost(leaf() - 3).count(OpKind.ADD) == 1

    def test_radd_from_plain(self):
        assert cost(3 + leaf()).count(OpKind.ADD) == 1

    def test_mul_records_operand_widths(self):
        g = cost(leaf("a") * leaf("b"), symbol_bits={"b": 32})
        assert g.count(OpKind.MUL) == 1
        assert g.multiplier_instances() == ((16, 32),)

    def test_mul_by_constant_is_square(self):
        for product in (leaf() * 3, 3 * leaf()):
            assert cost(product).multiplier_instances() == ((16, 16),)

    def test_neg(self):
        assert cost(-leaf()).count(OpKind.ADD) == 1

    def test_comparison_produces_one_bit(self):
        cond = leaf() < 3
        assert isinstance(cond, ExprValue)
        # a mux of two constants is as wide as its condition
        g = cost(select(cond, 1, 0))
        assert g.op_counts == {(OpKind.CMP, 16): 1, (OpKind.MUX, 1): 1}

    def test_width_propagates_max(self):
        g = cost(leaf("a") + leaf("b"), symbol_bits={"b": 24})
        assert g.op_counts == {(OpKind.ADD, 24): 1}

    def test_bool_coercion_raises(self):
        with pytest.raises(TypeError, match="select"):
            if leaf():  # noqa: SIM108 - exercising the guard
                pass

    def test_depth_accumulates(self):
        v = leaf()
        assert cost((v + 1) + 2).critical_depth == 2.0

    def test_shared_node_costed_once(self):
        shared = leaf() + 1
        assert cost(shared + shared, shared).count(OpKind.ADD) == 2

    def test_constant_operands_fold(self):
        # vmax(0, 1, x): the 0-vs-1 stage is wiring, not a comparator
        g = cost(vmax(0, 1, leaf()))
        assert g.count(OpKind.CMP) == 1 and g.count(OpKind.MUX) == 1


class TestDualModeOps:
    def test_select_plain(self):
        assert select(True, 1, 2) == 1
        assert select(False, 1, 2) == 2

    def test_select_traced_records_mux(self):
        v = leaf()
        out = select(v < 0, v, 0)
        assert isinstance(out, ExprValue)
        assert cost(out).count(OpKind.MUX) == 1

    def test_vmax_plain(self):
        assert vmax(1, 5, 3) == 5

    def test_vmin_plain(self):
        assert vmin(1, 5, 3) == 1

    def test_vmax_traced_records_cmp_mux_tree(self):
        v = leaf()
        g = cost(vmax(v, v + 1, v + 2))
        assert g.count(OpKind.CMP) == 2
        assert g.count(OpKind.MUX) == 2
        assert g.critical_depth == 1.0 + 2 * 1.5

    def test_vmax_single_value(self):
        assert vmax(7) == 7

    def test_vmax_empty_rejected(self):
        with pytest.raises(ValueError):
            vmax()

    def test_vabs_plain(self):
        assert vabs(-4) == 4

    def test_vabs_traced(self):
        assert cost(vabs(leaf())).count(OpKind.ABS) == 1

    def test_eq_plain(self):
        assert eq(2, 2) is True
        assert eq(2, 3) is False

    def test_eq_traced(self):
        g = cost(select(eq(leaf("qry"), 3), 1, 0), symbol_bits={"qry": 2})
        assert g.op_counts == {(OpKind.CMP, 2): 1, (OpKind.MUX, 1): 1}


class TestTracedTable:
    def test_constant_index_records_nothing(self):
        out = lookup(ExprTable("t", (5, 5)), 1, 2)
        assert isinstance(out, ExprValue)
        assert cost(out).count(OpKind.ROM) == 0

    def test_traced_index_records_rom(self):
        idx = leaf("qry")
        out = lookup(ExprTable("t", (5, 5)), idx, idx)
        assert isinstance(out, ExprValue)
        g = cost(out, symbol_bits={"qry": 3})
        assert g.op_counts == {(OpKind.ROM, 16): 2}
        assert g.critical_depth == 1.0

    def test_computed_index_sits_behind_its_logic(self):
        out = lookup(ExprTable("t", (5,)), leaf() + 1)
        g = cost(out + 1)
        assert g.count(OpKind.ROM) == 1
        assert g.critical_depth == 3.0  # add, ROM port, add

    def test_plain_lookup_unaffected(self):
        table = [[1, 2], [3, 4]]
        assert lookup(table, 1, 0) == 3

    def test_len(self):
        assert len(ExprTable("t", (7, 2))) == 7
        assert len(ExprTable("t", (7, 2))[0]) == 2


class TestGraphQueries:
    def test_width_weighted_count(self):
        a = leaf()
        assert cost(a + a, a + a).width_weighted_count(OpKind.ADD) == 32

    def test_critical_depth_monotone(self):
        v = leaf()
        assert cost(v + 1).critical_depth > cost(v).critical_depth == 0.0
