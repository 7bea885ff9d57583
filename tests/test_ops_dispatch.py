"""The dual-mode ops tell expressions from numbers by exact type.

``select``/``eq``/``vmax``/``vmin``/``lookup`` run once per cell in the
systolic engine and the row-major oracle, so their plain-mode test is
``type(v) in EXPR_TYPES`` rather than ``isinstance``.  The two are the
same test only while :class:`ExprValue` and :class:`ExprTable` have no
subclasses; these tests pin that, and that every plain numeric operand
type still takes the plain path.
"""

import numpy as np
import pytest

from repro.core import ops
from repro.core.expr import EXPR_TYPES, ExprTable, ExprValue, is_expr

PLAIN = (int, float, bool, np.int64, np.float64, np.bool_)


@pytest.mark.parametrize("base", [ExprValue, ExprTable])
def test_expression_classes_are_closed_to_subclassing(base):
    with pytest.raises(TypeError, match="closed to subclassing"):
        type("Sub", (base,), {})
    assert EXPR_TYPES == {ExprValue, ExprTable}


@pytest.mark.parametrize("kind", PLAIN, ids=(
    "int", "float", "bool", "np.int64", "np.float64", "np.bool_"))
def test_plain_operands_take_the_plain_path(kind):
    one, zero = kind(1), kind(0)
    assert not is_expr(one, zero)
    assert ops.select(one, "a", "b") == "a" and ops.select(zero, "a", "b") == "b"
    assert ops.select(True, one, zero) is one
    assert ops.select(False, one, zero) is zero
    assert ops.eq(one, one) == True and ops.eq(one, zero) == False  # noqa: E712
    assert ops.vmax(zero, one) is one and ops.vmin(zero, one) is zero
    assert ops.vabs(one) == 1
    table = ((10, 11), (12, 13))
    assert ops.lookup(table, one) == (12, 13)
    assert ops.lookup(table, one, zero) == 12
    assert ops.lookup(np.asarray(table), zero, one) == 11
    for result in (ops.select(one, one, zero), ops.eq(one, zero),
                   ops.vmax(one, zero), ops.lookup(table, one, one)):
        assert not isinstance(result, (ExprValue, ExprTable))


def test_expression_operands_still_trace():
    leaf = ExprValue.input("up[0]")
    table = ExprTable("sub", (4, 4))
    assert is_expr(1, leaf) and is_expr(table)
    for result in (ops.select(leaf, 1, 2), ops.select(True, leaf, 2),
                   ops.select(False, 1, leaf), ops.eq(leaf, 1),
                   ops.eq(1, leaf), ops.vmax(1, leaf), ops.vmin(leaf, 2),
                   ops.vabs(leaf), ops.lookup(table, 1, 2),
                   ops.lookup(table, leaf, 0)):
        assert type(result) is ExprValue
    assert ops.lookup(table, 1, 2).node.op == "gather"
