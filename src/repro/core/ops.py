"""Dual-mode operator helpers available inside ``PE_func``.

Kernel recurrences are written once and executed in two modes:

* **functional simulation** — operands are plain Python numbers; the helpers
  behave like ordinary ``max``/``min``/ternary/abs/table-indexing.
* **expression tracing** — operands are :class:`repro.core.expr.ExprValue`;
  the helpers build the dataflow DAG that both the synthesis cost model
  (:mod:`repro.core.datapath`: comparators, multiplexers, ROM ports) and
  the compiled wavefront backend (:mod:`repro.backend`) read.

Kernels must use :func:`select` instead of ``if``/ternary expressions on data
values and :func:`eq` instead of ``==`` on symbols, mirroring how HLS code
must express data-dependent choices as multiplexers.
"""

from __future__ import annotations

from typing import Any

from repro.core import expr as _expr
from repro.core.expr import EXPR_TYPES


def select(cond: Any, if_true: Any, if_false: Any) -> Any:
    """Hardware multiplexer: ``if_true`` when ``cond`` else ``if_false``."""
    if (type(cond) in EXPR_TYPES or type(if_true) in EXPR_TYPES
            or type(if_false) in EXPR_TYPES):
        return _expr.apply("where", cond, if_true, if_false)
    return if_true if cond else if_false


def vmax(*values: Any) -> Any:
    """Maximum of the operands (comparator + multiplexer tree)."""
    if _expr.is_expr(*values):
        return _expr.fold("maximum", values)
    return max(values)


def vmin(*values: Any) -> Any:
    """Minimum of the operands (comparator + multiplexer tree)."""
    if _expr.is_expr(*values):
        return _expr.fold("minimum", values)
    return min(values)


def vabs(value: Any) -> Any:
    """Absolute value (negate + multiplexer in hardware)."""
    if type(value) is _expr.ExprValue:
        return _expr.apply("abs", value)
    return abs(value)


def eq(a: Any, b: Any) -> Any:
    """Symbol equality comparator (kernels must not use ``==`` on data)."""
    if type(a) in EXPR_TYPES or type(b) in EXPR_TYPES:
        return _expr.apply("eq", a, b)
    return a == b


def lookup(table: Any, *indices: Any) -> Any:
    """Index a parameter table (a ROM port per runtime index in hardware)."""
    result = table
    for index in indices:
        if type(result) is _expr.ExprTable or type(index) is _expr.ExprValue:
            result = result[index]
        else:
            result = result[int(index)]
    return result
