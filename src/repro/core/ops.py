"""Multi-mode operator helpers available inside ``PE_func``.

Kernel recurrences are written once and executed in three modes:

* **functional simulation** — operands are plain Python numbers; the helpers
  behave like ordinary ``max``/``min``/ternary/abs/table-indexing.
* **datapath tracing** — operands are :class:`repro.core.trace.TracedValue`;
  the helpers record the corresponding hardware operators (comparators,
  multiplexers, ROM ports) into the active
  :class:`~repro.core.trace.DatapathGraph`.
* **expression tracing** — operands are :class:`repro.core.expr.ExprValue`;
  the helpers build the dataflow DAG the compiled wavefront backend
  (:mod:`repro.backend`) lowers to vectorized NumPy.

Kernels must use :func:`select` instead of ``if``/ternary expressions on data
values and :func:`eq` instead of ``==`` on symbols, mirroring how HLS code
must express data-dependent choices as multiplexers.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core import expr as _expr
from repro.core.trace import OpKind, TracedTable, TracedValue


def _traced(*values: Any) -> TracedValue:
    """Return the first traced operand, or raise if none exist."""
    for value in values:
        if isinstance(value, TracedValue):
            return value
    raise TypeError("no traced operand")


def _is_traced(*values: Any) -> bool:
    return any(isinstance(v, TracedValue) for v in values)


def select(cond: Any, if_true: Any, if_false: Any) -> Any:
    """Hardware multiplexer: ``if_true`` when ``cond`` else ``if_false``."""
    if _expr.is_expr(cond, if_true, if_false):
        return _expr.select_expr(cond, if_true, if_false)
    if _is_traced(cond, if_true, if_false):
        probe = _traced(cond, if_true, if_false)
        graph = probe.graph
        width = max(
            (v.width for v in (if_true, if_false) if isinstance(v, TracedValue)),
            default=probe.width,
        )
        depth = max(
            (v.depth for v in (cond, if_true, if_false) if isinstance(v, TracedValue)),
            default=0.0,
        )
        out_depth = graph.record(OpKind.MUX, width, depth)
        return TracedValue(graph, width, out_depth)
    return if_true if cond else if_false


def _fold(values: Sequence[Any], plain_fn: Any) -> Any:
    """Reduce with a compare+mux tree (what max/min synthesize to)."""
    if not values:
        raise ValueError("need at least one value")
    if not _is_traced(*values):
        return plain_fn(values)
    result = values[0]
    for value in values[1:]:
        cond = _compare_traced(result, value)
        result = select(cond, result, value)
    return result


def _compare_traced(a: Any, b: Any) -> TracedValue:
    if isinstance(a, TracedValue):
        return a < b  # records one comparator
    return b < a


def vmax(*values: Any) -> Any:
    """Maximum of the operands (comparator + multiplexer tree)."""
    if _expr.is_expr(*values):
        return _expr.fold_expr(values, "maximum")
    return _fold(values, max)


def vmin(*values: Any) -> Any:
    """Minimum of the operands (comparator + multiplexer tree)."""
    if _expr.is_expr(*values):
        return _expr.fold_expr(values, "minimum")
    return _fold(values, min)


def vabs(value: Any) -> Any:
    """Absolute value (negate + multiplexer in hardware)."""
    if isinstance(value, _expr.ExprValue):
        return _expr.abs_expr(value)
    if isinstance(value, TracedValue):
        depth = value.graph.record(OpKind.ABS, value.width, value.depth)
        return TracedValue(value.graph, value.width, depth)
    return abs(value)


def eq(a: Any, b: Any) -> Any:
    """Symbol equality comparator (kernels must not use ``==`` on data)."""
    if _expr.is_expr(a, b):
        return _expr.eq_expr(a, b)
    if _is_traced(a, b):
        probe = _traced(a, b)
        width = max(
            (v.width for v in (a, b) if isinstance(v, TracedValue)),
            default=probe.width,
        )
        depth = max(
            (v.depth for v in (a, b) if isinstance(v, TracedValue)), default=0.0
        )
        out_depth = probe.graph.record(OpKind.CMP, width, depth)
        return TracedValue(probe.graph, 1, out_depth)
    return a == b


def lookup(table: Any, *indices: Any) -> Any:
    """Index a parameter table (a ROM port per runtime index in hardware)."""
    result = table
    for index in indices:
        if isinstance(result, (TracedTable, _expr.ExprTable)) or isinstance(
            index, (TracedValue, _expr.ExprValue)
        ):
            result = result[index]
        else:
            result = result[int(index)]
    return result
