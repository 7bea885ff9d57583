"""The PE expression DAG — the one symbolic form of a ``PE_func``.

:mod:`repro.core.ops` runs kernel recurrences in two modes: functional
simulation (plain numbers) and expression tracing.  In the second every
PE input is an :class:`ExprValue` leaf, and each arithmetic operator,
comparison and :mod:`~repro.core.ops` helper applied to one builds a
:class:`Node` in a shared DAG instead of computing a number.
:func:`repro.core.spec.trace_pe` runs ``pe_func`` once that way and keeps
the output roots — per-layer scores and the packed traceback pointer.

Both back-ends read that one DAG: :mod:`repro.core.datapath` walks it for
the operator counts, bit-widths and logic depth the synthesis models
(:mod:`repro.synth`) cost, and :mod:`repro.backend.compiler` emits it as
a vectorized NumPy function over whole anti-diagonals.

Kernels must not branch on data (``__bool__`` raises): they use
:func:`~repro.core.ops.select` instead of ``if`` and
:func:`~repro.core.ops.eq` instead of ``==``.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np


class ExprError(TypeError):
    """A ``pe_func`` construct that has no node in the expression DAG."""


def is_scalar(value: Any) -> bool:
    """A plain number or a NumPy 0-d one (``np.int64(2)``, ``np.asarray(2.0)``)."""
    return isinstance(value, (int, float, np.number)) or (
        isinstance(value, np.ndarray) and value.ndim == 0
    )


class Node:
    """One operator (or leaf) of a traced PE expression DAG.

    ``in`` leaves carry a source string (``up[0]``, ``qry``, ``p['match']``);
    ``gather`` nodes index the parameter table named by ``source``.

    Nodes are identity-hashed: the emitter assigns one NumPy statement per
    distinct node, so values reused by the recurrence (the running ``best``
    of a compare-select cascade, say) are computed exactly once — the DAG
    *is* the common-subexpression structure.
    """

    __slots__ = ("op", "args", "source")

    def __init__(self, op: str, args: Tuple[Any, ...] = (),
                 source: Optional[str] = None):
        self.op = op
        self.args = args
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "in":
            return f"Node(in:{self.source})"
        if self.op == "const":
            return f"Node(const:{self.args[0]!r})"
        return f"Node({self.op}, {len(self.args)} args)"


def const(value: Any) -> Node:
    """A literal operand (gap penalties folded into the recurrence, tags)."""
    if not is_scalar(value):
        raise ExprError(
            f"cannot trace constant of type {type(value).__name__!r}; "
            f"PE functions may only mix expressions with plain numbers"
        )
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.item()
    return Node("const", (value,))


def as_node(value: Any) -> Node:
    """Coerce an operand (ExprValue or plain number) to a DAG node."""
    if isinstance(value, ExprValue):
        return value.node
    return const(value)


def _closed(cls: type) -> None:
    raise TypeError(f"{cls.__name__}: ExprValue and ExprTable are closed to subclassing")


class ExprValue:
    """A symbolic scalar flowing through ``PE_func`` during expr tracing."""

    __slots__ = ("node",)
    __init_subclass__ = classmethod(_closed)

    def __init__(self, node: Node):
        self.node = node

    # -- construction helpers -----------------------------------------

    @classmethod
    def input(cls, source: str) -> "ExprValue":
        """A PE input leaf (``up[0]``, ``qry``, ``p['match']``, ...)."""
        return cls(Node("in", (), source=source))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Any) -> "ExprValue":
        return apply("add", self, other)

    def __radd__(self, other: Any) -> "ExprValue":
        return apply("add", other, self)

    def __sub__(self, other: Any) -> "ExprValue":
        return apply("sub", self, other)

    def __rsub__(self, other: Any) -> "ExprValue":
        return apply("sub", other, self)

    def __mul__(self, other: Any) -> "ExprValue":
        return apply("mul", self, other)

    def __rmul__(self, other: Any) -> "ExprValue":
        return apply("mul", other, self)

    def __neg__(self) -> "ExprValue":
        return apply("neg", self)

    def __abs__(self) -> "ExprValue":
        return apply("abs", self)

    # -- comparisons (strict semantics match the scalar engine) --------

    def __lt__(self, other: Any) -> "ExprValue":
        return apply("lt", self, other)

    def __le__(self, other: Any) -> "ExprValue":
        return apply("le", self, other)

    def __gt__(self, other: Any) -> "ExprValue":
        return apply("gt", self, other)

    def __ge__(self, other: Any) -> "ExprValue":
        return apply("ge", self, other)

    # NOTE: __eq__ is deliberately *not* overloaded.  Kernels must use
    # ops.eq() for symbol equality; leaving the default identity semantics
    # keeps ExprValue hashable and catches accidental `==` on data.

    def __bool__(self) -> bool:
        raise ExprError(
            "PE functions must not branch on data values; use "
            "repro.core.ops.select(cond, a, b) instead of if/and/or so "
            "the datapath stays a multiplexer"
        )


def apply(op: str, *operands: Any) -> ExprValue:
    """The ``op`` node over ``operands`` (expressions or plain numbers)."""
    return ExprValue(Node(op, tuple(as_node(v) for v in operands)))


def fold(op: str, values: Tuple[Any, ...]) -> ExprValue:
    """Chained binary max/min — value-equivalent to Python max()/min()."""
    result = values[0]
    for value in values[1:]:
        result = apply(op, result, value)
    return result


class ExprTable:
    """A parameter table (ROM) being indexed during expr tracing.

    Supports the partial-indexing protocol :func:`repro.core.ops.lookup`
    uses (``table[i0][i1]...``): each ``__getitem__`` consumes one
    dimension; once every dimension is indexed the result collapses to an
    :class:`ExprValue` gather node.  An index may be any expression: the
    synthesis models cost one ROM port per runtime index, while the
    compiled backend lowers symbol or constant indices only (see
    docs/backends.md).
    """

    __slots__ = ("name", "shape", "indices")
    __init_subclass__ = classmethod(_closed)

    def __init__(self, name: str, shape: Tuple[int, ...],
                 indices: Tuple[Any, ...] = ()):
        self.name = name
        self.shape = shape
        self.indices = indices

    def __len__(self) -> int:
        return self.shape[len(self.indices)]

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, ExprValue):
            idx = index.node
        elif isinstance(index, (int, bool)):
            idx = const(int(index))
        else:
            raise ExprError(
                f"table {self.name!r} indexed by {type(index).__name__!r}"
            )
        consumed = self.indices + (idx,)
        if len(consumed) == len(self.shape):
            return ExprValue(Node("gather", consumed, source=self.name))
        return ExprTable(self.name, self.shape, consumed)


#: Closed to subclassing, so ``type(v) in EXPR_TYPES`` is an isinstance test.
EXPR_TYPES = frozenset((ExprValue, ExprTable))


def is_expr(*values: Any) -> bool:
    """Whether any operand is part of an expression trace."""
    for value in values:
        if type(value) in EXPR_TYPES:
            return True
    return False
