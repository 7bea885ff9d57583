"""Datapath cost summary of a PE expression DAG.

The HLS compiler derives a kernel's logic resources, initiation interval and
achievable clock frequency from the structure of the user's ``PE_func``.
:func:`summarize` reproduces that step with one walk over the DAG
:func:`repro.core.spec.trace_pe` built: every node becomes the adder,
comparator, multiplier, multiplexer or ROM port it synthesizes to, sized by
the widest non-constant operand and placed at an abstract logic depth.

The summary is consumed by :mod:`repro.synth.resources` (operator counts ×
bit-widths → LUT/FF/DSP) and :mod:`repro.synth.timing` (critical-path depth →
initiation interval and Fmax).  :func:`value_bounds` is the other walk: every
node's integer range, which sizes the compiled backend's dtype and pointers.
"""

from __future__ import annotations

import enum
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.expr import Node


class OpKind(enum.Enum):
    """The operator classes the resource/timing models distinguish."""

    ADD = "add"          # adders and subtractors
    MUL = "mul"          # multipliers (mapped to DSP blocks)
    CMP = "cmp"          # magnitude/equality comparators
    MUX = "mux"          # 2:1 multiplexers (select / max / min selection)
    ABS = "abs"          # absolute value (negate + mux)
    ROM = "rom"          # table lookup (substitution matrices, emissions)


#: Abstract propagation delay of each operator class, in "logic levels".
#: These are relative numbers: a ripple/carry-lookahead add is the unit,
#: a multiplier costs several levels, a mux half of one.
OP_DEPTH: Dict[OpKind, float] = {
    OpKind.ADD: 1.0,
    OpKind.MUL: 3.0,
    OpKind.CMP: 1.0,
    OpKind.MUX: 0.5,
    OpKind.ABS: 1.5,
    OpKind.ROM: 1.0,
}

#: Node operators that synthesize to exactly one operator of their width.
_SINGLE = {"add": OpKind.ADD, "sub": OpKind.ADD, "neg": OpKind.ADD,
           "mul": OpKind.MUL, "abs": OpKind.ABS, "eq": OpKind.CMP,
           "lt": OpKind.CMP, "le": OpKind.CMP, "gt": OpKind.CMP,
           "ge": OpKind.CMP}


@dataclass
class DatapathSummary:
    """Operator statistics of one ``PE_func`` evaluation."""

    #: (kind, width) -> number of operator instances
    op_counts: Counter = field(default_factory=Counter)
    #: deepest path (in abstract logic levels) through any produced value
    critical_depth: float = 0.0
    #: operand-width pairs of every multiplier (sized individually for DSPs)
    mults: List[Tuple[int, int]] = field(default_factory=list)

    def count(self, kind: OpKind) -> int:
        """Total instances of one operator class across all widths."""
        return sum(n for (k, _w), n in self.op_counts.items() if k is kind)

    def width_weighted_count(self, kind: OpKind) -> int:
        """Sum of (instances × bit-width) for one operator class."""
        return sum(n * w for (k, w), n in self.op_counts.items() if k is kind)

    def multiplier_instances(self) -> Tuple[Tuple[int, int], ...]:
        """Operand-width pairs (wa, wb) of every multiplier instance."""
        return tuple(self.mults)


def summarize(
    roots: Iterable[Node], score_bits: int, symbol_bits: Mapping[str, int]
) -> DatapathSummary:
    """Cost every node reachable from ``roots`` exactly once.

    ``in`` leaves are ``symbol_bits[source]`` wide when listed there (query
    and reference symbols or struct fields) and ``score_bits`` otherwise
    (neighbour scores, scalar parameters); table entries are ``score_bits``
    wide.  Constants have no width: an operator is sized by its non-constant
    operands, and one whose operands are all constant is itself a constant.
    """
    summary = DatapathSummary()
    #: node -> (width or None for a constant, depth at its output)
    seen: Dict[Node, Tuple[Optional[int], float]] = {}

    def record(kind: OpKind, width: int, depth: float) -> float:
        summary.op_counts[(kind, width)] += 1
        depth += OP_DEPTH[kind]
        summary.critical_depth = max(summary.critical_depth, depth)
        return depth

    def visit(node: Node) -> Tuple[Optional[int], float]:
        if node not in seen:
            seen[node] = cost(node)
        return seen[node]

    def cost(node: Node) -> Tuple[Optional[int], float]:
        op = node.op
        if op == "in":
            return symbol_bits.get(node.source, score_bits), 0.0
        if op == "const":
            return None, 0.0
        operands = [visit(arg) for arg in node.args]
        if op == "gather":
            # One ROM port per runtime index, each at its index's depth;
            # the entry leaves the port of the last dimension.
            depth = 0.0
            for width, index_depth in operands:
                depth = 0.0 if width is None else record(
                    OpKind.ROM, score_bits, index_depth
                )
            return score_bits, depth
        live = [(w, d) for w, d in operands if w is not None]
        if not live:
            return None, 0.0
        width = max(w for w, _d in live)
        depth = max(d for _w, d in live)
        if op == "where":  # sized by its arms; a constant pair by the condition
            width = max((w for w, _d in operands[1:] if w is not None),
                        default=width)
            return width, record(OpKind.MUX, width, depth)
        if op in ("maximum", "minimum"):  # compare, then select the winner
            depth = record(OpKind.CMP, width, depth)
            return width, record(OpKind.MUX, width, depth)
        if op == "mul":
            summary.mults.append(
                tuple(w or width for w, _d in operands)  # constant: (w, w)
            )
        kind = _SINGLE[op]  # a comparator's result is one bit
        return 1 if kind is OpKind.CMP else width, record(kind, width, depth)

    for root in roots:
        visit(root)
    return summary


#: Closed integer range ``(lo, hi)``; ``None``: not provably an integer.
Bounds = Optional[Tuple[int, int]]
#: Node operators whose result is one bit.
COMPARISONS = tuple(op for op, kind in _SINGLE.items() if kind is OpKind.CMP)
#: Monotone or bilinear in each operand: extremes sit at the operands' ends.
_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "neg": operator.neg, "abs": abs, "maximum": max, "minimum": min}


def value_bounds(
    roots: Iterable[Node], leaves: Mapping[str, Bounds]
) -> Dict[Node, Bounds]:
    """Interval arithmetic over every node reachable from ``roots``.

    ``leaves`` bounds the inputs by the text the generated code addresses
    them with (``up[0]``, ``p['match']``, ``t['matrix']`` for a table's
    entries); the rest are unbounded, as are float constants and whatever
    is built on either.  A comparison is 0 or 1 whatever it compares.
    """
    found: Dict[Node, Bounds] = {}

    def visit(node: Node) -> Bounds:
        if node in found:
            return found[node]
        op, ends = node.op, None
        operands = [visit(arg) for arg in node.args if isinstance(arg, Node)]
        if op == "const" and isinstance(node.args[0], int):
            ends = node.args
        elif op in ("in", "gather"):
            ends = leaves.get(node.source if op == "in" else f"t[{node.source!r}]")
        elif op in COMPARISONS:
            ends = (0, 1)
        elif op == "where" and None not in operands[1:]:
            ends = operands[1] + operands[2]  # either arm, whatever the condition
        elif op in _ARITHMETIC and None not in operands:
            ends = [_ARITHMETIC[op](*at) for at in itertools.product(*operands)]
            if op == "abs" and operands[0][0] < 0 < operands[0][1]:
                ends.append(0)
        found[node] = ends and (min(ends), max(ends))
        return found[node]

    for root in roots:
        visit(root)
    return found
