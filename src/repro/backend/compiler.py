"""Lower a ``KernelSpec``'s PE function to a vectorized NumPy kernel.

The compiler reads the expression DAG :func:`repro.core.spec.trace_pe`
built by running ``pe_func`` once over :class:`~repro.core.expr.ExprValue`
leaves — neighbour scores, query and reference symbols, scoring
parameters — the same DAG the synthesis models cost.  Its roots (per-layer
scores and the packed traceback pointer) are emitted as Python source for
one function

    def _pe(up, diag, left, qry, ref, p, t): ...

whose operands are whole *anti-diagonals* (NumPy arrays) instead of
scalars; ``exec`` turns it into the callable
:mod:`repro.backend.batch` sweeps over the matrix.  Because the
emitted expression tree has exactly the shape the scalar engine
evaluates (same operator order, same float64 arithmetic, same
``np.where`` tie behaviour as ``select``), the results are bit-identical
— the contract ``repro.verify_fuzz`` enforces as a three-way
differential.

Specs outside the supported surface (non-dataclass params, table
lookups indexed by *computed* values rather than symbols or constants)
raise :class:`UnsupportedSpecError` at compile time; see
``docs/backends.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.expr import ExprError, Node, is_scalar
from repro.core.spec import KernelSpec, ParamSignature, PETrace, trace_pe


class UnsupportedSpecError(TypeError):
    """The spec uses a construct the compiled backend cannot lower."""


@dataclasses.dataclass(frozen=True)
class CompiledKernel:
    """One lowered PE function plus its generated source (for inspection)."""

    name: str
    fn: Any
    source: str
    param_signature: ParamSignature


#: PETrace (one per pe_func × layers × alphabet × param signature) ->
#: CompiledKernel.
_CACHE: Dict[PETrace, CompiledKernel] = {}


_BINARY = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "lt": "({} < {})",
    "le": "({} <= {})",
    "gt": "({} > {})",
    "ge": "({} >= {})",
    "eq": "({} == {})",
    "maximum": "np.maximum({}, {})",
    "minimum": "np.minimum({}, {})",
}
_UNARY = {"abs": "np.abs({})", "neg": "(-{})"}


class _Emitter:
    """Post-order DAG walk assigning one statement per distinct node.

    The memo is keyed by node identity, so shared subexpressions — the
    running ``best`` of a compare-select cascade, a squared difference
    used twice — are computed once, exactly like the scalar evaluation
    that built the DAG.  Leaves and constants are named by their text.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._names: Dict[Node, str] = {}

    def _assign(self, node: Node, text: str) -> str:
        name = self._names[node] = f"v{len(self.lines)}"
        self.lines.append(f"    {name} = {text}")
        return name

    def emit(self, node: Node) -> str:
        memo = self._names.get(node)
        if memo is not None:
            return memo
        if node.op == "in":
            return node.source
        if node.op == "const":
            return repr(node.args[0])
        if node.op == "gather":
            if any(arg.op not in ("in", "const") for arg in node.args):
                raise UnsupportedSpecError(
                    f"table {node.source!r} indexed by a computed expression; "
                    f"the compiled backend only supports symbol or constant "
                    f"table indices"
                )
            idx = ", ".join(self.emit(arg) for arg in node.args)
            return self._assign(node, f"t[{node.source!r}][{idx}]")
        if node.op == "where":
            cond, a, b = (self.emit(arg) for arg in node.args)
            return self._assign(node, f"np.where({cond}, {a}, {b})")
        if node.op in _BINARY:
            a, b = (self.emit(arg) for arg in node.args)
            return self._assign(node, _BINARY[node.op].format(a, b))
        if node.op in _UNARY:
            (a,) = (self.emit(arg) for arg in node.args)
            return self._assign(node, _UNARY[node.op].format(a))
        raise UnsupportedSpecError(f"cannot lower node op {node.op!r}")


def lower(spec: KernelSpec, params: Any = None) -> CompiledKernel:
    """Emit the vectorized NumPy form of ``spec.pe_func``'s traced DAG."""
    try:
        trace = trace_pe(spec, params)
    except (ExprError, ValueError) as exc:
        raise UnsupportedSpecError(
            f"{spec.name}: PE function is outside the compiled backend's "
            f"supported surface: {exc}"
        ) from exc
    cached = _CACHE.get(trace)
    if cached is not None:
        return cached

    emitter = _Emitter()
    score_texts = [emitter.emit(node) for node in trace.scores]
    ptr_text = emitter.emit(trace.ptr)
    source = "\n".join(
        [
            "def _pe(up, diag, left, qry, ref, p, t):",
            *emitter.lines,
            f"    return ({', '.join(score_texts)},), {ptr_text}",
        ]
    )
    namespace: Dict[str, Any] = {"np": np}
    exec(compile(source, f"<compiled:{spec.name}>", "exec"), namespace)
    compiled = CompiledKernel(
        name=spec.name,
        fn=namespace["_pe"],
        source=source,
        param_signature=trace.signature,
    )
    _CACHE[trace] = compiled
    return compiled


def prewarm(spec: KernelSpec, params: Any = None) -> bool:
    """Compile ``spec`` now so the first request doesn't pay for lowering.

    Returns ``True`` when the spec lowered (or was already cached) and
    ``False`` when it is outside the compiled surface — callers on the
    serving ready path treat that as "this kernel stays on the systolic
    backend", not as an error.
    """
    try:
        lower(spec, params)
    except UnsupportedSpecError:
        return False
    return True


def runtime_params(params: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a ScoringParams instance into (scalar dict, table dict)."""
    scalars: Dict[str, Any] = {}
    tables: Dict[str, Any] = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if is_scalar(value):
            scalars[f.name] = value
        else:
            tables[f.name] = np.asarray(value, dtype=np.float64)
    return scalars, tables
