"""Lower a ``KernelSpec``'s PE function to a vectorized NumPy kernel.

The compiler runs ``pe_func`` exactly once in expression-tracing mode
(:mod:`repro.core.expr`): every PE input — neighbour scores, query and
reference symbols, scoring parameters — is an :class:`~repro.core.expr.ExprValue`
leaf, so the single call returns the complete dataflow DAG of the
recurrence, per-layer scores and packed traceback pointer included.
The DAG is then emitted as Python source for one function

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
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.expr import ExprError, ExprTable, ExprValue, Node
from repro.core.spec import KernelSpec, PEInput


class UnsupportedSpecError(TypeError):
    """The spec uses a construct the compiled backend cannot lower."""


@dataclasses.dataclass(frozen=True)
class CompiledKernel:
    """One lowered PE function plus its generated source (for inspection)."""

    name: str
    fn: Any
    source: str
    param_signature: Tuple[Tuple[Any, ...], ...]


#: (pe_func, n_layers, alphabet identity, param signature) -> CompiledKernel.
_CACHE: Dict[Tuple, CompiledKernel] = {}


def param_signature(params: Any) -> Tuple[Tuple[Any, ...], ...]:
    """Classify parameter fields the way :func:`repro.core.spec.wrap_params`
    does: scalars become runtime dictionary entries, sequences become
    gather tables."""
    if not dataclasses.is_dataclass(params):
        raise UnsupportedSpecError(
            f"ScoringParams must be a dataclass instance, got {type(params)!r}"
        )
    signature: List[Tuple[Any, ...]] = []
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (int, float)):
            signature.append((f.name, "scalar"))
        elif isinstance(value, (list, tuple, np.ndarray)):
            signature.append((f.name, "table", np.asarray(value).shape))
        else:
            raise UnsupportedSpecError(
                f"unsupported ScoringParams field {f.name!r} of type "
                f"{type(value)!r}"
            )
    return tuple(signature)


def _expr_params(signature: Tuple[Tuple[Any, ...], ...]) -> SimpleNamespace:
    mirror: Dict[str, Any] = {}
    for entry in signature:
        name, kind = entry[0], entry[1]
        if kind == "scalar":
            mirror[name] = ExprValue.input(f"p[{name!r}]")
        else:
            mirror[name] = ExprTable(name, entry[2])
    return SimpleNamespace(**mirror)


def _expr_symbol(spec: KernelSpec, prefix: str) -> Any:
    alphabet = spec.alphabet
    if not alphabet.is_struct:
        return ExprValue.input(prefix)
    return tuple(
        ExprValue.input(f"{prefix}[{k}]")
        for k in range(len(alphabet.fields))
    )


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
    that built the DAG.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._names: Dict[int, str] = {}
        self._alive: List[Node] = []  # pin nodes so id() keys stay unique
        self._counter = 0

    def _assign(self, node: Node, text: str) -> str:
        name = f"v{self._counter}"
        self._counter += 1
        self.lines.append(f"    {name} = {text}")
        self._names[id(node)] = name
        return name

    def emit(self, node: Node) -> str:
        memo = self._names.get(id(node))
        if memo is not None:
            return memo
        self._alive.append(node)
        if node.op == "in":
            self._names[id(node)] = node.source
            return node.source
        if node.op == "const":
            text = repr(node.args[0])
            self._names[id(node)] = text
            return text
        if node.op == "gather":
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


def _operand_text(emitter: _Emitter, value: Any) -> str:
    if isinstance(value, ExprValue):
        return emitter.emit(value.node)
    if isinstance(value, (int, float, bool)):
        return repr(value)
    raise UnsupportedSpecError(
        f"PE function produced an output of type {type(value).__name__!r}"
    )


def lower(spec: KernelSpec, params: Any = None) -> CompiledKernel:
    """Trace ``spec.pe_func`` and emit its vectorized NumPy form."""
    if params is None:
        params = spec.default_params
    signature = param_signature(params)
    key = (spec.pe_func, spec.n_layers, spec.alphabet.name,
           spec.alphabet.fields, signature)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    def layer_inputs(prefix: str) -> Tuple[ExprValue, ...]:
        return tuple(
            ExprValue.input(f"{prefix}[{k}]") for k in range(spec.n_layers)
        )

    cell = PEInput(
        up=layer_inputs("up"),
        diag=layer_inputs("diag"),
        left=layer_inputs("left"),
        qry=_expr_symbol(spec, "qry"),
        ref=_expr_symbol(spec, "ref"),
        params=_expr_params(signature),
    )
    try:
        scores, ptr = spec.pe_func(cell)
    except ExprError as exc:
        raise UnsupportedSpecError(
            f"{spec.name}: PE function is outside the compiled backend's "
            f"supported surface: {exc}"
        ) from exc
    if len(scores) != spec.n_layers:
        raise UnsupportedSpecError(
            f"{spec.name}: pe_func produced {len(scores)} layers, "
            f"expected {spec.n_layers}"
        )

    emitter = _Emitter()
    score_texts = [_operand_text(emitter, s) for s in scores]
    ptr_text = _operand_text(emitter, ptr)
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
        param_signature=signature,
    )
    _CACHE[key] = compiled
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
        if isinstance(value, (int, float)):
            scalars[f.name] = value
        else:
            tables[f.name] = np.asarray(value, dtype=np.float64)
    return scalars, tables
