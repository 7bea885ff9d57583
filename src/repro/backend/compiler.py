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
:mod:`repro.backend.batch` sweeps over the matrix.  The emitted
expressions are the scalar engine's, in its operator order, after the two
value-preserving rewrites HLS makes of the same source: a select between
the operands of its own comparison is one ``np.maximum``/``np.minimum``
(equal on a tie; only the sign of a float zero can differ, which nothing
observes), and a pointer that is provably byte-sized arithmetic on
comparison results runs in ``uint8``.  The source names no dtype — scores
take that of the driver's buffers and :func:`runtime_params` operands —
so one ``_pe`` serves ``int32`` and ``float64`` buckets, bit-identical to
the engine: the contract ``repro.verify_fuzz`` enforces as a three-way
differential.

Specs outside the supported surface (non-dataclass params, table
lookups indexed by *computed* values rather than symbols or constants)
raise :class:`UnsupportedSpecError` at compile time; see
``docs/backends.md``.
"""

from __future__ import annotations

import dataclasses
import re
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.backend import native
from repro.core.datapath import COMPARISONS, value_bounds
from repro.core.expr import ExprError, Node, is_scalar
from repro.core.spec import KernelSpec, ParamSignature, PETrace, trace_pe
from repro.obs.recorder import get_recorder


class UnsupportedSpecError(TypeError):
    """The spec uses a construct the compiled backend cannot lower."""


@dataclasses.dataclass(frozen=True)
class CompiledKernel:
    """One lowered PE function plus its generated source (for inspection)."""

    name: str
    fn: Any
    source: str
    param_signature: ParamSignature
    #: static upper bound of the traceback pointer; ``None`` if unprovable
    ptr_max: Optional[int] = None
    #: the native translation unit; ``None`` for an op outside the C dialect
    c_source: Optional[str] = None
    #: working dtype -> native sweep entry point, ``"walk"`` -> the traceback
    #: walker; ``None``: the NumPy loop
    native: Optional[Dict[Any, Any]] = None
    #: why ``native`` is ``None``
    native_off: Optional[str] = None


#: (PETrace — one per pe_func × layers × alphabet × param signature —, score
#: type, alphabet size, and what else the native unit is built for: start
#: rule, objective, score layer) -> CompiledKernel, and the lock its one
#: build holds.
_CACHE: Dict[Tuple, CompiledKernel] = {}
_LOCKS: Dict[Tuple, threading.Lock] = {}


_ARITHMETIC = {
    "add": "({} + {})", "sub": "({} - {})", "mul": "({} * {})", "neg": "(-{})",
    "lt": "({} < {})", "le": "({} <= {})", "gt": "({} > {})",
    "ge": "({} >= {})", "eq": "({} == {})",
}
_OPERATORS = (*_ARITHMETIC, "maximum", "minimum", "abs")


def _c_literal(value: Any) -> str:
    """``long long`` or ``double``: literal arithmetic is 64-bit, as NumPy's."""
    if isinstance(value, float) and not np.isfinite(value):
        raise UnsupportedSpecError(f"no C literal for {value!r}")
    return repr(value) if isinstance(value, float) else f"{int(value)}LL"


#: The emitter's two dialects: a template per operator, for a statement and
#: for a table entry, and what a leaf and a literal read as.  The C one
#: leaves operand types to the compiler (``__auto_type``): for these
#: operands C's promotion computes the values NumPy's does.
_NUMPY = {
    **_ARITHMETIC,
    "maximum": "np.maximum({}, {})", "minimum": "np.minimum({}, {})",
    "abs": "np.abs({})", "where": "np.where({}, {}, {})",
    "bit": "{}.view(np.uint8)", "stmt": "    {} = {}",
    "leaf": str, "const": repr, "gather": "t[{!r}][{}]",
}
_C = {
    **_ARITHMETIC,
    "maximum": "MAXIMUM({}, {})", "minimum": "MINIMUM({}, {})",
    "abs": "ABS({})", "where": "({} ? {} : {})",
    "bit": "{}", "stmt": "                const __auto_type {} = {};",
    "leaf": lambda source: re.sub(r"\['(\w+)'\]", r"_\1", source),  # p_match
    "const": _c_literal, "gather": "t_{}[{}]",
}


#: comparison -> what ``where(cmp(x, y), x, y)`` and, arms swapped,
#: ``where(cmp(x, y), y, x)`` compute.
_FUSED = {"gt": ("maximum", "minimum"), "ge": ("maximum", "minimum"),
          "lt": ("minimum", "maximum"), "le": ("minimum", "maximum")}


def _same(a: Node, b: Node) -> bool:
    """One node, or two constants of one value (``v < 0`` / ``select(.., 0, v)``)."""
    return a is b or (a.op == b.op == "const" and a.args == b.args)


class _Emitter:
    """Post-order DAG walk assigning one statement per distinct node.

    The memo is keyed by node identity, so shared subexpressions — the
    running ``best`` of a compare-select cascade, a squared difference
    used twice — are computed once, exactly like the scalar evaluation
    that built the DAG.  Leaves and constants are named by their text.
    A select in ``packed`` (see :func:`lower`) is ``uint8`` arithmetic.
    The C dialect is given the table ``shapes`` and the alphabet ``size``:
    its indices are flattened, and must provably stay inside the table.
    """

    def __init__(self, packed: Set[Node], dialect: Dict[str, Any] = _NUMPY,
                 shapes: Optional[Dict[str, Tuple[int, ...]]] = None,
                 size: int = 0) -> None:
        self.lines: List[str] = []
        self._names: Dict[Node, str] = {}
        self._packed = packed
        self._dialect = dialect
        self._shapes = shapes
        self._size = size

    def _assign(self, node: Node, text: str) -> str:
        name = self._names[node] = f"v{len(self.lines)}"
        self.lines.append(self._dialect["stmt"].format(name, text))
        return name

    def _where(self, node: Node) -> str:
        cond, a, b = node.args
        if cond.op in _FUSED:
            x, y = cond.args
            for fused, (p, q) in zip(_FUSED[cond.op], ((x, y), (y, x))):
                if _same(a, p) and _same(b, q):
                    return self._dialect[fused].format(self.emit(x), self.emit(y))
        cond_text, a_text, b_text = (self.emit(arg) for arg in node.args)
        if node in self._packed and cond.op in COMPARISONS:
            bit = self._dialect["bit"].format(cond_text)
            if b.op != "const":  # exact modulo 2**8, which the result is inside
                return f"({b_text} + {bit} * ({a_text} - {b_text}))"
            if b.args[0] == 0:
                return bit if a.args[0] == 1 else f"{bit} * {a_text}"
        return self._dialect["where"].format(cond_text, a_text, b_text)

    def _gather(self, node: Node) -> str:
        if any(arg.op not in ("in", "const") for arg in node.args):
            raise UnsupportedSpecError(
                f"table {node.source!r} indexed by a computed expression; "
                f"the compiled backend only supports symbol or constant "
                f'table indices (backend="systolic" runs this spec)'
            )
        texts = [self.emit(arg) for arg in node.args]
        if self._shapes is None:
            return self._dialect["gather"].format(node.source, ", ".join(texts))
        index = ""  # C neither wraps nor raises: no index may leave the table
        for arg, text, n in zip(node.args, texts, self._shapes[node.source]):
            if not (0 <= arg.args[0] < n if arg.op == "const" else 0 < self._size <= n):
                raise UnsupportedSpecError(
                    f"table {node.source!r}: index {text} is not provably in range"
                )
            index = f"({index} * {n} + {text})" if index else text
        return self._dialect["gather"].format(node.source, index)

    def emit(self, node: Node) -> str:
        memo = self._names.get(node)
        if memo is not None:
            return memo
        if node.op == "in":
            return self._dialect["leaf"](node.source)
        if node.op == "const":
            return self._dialect["const"](node.args[0])
        if node.op == "gather":
            return self._assign(node, self._gather(node))
        if node.op == "where":
            return self._assign(node, self._where(node))
        if node.op in _OPERATORS:
            texts = [self.emit(arg) for arg in node.args]
            return self._assign(node, self._dialect[node.op].format(*texts))
        raise UnsupportedSpecError(f"cannot lower node op {node.op!r}")


def lower(spec: KernelSpec, params: Any = None) -> CompiledKernel:
    """Emit the vectorized NumPy form of ``spec.pe_func``'s traced DAG and,
    where this machine can build it, the native sweep around its C form."""
    try:
        trace = trace_pe(spec, params)
    except (ExprError, ValueError) as exc:
        raise UnsupportedSpecError(
            f"{spec.name}: PE function is outside the compiled backend's "
            f"supported surface: {exc}"
        ) from exc
    key = (trace, spec.score_type, spec.alphabet.size,
           spec.start_rule, spec.objective, spec.score_layer)
    # Single flight per key: racing prewarms (pool replicas, pipeline stage
    # threads) agree on one exec and, more to the point, one compiler run.
    cached = _CACHE.get(key)
    if cached is None:
        with _LOCKS.setdefault(key, threading.Lock()):
            cached = _CACHE.get(key)
            if cached is None:
                cached = _CACHE[key] = _lower(spec, trace)
    return cached


def _lower(spec: KernelSpec, trace: PETrace) -> CompiledKernel:
    # Leaf-free bounds hold whatever the parameters.  If everything from the
    # pointer down to its comparisons has one inside a byte, uint8 is exact.
    bounds = value_bounds([trace.ptr], {})
    packed: Set[Node] = set()
    stack = [trace.ptr]
    while stack:
        node = stack.pop()
        packed.add(node)
        if node.op not in (*COMPARISONS, "const"):  # below them: scores
            stack.extend(node.args)
    if any(not (b and 0 <= b[0] <= b[1] < 256) for b in map(bounds.get, packed)):
        packed.clear()
    ptr_bounds = bounds[trace.ptr]
    emitter = _Emitter(packed)
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

    # The same walk in the C dialect, spliced into the native driver.
    c_source = entries = native_off = None
    try:
        emitter = _Emitter(
            packed, _C, {e[0]: e[2] for e in trace.signature if e[1] == "table"},
            spec.alphabet.size,
        )
        score_texts = [emitter.emit(node) for node in trace.scores]
        c_source = native.translation_unit(
            spec, trace.signature, emitter.lines, score_texts, emitter.emit(trace.ptr)
        )
        entries = native.load(c_source)
    except (UnsupportedSpecError, native.NativeUnavailable) as exc:
        native_off = str(exc)
    # decided here, once per process: the sweeps themselves only count
    get_recorder().gauge(f"engine.native{{kernel={spec.name}}}", int(bool(entries)))
    return CompiledKernel(
        name=spec.name,
        fn=namespace["_pe"],
        source=source,
        param_signature=trace.signature,
        ptr_max=ptr_bounds[1] if ptr_bounds and ptr_bounds[0] >= 0 else None,
        c_source=c_source,
        native=entries,
        native_off=native_off,
    )


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


def runtime_params(params: Any, dtype: type) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a ScoringParams instance into (scalar dict, table dict), typed
    ``dtype`` so ``_pe`` stays in the sweep's working dtype."""
    scalars: Dict[str, Any] = {}
    tables: Dict[str, Any] = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if is_scalar(value):
            scalars[f.name] = dtype(value)
        else:
            tables[f.name] = np.asarray(value, dtype=dtype)
    return scalars, tables
