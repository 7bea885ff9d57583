"""Kernel specification — the DP-HLS front-end contract.

A :class:`KernelSpec` is the Python equivalent of the six front-end
customization steps in Section 4 of the paper:

1. data types and parameters  → ``alphabet``, ``score_type``, ``n_layers``,
   ``params_type``/``default_params``, ``tb_ptr_bits``, ``tb_states``,
   ``banding``
2. row/column initialization  → ``init_row`` / ``init_col``
3. the PE function            → ``pe_func``
4. the traceback strategy     → ``traceback`` + ``tb_transition``
5. parallelism (N_PE/N_B/N_K) → :class:`LaunchConfig` (runtime, not spec)
6. host-side program          → :mod:`repro.host`

Everything the back-end (:mod:`repro.systolic`, :mod:`repro.synth`) does is
derived from this object; kernel authors never touch the back-end.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.alphabet import Alphabet
from repro.core.datapath import DatapathSummary, summarize
from repro.core.expr import (
    ExprError,
    ExprTable,
    ExprValue,
    Node,
    as_node,
    is_scalar,
)
from repro.core.result import Move
from repro.hdl_types import ApFixedType, ApIntType

#: Standard traceback pointer encodings shared by all kernels.  Kernels with
#: richer pointers (affine extension flags, two-piece layers) pack extra bits
#: above these two.
TB_DIAG = 0
TB_UP = 1
TB_LEFT = 2
TB_END = 3

ScoreType = Union[ApIntType, ApFixedType]


class Objective(enum.Enum):
    """Whether the recurrence keeps the maximum or minimum (Section 2.2.2d)."""

    MAXIMIZE = "max"
    MINIMIZE = "min"


class StartRule(enum.Enum):
    """Where the traceback path starts (Section 2.2.3)."""

    BOTTOM_RIGHT = "bottom_right"          # global
    GLOBAL_MAX = "global_max"              # local
    LAST_ROW_MAX = "last_row_max"          # semi-global
    LAST_ROW_OR_COL_MAX = "last_row_or_col_max"  # overlap


class EndRule(enum.Enum):
    """Where the traceback path terminates."""

    TOP_LEFT = "top_left"                  # global: walk all the way to (0, 0)
    SENTINEL = "sentinel"                  # local: stop at a TB_END pointer
    TOP_ROW = "top_row"                    # semi-global: stop at row 0
    TOP_ROW_OR_LEFT_COL = "top_row_or_left_col"  # overlap


@dataclass(frozen=True)
class TracebackSpec:
    """Traceback termination condition plus the FSM's initial state.

    Where the traceback *starts* is the kernel's :attr:`KernelSpec.start_rule`
    — score-only kernels need it too (it defines which cell's score is
    reported), so it lives on the spec rather than here.
    """

    end: EndRule
    initial_state: int = 0


@dataclass
class PEInput:
    """Everything one processing element sees when computing cell (i, j).

    ``up``/``diag``/``left`` hold the ``n_layers`` scores of the three
    neighbouring cells; ``qry``/``ref`` are the local query and reference
    symbols (``lc_qry_val``/``lc_ref_val`` in the paper's listings);
    ``params`` is the runtime :class:`ScoringParams` instance.
    """

    up: Tuple[Any, ...]
    diag: Tuple[Any, ...]
    left: Tuple[Any, ...]
    qry: Any
    ref: Any
    params: Any


#: ``PE_func`` returns the cell's per-layer scores plus its traceback pointer.
PEOutput = Tuple[Tuple[Any, ...], int]

#: The traceback FSM: (current state, stored pointer) -> (move, next state).
TBTransition = Callable[[int, int], Tuple[Move, int]]

#: Row/column initializer: (params, length) -> array of shape (length, n_layers).
Initializer = Callable[[Any, int], np.ndarray]


@dataclass(frozen=True)
class KernelSpec:
    """A complete 2-D DP kernel description (one row of Table 1)."""

    name: str
    kernel_id: int
    alphabet: Alphabet
    score_type: ScoreType
    n_layers: int
    objective: Objective
    pe_func: Callable[[PEInput], PEOutput]
    init_row: Initializer
    init_col: Initializer
    default_params: Any
    start_rule: StartRule = StartRule.BOTTOM_RIGHT
    traceback: Optional[TracebackSpec] = None
    tb_transition: Optional[TBTransition] = None
    tb_ptr_bits: int = 2
    tb_states: Tuple[str, ...] = ("MM",)
    score_layer: int = 0
    banding: Optional[int] = None
    description: str = ""
    applications: Tuple[str, ...] = ()
    reference_tools: Tuple[str, ...] = ()
    modifications: str = "N/A"

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if not 0 <= self.score_layer < self.n_layers:
            raise ValueError(
                f"score_layer {self.score_layer} out of range for "
                f"{self.n_layers} layers"
            )
        if self.banding is not None and self.banding < 1:
            raise ValueError(f"banding width must be >= 1, got {self.banding}")
        if (self.traceback is None) != (self.tb_transition is None):
            raise ValueError(
                "traceback and tb_transition must be provided together "
                "(or both omitted for score-only kernels)"
            )
        if self.tb_ptr_bits < 2:
            raise ValueError("traceback pointers need at least 2 bits")

    # ------------------------------------------------------------------
    # objective helpers
    # ------------------------------------------------------------------
    @property
    def has_traceback(self) -> bool:
        """Whether the kernel recovers an alignment path."""
        return self.traceback is not None

    def sentinel(self) -> float:
        """The boundary value standing in for -inf (max) / +inf (min)."""
        if self.objective is Objective.MAXIMIZE:
            return self.score_type.sentinel_low()
        return self.score_type.sentinel_high()

    def better(self, a: float, b: float) -> bool:
        """Whether score ``a`` beats score ``b`` under the objective."""
        if self.objective is Objective.MAXIMIZE:
            return a > b
        return a < b

    def quantize(self, value: float) -> float:
        """Snap a score onto the kernel's hardware number grid."""
        return self.score_type.quantize(value)

    # ------------------------------------------------------------------
    # initialization helpers
    # ------------------------------------------------------------------
    def init_row_scores(self, params: Any, length: int) -> np.ndarray:
        """Evaluate and validate ``init_row`` (cells (0, j), j in [0, length))."""
        return self._init("init_row", self.init_row, params, length)

    def init_col_scores(self, params: Any, length: int) -> np.ndarray:
        """Evaluate and validate ``init_col`` (cells (i, 0), i in [0, length))."""
        return self._init("init_col", self.init_col, params, length)

    def _init(
        self, label: str, fn: Initializer, params: Any, length: int
    ) -> np.ndarray:
        scores = np.asarray(fn(params, length), dtype=float)
        if scores.shape != (length, self.n_layers):
            raise ValueError(
                f"{self.name}: {label} produced shape {scores.shape}, "
                f"expected ({length}, {self.n_layers})"
            )
        return scores

    # ------------------------------------------------------------------
    # datapath summary (consumed by the synthesis models)
    # ------------------------------------------------------------------
    def trace_datapath(self) -> DatapathSummary:
        """Operator counts, widths and logic depth of ``pe_func``'s DAG."""
        trace = trace_pe(self)
        key = (trace, self.score_type.width, self.alphabet.storage_bits)
        if key not in _SUMMARIES:
            symbol_bits = {}
            for prefix in ("qry", "ref"):
                symbol_bits[prefix] = self.alphabet.storage_bits
                for k, (_name, bits) in enumerate(self.alphabet.fields):
                    symbol_bits[f"{prefix}[{k}]"] = bits
            _SUMMARIES[key] = summarize(
                (*trace.scores, trace.ptr), self.score_type.width, symbol_bits
            )
        return _SUMMARIES[key]


#: One entry per ScoringParams field: ``(name, "scalar")`` or
#: ``(name, "table", shape)``.
ParamSignature = Tuple[Tuple[Any, ...], ...]


def param_signature(params: Any) -> ParamSignature:
    """Classify parameter fields: numbers (NumPy 0-d ones included) are
    runtime scalars, sequences and arrays are lookup tables."""
    if not dataclasses.is_dataclass(params):
        raise ExprError(
            f"ScoringParams must be a dataclass instance, got {type(params)!r}"
        )
    signature: List[Tuple[Any, ...]] = []
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if is_scalar(value):
            signature.append((f.name, "scalar"))
        elif isinstance(value, (list, tuple, np.ndarray)):
            signature.append((f.name, "table", np.asarray(value).shape))
        else:
            raise ExprError(
                f"unsupported ScoringParams field {f.name!r} of type "
                f"{type(value)!r}"
            )
    return tuple(signature)


@dataclass(frozen=True, eq=False)
class PETrace:
    """The output roots of one symbolic ``pe_func`` run, as DAG nodes."""

    scores: Tuple[Node, ...]
    ptr: Node
    signature: ParamSignature


#: (pe_func, n_layers, alphabet identity, param signature) -> PETrace.
_TRACES: Dict[Tuple, PETrace] = {}
#: (trace, score width, symbol storage bits) -> its cost summary.
_SUMMARIES: Dict[Tuple, DatapathSummary] = {}


def trace_pe(spec: KernelSpec, params: Any = None) -> PETrace:
    """Run ``spec.pe_func`` once over :class:`ExprValue` inputs.

    The only place ``pe_func`` sees symbolic operands: the synthesis models
    (:meth:`KernelSpec.trace_datapath`) and the compiled backend
    (:func:`repro.backend.compiler.lower`) both read the memoised result.
    Leaves are named as the generated code addresses them: ``up[k]``,
    ``qry`` or ``qry[k]`` for struct symbols, ``p['name']`` for scalar
    parameters; array parameters become :class:`ExprTable` ROMs.
    """
    signature = param_signature(
        spec.default_params if params is None else params
    )
    alphabet = spec.alphabet
    key = (spec.pe_func, spec.n_layers, alphabet.name, alphabet.fields,
           signature)
    cached = _TRACES.get(key)
    if cached is not None:
        return cached
    leaf = ExprValue.input

    def bundle(prefix: str, n: int) -> Tuple[ExprValue, ...]:
        return tuple(leaf(f"{prefix}[{k}]") for k in range(n))

    mirror = {
        entry[0]: leaf(f"p[{entry[0]!r}]") if entry[1] == "scalar"
        else ExprTable(entry[0], entry[2])
        for entry in signature
    }
    n, fields = spec.n_layers, len(alphabet.fields)
    scores, ptr = spec.pe_func(PEInput(
        up=bundle("up", n), diag=bundle("diag", n), left=bundle("left", n),
        qry=bundle("qry", fields) if fields else leaf("qry"),
        ref=bundle("ref", fields) if fields else leaf("ref"),
        params=SimpleNamespace(**mirror),
    ))
    if len(scores) != n:
        raise ValueError(
            f"{spec.name}: pe_func produced {len(scores)} layers, expected {n}"
        )
    # setdefault: racing threads agree on one trace (lower() memoises on it)
    return _TRACES.setdefault(key, PETrace(
        tuple(as_node(s) for s in scores), as_node(ptr), signature
    ))


def band_contains(banding: Optional[int], i: int, j: int) -> bool:
    """Whether matrix cell (i, j) lies inside the fixed band (|i-j| <= W)."""
    if banding is None:
        return True
    return abs(i - j) <= banding
