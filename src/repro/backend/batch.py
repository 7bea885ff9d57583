"""The wavefront driver: align whole batches in one compiled sweep.

``compiled_align_batch`` sweeps the anti-diagonals of B independent DP
matrices in lockstep: each diagonal of each layer is one NumPy
expression over a ``(B, wavefront)`` operand block, so the per-diagonal
dispatch overhead that dominates at service-sized lengths is amortized
over the batch.  The generated ``_pe`` (:mod:`repro.backend.compiler`)
is purely elementwise, so the batch axis folds in with no compiler
change — DP-HLS's inter-sequence PE-array packing, one level up.  It is
the *only* sweep: ``compiled_align`` is a batch of one.

**Skewed storage.**  Scores are held the way the systolic array holds
them, by anti-diagonal: cell ``(i, j)`` lives at ``[i + j, i]`` of a
per-layer ``(B, rows, Q+2)`` buffer, so on diagonal ``d`` over rows
``ilo..ihi`` every operand is a plain slice — ``up = prev[:, ilo-1:ihi]``,
``left = prev[:, ilo:ihi+1]``, ``diag = prev2[:, ilo-1:ihi]``, query
symbols ``q[:, ilo-1:ihi]``, reference symbols a slice of a once-reversed,
right-aligned copy.  No gather, no scatter.  A cell depends only on
diagonals ``d-1`` and ``d-2``, so a layer rolls through ``rows = 3``
buffers addressed ``d % rows`` (PE registers plus the preserved-row
buffer); only ``collect_matrix`` makes layers outlive the sweep, with
``rows = Q+R+1`` under the same indexing.  Pointers go to one skewed
``(B, Q+R+1, Q+2)`` array the walkers read as ``[i+j, i]``.

**Boundaries.**  Reads from diagonals ``d-1``/``d-2`` never leave their
``[ilo-1, ihi+1]`` (every bound is monotone in ``d``), so besides
writing ``ilo..ihi`` the driver pins just the two flanking cells: the
init row/column value where the flank is cell ``(0, d)`` / ``(d, 0)``
inside the pair and the band, the sentinel otherwise — what the engine's
boundary muxes and the oracle's ``neighbour()`` return out of band.

Bit-identity contract (``repro.verify_fuzz``'s batched leg and
``tests/test_backend_batch.py``): every pair's result — score *and its
Python type*, start/end cells, moves, :class:`CycleReport`, collected
matrix — equals :func:`repro.systolic.engine.align` on that pair alone,
whatever else shares its batch.  The argument:

* pairs are bucketed by ``(params identity, padded lengths)``; lengths
  round up to :data:`PAD_QUANTUM` *for grouping only* — buffers are
  sized to the members' largest actual lengths (waste is recorded in the
  ``engine.batch.*`` counters and the ``waste_frac`` gauge);
* the band range at diagonal ``d`` depends on ``d`` alone; in a *full*
  bucket (every lane as long as the buffers) it is each pair's own
  active set, and ``quantize_array`` equals the scalar ``quantize`` on
  ``int32`` buffers (when :func:`_working_dtype` proves them exact) as on
  ``float64`` ones;
* in a *ragged* bucket a shorter lane's cells with ``i > len_q`` or
  ``j > len_r`` are garbage — and unreachable: a valid cell reads
  ``(i-1, j)``, ``(i, j-1)``, ``(i-1, j-1)``, indices only decrease, so
  it never leaves its pair's ``(len_q+1, len_r+1)`` region, where all is
  the pair's init value, the sentinel, or computed from such reads.
  Nothing of a retired lane needs preserving; it still flows through
  ``_pe`` but is zeroed *before* quantizing, so wrap-mode integer
  conversion never sees values a real pair could not produce;
* the start cell is reduced inside the loop body: each lane carries
  ``(best, i, j)`` over its own live cells the start rule makes eligible,
  replaced by a strictly better score or, on an equal one, a smaller
  ``(i, j)`` — ``BestCellTracker.observe``, whatever the visiting order;
* traceback walks the pair's own pointer rows (never-written cells read
  0) over the FSM's eager transition table: all lanes in one native call
  after a native sweep, the scalar walker otherwise and for any lane the
  native walk flags, so the FSM's own error surfaces first and verbatim;
  the cycle model is closed-form per pair.

Full or ragged, ``int32`` or ``float64``: both are read off the bucket
itself, never set by a caller — see ``docs/backends.md``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import native
from repro.backend.compiler import lower, runtime_params
from repro.backend.wavefront import (
    SkewedPointers,
    assemble_matrix,
    computed_cells,
    count_cells,
    cycle_report,
    unskew,
)
from repro.core.datapath import value_bounds
from repro.core.result import Alignment, AlignmentResult
from repro.core.spec import KernelSpec, Objective, PETrace, StartRule, trace_pe
from repro.hdl_types import ApIntType
from repro.obs.recorder import get_recorder
from repro.systolic.engine import (
    TRACEBACK_SETUP_CYCLES,
    check_corner,
    validate_pair,
)
from repro.systolic.traceback import (
    MOVE_OF,
    TracebackError,
    stop_flags,
    transition_table,
    walk_traceback,
)

#: Pair lengths are rounded up to the next multiple of this to form the
#: bucket key (arrays are sized to actual lengths), so a mixed-length
#: batch lands in few buckets.  8 keeps the worst-case waste per axis
#: under one quantum (< 7 cells) while collapsing the service's
#: near-uniform length distributions into one bucket per kernel.
PAD_QUANTUM = 8


def _padded(n: int) -> int:
    """``n`` rounded up to the bucket quantum (minimum one quantum)."""
    return max(PAD_QUANTUM, -(-n // PAD_QUANTUM) * PAD_QUANTUM)


def _per_pair(value: Any, n: int, name: str, single: bool) -> List[Any]:
    """Normalize a one-or-one-per-pair knob to one value per pair."""
    if single:
        return [value] * n
    values = list(value)
    if len(values) != n:
        raise ValueError(
            f"{name} sequence has {len(values)} entries for {n} pairs"
        )
    return values


def _batch_symbols(
    spec: KernelSpec, sequences: Sequence[Sequence[Any]], pad_len: int,
    reverse: bool = False,
) -> np.ndarray:
    """Stack per-pair symbol operands into one ``(..., B, pad_len)`` array
    (struct alphabets get a leading field axis, so ``qry[k]`` is field k).

    ``reverse`` stores each sequence backwards and right-aligned, which
    turns "column ``d - i`` for ascending ``i``" into an ascending slice.
    Padding holds 0 — a valid gather index for sized alphabets, so table
    lookups on retired lanes stay in range.
    """
    alphabet = spec.alphabet
    dtype = np.intp if alphabet.size else np.float64
    fields = (len(alphabet.fields),) if alphabet.is_struct else ()
    arr = np.zeros(fields + (len(sequences), pad_len), dtype=dtype)
    for b, seq in enumerate(sequences):
        symbols = np.asarray(seq, dtype=dtype).T
        if reverse:
            arr[..., b, pad_len - len(seq) :] = symbols[..., ::-1]
        else:
            arr[..., b, : len(seq)] = symbols
    return arr


def _int_range(values: Any) -> Optional[Tuple[int, int]]:
    """(min, max) of values that are all 32-bit integers, else ``None``."""
    values = np.asarray(values, dtype=np.float64)
    if not values.size or (values != np.trunc(values)).any():
        return None
    lo, hi = values.min(), values.max()
    return (int(lo), int(hi)) if -(2.0 ** 31) <= lo and hi < 2.0 ** 31 else None


def _working_dtype(spec: KernelSpec, params: Any, init: np.ndarray) -> type:
    """``int32`` when this bucket provably computes the engine's values in
    it — an ``ap_int`` type of at most 16 bits, integral parameters and
    boundary cells (``init``: init rows/columns, the sentinel) and, inputs
    bounded by those and the type's range, every operator of the PE DAG
    within 31 bits — else ``float64``, exact for every <= 32-bit type.
    """
    score_type = spec.score_type
    if not isinstance(score_type, ApIntType) or score_type.width > 16:
        return np.float64
    ends = score_type.min_value, score_type.max_value
    cells = _int_range(np.append(init, ends))
    leaves = {f"{side}[{k}]": cells for side in ("up", "diag", "left")
              for k in range(spec.n_layers)}
    for kind, values in zip("pt", runtime_params(params, np.float64)):
        leaves.update((f"{kind}[{k!r}]", _int_range(v)) for k, v in values.items())
    exact = None not in leaves.values() and _exact(
        trace_pe(spec, params), tuple(leaves.items())
    )
    return np.int32 if exact else np.float64


@functools.lru_cache(maxsize=1024)
def _exact(trace: PETrace, leaves: Tuple[Tuple[str, Tuple[int, int]], ...]) -> bool:
    """Every operator within 31 bits?  Memoised: the interval walk costs
    more than a short native sweep, and buckets repeat few input ranges."""
    bounds = value_bounds((*trace.scores, trace.ptr), dict(leaves))
    return all(
        node.op in ("const", "in") or (b and -(1 << 30) <= b[0] and b[1] < 1 << 30)
        for node, b in bounds.items()
    )


@dataclasses.dataclass
class _Pair:
    """One validated batch member."""

    query: Sequence[Any]
    reference: Sequence[Any]
    n_rows: int
    n_cols: int
    row0: np.ndarray
    col0: np.ndarray


@dataclasses.dataclass
class _Bucket:
    """All pairs sharing (params identity, padded shape): one sweep.

    ``n_rows``/``n_cols`` are the members' largest *actual* lengths —
    the padded shape only groups pairs, it never sizes an array.
    """

    params: Any
    n_rows: int = 0
    n_cols: int = 0
    pairs: List[_Pair] = dataclasses.field(default_factory=list)
    #: per layer, skewed ``(B, rows, Q+2)``; ``rows = Q+R+1`` if kept, else 3
    work: Optional[List[np.ndarray]] = None
    ptrs: Optional[np.ndarray] = None
    #: per lane, the start cell's score and its (i, j); i < 0: no eligible cell
    best: Optional[np.ndarray] = None
    cell: Optional[np.ndarray] = None
    #: the native walk, if any: per lane its move bytes, last first, and
    #: (how many, end i, end j, whether the end rule fired)
    moves: Optional[np.ndarray] = None
    walked: Optional[np.ndarray] = None


def _sweep_bucket(
    spec: KernelSpec, bucket: _Bucket, collect_matrix: bool
) -> int:
    """Run one lockstep anti-diagonal sweep over a bucket's pairs.

    Fills ``bucket.work`` / ``ptrs`` / ``best`` / ``cell`` — and, swept
    natively, ``moves`` / ``walked`` — and returns the cells swept, padding
    included; raises only for a pointer beyond ``tb_ptr_bits`` (per-pair
    failures surface later, in submission order, during finishing).
    """
    pairs = bucket.pairs
    n_lanes = len(pairs)
    n_layers = spec.n_layers
    sentinel = spec.sentinel()
    banding = spec.banding
    n_rows, n_cols = bucket.n_rows, bucket.n_cols
    n_diags = n_rows + n_cols + 1
    rule, score_layer = spec.start_rule, spec.score_layer

    # Cells (0, d) and (d, 0) by diagonal: the pair's init row/column
    # inside the pair and the band, the sentinel everywhere else.
    init = np.full((2, n_diags, n_layers, n_lanes), float(sentinel))
    row_init, col_init = init
    for b, pair in enumerate(pairs):
        row_init[: pair.n_cols + 1, :, b] = pair.row0
        col_init[: pair.n_rows + 1, :, b] = pair.col0
    if banding is not None:
        init[:, banding + 1 :] = sentinel

    # The working dtype is read off the bucket, like ragged below, never
    # set by a caller; work[k][:, d % rows] is diagonal d of layer k.
    kernel = lower(spec, bucket.params)
    dtype = _working_dtype(spec, bucket.params, init)
    init = init.astype(dtype, copy=False)
    row_init, col_init = init
    work: List[np.ndarray] = []
    for k in range(n_layers):
        buf = np.full(
            (n_lanes, n_diags if collect_matrix else 3, n_rows + 2), sentinel, dtype
        )
        for d in (0, 1):
            buf[:, d, 0] = row_init[d, k]
            buf[:, d, d] = col_init[d, k]
        work.append(buf)
    pe = kernel.fn
    scalars, tables = runtime_params(bucket.params, dtype)
    ptrs: Optional[np.ndarray] = None
    if spec.has_traceback:  # uint8 for every registered kernel
        max_ptr = (1 << spec.tb_ptr_bits) - 1
        ptrs = np.zeros((n_lanes, n_diags, n_rows + 2), np.min_scalar_type(max_ptr))
    q_syms = _batch_symbols(spec, [pair.query for pair in pairs], n_rows)
    r_syms = _batch_symbols(
        spec, [pair.reference for pair in pairs], n_cols, reverse=True
    )
    nq = np.asarray([pair.n_rows for pair in pairs], np.int64)
    nr = np.asarray([pair.n_cols for pair in pairs], np.int64)
    # A full bucket (every lane as long as the buffers) needs no mask: the
    # diagonal range below is then exactly each pair's own active set.
    ragged = bool((nq < n_rows).any() or (nr < n_cols).any())
    row_index = np.arange(n_rows + 2)
    row_valid = row_index <= nq[:, None]
    # The running start cell of each lane: BestCellTracker.observe over the
    # lane's own eligible cells, in both loop bodies (i < 0: none seen).
    best = np.zeros(n_lanes, dtype)
    cell = np.full((n_lanes, 2), -1, np.int64)
    quantize_array = spec.score_type.quantize_array

    # No lane has a cell past its own corner's diagonal, and past
    # 2 * min(Q, R) + W every cell is below or right of the band.
    last = int((nq + nr).max())
    if banding is not None:
        last = min(last, 2 * min(n_rows, n_cols) + banding)
    check_ptr = ptrs is not None and (
        kernel.ptr_max is None or kernel.ptr_max > max_ptr
    )

    def too_wide(pointer: Any) -> ValueError:  # what TracebackMemory.write raises
        return ValueError(f"pointer {pointer} does not fit in {spec.tb_ptr_bits} bits")

    # Native or not is read off the machine, as the dtype is off the bucket:
    # a kernel whose C form was built sweeps in one call, the rest loop here.
    run = None
    if not native.loop_forced:
        if ptrs is None or ptrs.dtype == np.uint8:  # the C driver stores bytes
            run = (kernel.native or {}).get(dtype)
        # ... and reads tables unchecked: a symbol outside the alphabet (below
        # zero is huge unsigned) goes to the loop that raises as the engine does
        if run and 0 < spec.alphabet.size <= max(
            q_syms.view(np.uintp).max(), r_syms.view(np.uintp).max()
        ):
            run = None
        # metrics-only recorders hear this too
        get_recorder().count(f"engine.native.{'sweeps' if run else 'fallbacks'}")
    swept = 0
    if run is not None:
        operands = [np.ascontiguousarray(table) for table in tables.values()]
        sym = native.symbol_dtype(spec.alphabet)  # holds them: checked above
        q_syms, r_syms = (s.astype(sym, copy=False) for s in (q_syms, r_syms))
        out = np.zeros(3)
        if native.call(
            run,
            [n_lanes, n_rows, n_cols, last, -1 if banding is None else banding,
             max_ptr if check_ptr else -1, *(buf.shape[1] for buf in work)],
            [*work, init, ptrs, q_syms, r_syms, nq, nr,
             np.asarray(list(scalars.values()), dtype), best, cell, out, *operands],
        ):
            raise too_wide(out[1] if out[2] else int(out[1]))
        swept = int(out[0])
        if ptrs is not None:  # ... and walks every lane in a second
            _steps, move_of, next_state = transition_table(
                spec.tb_transition, spec.traceback.initial_state, spec.tb_ptr_bits
            )
            bucket.moves = np.empty((n_lanes, n_diags + 4), np.uint8)
            bucket.walked = np.empty((n_lanes, 4), np.int64)
            native.call(
                kernel.native["walk"],
                [n_lanes, n_rows, n_cols, move_of.shape[1], *stop_flags(spec.traceback.end)],
                [ptrs, move_of, next_state, cell, bucket.moves, bucket.walked],
            )
            get_recorder().count("engine.native.walks")
    else:
        # the corner rule is the degenerate reduction: one eligible cell a
        # lane, so only the lanes' last diagonals are looked at
        corner_diags = set((nq + nr).tolist()) if rule is StartRule.BOTTOM_RIGHT else None
        better, arg_extreme, worst = (
            (np.greater, np.argmax, -np.inf) if spec.objective is Objective.MAXIMIZE
            else (np.less, np.argmin, np.inf)
        )
        lane_index, score_buf = np.arange(n_lanes), work[score_layer]

        def observe(d: int, rows: np.ndarray, valid: np.ndarray) -> None:
            """``BestCellTracker.observe`` of cell ``(rows[b], d - rows[b])`` in
            every ``valid`` lane b: strictly better, or equal and a smaller row."""
            if not valid.any():
                return
            found = score_buf[lane_index, d % score_buf.shape[1], rows]
            take = valid & (
                (cell[:, 0] < 0) | better(found, best)
                | (~better(best, found) & (rows < cell[:, 0]))
            )
            if take.any():
                best[take] = found[take]
                cell[take] = np.stack((rows, d - rows), axis=1)[take]

        for d in range(2, last + 1):
            ilo = max(1, d - n_cols)
            ihi = min(n_rows, d - 1)
            if banding is not None:
                # |i - (d - i)| <= W  <=>  (d - W) / 2 <= i <= (d + W) / 2
                ilo = max(ilo, (d - banding + 1) // 2)
                ihi = min(ihi, (d + banding) // 2)
            cur, up, diag, left = [], [], [], []
            for k, buf in enumerate(work):
                rows = buf.shape[1]
                cur_k, prev = buf[:, d % rows], buf[:, (d - 1) % rows]
                cur_k[:, ilo - 1] = row_init[d, k]
                cur_k[:, ihi + 1] = col_init[d, k]
                cur.append(cur_k)
                up.append(prev[:, ilo - 1 : ihi])
                left.append(prev[:, ilo : ihi + 1])
                diag.append(buf[:, (d - 2) % rows, ilo - 1 : ihi])
            scores, ptr = pe(
                up, diag, left,
                q_syms[..., ilo - 1 : ihi],
                r_syms[..., n_cols - d + ilo : n_cols - d + ihi + 1],
                scalars, tables,
            )
            if ragged:
                # the per-pair  i <= len_q  and  i >= d - len_r  limits the
                # larger buffers relaxed; retired lanes are zeroed *before*
                # quantizing (see the module docstring)
                mask = row_valid[:, ilo : ihi + 1] & (
                    row_index[ilo : ihi + 1] >= d - nr[:, None]
                )
                scores = [np.where(mask, out, 0) for out in scores]
            for cur_k, out in zip(cur, scores):
                cur_k[:, ilo : ihi + 1] = quantize_array(out)
            if ptrs is not None:
                if check_ptr:  # PEs write last row first
                    bad = np.extract((ptr < 0) | (ptr > max_ptr), ptr)
                    if bad.size:
                        raise too_wide(bad[-1])
                ptrs[:, d, ilo : ihi + 1] = ptr
            if corner_diags is None or d in corner_diags:
                # reduction: the eligible ones of each lane's live rows lo..hi
                lo, hi = np.maximum(ilo, d - nr), np.minimum(ihi, nq)
                if rule is StartRule.GLOBAL_MAX:  # first of the best: smallest row
                    layer = cur[score_layer][:, ilo : ihi + 1]
                    if ragged:
                        layer = np.where(mask, layer, worst)
                    observe(d, arg_extreme(layer, axis=1) + ilo, lo <= hi)
                elif rule is StartRule.BOTTOM_RIGHT:
                    observe(d, hi, (lo == hi) & (lo == d - nr) & (hi == nq))
                else:
                    live = lo <= hi
                    if rule is StartRule.LAST_ROW_OR_COL_MAX:
                        observe(d, np.minimum(lo, hi), live & (lo == d - nr))
                    observe(d, hi, live & (hi == nq))
            swept += ihi - ilo + 1

    bucket.work, bucket.ptrs, bucket.best, bucket.cell = work, ptrs, best, cell
    return n_lanes * swept


def compiled_align_batch(
    spec: KernelSpec,
    pairs: Sequence[Tuple[Sequence[Any], Sequence[Any]]],
    params: Any = None,
    n_pe: Any = 32,
    ii: Any = 1,
    max_query_len: Optional[int] = None,
    max_ref_len: Optional[int] = None,
    collect_matrix: bool = False,
    model_interface: bool = True,
) -> List[AlignmentResult]:
    """Align a whole batch with one compiled sweep per bucket.

    ``params`` is a single ScoringParams instance for the whole batch
    (or ``None`` for the spec default) or one instance per pair;
    ``n_pe``/``ii`` likewise accept a single int or one per pair (they
    only shape the reported cycle model).  Returns results index-aligned
    with ``pairs``; validation and finishing errors raise exactly the
    exception the systolic engine would raise for the first failing
    pair in submission order.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    with get_recorder().span(  # a shared no-op when nobody is recording
        "engine.align_batch", kernel=spec.name, pairs=len(pairs),
        backend="compiled",
    ):
        return _batch_impl(
            spec, pairs, params, n_pe, ii, max_query_len, max_ref_len,
            collect_matrix, model_interface,
        )


def compiled_align(
    spec: KernelSpec,
    query: Sequence[Any],
    reference: Sequence[Any],
    params: Any = None,
    n_pe: int = 32,
    ii: int = 1,
    max_query_len: Optional[int] = None,
    max_ref_len: Optional[int] = None,
    collect_matrix: bool = False,
    model_interface: bool = True,
) -> AlignmentResult:
    """Align one pair: a batch of one through the same sweep.

    Accepts exactly the arguments of :func:`repro.systolic.engine.align`
    (``n_pe``/``ii`` only shape the reported cycle model here — the
    NumPy sweep has no PEs) and returns a bit-identical result, raising
    the same validation errors.
    """
    return compiled_align_batch(
        spec, [(query, reference)], params, n_pe, ii, max_query_len,
        max_ref_len, collect_matrix, model_interface,
    )[0]


def _batch_impl(
    spec: KernelSpec,
    pairs: List[Tuple[Sequence[Any], Sequence[Any]]],
    params: Any, n_pe: Any, ii: Any,
    max_query_len: Optional[int], max_ref_len: Optional[int],
    collect_matrix: bool, model_interface: bool,
) -> List[AlignmentResult]:
    recorder = get_recorder()
    n_pairs = len(pairs)
    if params is None:
        params = spec.default_params
    params_list = _per_pair(
        params, n_pairs, "params", dataclasses.is_dataclass(params)
    )
    ints = (int, np.integer)
    n_pe_list = _per_pair(n_pe, n_pairs, "n_pe", isinstance(n_pe, ints))
    ii_list = _per_pair(ii, n_pairs, "ii", isinstance(ii, ints))

    # Validate in submission order so the first bad pair raises exactly
    # what the engine would have raised on it alone.  Init rows depend on
    # (params, shape) only: each distinct key is evaluated and
    # corner-checked once, at its first member.  Buckets are keyed by
    # (params identity, padded shape) and swept in first-seen order;
    # ``placed`` maps submission index to (bucket, lane) one way only, so
    # no reference cycle keeps a sweep's buffers alive past this call —
    # the streaming pipeline's bounded-memory guarantee depends on them
    # dying before the next chunk allocates its own.
    inits: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}
    buckets: Dict[Tuple[int, int, int], _Bucket] = {}
    placed: List[Tuple[_Bucket, int]] = []
    for (query, reference), pair_params in zip(pairs, params_list):
        n_rows, n_cols = len(query), len(reference)
        max_q = max_query_len if max_query_len is not None else n_rows
        max_r = max_ref_len if max_ref_len is not None else n_cols
        validate_pair(spec, query, reference, max_q, max_r)
        shape = (id(pair_params), n_rows, n_cols)
        if shape not in inits:
            row0 = spec.init_row_scores(pair_params, n_cols + 1)
            col0 = spec.init_col_scores(pair_params, n_rows + 1)
            check_corner(spec, row0, col0)
            inits[shape] = (row0, col0)
        key = (id(pair_params), _padded(n_rows), _padded(n_cols))
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = _Bucket(params=pair_params)
        bucket.n_rows = max(bucket.n_rows, n_rows)
        bucket.n_cols = max(bucket.n_cols, n_cols)
        placed.append((bucket, len(bucket.pairs)))
        bucket.pairs.append(
            _Pair(query, reference, n_rows, n_cols, *inits[shape])
        )

    padded_cells = sum(
        _sweep_bucket(spec, bucket, collect_matrix)
        for bucket in buckets.values()
    )

    # Per-pair finishing in submission order: wrap what the sweep left per
    # lane (start cell, walked path), model the cycles, assemble the matrix.
    results: List[AlignmentResult] = []
    total_wavefronts = 0
    lane_cells = 0
    for index, (bucket, lane) in enumerate(placed):
        member = bucket.pairs[lane]
        n_rows, n_cols = member.n_rows, member.n_cols
        start = tuple(bucket.cell[lane].tolist())
        if start[0] < 0:
            raise TracebackError(
                f"{spec.name}: no cell satisfied start rule {spec.start_rule.value}"
            )
        score = spec.quantize(float(bucket.best[lane]))
        alignment, end, traceback_cycles = None, (0, 0), 0
        if bucket.ptrs is not None:
            walked = bucket.walked
            if walked is not None and walked[lane, 3]:
                n_moves, end_i, end_j = walked[lane, :3].tolist()
                path = bucket.moves[lane, :n_moves][::-1].tobytes()
                alignment = Alignment(
                    tuple(map(MOVE_OF.__getitem__, path)),
                    end_i, start[0], end_j, start[1],
                )
            else:  # no native walk, or one the FSM has something to say about
                if walked is not None:
                    recorder.count("engine.traceback.rewalks")
                alignment = walk_traceback(
                    spec, SkewedPointers(bucket.ptrs[lane]), start
                )
            end = (alignment.query_start, alignment.ref_start)
            traceback_cycles = (
                alignment.aligned_length + TRACEBACK_SETUP_CYCLES
            )
        cycles = cycle_report(
            spec, n_rows, n_cols, int(n_pe_list[index]), int(ii_list[index]),
            traceback_cycles, model_interface,
        )
        total_wavefronts += cycles.wavefronts
        matrix: Optional[np.ndarray] = None
        if collect_matrix:
            matrix = assemble_matrix(
                spec, member.row0, member.col0,
                [unskew(buf[lane], n_rows, n_cols) for buf in bucket.work],
                computed_cells(n_rows, n_cols, spec.banding),
            )
        if recorder.enabled:
            lane_cells += count_cells(n_rows, n_cols, spec.banding)
        results.append(AlignmentResult(
            score=score, start=start, end=end,
            alignment=alignment, cycles=cycles, matrix=matrix,
        ))

    if recorder.enabled:
        recorder.count("engine.alignments", n_pairs)
        recorder.count("engine.wavefronts", total_wavefronts)
        recorder.count("engine.cells", lane_cells)
        recorder.count("engine.cells_total{backend=compiled}", lane_cells)
        recorder.count("engine.batch.sweeps", len(buckets))
        recorder.count("engine.batch.pairs", n_pairs)
        recorder.count("engine.batch.lane_cells", lane_cells)
        recorder.count("engine.batch.padded_cells", padded_cells)
        if padded_cells:
            recorder.gauge(
                "engine.batch.waste_frac",
                1.0 - lane_cells / padded_cells,
            )
    return results
