"""The wavefront driver: align whole batches in one compiled sweep.

``compiled_align_batch`` packs B independent alignments into 3D working
arrays ``(n_layers, B, Q+1, R+1)`` and sweeps all B DP matrices'
anti-diagonals in lockstep: each diagonal of each layer is a single
NumPy expression over a ``(B, wavefront)`` operand block, so the
per-diagonal Python/NumPy dispatch overhead that dominates at
service-sized lengths is amortized over the whole batch.  The generated
``_pe`` from :mod:`repro.backend.compiler` is purely elementwise
(``np.where``/``maximum``/arithmetic/table gathers), so the batch axis
folds in by reshaping operands — no compiler change.

This is the inter-sequence parallelism of the DP-HLS PE-array packing,
applied one level up: instead of many PEs per pair, many pairs per
sweep.  It is also the *only* sweep: ``compiled_align`` is a batch of
one through the same loop.

Why one working matrix per pair suffices: cell (i, j) on diagonal
``d = i + j`` depends only on diagonals ``d-1`` (up/left) and ``d-2``
(diag), so a matrix written in ``d`` order always reads finished
values.  Banding is applied by *storage* masking — out-of-band cells,
and init row/column cells beyond the band, hold the sentinel, which is
exactly what the engine's boundary muxes and the oracle's
``neighbour()`` return for out-of-band reads — and quantization uses
the score type's ``quantize_array``, bit-identical to the scalar
``quantize`` applied per cell.

Bit-identity contract (enforced by ``repro.verify_fuzz``'s batched leg
and ``tests/test_backend_batch.py``): for every pair, the returned
:class:`~repro.core.result.AlignmentResult` — score *and its Python
type*, start/end cells, traceback moves, :class:`CycleReport`, collected
matrix — equals :func:`repro.systolic.engine.align` on that pair alone,
whatever else shares its batch.  The argument is:

* pairs are bucketed by ``(params identity, padded lengths)``; lengths
  are rounded up to :data:`PAD_QUANTUM` multiples *for grouping only*,
  so mixed-length batches share buckets, while each bucket's arrays are
  sized to its members' largest actual lengths (waste recorded via the
  ``engine.batch.*`` counters and the ``engine.batch.waste_frac`` gauge);
* in a *full* bucket — every lane exactly as long as the arrays, the
  batch-of-one and uniform-length serving shapes — the band range at
  diagonal ``d`` is each pair's own active set and results are written
  unmasked;
* in a *ragged* bucket that range intersected with the per-pair validity
  mask ``(i <= len_q) & (j <= len_r)`` is *exactly* the pair's own
  active set: the larger arrays only relax the ``i >= d - n_cols`` /
  ``i <= n_rows`` limits, and the mask restores them, while the banding
  clip depends on ``d`` alone;
* valid cells' neighbour reads never leave the pair's own region
  (indices only decrease), and every cell there holds the per-pair
  value: init row/column are written per pair, out-of-band cells are
  sentinel-pinned, and masked writes never touch cells outside a pair's
  active set;
* lanes that are masked out on a diagonal (shorter pairs retiring
  early) still flow through ``_pe`` — on zeroed garbage that is
  discarded by the masked write, so quantization never sees values a
  real pair could not produce;
* the start-cell argmax runs on each pair's own ``(len_q+1, len_r+1)``
  slice, where row-major order is the same (i, j)-lexicographic order
  as a single-pair matrix, preserving the smallest-(i, j) tie break;
* traceback walks each pair's own pointer slice; the cycle model is
  closed-form per pair (``n_pe``/``ii`` may vary across the batch).

Which branch runs is read off the bucket's own lengths, never set by a
caller — see ``docs/backends.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.compiler import lower, runtime_params
from repro.backend.wavefront import (
    _DensePointerStore,
    assemble_matrix,
    cycle_report,
    select_start,
)
from repro.core.result import AlignmentResult
from repro.core.spec import KernelSpec
from repro.obs.recorder import Recorder, get_recorder
from repro.systolic.engine import (
    TRACEBACK_SETUP_CYCLES,
    check_corner,
    validate_pair,
)
from repro.systolic.traceback import walk_traceback

#: Pair lengths are rounded up to the next multiple of this to form the
#: bucket key (arrays are sized to actual lengths), so a mixed-length
#: batch lands in few buckets.  8 keeps the worst-case waste per axis
#: under one quantum (< 7 cells) while collapsing the service's
#: near-uniform length distributions into one bucket per kernel.
PAD_QUANTUM = 8


def _padded(n: int) -> int:
    """``n`` rounded up to the bucket quantum (minimum one quantum)."""
    return max(PAD_QUANTUM, -(-n // PAD_QUANTUM) * PAD_QUANTUM)


def _per_pair(value: Any, n: int, name: str) -> List[int]:
    """Normalize an int-or-sequence knob to one int per pair."""
    if isinstance(value, (int, np.integer)):
        return [int(value)] * n
    values = [int(v) for v in value]
    if len(values) != n:
        raise ValueError(
            f"{name} sequence has {len(values)} entries for {n} pairs"
        )
    return values


def _batch_symbols(
    spec: KernelSpec, sequences: Sequence[Sequence[Any]], pad_len: int
) -> Any:
    """Stack per-pair symbol operands into (B, pad_len) arrays.

    Shorter lanes' tails hold 0 — a valid gather index for sized alphabets, so
    table lookups on masked-out lanes stay in range.
    """
    alphabet = spec.alphabet
    if alphabet.is_struct:
        fields = []
        for k in range(len(alphabet.fields)):
            arr = np.zeros((len(sequences), pad_len), dtype=np.float64)
            for b, seq in enumerate(sequences):
                arr[b, : len(seq)] = [symbol[k] for symbol in seq]
            fields.append(arr)
        return tuple(fields)
    dtype = np.intp if alphabet.size else np.float64
    arr = np.zeros((len(sequences), pad_len), dtype=dtype)
    for b, seq in enumerate(sequences):
        arr[b, : len(seq)] = np.asarray(seq, dtype=dtype)
    return arr


def _take_batch(symbols: Any, idx: np.ndarray) -> Any:
    if isinstance(symbols, tuple):
        return tuple(field[:, idx] for field in symbols)
    return symbols[:, idx]


@dataclasses.dataclass
class _Pair:
    """One validated batch member plus its bucket coordinates."""

    query: Sequence[Any]
    reference: Sequence[Any]
    n_rows: int
    n_cols: int
    row0: np.ndarray
    col0: np.ndarray
    params: Any
    bucket: Optional["_Bucket"] = None
    lane: int = -1


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
    work: Optional[np.ndarray] = None
    ptrs: Optional[np.ndarray] = None
    computed: Optional[np.ndarray] = None
    lane_cells: int = 0
    padded_cells: int = 0


def _sweep_bucket(spec: KernelSpec, bucket: _Bucket) -> None:
    """Run one lockstep anti-diagonal sweep over a bucket's pairs.

    Fills ``bucket.work`` / ``bucket.ptrs`` / ``bucket.computed`` with
    per-pair-identical contents; never raises for a well-formed bucket
    (per-pair failures surface later, in submission order, during
    finishing).
    """
    n_lanes = len(bucket.pairs)
    n_layers = spec.n_layers
    sentinel = float(spec.sentinel())
    banding = spec.banding
    n_rows, n_cols = bucket.n_rows, bucket.n_cols

    # Working matrices: float64 everywhere (exact for the <= 32-bit score
    # types), out-of-band cells pinned at the sentinel so neighbour reads
    # need no masking of their own.
    work = np.full(
        (n_layers, n_lanes, n_rows + 1, n_cols + 1), sentinel,
        dtype=np.float64,
    )
    for b, pair in enumerate(bucket.pairs):
        work[:, b, 0, : pair.n_cols + 1] = pair.row0.T
        work[:, b, : pair.n_rows + 1, 0] = pair.col0.T
        if banding is not None:
            work[:, b, 0, banding + 1 :] = sentinel
            work[:, b, banding + 1 :, 0] = sentinel

    ptrs: Optional[np.ndarray] = None
    if spec.has_traceback:
        ptrs = np.zeros((n_lanes, n_rows + 1, n_cols + 1), dtype=np.int64)
    computed = np.zeros((n_lanes, n_rows + 1, n_cols + 1), dtype=bool)

    compiled = lower(spec, bucket.params)
    scalars, tables = runtime_params(bucket.params)
    q_syms = _batch_symbols(
        spec, [pair.query for pair in bucket.pairs], n_rows
    )
    r_syms = _batch_symbols(
        spec, [pair.reference for pair in bucket.pairs], n_cols
    )
    nq = np.asarray([pair.n_rows for pair in bucket.pairs])[:, None]
    nr = np.asarray([pair.n_cols for pair in bucket.pairs])[:, None]
    # A full bucket (every lane as long as the arrays) needs no mask: the
    # diagonal range below is then exactly each pair's own active set.
    ragged = bool((nq < n_rows).any() or (nr < n_cols).any())
    quantize_array = spec.score_type.quantize_array
    pe = compiled.fn

    padded_cells = 0
    for d in range(2, n_rows + n_cols + 1):
        ilo = max(1, d - n_cols)
        ihi = min(n_rows, d - 1)
        if banding is not None:
            # |i - (d - i)| <= W  <=>  (d - W) / 2 <= i <= (d + W) / 2
            ilo = max(ilo, (d - banding + 1) // 2)
            ihi = min(ihi, (d + banding) // 2)
        if ilo > ihi:
            continue
        i = np.arange(ilo, ihi + 1)
        j = d - i
        shape = (n_lanes, len(i))
        mask = None
        if ragged:
            # restores the per-pair  i >= d - n_cols  and  i <= n_rows
            # limits the bucket's larger arrays relaxed; masked lanes are
            # shorter pairs that already retired on this diagonal
            mask = (i[None, :] <= nq) & (j[None, :] <= nr)
            if not mask.any():
                continue
        i1, j1 = i - 1, j - 1
        up = tuple(work[k][:, i1, j] for k in range(n_layers))
        diag = tuple(work[k][:, i1, j1] for k in range(n_layers))
        left = tuple(work[k][:, i, j1] for k in range(n_layers))
        scores, ptr = pe(
            up, diag, left,
            _take_batch(q_syms, i1), _take_batch(r_syms, j1),
            scalars, tables,
        )
        for k in range(n_layers):
            out_k = np.broadcast_to(
                np.asarray(scores[k], dtype=np.float64), shape
            )
            if mask is None:
                work[k][:, i, j] = quantize_array(out_k)
            else:
                # zero the discarded lanes *before* quantizing so wrap-mode
                # int conversion never sees values a real pair cannot reach
                quantized = quantize_array(np.where(mask, out_k, 0.0))
                work[k][:, i, j] = np.where(mask, quantized, work[k][:, i, j])
        if ptrs is not None:
            ptr_b = np.broadcast_to(np.asarray(ptr), shape)
            if mask is not None:
                ptr_b = np.where(mask, ptr_b, ptrs[:, i, j])
            ptrs[:, i, j] = ptr_b
        computed[:, i, j] = True if mask is None else mask
        padded_cells += n_lanes * len(i)

    bucket.work = work
    bucket.ptrs = ptrs
    bucket.computed = computed
    bucket.lane_cells = int(np.count_nonzero(computed))
    bucket.padded_cells = padded_cells


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
    recorder = get_recorder()
    pairs = list(pairs)
    if not pairs:
        return []
    if not recorder.enabled:
        return _batch_impl(
            spec, pairs, params, n_pe, ii, max_query_len, max_ref_len,
            collect_matrix, model_interface, recorder,
        )
    with recorder.span(
        "engine.align_batch", kernel=spec.name, pairs=len(pairs),
        backend="compiled",
    ):
        return _batch_impl(
            spec, pairs, params, n_pe, ii, max_query_len, max_ref_len,
            collect_matrix, model_interface, recorder,
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
    params: Any,
    n_pe: Any,
    ii: Any,
    max_query_len: Optional[int],
    max_ref_len: Optional[int],
    collect_matrix: bool,
    model_interface: bool,
    recorder: Recorder,
) -> List[AlignmentResult]:
    n_pairs = len(pairs)
    if params is None:
        params_list: List[Any] = [spec.default_params] * n_pairs
    elif dataclasses.is_dataclass(params):
        params_list = [params] * n_pairs
    else:
        params_list = list(params)
        if len(params_list) != n_pairs:
            raise ValueError(
                f"params sequence has {len(params_list)} entries for "
                f"{n_pairs} pairs"
            )
    n_pe_list = _per_pair(n_pe, n_pairs, "n_pe")
    ii_list = _per_pair(ii, n_pairs, "ii")

    # Validate in submission order so the first bad pair raises exactly
    # what the engine would have raised on it alone.
    members: List[_Pair] = []
    for (query, reference), pair_params in zip(pairs, params_list):
        n_rows, n_cols = len(query), len(reference)
        max_q = max_query_len if max_query_len is not None else n_rows
        max_r = max_ref_len if max_ref_len is not None else n_cols
        validate_pair(spec, query, reference, max_q, max_r)
        row0 = spec.init_row_scores(pair_params, n_cols + 1)
        col0 = spec.init_col_scores(pair_params, n_rows + 1)
        check_corner(spec, row0, col0)
        members.append(_Pair(
            query=query, reference=reference,
            n_rows=n_rows, n_cols=n_cols,
            row0=row0, col0=col0, params=pair_params,
        ))

    # Bucket by (params identity, padded shape); insertion order keeps
    # the sweep sequence deterministic.
    param_slots: Dict[int, int] = {}
    buckets: Dict[Tuple[int, int, int], _Bucket] = {}
    for member in members:
        slot = param_slots.setdefault(id(member.params), len(param_slots))
        key = (slot, _padded(member.n_rows), _padded(member.n_cols))
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = _Bucket(params=member.params)
        bucket.n_rows = max(bucket.n_rows, member.n_rows)
        bucket.n_cols = max(bucket.n_cols, member.n_cols)
        member.bucket = bucket
        member.lane = len(bucket.pairs)
        bucket.pairs.append(member)

    for bucket in buckets.values():
        _sweep_bucket(spec, bucket)

    # Per-pair finishing in submission order (start rule, traceback,
    # cycle model, optional matrix) on each pair's own slice.
    results: List[AlignmentResult] = []
    total_wavefronts = 0
    for index, member in enumerate(members):
        bucket = member.bucket
        lane = member.lane
        n_rows, n_cols = member.n_rows, member.n_cols
        layer = bucket.work[spec.score_layer, lane, : n_rows + 1, : n_cols + 1]
        computed = bucket.computed[lane, : n_rows + 1, : n_cols + 1]
        raw_score, start = select_start(spec, layer, computed, n_rows, n_cols)
        score = spec.quantize(float(raw_score))
        alignment = None
        traceback_cycles = 0
        if bucket.ptrs is not None:
            alignment = walk_traceback(
                spec,
                _DensePointerStore(
                    bucket.ptrs[lane, : n_rows + 1, : n_cols + 1]
                ),
                start,
            )
            traceback_cycles = (
                alignment.aligned_length + TRACEBACK_SETUP_CYCLES
            )
        cycles = cycle_report(
            spec, n_rows, n_cols, n_pe_list[index], ii_list[index],
            traceback_cycles, model_interface,
        )
        total_wavefronts += cycles.wavefronts
        matrix: Optional[np.ndarray] = None
        if collect_matrix:
            matrix = assemble_matrix(
                spec, member.row0, member.col0,
                bucket.work[:, lane, : n_rows + 1, : n_cols + 1],
                computed,
            )
        if alignment is not None:
            end = (alignment.query_start, alignment.ref_start)
        else:
            end = (0, 0)
        results.append(AlignmentResult(
            score=score, start=start, end=end,
            alignment=alignment, cycles=cycles, matrix=matrix,
        ))

    # Break the _Pair <-> _Bucket reference cycles so each sweep's dense
    # matrices free on refcount rather than waiting for a gc pass; the
    # streaming pipeline's bounded-memory guarantee depends on wavefront
    # buffers dying before the next chunk allocates its own.
    for member in members:
        member.bucket = None
    for bucket in buckets.values():
        bucket.pairs.clear()
        bucket.work = bucket.ptrs = bucket.computed = None

    if recorder.enabled:
        lane_cells = sum(b.lane_cells for b in buckets.values())
        padded_cells = sum(b.padded_cells for b in buckets.values())
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
