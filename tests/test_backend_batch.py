"""Batched wavefront execution: bit-identity, exceptions, pre-warming.

The batched sweep's contract is that it is *invisible* — every
observable output of ``compiled_align_batch`` equals the systolic
engine's on that pair alone, for any batch composition the service can
produce: shuffled mixed lengths, mixed parameter sets, a single pair,
an empty flush, and the all-identical batch the cache's single-flight
path collapses to — on both sides of the driver's own full-bucket /
ragged-bucket choice.  The exception contract matches too: the first
invalid pair in submission order raises the same error the engine
would.  (``compiled_align`` is a batch of one through the same driver,
so the reference here is the engine, never the compiled backend.)

The start cell and the traceback belong to the sweep (``TestRunningBest``,
``TestFinishingExceptionParity``): each lane's running best is
``BestCellTracker`` on its own cells, and whatever the traceback FSM
does — raise, answer nonsense, outgrow a byte of states — the batch
reports what the engine's scalar walker reports, under both loops.

Alongside ride the pre-warm regressions (lowering is memoized and
primed at construction/worker-ready time, never on the first request)
and the ``DeviceRuntime.run`` plumbing (whole batch first, per-pair for
``timeout``, and the per-pair fallback that keeps failure isolation).
"""

import contextlib
import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from repro.backend import (
    BATCH_BACKENDS,
    compiled_align,
    compiled_align_batch,
    get_batch_backend,
    prewarm,
)
from repro.backend import batch, compiler, native
from repro.backend.wavefront import computed_cells, count_cells
from repro.core.result import Move
from repro.core.spec import (
    TB_DIAG, TB_UP, EndRule, Objective, StartRule, TracebackSpec, band_contains,
)
from repro.kernels.common import linear_tb
from repro.experiments.workloads import WORKLOADS
from repro.host import DeviceRuntime
from repro.kernels import get_kernel, kernel_ids
from repro.obs import MetricsRecorder, TraceRecorder, set_recorder, use_recorder
from repro.shard import Deployment
from repro.synth import LaunchConfig
from repro.systolic import align
from repro.systolic.engine import SystolicAlignmentError
from repro.systolic.traceback import BestCellTracker, TracebackError
from repro import verify_fuzz
from repro.verify_fuzz import generate_case
from tests.test_backend_native import swept
from tests.test_spec import make_spec

ALL_KERNELS = tuple(kernel_ids())


def _single(spec, query, reference, n_pe, params=None, collect_matrix=False):
    """The reference: the systolic engine on this pair alone."""
    return align(
        spec, query, reference, params=params, n_pe=n_pe,
        collect_matrix=collect_matrix,
    )


def assert_same_result(single, batched, collect_matrix=False):
    """Every observable output must match the engine's run exactly."""
    assert batched.score == single.score
    assert type(batched.score) is type(single.score)
    assert batched.start == single.start
    assert batched.end == single.end
    assert batched.alignment == single.alignment
    assert batched.cycles == single.cycles
    if collect_matrix:
        assert batched.matrix.dtype == single.matrix.dtype
        assert np.array_equal(batched.matrix, single.matrix)


def _mixed_batch(kid, n=6, max_len=24):
    """A deterministic, shuffled, mixed-length batch for one kernel."""
    cases = [generate_case(kid, 977 * kid + s, max_len=max_len) for s in range(n)]
    random.Random(kid).shuffle(cases)
    pairs = [(case.query, case.reference) for case in cases]
    n_pes = [case.n_pe for case in cases]
    return pairs, n_pes


#: Bucket compositions on either side of the driver's mask decision.
BUCKET_SHAPES = {
    # uniform, lengths not a multiple of PAD_QUANTUM: full bucket, no mask
    "uniform_off_quantum": [(50, 43)] * 5,
    # one full-length and one shorter lane in the same quantum bucket: masked
    "full_plus_shorter": [(50, 43), (45, 41)],
    # neither lane fills both axes: the last diagonals have no valid lane
    "crossed_maxima": [(50, 41), (45, 43)],
    "one_by_one": [(1, 1)],
    "single": [(21, 17)],
}


def _shaped_batch(kid, shapes):
    """Pairs of exactly the given (n_rows, n_cols), stock-workload content."""
    base = WORKLOADS[kid].make_pairs(len(shapes), seed=kid)
    return [
        (tuple(query[:n_rows]), tuple(reference[:n_cols]))
        for (query, reference), (n_rows, n_cols) in zip(base, shapes)
    ]


class TestBatchedBitIdentity:
    """The core property: batched == per-pair, byte for byte."""

    @pytest.mark.parametrize("shape", sorted(BUCKET_SHAPES))
    @pytest.mark.parametrize("kid", (1, 4, 9, 11, 12))
    def test_bucket_shapes(self, kid, shape):
        """Full and ragged buckets, and batch-of-one, against the engine
        — collected matrices included."""
        spec = get_kernel(kid)
        pairs = _shaped_batch(kid, BUCKET_SHAPES[shape])
        batched = compiled_align_batch(
            spec, pairs, n_pe=8, collect_matrix=True
        )
        assert len(batched) == len(pairs)
        for (query, reference), result in zip(pairs, batched):
            assert_same_result(
                _single(spec, query, reference, 8, collect_matrix=True),
                result, collect_matrix=True,
            )

    @pytest.mark.parametrize("kid", ALL_KERNELS)
    def test_shuffled_mixed_length_batch(self, kid):
        spec = get_kernel(kid)
        pairs, n_pes = _mixed_batch(kid)
        batched = compiled_align_batch(spec, pairs, n_pe=n_pes)
        assert len(batched) == len(pairs)
        for (query, reference), n_pe, result in zip(pairs, n_pes, batched):
            assert_same_result(
                _single(spec, query, reference, n_pe), result
            )

    @pytest.mark.parametrize("kid", (1, 9, 15))
    def test_collected_matrices_identical(self, kid):
        spec = get_kernel(kid)
        pairs, n_pes = _mixed_batch(kid, n=4, max_len=16)
        batched = compiled_align_batch(
            spec, pairs, n_pe=n_pes, collect_matrix=True
        )
        for (query, reference), n_pe, result in zip(pairs, n_pes, batched):
            assert_same_result(
                _single(spec, query, reference, n_pe, collect_matrix=True),
                result, collect_matrix=True,
            )

    def test_empty_batch(self):
        assert compiled_align_batch(get_kernel(1), []) == []

    @pytest.mark.parametrize("kid", (1, 5, 11))
    def test_batch_of_one(self, kid):
        spec = get_kernel(kid)
        case = generate_case(kid, 7, max_len=20)
        (result,) = compiled_align_batch(
            spec, [(case.query, case.reference)], n_pe=case.n_pe
        )
        single = _single(spec, case.query, case.reference, case.n_pe)
        assert_same_result(single, result)
        assert_same_result(single, compiled_align(
            spec, case.query, case.reference, n_pe=case.n_pe
        ))

    def test_all_pairs_identical(self):
        """The shape the cache's single-flight dedup collapses to."""
        spec = get_kernel(1)
        case = generate_case(1, 42, max_len=20)
        pair = (case.query, case.reference)
        batched = compiled_align_batch(spec, [pair] * 5, n_pe=8)
        single = _single(spec, *pair, n_pe=8)
        assert len(batched) == 5
        for result in batched:
            assert_same_result(single, result)

    @pytest.mark.parametrize("kid", (1, 3))
    def test_mixed_params_batch(self, kid):
        """Per-pair params bucket by identity yet stay bit-identical."""
        spec = get_kernel(kid)
        default = spec.default_params
        other = dataclasses.replace(default, match=3)
        pairs, _ = _mixed_batch(kid, n=6, max_len=20)
        params = [default, other, default, other, other, default]
        batched = compiled_align_batch(spec, pairs, params=params, n_pe=4)
        for (query, reference), p, result in zip(pairs, params, batched):
            assert_same_result(
                _single(spec, query, reference, 4, params=p), result
            )

    def test_batch_obs_counters(self):
        """Sweep/waste accounting lands in the engine.batch.* metrics."""
        recorder = TraceRecorder()
        previous = set_recorder(recorder)
        try:
            pairs, n_pes = _mixed_batch(1, n=5, max_len=20)
            compiled_align_batch(get_kernel(1), pairs, n_pe=n_pes)
        finally:
            set_recorder(previous)
        counters = recorder.snapshot()["counters"]
        gauges = recorder.snapshot()["gauges"]
        assert counters["engine.batch.pairs"] == 5
        assert counters["engine.batch.sweeps"] >= 1
        assert counters["engine.batch.padded_cells"] >= counters[
            "engine.batch.lane_cells"
        ]
        assert 0.0 <= gauges["engine.batch.waste_frac"] < 1.0


def _with_band(kid, banding):
    """A registered banded kernel re-cut to another band half-width."""
    spec = get_kernel(kid)
    return dataclasses.replace(
        spec, name=f"{spec.name}_w{banding}", banding=banding
    )


class TestSkewedStorage:
    """Edge cases of the diagonal-major layout, against the engine."""

    #: (kernel id, band override or None, [(n_rows, n_cols), ...])
    CASES = {
        "one_row": (1, None, [(1, 23)]),
        "one_col": (4, None, [(23, 1)]),
        "tall_ragged_bucket": (6, None, [(40, 3), (35, 1), (38, 2)]),
        "wide_ragged_bucket": (7, None, [(3, 40), (1, 35), (2, 38)]),
        # the narrowest band KernelSpec admits (0 is rejected, and the
        # engine's registers go stale across its empty odd diagonals)
        "band_one_ragged": (12, 1, [(24, 24), (19, 22), (22, 19)]),
        # the short lane's corner is on diagonal 84; the long lane keeps
        # sweeping in-band cells up to diagonal 96
        "short_lane_retires_in_band": (11, 3, [(48, 48), (41, 43)]),
        "band_wider_than_matrix": (13, 64, [(20, 17), (18, 17)]),
        "struct_profile_ragged": (8, None, [(21, 30), (17, 26), (21, 25)]),
        "struct_signal_ragged": (9, None, [(30, 21), (26, 17)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_against_engine_with_matrices(self, case):
        kid, banding, shapes = self.CASES[case]
        spec = get_kernel(kid) if banding is None else _with_band(kid, banding)
        pairs = _shaped_batch(kid, shapes)
        batched = compiled_align_batch(
            spec, pairs, n_pe=4, collect_matrix=True
        )
        for (query, reference), result in zip(pairs, batched):
            assert_same_result(
                _single(spec, query, reference, 4, collect_matrix=True),
                result, collect_matrix=True,
            )
        # the rolling three-diagonal path (nothing collected) agrees too
        for kept, rolled in zip(
            batched, compiled_align_batch(spec, pairs, n_pe=4)
        ):
            assert_same_result(kept, rolled)

    def test_three_live_diagonals(self):
        """A score-only, corner-start kernel never holds a whole matrix:
        32 x 256^2 row-major float64 layers were 50 MB; three diagonals
        per layer plus operands stay under 8 MB."""
        spec = get_kernel(10)
        assert not spec.has_traceback
        pairs = _shaped_batch(10, [(256, 256)] * 32)
        compiled_align_batch(spec, pairs[:2])  # lower outside the window
        tracemalloc.start()
        try:
            results = compiled_align_batch(spec, pairs, collect_matrix=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 32
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


    @pytest.mark.parametrize("kid", (4, 7, 6, 12))  # every searching start rule
    def test_searched_score_layer_rolls_through_three_rows(self, kid):
        """Nothing outlives the sweep unless ``collect_matrix``: the start
        cell is carried, not searched for afterwards."""
        spec = get_kernel(kid)
        pairs = _shaped_batch(kid, [(40, 44), (37, 41)])
        for loop in (contextlib.nullcontext, native.disabled):
            with loop():
                _cells, bucket = swept(spec, pairs, collect=False)
                assert bucket.work[spec.score_layer].shape[1] == 3
                _cells, kept = swept(spec, pairs, collect=True)
                assert kept.work[spec.score_layer].shape[1] == 40 + 44 + 1
                assert np.array_equal(bucket.cell, kept.cell)
                assert np.array_equal(bucket.best, kept.best)

    @pytest.mark.parametrize("banding", (None, 0, 1, 3, 50))
    def test_cell_count_is_the_mask_count(self, banding):
        for n_rows, n_cols in itertools.product((1, 2, 5, 9, 30), repeat=2):
            assert count_cells(n_rows, n_cols, banding) == np.count_nonzero(
                computed_cells(n_rows, n_cols, banding)
            )

    def test_metrics_build_no_mask(self, monkeypatch):
        """Counting cells is closed-form: turning metrics on allocates no
        (Q+1) x (R+1) mask per shape."""
        def no_mask(*_args):
            raise AssertionError("computed_cells without collect_matrix")

        monkeypatch.setattr(batch, "computed_cells", no_mask)
        spec = _with_band(12, 3)
        pairs = _shaped_batch(12, [(20, 22), (17, 19), (20, 22)])
        with use_recorder(TraceRecorder()) as recorder:
            compiled_align_batch(spec, pairs)
        assert recorder.snapshot()["counters"]["engine.cells"] == sum(
            count_cells(len(q), len(r), 3) for q, r in pairs
        )


@dataclasses.dataclass(frozen=True)
class _FlatParams:
    level: int = 5


def _flat_pe(cell):
    """Every computed cell scores ``level``: every eligible cell ties."""
    return (cell.diag[0] - cell.diag[0] + cell.params.level,), TB_DIAG


SEARCHING = (StartRule.GLOBAL_MAX, StartRule.LAST_ROW_MAX, StartRule.LAST_ROW_OR_COL_MAX)
LOOPS = dict(verify_fuzz._LOOPS)  # the machine's loop, then the NumPy one


def _tracked_start(spec, result, n_rows, n_cols):
    """``BestCellTracker`` over the collected matrix, cells in any order."""
    tracker = BestCellTracker(spec, 3, n_rows, n_cols)
    cells = [
        (i, j) for i in range(1, n_rows + 1) for j in range(1, n_cols + 1)
        if band_contains(spec.banding, i, j)
    ]
    random.Random(n_rows * 31 + n_cols).shuffle(cells)
    for i, j in cells:
        tracker.observe((i + j) % 3, i, j, result.matrix[spec.score_layer, i, j])
    return tracker.reduce()


class TestRunningBest:
    """Each lane's running (best, i, j) is ``BestCellTracker.observe``."""

    SHAPES = [(9, 9), (7, 8), (8, 6), (9, 7), (3, 5)]

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    @pytest.mark.parametrize("banding", (None, 3))
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("rule", SEARCHING)
    def test_constant_scores_tie_to_the_smallest_cell(
        self, rule, objective, banding, loop
    ):
        spec = make_spec(
            name=f"flat_{rule.value}_{objective.value}_{banding}",
            pe_func=_flat_pe, default_params=_FlatParams(), start_rule=rule,
            objective=objective, banding=banding,
            traceback=TracebackSpec(end=EndRule.TOP_LEFT), tb_transition=linear_tb,
        )
        pairs = _shaped_batch(1, self.SHAPES)
        with LOOPS[loop]():
            batched = compiled_align_batch(spec, pairs, n_pe=4, collect_matrix=True)
            rolled = compiled_align_batch(spec, pairs, n_pe=4)
        for (query, reference), result, plain in zip(pairs, batched, rolled):
            assert_same_result(
                _single(spec, query, reference, 4, collect_matrix=True),
                result, collect_matrix=True,
            )
            assert_same_result(result, plain)
            score, i, j = _tracked_start(spec, result, len(query), len(reference))
            assert (result.score, result.start) == (score, (i, j))
            assert result.score == 5
            if rule is StartRule.GLOBAL_MAX:
                assert result.start == (1, 1)
            elif rule is StartRule.LAST_ROW_MAX:
                assert result.start == (len(query), max(1, len(query) - (banding or 99)))

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    @pytest.mark.parametrize("banding", (None, 2))
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("rule", SEARCHING)
    @pytest.mark.parametrize("kid", (3, 4))  # clamped at 0: zeros tie everywhere
    def test_real_scores_on_ragged_lanes(self, kid, rule, objective, banding, loop):
        spec = dataclasses.replace(
            get_kernel(kid), name=f"k{kid}_{rule.value}_{objective.value}_{banding}",
            start_rule=rule, objective=objective, banding=banding,
        )
        pairs = _shaped_batch(kid, [(24, 24), (19, 20), (22, 23), (24, 22), (17, 19)])
        with LOOPS[loop]():
            batched = compiled_align_batch(spec, pairs, n_pe=4, collect_matrix=True)
            rolled = compiled_align_batch(spec, pairs, n_pe=4)
        for (query, reference), result, plain in zip(pairs, batched, rolled):
            assert_same_result(
                _single(spec, query, reference, 4, collect_matrix=True),
                result, collect_matrix=True,
            )
            assert_same_result(result, plain)
            score, i, j = _tracked_start(spec, result, len(query), len(reference))
            assert (result.score, result.start) == (score, (i, j))


def _engine_failure(spec, pairs):
    """What the engine raises on the first pair it cannot finish."""
    for query, reference in pairs:
        try:
            align(spec, query, reference, n_pe=4)
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return type(exc), str(exc)
    return None


def _batch_failure(spec, pairs):
    try:
        compiled_align_batch(spec, pairs, n_pe=4)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    return None


def _no_deletions(state, ptr):
    if ptr == TB_UP:
        raise ValueError(f"malformed pointer {ptr} in state {state}")
    return linear_tb(state, ptr)


def _nonsense(state, ptr):
    return ("sideways" if ptr == TB_UP else linear_tb(state, ptr)[0]), state


def _branching_states(state, ptr):
    """A new state per path prefix: 255 of them index three steps deep."""
    return linear_tb(0, ptr)[0], state * 4 + ptr + 1


@pytest.mark.parametrize("loop", sorted(LOOPS))
class TestFinishingExceptionParity:
    """Start-cell and traceback failures: the engine's exception, type and
    text, for the first failing pair in submission order — good pairs
    before it or not.  (A walk that never terminates cannot be built from
    an FSM: every ``Move`` but ``END`` steps towards (0, 0), so the step
    bound of both walkers is reachable only through a non-``Move``.)"""

    def test_band_that_excludes_the_last_row(self, loop):
        spec = _with_band(7, 2)
        spec = dataclasses.replace(spec, banding=2)
        assert spec.start_rule is StartRule.LAST_ROW_MAX
        good = _shaped_batch(7, [(8, 8), (7, 9)])
        (empty,) = _shaped_batch(7, [(12, 3)])  # row 12: every |12 - j| > 2
        with pytest.raises(TracebackError, match="no cell satisfied start rule"):
            align(spec, *empty, n_pe=4)
        for pairs in ([*good, empty, good[0]], [empty, *good], [good[0], empty, empty]):
            with LOOPS[loop]():
                assert _batch_failure(spec, pairs) == _engine_failure(spec, pairs)
        with LOOPS[loop]():
            assert _batch_failure(spec, good) is None

    @pytest.mark.parametrize("fsm, error", [
        (_no_deletions, ValueError), (_nonsense, TracebackError),
    ])
    def test_fsm_failure_in_submission_order(self, loop, fsm, error):
        plain = get_kernel(1)
        spec = dataclasses.replace(plain, name=f"k1_{fsm.__name__}", tb_transition=fsm)
        reference = tuple(random.Random(4).randrange(4) for _ in range(20))
        clean = (reference[:12] + reference[13:], reference)  # an insertion only
        deleting = (reference[:9] + (3 - reference[9],) * 2 + reference[9:], reference)
        assert Move.DEL in align(plain, *deleting).alignment.moves
        assert Move.DEL not in align(plain, *clean).alignment.moves
        for pairs in ([clean, deleting, clean], [deleting, clean], [clean, clean, deleting]):
            want = _engine_failure(spec, pairs)
            assert want is not None and want[0] is error
            with LOOPS[loop]():
                assert _batch_failure(spec, pairs) == want
        with LOOPS[loop]():
            for got in compiled_align_batch(spec, [clean, clean], n_pe=4):
                assert_same_result(_single(spec, *clean, 4), got)

    def test_start_failure_and_fsm_failure_keep_their_order(self, loop):
        spec = dataclasses.replace(
            get_kernel(7), name="k7_band2_no_deletions", banding=2,
            tb_transition=_no_deletions,
        )
        reference = tuple(random.Random(9).randrange(4) for _ in range(16))
        deleting = (reference[:8] + (3 - reference[8],) * 2 + reference[8:], reference)
        (empty,) = _shaped_batch(7, [(12, 3)])
        assert _engine_failure(spec, [deleting])[0] is ValueError
        assert _engine_failure(spec, [empty])[0] is TracebackError
        for pairs in ([deleting, empty], [empty, deleting]):
            with LOOPS[loop]():
                assert _batch_failure(spec, pairs) == _engine_failure(spec, pairs)

    def test_more_than_255_states_still_walks_like_the_engine(self, loop):
        spec = dataclasses.replace(
            get_kernel(1), name="k1_branching_states", tb_transition=_branching_states
        )
        pairs = _shaped_batch(1, [(40, 44), (2, 2), (30, 30)])
        with LOOPS[loop](), use_recorder(MetricsRecorder()) as recorder:
            batched = compiled_align_batch(spec, pairs, n_pe=32)
        for (query, reference), result in zip(pairs, batched):
            assert_same_result(_single(spec, query, reference, 32), result)
        counters = recorder.snapshot()["counters"]
        if "engine.native.walks" in counters:  # the two long lanes hit the trap
            assert counters["engine.traceback.rewalks"] == 2
        else:
            assert "engine.traceback.rewalks" not in counters


class TestBatchExceptionParity:
    """The first invalid pair (submission order) raises the engine's error."""

    def test_invalid_first_pair(self):
        spec = get_kernel(1)
        good = generate_case(1, 3, max_len=16)
        with pytest.raises(SystolicAlignmentError) as single_err:
            align(spec, (), good.reference)
        with pytest.raises(SystolicAlignmentError) as one_err:
            compiled_align(spec, (), good.reference)
        with pytest.raises(SystolicAlignmentError) as batch_err:
            compiled_align_batch(
                spec, [((), good.reference), (good.query, good.reference)]
            )
        assert str(one_err.value) == str(single_err.value)
        assert str(batch_err.value) == str(single_err.value)

    def test_first_offender_wins(self):
        """Two bad pairs: the earlier submission index's error surfaces."""
        spec = get_kernel(1)
        good = generate_case(1, 3, max_len=16)
        too_long = tuple(range(0, 4)) * 100  # 400 > max_query_len
        with pytest.raises(SystolicAlignmentError) as single_err:
            align(spec, too_long, good.reference, max_query_len=64)
        with pytest.raises(SystolicAlignmentError) as batch_err:
            compiled_align_batch(
                spec,
                [
                    (good.query, good.reference),
                    (too_long, good.reference),
                    ((), good.reference),
                ],
                max_query_len=64,
            )
        assert str(batch_err.value) == str(single_err.value)


class TestPrewarm:
    """Lowering is memoized and primed before the first request."""

    def test_prewarm_populates_compiler_cache(self):
        spec = get_kernel(1)
        assert prewarm(spec) is True
        before = len(compiler._CACHE)
        # memoized: a second warm (and the align that follows) reuses
        # the cached lowering instead of re-generating the PE source
        assert prewarm(spec) is True
        assert len(compiler._CACHE) == before
        cached = compiler.lower(spec, spec.default_params)
        assert compiler.lower(spec, spec.default_params) is cached

    def test_prewarm_swallows_unsupported_specs(self, monkeypatch):
        def boom(spec, params=None):
            raise compiler.UnsupportedSpecError("not lowerable")

        monkeypatch.setattr(compiler, "lower", boom)
        assert compiler.prewarm(get_kernel(1)) is False

    def test_runtime_construction_prewarms_compiled(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.host.runtime.prewarm",
            lambda spec, params=None: calls.append(spec.kernel_id) or True,
        )
        config = LaunchConfig(n_pe=4, max_query_len=32, max_ref_len=32)
        DeviceRuntime(get_kernel(1), config, backend="compiled")
        assert calls == [1]
        DeviceRuntime(get_kernel(1), config, backend="systolic")
        assert calls == [1]  # systolic has no compiled artifact to warm

    def test_deployment_prewarm(self):
        compiled = Deployment(kernel_ids=(1, 3), backend="compiled")
        assert compiled.prewarm() == 2
        systolic = Deployment(kernel_ids=(1, 3), backend="systolic")
        assert systolic.prewarm() == 0


class TestRuntimeFastPath:
    """`DeviceRuntime.run` wiring: whole batch first, per-pair fallback."""

    def _runtime(self, backend="compiled"):
        return DeviceRuntime(
            get_kernel(1),
            LaunchConfig(n_pe=8, max_query_len=64, max_ref_len=64),
            backend=backend,
        )

    def _pairs(self, n=5):
        cases = [generate_case(1, 31 + s, max_len=24) for s in range(n)]
        return [(case.query, case.reference) for case in cases]

    def test_registry_exposes_batch_backend(self):
        assert set(BATCH_BACKENDS) == {"compiled"}
        assert get_batch_backend("compiled") is compiled_align_batch
        assert get_batch_backend("systolic") is None

    def test_fast_path_matches_per_pair(self):
        runtime = self._runtime()
        pairs = self._pairs()
        recorder = TraceRecorder()
        previous = set_recorder(recorder)
        try:
            fast = runtime.run(pairs)
        finally:
            set_recorder(previous)
        assert not fast.errors
        assert recorder.snapshot()["counters"]["host.batched_fast_path"] == 1
        for (query, reference), fast_result in zip(pairs, fast.results):
            slow_result = compiled_align(
                runtime.spec, query, reference, params=runtime.params,
                n_pe=runtime.config.n_pe, ii=runtime.report.ii,
                max_query_len=runtime.config.max_query_len,
                max_ref_len=runtime.config.max_ref_len,
            )
            assert_same_result(slow_result, fast_result)

    def test_fallback_isolates_failing_pair(self):
        """A poisoned batch degrades to per-pair WorkError isolation."""
        runtime = self._runtime()
        pairs = self._pairs(3)
        pairs.insert(1, ((), pairs[0][1]))  # empty query: always invalid
        outcome = runtime.run(pairs)
        assert [error.index for error in outcome.errors] == [1]
        assert outcome.errors[0].error_type == "SystolicAlignmentError"
        assert outcome.results[1] is None
        assert all(
            result is not None
            for index, result in enumerate(outcome.results)
            if index != 1
        )
