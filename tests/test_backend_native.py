"""Native lowering: the C sweep against the NumPy loop and the engine.

A kernel whose translation unit builds runs its anti-diagonal loop in C
(:mod:`repro.backend.native`); everything else about a sweep — set-up,
dtype choice, finishing — is shared with the NumPy loop, which stays the
reference here (``native.disabled()``) next to :func:`repro.systolic.align`.
Also pinned: every way the machine can refuse (no compiler, failed build,
untrusted cache) is a counted, bit-identical fallback, and builds are
single-flight within a process and atomic across processes.

The whole module needs a C compiler; without one it is skipped and the
rest of tier-1 exercises the fallback.
"""

import contextlib
import dataclasses
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.backend import batch, compiled_align, compiled_align_batch, compiler
from repro.backend import lower, native, prewarm
from repro.backend.wavefront import SkewedPointers
from repro.core.result import Alignment, Move
from repro.core.spec import EndRule, StartRule, TracebackSpec
from repro.hdl_types import ApFixedType, ApIntType, Overflow, Rounding
from repro.kernels import get_kernel
from repro.kernels.common import affine_tb
from repro.obs import MetricsRecorder, use_recorder
from repro.systolic.engine import align
from repro.systolic.schedule import count_wavefronts
from repro.systolic.traceback import MOVE_OF, walk_traceback
from repro import verify_fuzz
from repro.verify_fuzz import make_corpus, run_corpus
from tests.test_typed_lowering import (  # noqa: F401 - dtypes is a fixture
    REGISTRY, _FlagParams, _flagged_pe, _workload, assert_identical, dna_pairs,
    dtypes,
)


def _compiler_found() -> bool:
    try:
        native.find_compiler()
    except native.NativeUnavailable:
        return False
    return True


pytestmark = pytest.mark.skipif(
    not _compiler_found(), reason="no C compiler on PATH"
)


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """An empty object cache and an empty in-process kernel cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(compiler, "_CACHE", {})
    monkeypatch.setattr(compiler, "_LOCKS", {})
    return tmp_path / "repro-dp-hls" / "native"


def counted(fn, *args, **kwargs):
    """``fn``'s result and the ``engine.native.*`` / ``engine.traceback.*`` it
    recorded meanwhile."""
    with use_recorder(MetricsRecorder()) as recorder:
        result = fn(*args, **kwargs)
    snapshot = recorder.snapshot()
    return result, {
        name: value
        for part in ("counters", "gauges")
        for name, value in snapshot[part].items()
        if name.startswith(("engine.native", "engine.traceback"))
    }


def both_loops(spec, pairs, params=None):
    """Engine-identical under the C sweep and walk (which must run, every
    lane to its end) and the NumPy loop with the scalar walker."""
    _none, seen = counted(assert_identical, spec, pairs, params)
    assert seen.get("engine.native.sweeps") and "engine.native.fallbacks" not in seen
    assert "engine.traceback.rewalks" not in seen
    assert bool(seen.get("engine.native.walks")) == spec.has_traceback
    with native.disabled():
        _none, seen = counted(assert_identical, spec, pairs, params)
    assert not seen


def swept(spec, pairs, params=None, collect=True):
    """One bucket of ``pairs`` after ``_sweep_bucket``: the raw buffers."""
    params = spec.default_params if params is None else params
    bucket = batch._Bucket(params=params)
    for query, reference in pairs:
        bucket.pairs.append(batch._Pair(
            query, reference, len(query), len(reference),
            spec.init_row_scores(params, len(reference) + 1),
            spec.init_col_scores(params, len(query) + 1),
        ))
    bucket.n_rows = max(pair.n_rows for pair in bucket.pairs)
    bucket.n_cols = max(pair.n_cols for pair in bucket.pairs)
    cells = batch._sweep_bucket(spec, bucket, collect)
    return cells, bucket


def assert_same_buffers(spec, pairs, params=None):
    """Every cell of every lane — retired ones too — equal under both loops."""
    for collect in (True, False):
        cells, got = swept(spec, pairs, params, collect)
        with native.disabled():
            want_cells, want = swept(spec, pairs, params, collect)
        assert cells == want_cells
        for a, b in zip(got.work, want.work):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(got.best, want.best, equal_nan=True)
        assert np.array_equal(got.cell, want.cell)
        assert (got.ptrs is None) == (want.ptrs is None)
        if got.ptrs is not None:
            assert np.array_equal(got.ptrs, want.ptrs)


def ragged(pairs):
    """The pairs plus shortened copies: lanes that retire early."""
    return list(pairs) + [(q[: len(q) - 3], r[: len(r) - 6]) for q, r in pairs[:3]]


class TestEquivalence:
    @pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.name)
    def test_registry_kernel_full_and_ragged(self, spec):
        kernel = lower(spec)
        assert kernel.native_off is None and np.float64 in kernel.native
        assert (np.int32 in kernel.native) == isinstance(spec.score_type, ApIntType)
        full = [(tuple(q[:21]), tuple(r[:26])) for q, r in _workload(spec)]
        both_loops(spec, full)
        both_loops(spec, ragged(full))
        assert_same_buffers(spec, ragged(full))

    @pytest.mark.parametrize("kid, band", [(11, 1), (12, 3), (13, 6), (11, 40)])
    def test_banded(self, kid, band):
        spec = dataclasses.replace(get_kernel(kid), name=f"band{band}", banding=band)
        skew = min(band, 4)  # a banded global kernel needs |Q - R| <= band
        pairs = [(q[:n], r[:m]) for (q, r), (n, m) in zip(
            dna_pairs(4, 40, seed=band),
            [(30, 30 + skew), (30 + skew, 30), (9, 9 + skew), (33, 33)],
        )]
        both_loops(spec, pairs)
        assert_same_buffers(spec, pairs)

    def test_int32_and_float64_buckets(self, dtypes):
        spec, pairs = get_kernel(4), ragged(dna_pairs(4, 30, seed=2))
        both_loops(spec, pairs)
        assert set(dtypes) == {np.int32}
        del dtypes[:]
        params = dataclasses.replace(spec.default_params, match=2.5, gap_extend=-1.25)
        both_loops(spec, pairs, params)
        assert_same_buffers(spec, pairs, params)
        assert set(dtypes) == {np.float64}

    @pytest.mark.parametrize("overflow", list(Overflow))
    @pytest.mark.parametrize("signed", (True, False))
    @pytest.mark.parametrize("width", (7, 8, 11))
    def test_odd_width_ap_int(self, width, signed, overflow, dtypes):
        spec = dataclasses.replace(
            get_kernel(3), name=f"int{width}{signed}{overflow.value}",
            score_type=ApIntType(width, signed=signed, overflow=overflow),
        )
        pairs = ragged(dna_pairs(3, 70, seed=width))  # scores pass 2**6
        both_loops(spec, pairs)
        assert set(dtypes) == {np.int32}
        halves = dataclasses.replace(spec.default_params, match=2.5)
        both_loops(spec, pairs, halves)
        assert_same_buffers(spec, pairs, halves)
        assert np.float64 in set(dtypes)

    @pytest.mark.parametrize("rounding", list(Rounding))
    @pytest.mark.parametrize("overflow", list(Overflow))
    @pytest.mark.parametrize("kid", (8, 9, 10))  # struct, float and table kernels
    def test_ap_fixed_modes(self, kid, overflow, rounding):
        spec = dataclasses.replace(
            get_kernel(kid), name=f"fixed{kid}{overflow.value}{rounding.value}",
            score_type=ApFixedType(12, 7, overflow=overflow, rounding=rounding),
        )
        pairs = ragged([(tuple(q[:18]), tuple(r[:22])) for q, r in _workload(spec)])
        both_loops(spec, pairs)
        assert_same_buffers(spec, pairs)

    def test_nan_propagates_like_numpy(self):
        spec = get_kernel(9)  # min-plus over complex samples, saturating
        (query, reference), = [(q[:12], r[:12]) for q, r in _workload(spec)[:1]]
        query = query[:5] + ((float("nan"), 0.0),) + query[6:]
        assert_same_buffers(spec, [(tuple(query), tuple(reference))])
        _cells, bucket = swept(spec, [(tuple(query), tuple(reference))])
        assert np.isnan(bucket.work[0]).any()


TRACEBACK = [spec for spec in REGISTRY if spec.has_traceback]


def c_walk(spec, bucket, lane):
    """The alignment ``_batch_impl`` wraps for one natively walked lane."""
    n_moves, end_i, end_j, ended = bucket.walked[lane].tolist()
    assert ended == 1
    path = bucket.moves[lane, :n_moves][::-1].tobytes()
    return Alignment(
        tuple(MOVE_OF[code] for code in path), end_i, int(bucket.cell[lane, 0]),
        end_j, int(bucket.cell[lane, 1]),
    )


class TestWalker:
    """The fixed C walker against the scalar walker against the engine."""

    @pytest.mark.parametrize("spec", TRACEBACK, ids=lambda s: s.name)
    def test_three_walkers_on_full_and_ragged_buckets(self, spec):
        full = [(tuple(q[:21]), tuple(r[:24])) for q, r in _workload(spec)]
        for pairs in (full, ragged(full)):
            _cells, bucket = swept(spec, pairs, collect=False)
            assert bucket.moves.shape == (len(pairs), 21 + 24 + 5)
            for lane, (query, reference) in enumerate(pairs):
                start = tuple(bucket.cell[lane].tolist())
                want = align(spec, query, reference, n_pe=4)
                assert start == want.start
                scalar = walk_traceback(spec, SkewedPointers(bucket.ptrs[lane]), start)
                assert c_walk(spec, bucket, lane) == scalar == want.alignment

    @pytest.mark.parametrize("start_rule", list(StartRule))
    @pytest.mark.parametrize("end_rule", list(EndRule))
    def test_end_rules_and_paths_along_row_and_column_zero(self, end_rule, start_rule):
        spec = dataclasses.replace(
            get_kernel(1), name=f"k1_{start_rule.value}_{end_rule.value}",
            start_rule=start_rule, traceback=TracebackSpec(end=end_rule),
        )
        reference = dna_pairs(1, 30, seed=3)[0][1]
        pairs = [
            (reference[22:], reference),      # a suffix: the path runs into row 0
            (reference, reference[22:]),      # ... and into column 0
            (reference[:8], reference),
            (reference[3:17], reference[:26]),
            (reference, reference),
        ]
        both_loops(spec, pairs)
        results = compiled_align_batch(spec, pairs, n_pe=4)
        if end_rule is EndRule.TOP_LEFT:  # boundary moves are part of the path
            assert all(result.end == (0, 0) for result in results)
        if start_rule is StartRule.BOTTOM_RIGHT:
            along_row0, along_col0 = (r.alignment for r in results[:2])
            if end_rule is EndRule.TOP_LEFT:
                assert along_row0.cigar == "22I8M" and along_col0.cigar == "22D8M"
            else:
                assert along_row0.cigar == "8M" and results[0].end == (0, 22)
                assert (along_col0.cigar == "8M") == (end_rule is not EndRule.TOP_ROW)

    def test_one_bucket_is_two_native_calls_and_no_python_walking(self, monkeypatch):
        asked, reads, calls = [], [], []

        def counting_tb(state, ptr):
            asked.append((state, ptr))
            return affine_tb(state, ptr)

        spec = dataclasses.replace(
            get_kernel(2), name="k2_counting", tb_transition=counting_tb
        )
        pairs = [(q[: 38 - k % 4], r[: 38 - k % 3])  # one bucket, ragged
                 for k, (q, r) in enumerate(dna_pairs(10, 40, seed=6))]
        want = [align(spec, q, r, n_pe=4) for q, r in pairs]
        assert len(set(asked)) == len(asked) == 3 * 16  # the eager table, once
        call, read = native.call, SkewedPointers.read
        monkeypatch.setattr(
            native, "call", lambda *args: calls.append(1) or call(*args))
        monkeypatch.setattr(
            SkewedPointers, "read", lambda *args: reads.append(1) or read(*args))
        del asked[:]
        got, seen = counted(compiled_align_batch, spec, pairs, n_pe=4)
        assert len(calls) == 2 and not asked and not reads
        assert seen == {"engine.native.sweeps": 1, "engine.native.walks": 1}
        for result, ref in zip(got, want):
            assert (result.score, result.start, result.end) == (ref.score, ref.start, ref.end)
            assert result.alignment == ref.alignment and result.cycles == ref.cycles

    def test_score_only_kernel_is_one_native_call(self, monkeypatch):
        calls, call = [], native.call
        monkeypatch.setattr(
            native, "call", lambda *args: calls.append(1) or call(*args))
        spec = get_kernel(10)
        _cells, bucket = swept(spec, [(q[:20], r[:20]) for q, r in _workload(spec)], collect=False)
        assert len(calls) == 1 and bucket.walked is None and bucket.moves is None

    def test_numpy_loop_leaves_the_walking_to_the_scalar_walker(self):
        with native.disabled():
            _cells, bucket = swept(get_kernel(2), dna_pairs(3, 20, seed=1), collect=False)
        assert bucket.walked is None and bucket.ptrs is not None


class TestPointerWidth:
    pairs = dna_pairs(3, 20, seed=5)

    def test_over_wide_pointer_raises_the_engines_message(self):
        narrow = dataclasses.replace(get_kernel(2), name="narrow_ptr", tb_ptr_bits=2)
        flagged = dataclasses.replace(
            get_kernel(1), name="flagged", pe_func=_flagged_pe,
            default_params=_FlagParams(),
        )
        cases = [(narrow, None), (flagged, _FlagParams(flag=100)),
                 (flagged, _FlagParams(flag=-1))]
        for spec, params in cases:
            with pytest.raises(ValueError, match="does not fit in 2 bits") as want:
                align(spec, *self.pairs[0], params=params, n_pe=32)
            for loop in (contextlib.nullcontext, native.disabled):
                with loop(), pytest.raises(ValueError) as got:
                    compiled_align(spec, *self.pairs[0], params=params, n_pe=32)
                assert str(got.value) == str(want.value)
        both_loops(flagged, self.pairs)

    def test_float_pointer_prints_like_numpy(self):
        flagged = dataclasses.replace(
            get_kernel(1), name="flagged", pe_func=_flagged_pe,
            default_params=_FlagParams(),
        )
        params = _FlagParams(match=2.5, flag=100)  # a float64 bucket
        messages = []
        for loop in (contextlib.nullcontext, native.disabled):
            with loop(), pytest.raises(ValueError) as got:
                compiled_align_batch(flagged, self.pairs, params=params)
            messages.append(str(got.value))
        assert messages[0] == messages[1] and re.search(r"pointer \d+\.0 does", messages[0])


class TestFallbacks:
    """The machine says no: same results from the NumPy loop, and counted."""

    pairs = ragged(dna_pairs(4, 25, seed=8))

    def fell_back(self, why):
        spec = get_kernel(4)
        kernel, seen = counted(lower, spec)  # the gauge is set where it is decided
        assert seen == {f"engine.native{{kernel={spec.name}}}": 0}
        assert kernel.native is None and why in kernel.native_off, kernel.native_off
        assert kernel.c_source  # emitted whatever the machine can build
        _none, seen = counted(assert_identical, spec, self.pairs)
        assert set(seen) == {"engine.native.fallbacks"}

    def test_no_compiler(self, fresh, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        self.fell_back("no C compiler")
        assert not fresh.exists()

    def test_build_failure(self, fresh, monkeypatch):
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "--no-such-flag"))
        self.fell_back("failed")
        assert not list(fresh.iterdir())  # no object, no scratch left behind

    def test_world_writable_object(self, fresh, monkeypatch):
        assert lower(get_kernel(4)).native
        (built,) = fresh.glob("*.so")
        built.chmod(0o666)
        monkeypatch.setattr(compiler, "_CACHE", {})
        self.fell_back("not private")

    def test_foreign_owned_cache(self, fresh, monkeypatch, tmp_path):
        assert lower(get_kernel(4)).native
        monkeypatch.setattr(compiler, "_CACHE", {})
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        self.fell_back("no private writable cache directory")

    def test_no_usable_cache_directory(self, fresh, monkeypatch, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        monkeypatch.setattr("tempfile.tempdir", str(blocker))
        self.fell_back("no private writable cache directory")

    def test_op_outside_the_c_dialect(self, fresh):
        spec = get_kernel(15)  # a 20x20 table indexed by symbols
        wide = dataclasses.replace(
            spec, name="wide_alphabet",
            alphabet=dataclasses.replace(spec.alphabet, name="protein24", size=24),
        )
        kernel = lower(wide)
        assert kernel.native is None and kernel.c_source is None
        assert "not provably in range" in kernel.native_off
        pairs = [(tuple(q[:15]), tuple(r[:15])) for q, r in _workload(spec)]
        _none, seen = counted(assert_identical, wide, pairs)
        assert seen.get("engine.native.fallbacks")

    @pytest.mark.parametrize("kernel_id", [10, 15])  # symbol-indexed tables
    @pytest.mark.parametrize("symbol", [10 ** 12, 30, -7, -2])
    def test_symbol_outside_the_alphabet(self, kernel_id, symbol):
        # validate_pair spot-checks position 0 only and C reads unchecked, so
        # such a bucket takes the NumPy loop: the engine's IndexError, or its
        # wrapped negative index, never a read outside the table.
        spec = get_kernel(kernel_id)
        assert lower(spec).native
        good = _workload(spec)[0][0][:6]
        for pair in ((good[:1] + (symbol,) + good[2:], good), (good, good[:5] + (symbol,))):
            try:
                want = align(spec, *pair, n_pe=8).score
            except IndexError:
                want = IndexError
            for loop in (contextlib.nullcontext, native.disabled):
                with loop():
                    if want is IndexError:
                        with pytest.raises(IndexError):
                            compiled_align_batch(spec, [(good, good), pair])
                    else:
                        got, seen = counted(compiled_align_batch, spec, [(good, good), pair])
                        assert got[1].score == want
                        assert "engine.native.sweeps" not in seen


class TestCache:
    def test_hit_spawns_no_process_and_is_fast_to_find(self, fresh, monkeypatch):
        spec = get_kernel(2)
        kernel, seen = counted(lower, spec)
        assert kernel.native and seen == {f"engine.native{{kernel={spec.name}}}": 1}
        before = sorted(p.name for p in fresh.iterdir())
        assert len(before) == 1 and before[0].endswith(".so")
        assert fresh.stat().st_mode & 0o777 == 0o700

        def no_spawn(*_args, **_kwargs):
            raise AssertionError("a cache hit must not spawn")

        monkeypatch.setattr(subprocess, "run", no_spawn)
        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        monkeypatch.setattr(compiler, "_CACHE", {})
        assert lower(spec).native
        assert sorted(p.name for p in fresh.iterdir()) == before

    def test_object_is_private_under_a_group_writable_umask(self, fresh, monkeypatch):
        before = os.umask(0o002)  # user-private groups: cc would leave 0775
        try:
            assert lower(get_kernel(3)).native
        finally:
            os.umask(before)
        (built,) = fresh.glob("*.so")
        assert built.stat().st_mode & 0o777 == 0o700
        monkeypatch.setattr(compiler, "_CACHE", {})
        assert lower(get_kernel(3)).native  # and so it loads again

    def test_concurrent_prewarm_builds_once(self, fresh, monkeypatch):
        builds = []
        build = native._build

        def counting(*args):
            builds.append(threading.current_thread().name)
            return build(*args)

        monkeypatch.setattr(native, "_build", counting)
        spec, results = get_kernel(5), []
        threads = [
            threading.Thread(target=lambda: results.append(prewarm(spec)))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 8 and len(builds) == 1
        assert lower(spec) is lower(spec) and lower(spec).native

    def test_two_processes_race_on_an_empty_cache(self, fresh):
        script = (
            "from repro.backend import lower, compiled_align\n"
            "from repro.kernels import get_kernel\n"
            "spec = get_kernel(1)\n"
            "assert lower(spec).native, lower(spec).native_off\n"
            "print(compiled_align(spec, (0, 1, 2, 3), (0, 1, 3, 3)).score)\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(fresh.parent.parent))
        racers = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outputs = [racer.communicate(timeout=300) for racer in racers]
        assert [racer.returncode for racer in racers] == [0, 0], outputs
        assert outputs[0][0] == outputs[1][0]
        assert [p.suffix for p in fresh.iterdir()] == [".so"]  # one file, no scratch


class TestMemoisedSetUp:
    def test_working_dtype_walks_the_dag_once_per_range(self, monkeypatch):
        walks = []
        value_bounds = batch.value_bounds

        def counting(*args):
            walks.append(1)
            return value_bounds(*args)

        monkeypatch.setattr(batch, "value_bounds", counting)
        batch._exact.cache_clear()
        spec, pairs = get_kernel(2), dna_pairs(4, 24, seed=1)
        for _ in range(3):
            compiled_align_batch(spec, pairs)
        assert len(walks) == 1  # every bucket: same DAG, same input ranges
        compiled_align_batch(  # other ranges: another verdict
            spec, pairs, params=dataclasses.replace(spec.default_params, match=9)
        )
        assert len(walks) == 2

    def test_wavefront_count_once_per_shape(self):
        spec = get_kernel(1)
        pair = dna_pairs(1, 23, seed=4)[0]
        count_wavefronts.cache_clear()
        compiled_align_batch(spec, [pair] * 16, n_pe=4)
        info = count_wavefronts.cache_info()
        assert (info.misses, info.hits) == (1, 15)


class TestFuzzAndCli:
    def test_fuzz_runs_both_loops_with_no_fallback(self, monkeypatch):
        entered = []
        monkeypatch.setattr(verify_fuzz, "_LOOPS", tuple(
            (name, lambda name=name, loop=loop: entered.append(name) or loop())
            for name, loop in verify_fuzz._LOOPS
        ))
        corpus = make_corpus(cases_per_kernel=2, seed=3, max_len=20)
        report, seen = counted(run_corpus, corpus, workers=1)
        assert report.passed and report.batched_pairs == len(corpus)
        assert seen["engine.native.sweeps"] > len(corpus)
        assert seen["engine.native.walks"] > sum(get_kernel(c.kernel_id).has_traceback for c in corpus)
        assert "engine.native.fallbacks" not in seen
        assert "engine.traceback.rewalks" not in seen
        # per case and once per batched leg, each under both loops
        assert entered.count("default") == entered.count("numpy") == len(corpus) + 1

    @pytest.mark.parametrize("broken, tag", [("numpy", "numpy"), ("both", "default")])
    def test_fuzz_failure_names_its_loop_once(self, monkeypatch, broken, tag):
        def off_by_one(*args, **kwargs):
            result = compiled_align(*args, **kwargs)
            if broken == "both" or native.loop_forced:
                result = dataclasses.replace(result, score=result.score + 1)
            return result

        monkeypatch.setattr(verify_fuzz, "compiled_align", off_by_one)
        (case,) = make_corpus(kernels=[1], cases_per_kernel=1, seed=3, max_len=12)
        (failure,) = verify_fuzz.case_failures(case)
        assert failure.check == "backend_score"
        assert failure.detail.endswith(f"loop={tag}")

    def test_repro_info_names_compiler_flags_and_cache(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert native.find_compiler()[0] in out and "-ffp-contract=off" in out
        assert str(native.cache_dir()) in out
