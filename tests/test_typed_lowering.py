"""Typed, fused lowering: what the emitter rewrites and which dtype a bucket runs on.

Three value-preserving steps sit between the PE DAG and a sweep: a select
of its own comparison's operands becomes ``np.maximum``/``np.minimum``, a
pointer built of constants, comparison-selects and sums is ``uint8``
arithmetic, and a bucket whose values provably stay 31-bit integers runs
on ``int32`` buffers.  Every one is pinned here against
:func:`repro.systolic.align`, the only independent reference.

``python tests/test_typed_lowering.py`` prints the registry kernels'
generated sources — the content of ``tests/golden/pe_sources.txt``; with
the argument ``c_source``, their native translation units —
``tests/golden/pe_sources_c.txt`` (emitted with or without a C compiler).
"""

import dataclasses
import inspect
import pathlib
import re
import sys

import numpy as np
import pytest

from repro.backend import batch, compiled_align, compiled_align_batch, lower
from repro.backend.compiler import _Emitter
from repro.core.ops import eq, select, vmax
from repro.core.spec import TB_DIAG, TB_LEFT, TB_UP, PEInput, trace_pe
from repro.hdl_types import ApIntType, Overflow, ap_int
from repro.kernels import get_kernel, kernel_ids
from repro.kernels.extensions import EXTENSION_KERNELS
from repro.systolic.engine import align
from tests.conftest import mutated_copy, random_dna

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_SOURCES = {"source": GOLDEN / "pe_sources.txt",
                  "c_source": GOLDEN / "pe_sources_c.txt"}
REGISTRY = [get_kernel(kid) for kid in kernel_ids()]
ALL_SPECS = [*REGISTRY, *EXTENSION_KERNELS]


def render_sources(form: str = "source") -> str:
    """Every registry kernel's generated text; a repeat names its first use."""
    first, parts = {}, []
    for spec in REGISTRY:
        text = getattr(lower(spec), form)
        seen = first.setdefault(text, spec.name) if form == "c_source" else spec.name
        body = text if seen == spec.name else f"/* the translation unit of {seen} */"
        parts.append(f"# {spec.kernel_id} {spec.name}\n{body}\n\n")
    return "".join(parts)


def dna_pairs(n, length, seed):
    pairs = []
    for k in range(n):
        reference = random_dna(length + k, seed + k)
        pairs.append((mutated_copy(reference, seed + 50 + k), reference))
    return pairs


@pytest.fixture
def dtypes(monkeypatch):
    """The working dtype of every bucket swept while the test runs."""
    seen = []
    choose = batch._working_dtype

    def spy(*args):
        seen.append(choose(*args))
        return seen[-1]

    monkeypatch.setattr(batch, "_working_dtype", spy)
    return seen


def assert_identical(spec, pairs, params=None, n_pe=4):
    """Single and batched compiled runs equal the engine, types included."""
    want = [
        align(spec, q, r, params=params, n_pe=n_pe, collect_matrix=True)
        for q, r in pairs
    ]
    runs = [
        [compiled_align(spec, q, r, params=params, n_pe=n_pe, collect_matrix=True)
         for q, r in pairs],
        compiled_align_batch(spec, pairs, params=params, n_pe=n_pe,
                             collect_matrix=True),
        compiled_align_batch(spec, pairs, params=params, n_pe=n_pe),
    ]
    for got_run in runs:
        for got, ref in zip(got_run, want):
            assert got.score == ref.score and type(got.score) is type(ref.score)
            assert (got.start, got.end) == (ref.start, ref.end)
            assert got.alignment == ref.alignment
            assert got.cycles == ref.cycles
            if got.matrix is not None:
                assert got.matrix.dtype == ref.matrix.dtype
                assert np.array_equal(got.matrix, ref.matrix)


class TestIntegerQuantiser:
    """``quantize_array`` on integer input == ``quantize`` elementwise."""

    @pytest.mark.parametrize("overflow", list(Overflow))
    @pytest.mark.parametrize("signed", (True, False))
    @pytest.mark.parametrize("width", range(2, 17))
    def test_matches_scalar_quantize(self, width, signed, overflow):
        score_type = ApIntType(width, signed=signed, overflow=overflow)
        rng = np.random.default_rng(width * 4 + signed * 2 + len(overflow.value))
        edges = [score_type.min_value, score_type.max_value, 0, -1, 1]
        values = np.concatenate([
            rng.integers(-(1 << 30), 1 << 30, 400),
            rng.integers(-4 << width, 4 << width, 400),
            [edge + step for edge in edges for step in (-1, 0, 1)],
            [-(1 << 30), (1 << 30) - 1],
        ])
        want = [score_type.quantize(int(v)) for v in values]
        for dtype in (np.int32, np.int64):
            got = score_type.quantize_array(values.astype(dtype))
            assert got.dtype.kind in "iu"
            assert got.tolist() == want
        as_float = score_type.quantize_array(values.astype(np.float64))
        assert as_float.dtype == np.float64 and as_float.tolist() == want

    def test_float_input_truncates_toward_zero(self):
        got = ap_int(16).quantize_array(np.asarray([-2.7, -0.2, 0.9, 32768.9]))
        assert got.tolist() == [-2.0, -0.0, 0.0, -32768.0]


def _mul_pe(cell: PEInput):
    """Linear-gap recurrence with a squared term: a ``mul`` node."""
    p = cell.params
    match = select(eq(cell.qry, cell.ref), p.match, p.mismatch)
    sub = cell.diag[0] + match
    up = cell.up[0] + p.linear_gap
    best = vmax(sub, up, cell.left[0] + p.linear_gap) + 0 * (sub * sub)
    return (best,), select(up > sub, TB_UP, TB_DIAG)


class TestWorkingDtype:
    """int32 exactly when it can be proven exact; bit-identical either way."""

    pairs = dna_pairs(5, 40, seed=3)

    def test_registry_kernels_split_by_score_type(self, dtypes):
        for spec in REGISTRY:
            pairs = [(q[:12], r[:12]) for q, r in _workload(spec)]
            compiled_align_batch(spec, pairs)
            narrow = isinstance(spec.score_type, ApIntType) and spec.score_type.width <= 16
            assert dtypes.pop() is (np.int32 if narrow else np.float64), spec.name
        assert not dtypes

    def test_float_valued_params_truncate_toward_zero(self, dtypes):
        spec = get_kernel(3)
        params = dataclasses.replace(
            spec.default_params, match=2.5, mismatch=-1.5, linear_gap=-2.25
        )
        assert_identical(spec, self.pairs, params)
        assert set(dtypes) == {np.float64}

    def test_integral_float_params_still_run_on_int32(self, dtypes):
        spec = get_kernel(1)
        params = dataclasses.replace(spec.default_params, match=2.0, linear_gap=-3.0)
        assert_identical(spec, self.pairs, params)
        assert set(dtypes) == {np.int32}

    def test_non_integral_init_row(self, dtypes):
        plain = get_kernel(1)
        spec = dataclasses.replace(
            plain, name="half_init",
            init_row=lambda p, n: plain.init_row(p, n) - 0.5,
            init_col=lambda p, n: plain.init_col(p, n) - 0.5,
        )
        assert_identical(spec, self.pairs)
        assert set(dtypes) == {np.float64}

    def test_parameter_of_magnitude_2_to_29(self, dtypes):
        spec = get_kernel(4)  # open + extend = -2**30, plus a score: 32 bits
        params = dataclasses.replace(
            spec.default_params, gap_open=-(1 << 29), gap_extend=-(1 << 29)
        )
        assert_identical(spec, self.pairs, params)
        assert set(dtypes) == {np.float64}

    def test_mul_node(self, dtypes):
        spec = dataclasses.replace(get_kernel(1), name="squared", pe_func=_mul_pe)
        assert_identical(spec, self.pairs)  # (-2**15) ** 2 leaves 31 bits
        assert set(dtypes) == {np.float64}

    @pytest.mark.parametrize("overflow", list(Overflow))
    def test_narrow_type_overflows_on_int32(self, overflow, dtypes):
        spec = dataclasses.replace(
            get_kernel(1), name=f"narrow_{overflow.value}",
            score_type=ap_int(8, overflow),
        )
        pairs = dna_pairs(4, 90, seed=9)  # init row reaches -270: out of range
        narrow, wide = (
            align(s, *pairs[0], collect_matrix=True).matrix
            for s in (spec, get_kernel(1))
        )
        assert narrow.min() == wide.min() == -270
        assert not np.array_equal(narrow, wide)
        assert_identical(spec, pairs)
        assert set(dtypes) == {np.int32}

    def test_no_caller_can_set_it(self):
        for fn in (compiled_align, compiled_align_batch, lower, _Emitter.__init__):
            names = set(inspect.signature(fn).parameters)
            assert not names & {"dtype", "mode", "integer", "fuse"}, fn


def _workload(spec):
    from repro.experiments.workloads import WORKLOADS

    return WORKLOADS[spec.kernel_id].make_pairs(2, spec.kernel_id)


def _own_comparison_selects(spec):
    """``where`` nodes whose arms are the operands of their own comparison."""
    return [
        node for node in _reachable(trace_pe(spec))
        if node.op == "where" and node.args[0].op in ("lt", "le", "gt", "ge")
        and {_key(arm) for arm in node.args[1:]}
        == {_key(operand) for operand in node.args[0].args}
    ]


def _key(node):
    return ("const", node.args[0]) if node.op == "const" else id(node)


class TestFusion:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_select_of_own_comparison_is_max_or_min(self, spec):
        source = lower(spec).source
        fused = len(re.findall(r"= np\.(?:maximum|minimum)\(", source))
        explicit = sum(
            node.op in ("maximum", "minimum")
            for node in _reachable(trace_pe(spec))
        )
        assert fused - explicit == len(_own_comparison_selects(spec))
        defs = dict(re.findall(r"(v\d+) = (.*)", source))
        for cond, a, b in re.findall(r"np\.where\((\w+), ([^,]+), ([^)]+)\)", source):
            compared = re.fullmatch(r"\((.+) (?:<|<=|>|>=) (.+)\)", defs.get(cond, ""))
            assert not compared or {a, b} != set(compared.groups())

    def test_constant_arm_compared_by_value(self):
        source = lower(get_kernel(3)).source  # select(best < 0, 0, best)
        assert re.search(r"= np\.maximum\(v\d+, 0\)", source)

    def test_comparison_survives_only_for_the_pointer(self):
        linear, score_only = lower(get_kernel(1)).source, lower(get_kernel(10)).source
        assert linear.count(" > ") == 2 and "np.where(v" not in linear.split("v4")[1]
        assert " > " not in score_only and "np.where" not in score_only

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_pointer_root_is_uint8(self, spec):
        kernel = lower(spec)
        if not spec.has_traceback:
            return
        assert kernel.ptr_max <= (1 << spec.tb_ptr_bits) - 1
        n = 6
        neighbours = [np.arange(n, dtype=np.int32) * (k + 1) for k in range(spec.n_layers)]
        symbols = np.zeros(
            (len(spec.alphabet.fields), n) if spec.alphabet.is_struct else n,
            np.intp if spec.alphabet.size else np.float64,
        )
        scalars, tables = batch.runtime_params(spec.default_params, np.float64)
        _scores, ptr = kernel.fn(
            neighbours, neighbours[::-1], neighbours, symbols, symbols, scalars, tables
        )
        assert ptr.dtype == np.uint8

    @pytest.mark.parametrize("kid", (9, 10, 14))
    def test_signed_zero_tie_is_unobservable(self, kid):
        """``np.maximum(0.0, -0.0)`` may keep either zero where the select
        keeps one; identical sequences make every diagonal cell such a tie."""
        spec = get_kernel(kid)
        query, reference = _workload(spec)[0]
        same = tuple(query[:16])
        pairs = [(same, same), (tuple(query[:9]), tuple(reference[:14]))]
        assert_identical(spec, pairs)
        source = lower(spec).source
        assert "np.minimum(" in source or "np.maximum(" in source
        assert np.maximum(0.0, -0.0) == np.where(0.0 > -0.0, 0.0, -0.0) == 0.0


def _reachable(trace):
    seen, stack = set(), [*trace.scores, trace.ptr]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if node.op not in ("in", "const"):
                stack.extend(node.args)
    return seen


@dataclasses.dataclass(frozen=True)
class _FlagParams:
    match: int = 2
    mismatch: int = -2
    linear_gap: int = -3
    flag: int = 1


def _flagged_pe(cell: PEInput):
    """Linear pointer scaled by a parameter: no static bound."""
    p = cell.params
    sub = cell.diag[0] + select(eq(cell.qry, cell.ref), p.match, p.mismatch)
    up = cell.up[0] + p.linear_gap
    left = cell.left[0] + p.linear_gap
    best = vmax(sub, up, left)
    ptr = select(left > vmax(sub, up), TB_LEFT, select(up > sub, TB_UP, TB_DIAG))
    return (best,), ptr * p.flag


class TestPointerWidthParity:
    """A pointer beyond ``tb_ptr_bits`` raises the engine's error."""

    pairs = dna_pairs(3, 20, seed=5)

    def test_misdeclared_width_raises_like_the_engine(self):
        spec = dataclasses.replace(get_kernel(2), name="narrow_ptr", tb_ptr_bits=2)
        assert lower(spec).ptr_max == 14
        for pair in self.pairs:  # one chunk: the engine writes diagonal by diagonal
            with pytest.raises(ValueError, match="does not fit in 2 bits") as want:
                align(spec, *pair, n_pe=32)
            with pytest.raises(ValueError) as got:
                compiled_align(spec, *pair, n_pe=32)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match=r"pointer \d+ does not fit in 2 bits"):
            compiled_align_batch(spec, self.pairs, n_pe=4)
        wide_enough = dataclasses.replace(spec, tb_ptr_bits=4)
        assert_identical(wide_enough, self.pairs)

    def test_unprovable_pointer_is_checked_not_trusted(self):
        spec = dataclasses.replace(
            get_kernel(1), name="flagged", pe_func=_flagged_pe,
            default_params=_FlagParams(),
        )
        assert lower(spec).ptr_max is None
        assert_identical(spec, self.pairs)
        for flag in (100, -1):  # 200 fits a byte, not two bits; -2 fits nothing
            params = _FlagParams(flag=flag)
            with pytest.raises(ValueError, match="does not fit in 2 bits") as want:
                align(spec, *self.pairs[0], params=params, n_pe=32)
            with pytest.raises(ValueError) as got:
                compiled_align(spec, *self.pairs[0], params=params, n_pe=32)
            assert str(got.value) == str(want.value)


class TestGoldenSources:
    def test_committed_sources_are_what_lower_emits(self):
        """A codegen change shows up as a diff of this file in review."""
        assert GOLDEN_SOURCES["source"].read_text() == render_sources()

    def test_committed_c_sources_are_what_lower_emits(self):
        """The native translation units, compiler or no compiler."""
        assert GOLDEN_SOURCES["c_source"].read_text() == render_sources("c_source")


if __name__ == "__main__":
    print(render_sources(*sys.argv[1:]), end="")
