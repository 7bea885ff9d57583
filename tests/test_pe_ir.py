"""One PE IR: the synthesis models and the compiled backend read one DAG.

``GOLDEN`` was captured from the separate datapath tracer this DAG walk
replaced (every registry kernel plus the ``kernels.extensions`` specs), so
a drift in any operator count, width, logic depth or multiplier shape is a
cost-model change and has to be made here on purpose.
"""

import dataclasses

import numpy as np
import pytest

from repro.backend import UnsupportedSpecError, compiled_align, lower, prewarm
from repro.core.datapath import OpKind
from repro.core.expr import is_expr
from repro.core.ops import lookup, select, vmax
from repro.experiments.paper_values import TABLE2
from repro.experiments.workloads import WORKLOADS
from repro.kernels import get_kernel, kernel_ids
from repro.kernels.extensions import EXTENSION_KERNELS
from repro.synth import LaunchConfig, synthesize
from repro.synth.dse import clear_explore_memo, explore
from repro.systolic.engine import align
from repro.verify import verify_kernel

#: name -> ({(operator, width): instances}, critical depth, multipliers)
GOLDEN = {
    "global_linear": (
        {("add", 16): 3, ("cmp", 2): 1, ("cmp", 16): 2, ("mux", 1): 2, ("mux", 16): 3},
        5.5, [],
    ),
    "global_affine": (
        {("add", 1): 2, ("add", 16): 6, ("cmp", 2): 1, ("cmp", 16): 4, ("mux", 1): 4, ("mux", 16): 5},
        8.5, [],
    ),
    "local_linear": (
        {("add", 16): 3, ("cmp", 2): 1, ("cmp", 16): 3, ("mux", 1): 3, ("mux", 16): 4},
        7.0, [],
    ),
    "local_affine": (
        {("add", 1): 2, ("add", 16): 6, ("cmp", 2): 1, ("cmp", 16): 5, ("mux", 1): 5, ("mux", 16): 6},
        10.0, [],
    ),
    "global_two_piece_affine": (
        {("add", 1): 4, ("add", 16): 11, ("cmp", 2): 1, ("cmp", 16): 8, ("mux", 1): 8, ("mux", 16): 9},
        13.5, [],
    ),
    "overlap": (
        {("add", 16): 3, ("cmp", 2): 1, ("cmp", 16): 2, ("mux", 1): 2, ("mux", 16): 3},
        5.5, [],
    ),
    "semiglobal": (
        {("add", 16): 3, ("cmp", 2): 1, ("cmp", 16): 2, ("mux", 1): 2, ("mux", 16): 3},
        5.5, [],
    ),
    "profile_alignment": (
        {("add", 32): 27, ("cmp", 32): 2, ("mul", 32): 30, ("mux", 1): 2, ("mux", 32): 2},
        18.0, (5 * [(32, 16)] + [(16, 32)]) * 5,
    ),
    "dtw": (
        {("add", 24): 3, ("add", 32): 1, ("cmp", 32): 2, ("mul", 24): 2, ("mux", 1): 2, ("mux", 32): 2},
        6.0, 2 * [(24, 24)],
    ),
    "viterbi": (
        {("add", 28): 5, ("cmp", 28): 4, ("mux", 28): 4, ("rom", 28): 2},
        4.0, [],
    ),
    "banded_global_linear": (
        {("add", 16): 3, ("cmp", 2): 1, ("cmp", 16): 2, ("mux", 1): 2, ("mux", 16): 3},
        5.5, [],
    ),
    "banded_local_affine": (
        {("add", 1): 2, ("add", 16): 6, ("cmp", 2): 1, ("cmp", 16): 5, ("mux", 1): 5, ("mux", 16): 6},
        10.0, [],
    ),
    "banded_global_two_piece": (
        {("add", 1): 4, ("add", 16): 11, ("cmp", 2): 1, ("cmp", 16): 8, ("mux", 1): 8, ("mux", 16): 9},
        13.5, [],
    ),
    "sdtw": (
        {("abs", 8): 1, ("add", 8): 1, ("add", 24): 1, ("cmp", 24): 2, ("mux", 24): 2},
        4.0, [],
    ),
    "protein_local_linear": (
        {("add", 16): 3, ("cmp", 16): 3, ("mux", 1): 3, ("mux", 16): 3, ("rom", 16): 2},
        6.5, [],
    ),
    "global_linear_dna5": (
        {("add", 16): 3, ("cmp", 16): 2, ("mux", 1): 2, ("mux", 16): 2, ("rom", 16): 2},
        5.0, [],
    ),
    "profile_alignment_protein": (
        {("add", 32): 443, ("cmp", 32): 2, ("mul", 32): 462, ("mux", 1): 2, ("mux", 32): 2},
        50.0, (21 * [(32, 16)] + [(16, 32)]) * 21,
    ),
    "sakoe_chiba_dtw": (
        {("add", 24): 3, ("add", 32): 1, ("cmp", 32): 2, ("mul", 24): 2, ("mux", 1): 2, ("mux", 32): 2},
        6.0, 2 * [(24, 24)],
    ),
    "semiglobal_affine": (
        {("add", 1): 2, ("add", 16): 6, ("cmp", 2): 1, ("cmp", 16): 4, ("mux", 1): 4, ("mux", 16): 5},
        8.5, [],
    ),
}

SPECS = {
    spec.name: spec
    for spec in (*map(get_kernel, kernel_ids()), *EXTENSION_KERNELS)
}


class TestGoldenDatapath:
    def test_every_spec_is_pinned(self):
        assert set(SPECS) == set(GOLDEN) and len(GOLDEN) == 19

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_summary_matches_parent_tracer(self, name):
        op_counts, critical_depth, mults = GOLDEN[name]
        datapath = SPECS[name].trace_datapath()
        got = {(k.value, w): n for (k, w), n in datapath.op_counts.items()}
        assert got == op_counts
        assert datapath.critical_depth == critical_depth
        assert datapath.multiplier_instances() == tuple(mults)


class TestTracedOnce:
    def test_design_journey_traces_each_spec_once(self):
        """synthesize + a fresh 140-point explore + C-sim per kernel."""
        symbolic_runs = []

        def counting(spec):
            def pe(cell):
                if is_expr(*cell.up):
                    symbolic_runs.append(spec.name)
                return spec.pe_func(cell)

            return dataclasses.replace(spec, pe_func=pe)

        for kid in kernel_ids():
            spec = counting(get_kernel(kid))
            pairs = [
                (tuple(q[:12]), tuple(r[:12]))
                for q, r in WORKLOADS[kid].make_pairs(1, kid)
            ]
            n_pe, n_b, n_k = TABLE2[kid].config
            assert synthesize(spec, LaunchConfig(n_pe=n_pe, n_b=n_b, n_k=n_k))
            clear_explore_memo()
            assert explore(spec).explored == 140
            assert verify_kernel(spec, pairs, n_pe_values=(4,)).passed
            lower(spec)  # the compiled backend reads the same trace
        clear_explore_memo()
        assert symbolic_runs == [get_kernel(kid).name for kid in kernel_ids()]


@dataclasses.dataclass(frozen=True)
class _BonusParams:
    bonus: tuple = (0, 3)
    linear_gap: int = -1


def _score_indexed_pe(cell):
    """A ROM addressed by a value computed from neighbour scores."""
    p = cell.params
    bonus = lookup(p.bonus, select(cell.up[0] > cell.left[0], 1, 0))
    best = vmax(cell.diag[0] + bonus, cell.up[0] + p.linear_gap, cell.left[0] + p.linear_gap)
    return (best,), 0


class TestComputedTableIndex:
    """Synthesizable, but outside the compiled backend's surface."""

    spec = dataclasses.replace(
        get_kernel(1), name="score_indexed", pe_func=_score_indexed_pe,
        default_params=_BonusParams(), traceback=None, tb_transition=None,
    )

    def test_synthesizes_with_the_rom_port_counted(self):
        datapath = self.spec.trace_datapath()
        assert datapath.op_counts[(OpKind.ROM, 16)] == 1
        # compare + mux feed the port; its entry feeds an add and two maxes
        assert datapath.critical_depth == 1.5 + 1.0 + 1.0 + 2 * 1.5
        report = synthesize(self.spec, LaunchConfig(n_pe=8))
        assert report.feasible and report.ii == 1

    def test_runs_on_the_systolic_engine(self):
        assert align(self.spec, (0, 1, 2), (0, 1, 2)).score == 1

    def test_lower_still_rejects_it(self):
        with pytest.raises(UnsupportedSpecError, match="computed expression") as err:
            lower(self.spec)
        assert 'backend="systolic"' in str(err.value)  # names the way out
        assert prewarm(self.spec) is False


class TestNumpyScalarParams:
    """``np.int64(2)`` is a scalar parameter on every path, like ``2``."""

    @pytest.mark.parametrize("value", (np.int64(2), np.float64(2.0), np.asarray(2)))
    def test_engine_synthesis_and_compiled_agree_with_plain_int(self, value):
        plain = get_kernel(1)
        assert plain.default_params.match == 2
        spec = dataclasses.replace(
            plain,
            default_params=dataclasses.replace(plain.default_params, match=value),
        )
        query, reference = (0, 1, 2, 3, 1, 1, 2), (0, 1, 3, 3, 1, 2)
        want = align(plain, query, reference, n_pe=4, collect_matrix=True)
        for backend in (align, compiled_align):
            got = backend(spec, query, reference, n_pe=4, collect_matrix=True)
            assert got.score == want.score
            assert got.alignment == want.alignment
            assert got.cycles == want.cycles
            assert np.array_equal(got.matrix, want.matrix)
        assert synthesize(spec).summary() == synthesize(plain).summary()
        assert lower(spec).source == lower(plain).source
