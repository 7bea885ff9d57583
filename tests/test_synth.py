"""Tests for the synthesis models: device, resources, timing, compiler."""

import pytest

from repro.core.datapath import OpKind
from repro.kernels import KERNELS, get_kernel
from repro.synth import LaunchConfig, estimate_resources, synthesize
from repro.synth.compiler import max_parallel_blocks
from repro.synth.device import FREQUENCY_GRID_MHZ, XCVU9P, FpgaDevice
from repro.synth.resources import bram18_units, dsp_for_multiplier
from repro.synth.timing import estimate_fmax_mhz, estimate_ii, snap_to_grid


class TestDevice:
    def test_totals(self):
        assert XCVU9P.total("lut") == 1_182_240
        assert XCVU9P.total("dsp") == 6_840

    def test_usable_headroom(self):
        assert XCVU9P.usable("bram") == pytest.approx(2160 * 0.92)
        assert XCVU9P.usable("lut") == pytest.approx(1_182_240 * 0.98)

    def test_utilization_pct(self):
        assert XCVU9P.utilization_pct("dsp", 68.4) == pytest.approx(1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            XCVU9P.total("uram")


class TestBramSizing:
    @pytest.mark.parametrize(
        "depth,width,units",
        [
            (512, 36, 1), (1024, 18, 1), (16384, 1, 1),
            (8192, 2, 1), (2296, 2, 1),        # kernel #1 TB bank
            (2296, 7, 2),                       # kernel #5 TB bank
            (1024, 36, 2), (512, 72, 2), (4096, 4, 1),
        ],
    )
    def test_bram18_units(self, depth, width, units):
        assert bram18_units(depth, width) == units

    def test_invalid(self):
        with pytest.raises(ValueError):
            bram18_units(0, 4)


class TestDspSizing:
    @pytest.mark.parametrize(
        "wa,wb,dsps",
        [(16, 16, 1), (18, 27, 1), (24, 24, 2), (32, 16, 2), (32, 32, 4),
         (24, 16, 1)],
    )
    def test_dsp_for_multiplier(self, wa, wb, dsps):
        assert dsp_for_multiplier(wa, wb) == dsps

    def test_invalid(self):
        with pytest.raises(ValueError):
            dsp_for_multiplier(0, 4)


class TestResourceModel:
    def test_logic_scales_linearly_with_npe(self):
        spec = get_kernel(1)
        r16 = estimate_resources(spec, 16)
        r32 = estimate_resources(spec, 32)
        # per-PE logic dominates; doubling PEs ~doubles LUT minus block const
        assert 1.7 < (r32.luts / r16.luts) < 2.1

    def test_blocks_scale_exactly(self):
        spec = get_kernel(1)
        block = estimate_resources(spec, 32)
        assert block.scaled(4).luts == pytest.approx(4 * block.luts)

    def test_multiplier_kernels_use_dsp(self):
        dsp_light = estimate_resources(get_kernel(1), 32).dsps
        dsp_heavy = estimate_resources(get_kernel(8), 32).dsps
        assert dsp_heavy > 100 * dsp_light

    def test_traceback_drives_bram(self):
        with_tb = estimate_resources(get_kernel(4), 32).bram36
        without = estimate_resources(get_kernel(12), 32).bram36
        assert with_tb > 2 * without

    def test_two_piece_pointer_width_costs_bram(self):
        narrow = estimate_resources(get_kernel(1), 32).bram36   # 2-bit ptrs
        wide = estimate_resources(get_kernel(5), 32).bram36     # 7-bit ptrs
        assert wide > narrow

    def test_protein_rom_replicated_in_bram(self):
        protein = estimate_resources(get_kernel(15), 32).bram36
        dna = estimate_resources(get_kernel(3), 32).bram36
        assert protein > dna

    def test_lutram_conversion_at_npe64(self):
        spec = get_kernel(1)
        r32 = estimate_resources(spec, 32)
        r64 = estimate_resources(spec, 64)
        assert r64.bram36 < r32.bram36  # the Fig. 3 dip

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            estimate_resources(get_kernel(1), 32).scaled(0)


class TestTimingModel:
    def test_ii_one_without_multipliers(self):
        assert estimate_ii(get_kernel(1)) == 1
        assert estimate_ii(get_kernel(5)) == 1
        assert estimate_ii(get_kernel(10)) == 1

    def test_ii_four_with_multipliers(self):
        assert estimate_ii(get_kernel(8)) == 4
        assert estimate_ii(get_kernel(9)) == 4

    def test_calibrated_fmax_matches_table2(self):
        from repro.experiments.paper_values import TABLE2

        for kid, spec in KERNELS.items():
            assert estimate_fmax_mhz(spec) == TABLE2[kid].fmax_mhz

    def test_structural_fmax_on_grid(self):
        for spec in KERNELS.values():
            fmax = estimate_fmax_mhz(spec, use_calibration=False)
            assert fmax in FREQUENCY_GRID_MHZ

    def test_structural_fmax_orders_by_complexity(self):
        simple = estimate_fmax_mhz(get_kernel(1), use_calibration=False)
        complex_ = estimate_fmax_mhz(get_kernel(13), use_calibration=False)
        assert simple > complex_

    def test_snap_to_grid(self):
        assert snap_to_grid(240.0) == 250.0
        assert snap_to_grid(130.0) == 125.0


class TestCompiler:
    def test_report_fields(self):
        report = synthesize(get_kernel(2), LaunchConfig(n_pe=16, n_b=2, n_k=2))
        assert report.kernel_id == 2
        assert report.total.luts == pytest.approx(4 * report.block.luts)
        assert report.alignments_per_sec > 0
        assert report.feasible

    def test_summary_renders(self):
        text = synthesize(get_kernel(1)).summary()
        assert "Fmax" in text and "throughput" in text

    def test_infeasible_detected(self):
        report = synthesize(get_kernel(8), LaunchConfig(n_pe=32, n_b=8, n_k=8))
        assert not report.feasible
        assert "dsp" in report.overflows()

    def test_target_frequency_caps_fmax(self):
        report = synthesize(get_kernel(1), LaunchConfig(target_mhz=125.0))
        assert report.fmax_mhz == 125.0

    def test_launch_config_validation(self):
        with pytest.raises(ValueError):
            LaunchConfig(n_pe=0)
        with pytest.raises(ValueError):
            LaunchConfig(max_query_len=0)
        with pytest.raises(ValueError):
            LaunchConfig(target_mhz=-1)

    def test_max_parallel_blocks_dtw_dsp_limited(self):
        cap = max_parallel_blocks(get_kernel(9), 64)
        assert 15 <= cap <= 30  # the paper observes 24

    def test_published_optimal_configs_all_feasible(self):
        """The paper deployed every Table 2 configuration on the F1; the
        model must agree they fit the device."""
        from repro.experiments.workloads import WORKLOADS
        from repro.synth.calibration import OPTIMAL_CONFIG

        for kid, (n_pe, n_b, n_k) in OPTIMAL_CONFIG.items():
            w = WORKLOADS[kid]
            report = synthesize(
                get_kernel(kid),
                LaunchConfig(
                    n_pe=n_pe, n_b=n_b, n_k=n_k,
                    max_query_len=w.max_query_len, max_ref_len=w.max_ref_len,
                ),
            )
            assert report.feasible, f"kernel #{kid}: {report.overflows()}"

    def test_max_parallel_blocks_monotone_in_npe(self):
        small = max_parallel_blocks(get_kernel(1), 8)
        large = max_parallel_blocks(get_kernel(1), 64)
        assert small > large

    def test_custom_device(self):
        tiny = FpgaDevice("tiny", luts=10_000, ffs=20_000, bram36=20, dsps=10)
        report = synthesize(get_kernel(1), LaunchConfig(n_pe=32), device=tiny)
        assert not report.feasible


class TestTraceConsistency:
    """The resource model consumes the same graph the timing model does."""

    def test_rom_kernels_detected(self):
        assert get_kernel(15).trace_datapath().count(OpKind.ROM) > 0
        assert get_kernel(1).trace_datapath().count(OpKind.ROM) == 0

    def test_profile_multiplier_count(self):
        graph = get_kernel(8).trace_datapath()
        assert graph.count(OpKind.MUL) == 30  # 25 + 5 (two mat-vec products)
