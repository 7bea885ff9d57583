"""The "synthesis" entry point: spec + launch configuration -> report.

:func:`synthesize` plays the role of the Vitis HLS synthesis /
implementation / co-simulation flow of Fig. 2A: it reads the kernel's
datapath summary, derives II and Fmax, estimates one block's resources,
scales them across the N_B x N_K parallel blocks, checks device
feasibility, and evaluates the cycle/throughput model at the configured
maximum sequence lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.spec import KernelSpec
from repro.synth.device import XCVU9P, FpgaDevice
from repro.synth.resources import ResourceEstimate, estimate_resources
from repro.synth.throughput import cycles_per_alignment, throughput_alignments_per_sec
from repro.synth.timing import estimate_fmax_mhz, estimate_ii


@dataclass(frozen=True)
class LaunchConfig:
    """The front-end's parallelism and sizing knobs (Section 4, steps 1 & 5).

    ``n_pe`` — PEs per systolic block (inner-loop parallelism);
    ``n_b``  — blocks per kernel sharing one arbiter;
    ``n_k``  — independent kernels/channels to the host;
    ``max_query_len`` / ``max_ref_len`` — memory sizing maxima;
    ``target_mhz`` — synthesis clock target (250 MHz in the paper).
    """

    n_pe: int = 32
    n_b: int = 1
    n_k: int = 1
    max_query_len: int = 256
    max_ref_len: int = 256
    target_mhz: float = 250.0

    def __post_init__(self) -> None:
        if min(self.n_pe, self.n_b, self.n_k) < 1:
            raise ValueError("n_pe, n_b and n_k must all be >= 1")
        if min(self.max_query_len, self.max_ref_len) < 1:
            raise ValueError("maximum sequence lengths must be >= 1")
        if self.target_mhz <= 0:
            raise ValueError("target frequency must be positive")

    @property
    def n_blocks(self) -> int:
        """Total independent systolic blocks on the device."""
        return self.n_b * self.n_k


@dataclass
class SynthesisReport:
    """Everything Table 2 reports for one kernel configuration."""

    kernel_name: str
    kernel_id: int
    config: LaunchConfig
    device: FpgaDevice
    block: ResourceEstimate
    total: ResourceEstimate
    fmax_mhz: float
    ii: int
    cycles: int
    alignments_per_sec: float

    @property
    def feasible(self) -> bool:
        """Whether the full design fits the device's usable resources."""
        return not self.overflows()

    def overflows(self) -> Dict[str, float]:
        """Resource kinds exceeding the device, with the excess amount."""
        usage = {
            "lut": self.total.luts,
            "ff": self.total.ffs,
            "bram": self.total.bram36,
            "dsp": self.total.dsps,
        }
        return {
            kind: amount - self.device.usable(kind)
            for kind, amount in usage.items()
            if amount > self.device.usable(kind)
        }

    def utilization_pct(self, kind: str, of_block: bool = False) -> float:
        """Utilization % of the device (Table 2 reports the single block)."""
        source = self.block if of_block else self.total
        amount = {
            "lut": source.luts,
            "ff": source.ffs,
            "bram": source.bram36,
            "dsp": source.dsps,
        }[kind]
        return self.device.utilization_pct(kind, amount)

    def summary(self) -> str:
        """A Vitis-style one-kernel report."""
        cfg = self.config
        lines = [
            f"== DP-HLS synthesis report: {self.kernel_name} (#{self.kernel_id}) ==",
            f"  device           : {self.device.name}",
            f"  config           : N_PE={cfg.n_pe} N_B={cfg.n_b} N_K={cfg.n_k} "
            f"max={cfg.max_query_len}x{cfg.max_ref_len}",
            f"  timing           : Fmax {self.fmax_mhz:.1f} MHz, II={self.ii}",
            f"  block resources  : LUT {self.utilization_pct('lut', True):.2f}%  "
            f"FF {self.utilization_pct('ff', True):.2f}%  "
            f"BRAM {self.utilization_pct('bram', True):.2f}%  "
            f"DSP {self.utilization_pct('dsp', True):.3f}%",
            f"  device resources : LUT {self.utilization_pct('lut'):.2f}%  "
            f"FF {self.utilization_pct('ff'):.2f}%  "
            f"BRAM {self.utilization_pct('bram'):.2f}%  "
            f"DSP {self.utilization_pct('dsp'):.3f}%",
            f"  cycles/alignment : {self.cycles}",
            f"  throughput       : {self.alignments_per_sec:.3e} alignments/s",
            f"  feasible         : {self.feasible}",
        ]
        return "\n".join(lines)


def synthesize(
    spec: KernelSpec,
    config: Optional[LaunchConfig] = None,
    device: FpgaDevice = XCVU9P,
    use_calibration: bool = True,
) -> SynthesisReport:
    """Run the modelled synthesis flow for one kernel configuration."""
    config = config or LaunchConfig()
    ii = estimate_ii(spec)
    fmax = min(
        config.target_mhz,
        estimate_fmax_mhz(spec, use_calibration=use_calibration),
    )
    block = estimate_resources(
        spec,
        config.n_pe,
        max_query_len=config.max_query_len,
        max_ref_len=config.max_ref_len,
    )
    total = block.scaled(config.n_blocks)
    cycles = cycles_per_alignment(
        spec,
        config.n_pe,
        config.max_query_len,
        config.max_ref_len,
        ii=ii,
    )
    throughput = throughput_alignments_per_sec(cycles, fmax, config.n_blocks)
    return SynthesisReport(
        kernel_name=spec.name,
        kernel_id=spec.kernel_id,
        config=config,
        device=device,
        block=block,
        total=total,
        fmax_mhz=fmax,
        ii=ii,
        cycles=cycles,
        alignments_per_sec=throughput,
    )


def max_parallel_blocks(
    spec: KernelSpec,
    n_pe: int,
    device: FpgaDevice = XCVU9P,
    max_query_len: int = 256,
    max_ref_len: int = 256,
) -> int:
    """Largest N_B x N_K the device can host (Section 7.2's DTW cap)."""
    block = estimate_resources(
        spec, n_pe, max_query_len=max_query_len, max_ref_len=max_ref_len
    )
    limits = [
        device.usable("lut") / max(block.luts, 1e-9),
        device.usable("ff") / max(block.ffs, 1e-9),
        device.usable("bram") / max(block.bram36, 1e-9),
        device.usable("dsp") / max(block.dsps, 1e-9),
    ]
    return max(1, int(min(limits)))
