"""Timing model: datapath structure -> initiation interval and Fmax.

Two rules drive the model, matching the paper's observations:

* **II** — the wavefront loop carries a dependency through ``PE_func``
  (cell (i, j) feeds (i, j+1) on the next wavefront), so multi-cycle
  operators on that path force II > 1.  Multiplier-based kernels
  (#8 profile, #9 DTW) pay the DSP pipeline latency: II = 4; everything
  else achieves II = 1 (Section 7.1 reports exactly II = 4 for #8).
* **Fmax** — deeper combinational paths close timing at lower clocks.
  An *effective delay* combines the datapath's logic depth with bit-width, ROM
  access, extra layers and banding control, then snaps to the discrete
  grid Table 2 exhibits.  A calibration table pins the 15 published
  kernels to their measured closure (HLS timing is famously quirky);
  unknown kernels fall back to the structural estimate.
"""

from __future__ import annotations

from repro.core.datapath import OpKind
from repro.core.spec import KernelSpec
from repro.synth.calibration import CALIBRATED_FMAX_MHZ
from repro.synth.device import FREQUENCY_GRID_MHZ

#: Effective-delay weights (abstract logic levels).
_WIDTH_WEIGHT = 0.10       # carry-chain length contribution per score bit
_ROM_PENALTY = 1.5         # block/LUT RAM access on the critical path
_BANDING_PENALTY = 2.5     # band-boundary comparators and muxes
_LAYER_WEIGHT = 1.0        # routing pressure of extra score layers

#: Effective-delay thresholds mapping to the frequency grid.
_FMAX_THRESHOLDS = ((10.0, 250.0), (14.0, 200.0), (18.0, 166.7), (22.0, 150.0))
_FMAX_FLOOR = 125.0


def effective_delay(spec: KernelSpec) -> float:
    """Abstract critical-path length of one ``PE_func`` evaluation."""
    datapath = spec.trace_datapath()
    delay = datapath.critical_depth
    delay += _WIDTH_WEIGHT * spec.score_type.width
    if datapath.count(OpKind.ROM):
        delay += _ROM_PENALTY
    if spec.banding is not None:
        delay += _BANDING_PENALTY
    delay += _LAYER_WEIGHT * spec.n_layers
    return delay


def estimate_ii(spec: KernelSpec) -> int:
    """Initiation interval of the wavefront loop."""
    return 4 if spec.trace_datapath().count(OpKind.MUL) > 0 else 1


def estimate_fmax_mhz(spec: KernelSpec, use_calibration: bool = True) -> float:
    """Achievable clock frequency, snapped to the device grid."""
    if use_calibration and spec.name in CALIBRATED_FMAX_MHZ:
        return CALIBRATED_FMAX_MHZ[spec.name]
    delay = effective_delay(spec)
    for threshold, fmax in _FMAX_THRESHOLDS:
        if delay <= threshold:
            return fmax
    return _FMAX_FLOOR


def snap_to_grid(frequency_mhz: float) -> float:
    """Snap an arbitrary frequency to the nearest achievable grid point."""
    return min(FREQUENCY_GRID_MHZ, key=lambda f: abs(f - frequency_mhz))
