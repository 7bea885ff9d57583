"""DP-HLS reproduction: a framework for 2-D dynamic programming kernels.

A Python reimplementation of the DP-HLS system (HPCA 2026): users describe
a 2-D DP kernel — alphabet, scoring layers, per-cell recurrence, traceback
FSM, banding — through the *front-end* (:mod:`repro.core`), and the
*back-end* maps it onto a modelled FPGA linear systolic array:

* :func:`align` runs a sequence pair through a register-accurate systolic
  simulation and returns score, alignment and cycle counts;
* :func:`synthesize` produces a Vitis-style report (LUT/FF/BRAM/DSP, II,
  Fmax, throughput) for a chosen (N_PE, N_B, N_K) configuration.

Quickstart::

    from repro import align, get_kernel, synthesize, LaunchConfig
    from repro.core.alphabet import encode_dna

    kernel = get_kernel("global_affine")           # Table 1's kernel #2
    result = align(kernel, encode_dna("ACGTAC"), encode_dna("AGTACC"))
    print(result.score, result.cigar)

    report = synthesize(kernel, LaunchConfig(n_pe=32, n_b=16, n_k=4))
    print(report.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-model comparison of every table and figure.
"""

from repro.api import Pipeline, Stage, map_flowcell, serve
from repro.core import (
    Alignment,
    AlignmentResult,
    CycleReport,
    EndRule,
    KernelSpec,
    Move,
    Objective,
    PEInput,
    StartRule,
    TracebackSpec,
)
from repro.kernels import KERNELS, get_kernel, is_registered, kernel_ids, list_kernels
from repro.parallel import BatchResult, ParallelExecutor, WorkError
from repro.reference import oracle_align
from repro.synth import LaunchConfig, SynthesisReport, synthesize
from repro.systolic import align
from repro.tiling import tiled_align

__version__ = "1.3.0"

__all__ = [
    "align",
    "serve",
    "map_flowcell",
    "oracle_align",
    "synthesize",
    "tiled_align",
    "Stage",
    "Pipeline",
    "ParallelExecutor",
    "BatchResult",
    "WorkError",
    "get_kernel",
    "is_registered",
    "kernel_ids",
    "list_kernels",
    "KERNELS",
    "KernelSpec",
    "LaunchConfig",
    "SynthesisReport",
    "Alignment",
    "AlignmentResult",
    "CycleReport",
    "Move",
    "Objective",
    "StartRule",
    "EndRule",
    "TracebackSpec",
    "PEInput",
    "__version__",
]
