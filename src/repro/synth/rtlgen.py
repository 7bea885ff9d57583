"""Structural RTL skeleton generation.

Section 7.2 argues the HLS compiler's output "exhibits the expected linear
systolic array behavior" but is not easily interpretable.  This module
makes the expected structure explicit: given a KernelSpec and a launch
configuration it emits a *Verilog skeleton* of the design the back-end
implies — the PE module with its datapath port widths, the N_PE-instance
systolic chain with the up/diag/left register plumbing, the banked
traceback memories, the preserved-row buffer and the block-level
generate loop over N_B.

The emitted text is structural documentation (and a target for tests that
assert the systolic topology), not synthesizable logic: PE internals are
summarised as operator counts from the datapath summary.
"""

from __future__ import annotations

from typing import List

from repro.core.datapath import OpKind
from repro.core.spec import KernelSpec
from repro.synth.compiler import LaunchConfig


def _pe_module(spec: KernelSpec, score_bits: int) -> List[str]:
    datapath = spec.trace_datapath()
    char_bits = spec.alphabet.storage_bits
    lines = [
        f"module {spec.name}_pe #(",
        f"    parameter SCORE_W = {score_bits},",
        f"    parameter CHAR_W  = {char_bits},",
        f"    parameter TB_W    = {spec.tb_ptr_bits}",
        ") (",
        "    input  wire                     clk,",
        "    input  wire                     enable,",
        "    input  wire [CHAR_W-1:0]        qry_char,   // latched per chunk",
        "    input  wire [CHAR_W-1:0]        ref_char,   // streams through",
    ]
    for layer in range(spec.n_layers):
        lines += [
            f"    input  wire signed [SCORE_W-1:0] up_l{layer},    // from PE p-1 bus",
            f"    input  wire signed [SCORE_W-1:0] diag_l{layer},  // delay register",
            f"    input  wire signed [SCORE_W-1:0] left_l{layer},  // own output reg",
        ]
    for layer in range(spec.n_layers):
        lines.append(
            f"    output reg  signed [SCORE_W-1:0] score_l{layer},"
        )
    lines += [
        "    output reg  [TB_W-1:0]           tb_ptr",
        ");",
        "    // datapath summary (from the traced PE function):",
        f"    //   adders        : {datapath.count(OpKind.ADD)}",
        f"    //   multipliers   : {datapath.count(OpKind.MUL)}",
        f"    //   comparators   : {datapath.count(OpKind.CMP)}",
        f"    //   multiplexers  : {datapath.count(OpKind.MUX)}",
        f"    //   ROM ports     : {datapath.count(OpKind.ROM)}",
        f"    //   logic depth   : {datapath.critical_depth:.1f} levels",
        "endmodule",
    ]
    return lines


def _block_module(spec: KernelSpec, config: LaunchConfig, score_bits: int) -> List[str]:
    n_pe = config.n_pe
    max_r = config.max_ref_len
    n_chunks = -(-config.max_query_len // n_pe)
    tb_depth = n_chunks * (max_r + n_pe - 1)
    lines = [
        f"module {spec.name}_block #(",
        f"    parameter N_PE = {n_pe}",
        ") (",
        "    input wire clk, input wire rst",
        ");",
        "",
        "    // systolic chain registers",
        f"    wire signed [{score_bits - 1}:0] bus   [0:N_PE-1][0:{spec.n_layers - 1}];",
        f"    reg  signed [{score_bits - 1}:0] diag_r [0:N_PE-1][0:{spec.n_layers - 1}];",
        f"    reg  signed [{score_bits - 1}:0] left_r [0:N_PE-1][0:{spec.n_layers - 1}];",
        "",
        "    // preserved-row score buffer (last PE -> next chunk's PE 0)",
        f"    reg signed [{score_bits * spec.n_layers - 1}:0] "
        f"row_buffer [0:{max_r}];",
        "",
    ]
    if spec.has_traceback:
        lines += [
            "    // banked traceback memory: one bank per PE, coalesced addressing",
            "    genvar b;",
            "    generate",
            "        for (b = 0; b < N_PE; b = b + 1) begin : tb_banks",
            f"            reg [{spec.tb_ptr_bits - 1}:0] bank [0:{tb_depth - 1}];",
            "        end",
            "    endgenerate",
            "",
        ]
    lines += [
        "    // linear systolic array of PEs",
        "    genvar p;",
        "    generate",
        "        for (p = 0; p < N_PE; p = p + 1) begin : pe_chain",
        f"            {spec.name}_pe pe_i (",
        "                .clk(clk),",
        "                .up_l0(p == 0 ? row_buffer_rd : bus[p-1][0]),",
        "                .diag_l0(diag_r[p][0]),",
        "                .left_l0(left_r[p][0])",
        "                /* remaining layers wired identically */",
        "            );",
        "        end",
        "    endgenerate",
        "endmodule",
    ]
    return lines


def generate_rtl_skeleton(
    spec: KernelSpec, config: LaunchConfig = None
) -> str:
    """Emit the Verilog skeleton of the design the back-end implies."""
    config = config or LaunchConfig()
    score_bits = spec.score_type.width
    lines: List[str] = [
        f"// DP-HLS generated structure for kernel #{spec.kernel_id} "
        f"({spec.name})",
        f"// N_PE={config.n_pe} N_B={config.n_b} N_K={config.n_k} "
        f"max={config.max_query_len}x{config.max_ref_len}",
        "",
    ]
    lines += _pe_module(spec, score_bits)
    lines.append("")
    lines += _block_module(spec, config, score_bits)
    lines += [
        "",
        f"module {spec.name}_kernel;",
        "    // N_B parallel blocks behind one arbiter (Section 5.3)",
        "    genvar blk;",
        "    generate",
        f"        for (blk = 0; blk < {config.n_b}; blk = blk + 1) "
        "begin : blocks",
        f"            {spec.name}_block block_i (.clk(clk), .rst(rst));",
        "        end",
        "    endgenerate",
        "endmodule",
    ]
    return "\n".join(lines)
