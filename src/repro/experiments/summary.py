"""One-call reproduction summary: every table and figure, one report.

``reproduce_all()`` regenerates Table 1, Table 2, Figs. 3-6, the Section
7.5 HLS comparison and the tiling demonstration, and concatenates the
renders into a single text document (what ``python -m repro all`` prints
and what CI archives next to EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments import (
    fig3,
    fig4,
    fig5,
    fig6,
    hls_cmp,
    table1,
    table2,
    tiling_exp,
)


@dataclass
class ReproductionSummary:
    """All regenerated artifacts, keyed by experiment id."""

    sections: Dict[str, str]

    def render(self) -> str:
        """The combined report document."""
        divider = "\n" + "=" * 78 + "\n"
        parts = [
            "DP-HLS reproduction — full experiment summary",
        ]
        for name in sorted(self.sections):
            parts.append(f"{divider}[{name}]\n{self.sections[name]}")
        return "\n".join(parts)


def reproduce_all(include_tiling: bool = True) -> ReproductionSummary:
    """Regenerate every table/figure (tiling optional: it simulates reads)."""
    sections = {
        "table1_taxonomy": table1.render(),
        "table2_kernels": table2.render(),
        "fig3_scaling_kernel1": fig3.render(1),
        "fig3_scaling_kernel9": fig3.render(9),
        "fig4_rtl_baselines": fig4.render(),
        "fig5_gact_scaling": fig5.render(),
        "fig6_sw_baselines": fig6.render(),
        "sec7_5_hls_baseline": hls_cmp.render(),
    }
    if include_tiling:
        sections["sec7_3_tiling"] = tiling_exp.render(
            tiling_exp.run_tiling(n_reads=1, read_length=800)
        )
    return ReproductionSummary(sections=sections)


def render() -> str:
    """The combined report of every table and figure (``repro all``)."""
    return reproduce_all().render()
