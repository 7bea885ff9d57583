"""``--check-repeat A.json B.json``: do two result sets agree?

Compares, workload by workload and metric by metric, two files written
by ``python -m bench --out``: end-to-end timings relative to A within
the metric's bound in ``BENCHMARK.json``, the counts a deterministic
program must reproduce exactly, and zero failures on both sides.
Per-layer timings have no bound; their rows are informational.  The same
tool serves the repeatability check (same commit twice) and a later
parent-vs-change comparison (A = parent): ``worse`` and ``better`` rows
say which way B moved.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from bench.common import load_manifest, print_rows

#: Per-layer metrics that are simulated statistics or model outputs:
#: the same commit and seed must reproduce them digit for digit.
EXACT = (
    "systolic.sim_cycles_total",
    "systolic.oracle_mismatches",
    "synth.feasible_configs_total",
    "synth.table2_aln_err_geomean_pct",
    "synth.table2_lut_err_geomean_pct",
    "pipeline.tiles_total",
    "pipeline.mapped_frac",
)


def compare(a: Dict[str, Any], b: Dict[str, Any], manifest: Dict[str, Any]) -> List[Sequence[Any]]:
    """Rows of (workload, metric, A, B, change, bound, verdict)."""
    declared = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    rows: List[Sequence[Any]] = []
    for spec in manifest["workloads"]:
        name = spec["name"]
        side_a = a["workloads"].get(name)
        side_b = b["workloads"].get(name)
        if side_a is None or side_b is None:
            rows.append((name, "-", "-", "-", "-", "-", "MISSING"))
            continue
        for side, label in ((side_a, "A"), (side_b, "B")):
            verdict = "same" if side["failed"] == 0 else "FAILED"
            rows.append((name, f"failed ({label})", side["failed"],
                         f"of {side['attempted']}", "-", "0", verdict))
        for metric_name in side_a["metrics"]:
            if metric_name not in side_b["metrics"]:
                rows.append((name, metric_name, "-", "-", "-", "-", "MISSING"))
                continue
            va = side_a["metrics"][metric_name]["value"]
            vb = side_b["metrics"][metric_name]["value"]
            info = declared.get(metric_name, {})
            if metric_name in EXACT:
                verdict = "same" if va == vb else "DIFFERS"
                rows.append((name, metric_name, f"{va:.6g}", f"{vb:.6g}",
                             "-", "exact", verdict))
                continue
            if vb == va:
                change = 0.0
            else:
                change = (vb - va) / abs(va) if va else float("inf")
            bound = info.get("bound")
            if bound is None:
                verdict = "info"
            elif abs(change) <= bound:
                verdict = "same"
            else:
                improved = (change < 0) == (info["better"] == "lower")
                verdict = "BETTER" if improved else "WORSE"
            rows.append((name, metric_name, f"{va:.6g}", f"{vb:.6g}",
                         f"{change:+.2%}", "-" if bound is None else f"{bound:.0%}",
                         verdict))
    return rows


def main(path_a: str, path_b: str) -> int:
    """Print one row per workload x metric; 0 only when everything agrees."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows = compare(a, b, load_manifest())
    print_rows([("workload", "metric", "A", "B", "change", "bound", "verdict"), *rows])
    disagreements = [row for row in rows if row[-1] not in ("same", "info")]
    print(f"{len(rows)} rows, {len(disagreements)} disagreements")
    return 1 if disagreements else 0
