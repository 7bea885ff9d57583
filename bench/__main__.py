"""``python -m bench``: run workloads, print every metric, check outputs.

With ``--workload NAME`` the last stdout line is the one-object JSON
result the benchmark contract asks for; without it every workload runs
in a fresh child process of its own (so peak memory, CPU and set-up time
are per workload) and the last line summarises them all.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

from bench.common import (
    ROOT,
    child_env,
    environment,
    load_manifest,
    print_rows,
    remove_run_dir,
    require_program,
)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--seed", type=int, default=0,
                        help="every input is a function of this")
    parser.add_argument("--workload", default=None,
                        help="run only this workload (default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="~10x smaller inputs; smoke tests only")
    parser.add_argument("--out", default=None,
                        help="also write the result set to this JSON file")
    parser.add_argument("--check-repeat", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result sets against the bounds")
    return parser.parse_args(argv)


def run_one(name: str, args: argparse.Namespace, manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload in this (fresh) process; returns its result object."""
    require_program()
    from bench import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    print(f"== {name} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}{' quick' if args.quick else ''}", flush=True)
    if args.trace:
        from bench import trace

        outcome = trace.run(name, args.seed, seconds, args.quick)
        declared = manifest["per_layer"]
    else:
        outcome = workloads.WORKLOADS[name](args.seed, seconds, args.quick)
        declared = manifest["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(units))
    if missing or extra:
        raise SystemExit(
            f"bench: {name} emitted a different metric set than "
            f"BENCHMARK.json declares (missing {missing}, undeclared {extra})"
        )
    rows = []
    for metric_name in units:
        got = outcome.metrics[metric_name]
        if got["unit"] != units[metric_name]:
            raise SystemExit(
                f"bench: {metric_name} is in {got['unit']}, declared "
                f"{units[metric_name]}"
            )
        rows.append((name, metric_name, f"{got['value']:.6g}", got["unit"]))
    rows.append((name, "failed_frac",
                 f"{outcome.failed / max(1, outcome.attempted):.6g}", "ratio"))
    print_rows(rows)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: outcome.metrics[k] for k in units},
    }


def run_child(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in a child ``python -m bench``; parse its last line."""
    command = [sys.executable, "-m", "bench", "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    proc = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"bench: workload {name} died (exit {proc.returncode})")
    return json.loads(lines[-1])


def _exit_on_sigterm(_signum: int, _frame: Any) -> None:
    # As an exception, so ``finally`` blocks still reap the serve child.
    raise SystemExit(143)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.check_repeat:
        from bench import repeat

        return repeat.main(*args.check_repeat)
    manifest = load_manifest()
    if args.workload is not None:
        try:
            results = {args.workload: run_one(args.workload, args, manifest)}
        finally:
            remove_run_dir()
        last_line = results[args.workload]
    else:
        require_program()
        results = {
            w["name"]: run_child(w["name"], args) for w in manifest["workloads"]
        }
        last_line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    if args.out:
        result_set = {
            "seed": args.seed, "trace": args.trace, "quick": args.quick,
            "seconds": args.seconds if args.seconds is not None
            else manifest["run_seconds"],
            "environment": environment(),
            "workloads": results,
        }
        with open(args.out, "w") as handle:
            json.dump(result_set, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(last_line), flush=True)
    return 0 if last_line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
