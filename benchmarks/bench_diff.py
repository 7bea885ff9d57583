"""Tolerance-band diff of two JSON bench artifacts.

Nothing in CI calls this any more: the committed ``BENCH_*.json``
artifacts it used to guard are retired and ``python3 -m bench``
(``BENCHMARK.json``'s bounds, taken on parent and change) is the
regression ledger.  The differ stays, with ``tests/test_bench_diff.py``,
only because the tier-1 floor still names those tests; delete both
together.  Its rules:

* **structure is strict** — both documents must have exactly the same
  keys (recursively) and the same container shapes; a missing or extra
  field fails regardless of tolerance;
* **ints, strings and bools are exact** — they encode configuration
  (lengths, reps, schema tags) or deterministic counts, except keys on
  the skip list (machine-dependent facts like ``cpus`` and the derived
  ``valid_for_scaling``), whose *presence* is still required;
* **floats compare within a multiplicative band** — timings move
  between machines and runs, so a fresh value passes while
  ``committed / band <= fresh <= committed * band``.  The band is
  deliberately wide (default 25x): the check catches stale artifacts
  and order-of-magnitude drift, not run-to-run jitter.

Usage::

    python benchmarks/bench_diff.py committed.json fresh.json \
        [--band 25] [--skip cpus --skip valid_for_scaling] \
        [--append-history benchmarks/output/BENCH_history.jsonl]

Exit status 0 when the artifacts agree, 1 with one line per problem
otherwise.

``--append-history`` additionally appends one JSONL record per
invocation — run id, git sha, artifact name, diff verdict, and the
fresh artifact's headline metrics (its top-level scalars) — building a
longitudinal history CI uploads as an artifact, so perf drift *within*
the tolerance band is still visible across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Keys whose *values* are machine- or environment-dependent.  Their
#: presence (and container shape) is still enforced.
DEFAULT_SKIP_KEYS = ("cpus", "valid_for_scaling")

DEFAULT_BAND = 25.0


def diff_docs(
    committed: Any,
    fresh: Any,
    band: float = DEFAULT_BAND,
    skip_keys: Sequence[str] = DEFAULT_SKIP_KEYS,
) -> List[str]:
    """Every disagreement between the two documents, one line each."""
    if band < 1.0:
        raise ValueError(f"band must be >= 1.0, got {band}")
    problems: List[str] = []
    _diff("$", committed, fresh, band, frozenset(skip_keys), problems)
    return problems


def _diff(path, committed, fresh, band, skip, problems) -> None:
    if isinstance(committed, dict) or isinstance(fresh, dict):
        if not (isinstance(committed, dict) and isinstance(fresh, dict)):
            problems.append(f"{path}: container mismatch "
                            f"({_kind(committed)} vs {_kind(fresh)})")
            return
        for key in sorted(set(committed) - set(fresh)):
            problems.append(f"{path}.{key}: missing from fresh run")
        for key in sorted(set(fresh) - set(committed)):
            problems.append(f"{path}.{key}: not in committed artifact")
        for key in sorted(set(committed) & set(fresh)):
            if key in skip:
                continue
            _diff(f"{path}.{key}", committed[key], fresh[key], band, skip,
                  problems)
        return
    if isinstance(committed, list) or isinstance(fresh, list):
        if not (isinstance(committed, list) and isinstance(fresh, list)):
            problems.append(f"{path}: container mismatch "
                            f"({_kind(committed)} vs {_kind(fresh)})")
            return
        if len(committed) != len(fresh):
            problems.append(f"{path}: length {len(committed)} vs {len(fresh)}")
            return
        for index, (a, b) in enumerate(zip(committed, fresh)):
            _diff(f"{path}[{index}]", a, b, band, skip, problems)
        return
    # bool is an int subclass — classify it first so flags stay exact
    if isinstance(committed, bool) or isinstance(fresh, bool):
        if committed is not fresh:
            problems.append(f"{path}: {committed!r} != {fresh!r}")
        return
    if isinstance(committed, float) or isinstance(fresh, float):
        if not _numeric(committed) or not _numeric(fresh):
            problems.append(f"{path}: type mismatch "
                            f"({_kind(committed)} vs {_kind(fresh)})")
            return
        if not _within_band(float(committed), float(fresh), band):
            problems.append(
                f"{path}: {fresh:.6g} outside {band:g}x band of "
                f"committed {committed:.6g}"
            )
        return
    if committed != fresh:
        problems.append(f"{path}: {committed!r} != {fresh!r}")


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _within_band(committed: float, fresh: float, band: float) -> bool:
    if committed == fresh:
        return True
    if committed == 0.0 or fresh == 0.0 or (committed > 0) != (fresh > 0):
        return False  # sign flips and exact-zero drift are never jitter
    ratio = fresh / committed
    return 1.0 / band <= ratio <= band


def _kind(value: Any) -> str:
    return type(value).__name__


def headline_metrics(doc: Any) -> Dict[str, Any]:
    """The artifact's top-level scalars — its one-line summary.

    Nested containers (per-point sweeps, raw samples) are history
    noise; the top-level ints/floats/bools/strings are the numbers a
    human would quote, so that is what a history record carries.
    """
    if not isinstance(doc, dict):
        return {}
    return {
        key: value for key, value in doc.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    }


def _git_sha() -> str:
    for env in ("GITHUB_SHA", "CI_COMMIT_SHA"):
        sha = os.environ.get(env)
        if sha:
            return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def history_record(
    fresh_path: str,
    fresh: Any,
    problems: Sequence[str],
    band: float,
) -> Dict[str, Any]:
    """One JSONL history line for this diff invocation."""
    return {
        "schema": "bench-history/v1",
        "run_id": os.environ.get("GITHUB_RUN_ID", "local"),
        "git_sha": _git_sha(),
        "artifact": Path(fresh_path).name,
        "band": band,
        "ok": not problems,
        "problems": len(problems),
        "headline": headline_metrics(fresh),
    }


def append_history(
    history_path: str,
    fresh_path: str,
    fresh: Any,
    problems: Sequence[str],
    band: float,
) -> None:
    """Append this invocation's record to the JSONL history file."""
    record = history_record(fresh_path, fresh, problems, band)
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="tolerance-band diff of two bench JSON artifacts"
    )
    parser.add_argument("committed", help="committed artifact (baseline)")
    parser.add_argument("fresh", help="freshly regenerated artifact")
    parser.add_argument(
        "--band", type=float, default=DEFAULT_BAND,
        help=f"max float ratio either way (default {DEFAULT_BAND:g}x)",
    )
    parser.add_argument(
        "--skip", action="append", default=None, metavar="KEY",
        help="value-exempt key (repeatable; default: "
             f"{', '.join(DEFAULT_SKIP_KEYS)})",
    )
    parser.add_argument(
        "--append-history", default=None, metavar="JSONL",
        help="append a run record (run id, git sha, headline metrics, "
             "verdict) to this JSONL history file",
    )
    options = parser.parse_args(argv)
    skip = DEFAULT_SKIP_KEYS if options.skip is None else options.skip
    with open(options.committed) as fh:
        committed = json.load(fh)
    with open(options.fresh) as fh:
        fresh = json.load(fh)
    problems = diff_docs(committed, fresh, band=options.band, skip_keys=skip)
    if options.append_history:
        append_history(
            options.append_history, options.fresh, fresh, problems,
            options.band,
        )
    for problem in problems:
        print(problem)
    if problems:
        print(f"bench diff: FAIL — {len(problems)} disagreement(s) "
              f"({options.committed} vs {options.fresh})")
        return 1
    print(f"bench diff: OK — {options.committed} and {options.fresh} "
          f"agree within {options.band:g}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
