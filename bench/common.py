"""Paths, the child environment, percentiles and the manifest."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MANIFEST = ROOT / "BENCHMARK.json"

#: Cores this process may use, read before anything is pinned.
CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

#: ``--seconds`` value at which the sizes in ``workloads.py`` are quoted.
BASE_SECONDS = 15.0


def require_program() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero when it is missing.

    The benchmark measures the program in *this* checkout only, so a
    directory holding just the benchmark files must fail, not fall back
    to some installed copy of ``repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment of every child: this checkout's ``src`` and ``bench``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_dir() -> Path:
    """A scratch directory private to this process, inside the checkout."""
    path = OUT / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def pin(role: str) -> None:
    """Pin the calling thread (and threads/children it starts) to one core.

    The benchmark's resource model is one core for the load generator and
    one for the program.  Left to the scheduler, the program's threads
    drift between sharing a core and straddling two; straddling turns
    every GIL hand-off into a cross-core wake-up (70 k context switches
    and +40% wall per ``map_flowcell`` pass on the sizing box), and a run
    lands in either mode at random.  ``role`` is ``"program"`` (highest
    available core) or ``"generator"`` (lowest); with fewer than two
    cores, or no affinity API, this does nothing.
    """
    if len(CORES) >= 2:
        os.sched_setaffinity(0, {CORES[-1] if role == "program" else CORES[0]})


def remove_run_dir() -> None:
    """Delete this process's scratch directory (trace files stay)."""
    shutil.rmtree(OUT / f"run-{os.getpid()}", ignore_errors=True)


def load_manifest() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(MANIFEST) as handle:
        return json.load(handle)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quiet(times: Sequence[float]) -> float:
    """Lower quartile of time-like samples: the run's quiet quarter.

    The sizing box has neighbours.  A pure-Python spin loop on it reads
    1-2% run to run in quiet minutes and 15-23% in noisy ones, in
    stalls of a few seconds that slow everything by 20-40%.  Stalls only
    ever add time, so the quarter of a run's windows that ran fastest is
    the part the neighbours left alone: against 15 minutes of recorded
    spin-loop timings, the lower quartile of an 18 s run's 1 s windows
    varied 1.3% between runs, their median 1.7% and their mean 2.4%.
    Every timing except ``setup_s`` is reported this way.
    """
    return percentile(times, 0.25)


def windowed_percentile(windows: Sequence[Sequence[float]], q: float) -> float:
    """:func:`quiet` over ``windows`` of each non-empty window's ``q`` percentile."""
    return quiet([percentile(w, q) for w in windows if w])


def typical(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Per position, :func:`quiet` across ``repeats`` of the same call list.

    A stall lands on different calls in different repeats, so taking the
    quartile call by call recovers a whole undisturbed repeat even when
    no single repeat was one.
    """
    return [quiet(column) for column in zip(*repeats)]


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User + system CPU seconds consumed so far."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, Any]:
    """One metric in the result line's shape."""
    return {"value": float(value), "unit": unit}


def environment() -> Dict[str, Any]:
    """Where the numbers were taken (goes into every result set)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }


def print_rows(rows: List[Sequence[Any]]) -> None:
    """Left-aligned columns, one row per line."""
    if not rows:
        return
    widths = [max(len(str(row[k])) for row in rows) for k in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
