"""Tile-request traces: recorded by the pipeline, replayed by loadgen.

A trace is a JSON-lines file, one tile request per line in submission
order (``{"kernel": int, "query": [codes], "reference": [codes]}``),
written by :class:`repro.pipeline.dispatch.TracingDispatcher`.  Replaying
it through ``repro loadgen --trace`` drives a service with the *exact*
tile stream a real mapping run produced — duplicate tiles and all — so
measured cache hit rates reflect production locality instead of a
synthetic Poisson mix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

PathLike = Union[str, Path]
TraceEntry = Tuple[int, Tuple[Any, ...], Tuple[Any, ...]]


def read_trace(path: PathLike) -> List[TraceEntry]:
    """Load a tile trace as a loadgen workload, preserving order.

    Returns ``(kernel_id, query, reference)`` triples — the workload
    shape :class:`repro.service.loadgen.LoadGenerator` consumes.  Raises
    ``ValueError`` on malformed lines so a truncated trace fails loudly
    rather than replaying a prefix.
    """
    entries: List[TraceEntry] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                kernel = int(record["kernel"])
                query = tuple(record["query"])
                reference = tuple(record["reference"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{number}: malformed trace line ({exc})"
                ) from None
            if not query or not reference:
                raise ValueError(
                    f"{path}:{number}: empty query or reference"
                )
            entries.append((kernel, query, reference))
    return entries


@dataclass(frozen=True)
class TraceSummary:
    """Shape of a trace: volume, dedup potential, tile dimensions."""

    requests: int
    distinct: int
    kernels: Tuple[int, ...]
    max_query_len: int
    max_ref_len: int

    @property
    def duplicate_fraction(self) -> float:
        """Fraction of requests that repeat an earlier tile — the
        cache hit rate a replay against a cold cache should converge
        to."""
        if not self.requests:
            return 0.0
        return (self.requests - self.distinct) / self.requests


def summarize_trace(entries: Sequence[TraceEntry]) -> TraceSummary:
    """Compute a :class:`TraceSummary` from loaded trace entries."""
    seen: Dict[TraceEntry, None] = {}
    for entry in entries:
        seen.setdefault(entry)
    return TraceSummary(
        requests=len(entries),
        distinct=len(seen),
        kernels=tuple(sorted({k for k, _, _ in entries})),
        max_query_len=max((len(q) for _, q, _ in entries), default=0),
        max_ref_len=max((len(r) for _, _, r in entries), default=0),
    )
