"""Tile dispatchers: where the pipeline's extension stage runs its DP.

The GACT loop (:func:`repro.tiling.gact.stitch`) is written against
one tiny seam — ``run_tiles(pairs) -> [TileResult]`` — so the same
stitching code can execute tiles on an in-process
:class:`~repro.host.runtime.DeviceRuntime`, a
:class:`~repro.cache.facade.CachedRuntime`, or a remote alignment
service (the shard front door) without byte-level divergence: a tile's
CIGAR is a lossless encoding of its traceback, so expanding it client
side reproduces exactly the moves an in-process run would commit.

``TracingDispatcher`` wraps any of the above and records every tile
request to a JSON-lines file; :mod:`repro.pipeline.trace` turns that
file back into a ``repro loadgen --trace`` workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, IO, List, Optional, Sequence, Union

from repro.core.result import Move, expand_cigar
from repro.tiling.gact import TilePair, TileResult

PathLike = Union[str, Path]


class TileDispatcher:
    """Protocol: execute a wavefront of alignment tiles.

    Implementations must return one :class:`TileResult` per input pair,
    index-aligned, and raise on any failed tile (the pipeline treats a
    failed tile as a failed stage, not a silently dropped read).
    """

    def run_tiles(self, pairs: Sequence[TilePair]) -> List[TileResult]:
        """Align every (query, reference) tile; index-aligned results."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (default: nothing to release)."""


class RuntimeTileDispatcher(TileDispatcher):
    """Run tiles on an in-process runtime (cached or bare).

    ``runtime`` is anything with the :meth:`DeviceRuntime.run` contract;
    a :class:`~repro.cache.facade.CachedRuntime` additionally yields
    per-tile cache attribution, which this dispatcher forwards into
    :attr:`TileResult.cached`.
    """

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        #: Kernel id the tiles execute on (for trace records).
        self.kernel_id: int = runtime.spec.kernel_id

    def run_tiles(self, pairs: Sequence[TilePair]) -> List[TileResult]:
        """One batched ``run`` call per wavefront."""
        outcome = self.runtime.run(list(pairs))
        if outcome.errors:
            first = outcome.errors[0]
            raise RuntimeError(
                f"tile {first.index} failed: {first.message}"
            )
        cached = getattr(outcome, "cached", None)
        if cached is None:
            cached = [False] * len(outcome.results)
        tiles: List[TileResult] = []
        for result, hit in zip(outcome.results, cached):
            assert result is not None and result.alignment is not None
            tiles.append(
                TileResult(
                    moves=tuple(
                        m for m in result.alignment.moves
                        if m is not Move.END
                    ),
                    score=float(result.score),
                    cached=bool(hit),
                )
            )
        return tiles


class ServiceTileDispatcher(TileDispatcher):
    """Run tiles through an alignment service client.

    Works with both :class:`~repro.service.client.AlignmentClient` (TCP)
    and :class:`~repro.service.client.InProcClient` — anything exposing
    ``submit(kernel_id, query, reference) -> slot`` with a blocking
    ``slot.result(timeout)``.  The whole wavefront is submitted before
    the first result is awaited, so the service batcher sees the tiles
    together and can coalesce duplicates.
    """

    def __init__(
        self,
        client: Any,
        kernel_id: int,
        result_timeout: float = 120.0,
    ) -> None:
        self.client = client
        self.kernel_id = kernel_id
        self.result_timeout = result_timeout

    def run_tiles(self, pairs: Sequence[TilePair]) -> List[TileResult]:
        """Submit the wavefront, then collect in submission order."""
        slots = [
            self.client.submit(self.kernel_id, tuple(q), tuple(r))
            for q, r in pairs
        ]
        tiles: List[TileResult] = []
        for slot in slots:
            response = slot.result(timeout=self.result_timeout)
            if not response.ok:
                raise RuntimeError(
                    f"tile request {response.request_id} rejected: "
                    f"{response.status.value} {response.error}"
                )
            tiles.append(
                TileResult(
                    moves=expand_cigar(response.cigar),
                    score=float(response.score),
                    cached=bool(response.cached),
                )
            )
        return tiles

    def close(self) -> None:
        """Close the underlying client connection."""
        self.client.close()


class TracingDispatcher(TileDispatcher):
    """Record every tile request while delegating to another dispatcher.

    Each tile becomes one JSON line ``{"kernel", "query", "reference"}``
    in submission order — exactly the shape
    :func:`repro.pipeline.trace.read_trace` replays through
    ``repro loadgen --trace``.
    """

    def __init__(self, inner: TileDispatcher, path: PathLike) -> None:
        self.inner = inner
        self.path = Path(path)
        self._handle: Optional[IO[str]] = open(self.path, "w")
        self._records = 0

    @property
    def kernel_id(self) -> int:
        """Kernel id of the wrapped dispatcher."""
        return getattr(self.inner, "kernel_id", 0)

    @property
    def records(self) -> int:
        """Tile requests recorded so far."""
        return self._records

    def run_tiles(self, pairs: Sequence[TilePair]) -> List[TileResult]:
        """Record the wavefront, then delegate."""
        assert self._handle is not None, "trace already closed"
        for query, reference in pairs:
            self._handle.write(
                json.dumps(
                    {
                        "kernel": self.kernel_id,
                        "query": [int(b) for b in query],
                        "reference": [int(b) for b in reference],
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
            self._records += 1
        return self.inner.run_tiles(pairs)

    def close(self) -> None:
        """Flush the trace file and close the wrapped dispatcher."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.inner.close()
