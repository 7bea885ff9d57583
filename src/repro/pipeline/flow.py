"""`map_flowcell`: the whole-genome read-mapping pipeline, end to end.

Wires chunked FASTQ ingest → :class:`~repro.pipeline.stages.SeedChainStage`
→ :class:`~repro.pipeline.stages.ExtendStage` (GACT tiles through a
:class:`~repro.pipeline.dispatch.TileDispatcher`) → streaming SAM
emission, all inside a bounded-queue :class:`repro.api.Pipeline`.  At no
point does the flowcell, the alignment set, or the SAM output exist in
memory at once: reads enter in chunks, at most
``queue_bound × (stages + 1)`` chunks are in flight, and records leave
through a :class:`~repro.data.sam.SamWriter` as they finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.api.stage import Pipeline, PipelineReport
from repro.backend import DEFAULT_BACKEND
from repro.data.fastq import iter_fastq_chunks
from repro.data.sam import SamWriter
from repro.pipeline.dispatch import (
    RuntimeTileDispatcher,
    TileDispatcher,
    TracingDispatcher,
)
from repro.pipeline.index import KmerIndex
from repro.pipeline.stages import ExtendStage, SeedChainStage

PathLike = Union[str, Path]

#: Kernel the tile dispatcher runs by default (global linear — the only
#: start rule GACT tiling admits).
TILE_KERNEL_ID = 1


@dataclass(frozen=True)
class MapReport:
    """Everything a mapping run measured, bench-artifact ready."""

    reads: int
    mapped: int
    unmapped: int
    seeded: int
    tiles: int
    tile_cache_hits: int
    trace_records: int
    pipeline: PipelineReport

    @property
    def elapsed_s(self) -> float:
        """Wall-clock seconds of the pipeline run."""
        return self.pipeline.elapsed_s

    @property
    def reads_per_sec(self) -> float:
        """End-to-end mapping throughput."""
        if self.pipeline.elapsed_s <= 0:
            return 0.0
        return self.reads / self.pipeline.elapsed_s

    @property
    def tile_hit_rate(self) -> float:
        """Fraction of tiles served without engine work."""
        return self.tile_cache_hits / self.tiles if self.tiles else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what ``repro map`` prints)."""
        return {
            "reads": self.reads,
            "mapped": self.mapped,
            "unmapped": self.unmapped,
            "seeded": self.seeded,
            "tiles": self.tiles,
            "tile_cache_hits": self.tile_cache_hits,
            "tile_cache_hit_rate": round(self.tile_hit_rate, 4),
            "trace_records": self.trace_records,
            "elapsed_s": round(self.elapsed_s, 3),
            "reads_per_sec": round(self.reads_per_sec, 3),
            "dropped_chunks": self.pipeline.dropped,
            "stages": {
                s.name: s.to_dict() for s in self.pipeline.stages
            },
        }


def build_tile_runtime(
    tile_size: int = 128,
    n_pe: int = 32,
    backend: str = DEFAULT_BACKEND,
    cache: Any = None,
) -> Any:
    """A runtime sized for GACT tiles (optionally cache-fronted).

    Returns a :class:`~repro.host.runtime.DeviceRuntime` on the global
    tile kernel, wrapped in a :class:`~repro.cache.facade.CachedRuntime`
    when a :class:`~repro.cache.facade.CacheStack` is given — pass the
    same stack to successive runs to measure warm-over-cold speedups.
    """
    from repro.host.runtime import DeviceRuntime
    from repro.kernels import get_kernel
    from repro.synth.compiler import LaunchConfig

    runtime = DeviceRuntime(
        get_kernel(TILE_KERNEL_ID),
        LaunchConfig(
            n_pe=n_pe, max_query_len=tile_size, max_ref_len=tile_size
        ),
        backend=backend,
    )
    if cache is None:
        return runtime
    from repro.cache.facade import CachedRuntime

    return CachedRuntime(runtime, cache)


def map_flowcell(
    fastq_path: PathLike,
    genome: Sequence[int],
    out_sam: PathLike,
    chunk_size: int = 16,
    queue_bound: int = 4,
    k: int = 12,
    max_occ: int = 64,
    padding: int = 32,
    min_chain_score: float = 24.0,
    tile_size: int = 128,
    overlap: int = 32,
    min_identity: float = 0.55,
    n_pe: int = 32,
    backend: str = DEFAULT_BACKEND,
    cache: Any = None,
    dispatcher: Optional[TileDispatcher] = None,
    trace_path: Optional[PathLike] = None,
    reference_name: str = "ref",
) -> MapReport:
    """Map a FASTQ flowcell against ``genome``, streaming SAM to disk.

    ``dispatcher`` overrides where tiles execute (e.g. a
    :class:`~repro.pipeline.dispatch.ServiceTileDispatcher` aimed at the
    shard front door); the pipeline takes ownership and closes it on
    completion.  ``cache`` is an optional
    :class:`~repro.cache.facade.CacheStack` for the default in-process
    dispatcher.  ``trace_path`` records every tile request for
    ``repro loadgen --trace`` replay.
    """
    index = KmerIndex(genome, k=k, max_occ=max_occ)
    if dispatcher is None:
        dispatcher = RuntimeTileDispatcher(
            build_tile_runtime(
                tile_size=tile_size, n_pe=n_pe,
                backend=backend, cache=cache,
            )
        )
    tracer: Optional[TracingDispatcher] = None
    if trace_path is not None:
        tracer = TracingDispatcher(dispatcher, trace_path)
        dispatcher = tracer
    seed = SeedChainStage(
        index,
        padding=padding,
        min_chain_score=min_chain_score,
    )
    extend = ExtendStage(
        dispatcher,
        tile_size=tile_size,
        overlap=overlap,
        min_identity=min_identity,
    )
    pipeline = Pipeline([seed, extend], queue_bound=queue_bound)
    with SamWriter(out_sam, reference_name, len(genome)) as writer:
        def sink(chunk: Any) -> None:
            for item in chunk:
                writer.write(item.name, item.sequence, item.hit,
                             mapq=item.mapq)

        report = pipeline.run(
            iter_fastq_chunks(fastq_path, chunk_size), sink=sink
        )
        reads = writer.records_written
    return MapReport(
        reads=reads,
        mapped=extend.mapped,
        unmapped=extend.unmapped,
        seeded=seed.seeded,
        tiles=extend.tiles,
        tile_cache_hits=extend.cached_tiles,
        trace_records=tracer.records if tracer is not None else 0,
        pipeline=report,
    )
