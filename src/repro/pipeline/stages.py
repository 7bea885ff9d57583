"""The read-mapping pipeline's stages: seed/chain and tiled extension.

Chunks flow ``List[FastqRecord]`` → ``List[SeedTask]`` →
``List[MappedItem]`` → SAM sink.  Both stages implement
:class:`repro.api.Stage`, so :class:`repro.api.Pipeline` provides the
bounded queues, backpressure, and per-stage observability around them.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.api.stage import Stage
from repro.apps.chaining import Anchor, chain_anchors
from repro.core.alphabet import encode_dna
from repro.core.result import compress_cigar
from repro.data.fastq import FastqRecord
from repro.data.genome import reverse_complement
from repro.data.sam import MappedRead
from repro.pipeline.dispatch import TileDispatcher
from repro.pipeline.extend import extend_batch
from repro.pipeline.index import KmerIndex


class SeedTask(NamedTuple):
    """A seeded read headed for tiled extension.

    ``query`` is strand-oriented (reverse-complemented for ``-`` hits);
    ``window`` is the candidate genome slice starting at
    ``window_start``.  A read that found no credible placement carries
    ``window = None`` and flows through extension untouched, so the SAM
    sink still emits its unmapped record in order.
    """

    name: str
    sequence: str
    strand: str
    query: Optional[Tuple[int, ...]]
    window_start: int
    window: Optional[Tuple[int, ...]]


class MappedItem(NamedTuple):
    """One read's final mapping decision, ready for SAM emission."""

    name: str
    sequence: str
    hit: Optional[MappedRead]
    mapq: int


class SeedChainStage(Stage):
    """Seed reads against the k-mer index and chain the anchors.

    Per strand: collect (capped) anchors, vote on binned diagonals,
    chain the anchors of the winning diagonal band, and keep the
    higher-scoring strand.  Reads whose best chain scores below
    ``min_chain_score`` leave as unmapped :class:`SeedTask` records.
    """

    def __init__(
        self,
        index: KmerIndex,
        padding: int = 32,
        max_anchors: int = 128,
        max_gap: int = 128,
        min_chain_score: float = 24.0,
        bin_width: int = 16,
    ) -> None:
        self.index = index
        self.padding = padding
        self.max_anchors = max_anchors
        self.max_gap = max_gap
        self.min_chain_score = min_chain_score
        self.bin_width = bin_width
        self.seeded = 0
        self.unseeded = 0

    @property
    def name(self) -> str:
        """Stage name in pipeline metrics."""
        return "seed"

    def _candidate(
        self, codes: Tuple[int, ...]
    ) -> Optional[Tuple[float, int]]:
        """(chain_score, diagonal) of the read's best placement, if any."""
        anchors = self.index.anchors(codes, max_anchors=self.max_anchors)
        if not anchors:
            return None
        diagonals = np.asarray(
            [a.ref_pos - a.read_pos for a in anchors], dtype=np.int64
        )
        bins = diagonals // self.bin_width
        values, counts = np.unique(bins, return_counts=True)
        winner = values[int(np.argmax(counts))]
        in_band = np.abs(bins - winner) <= 1
        band = [a for a, keep in zip(anchors, in_band) if keep]
        chain = chain_anchors(band, max_gap=self.max_gap)
        if chain is None:
            return None
        diagonal = int(np.median(diagonals[in_band]))
        return chain.score, diagonal

    def process(self, chunk: Sequence[FastqRecord]) -> List[List[SeedTask]]:
        """Seed one chunk of FASTQ records."""
        tasks: List[SeedTask] = []
        for record in chunk:
            forward = encode_dna(record.sequence)
            best: Optional[Tuple[float, int, str, Tuple[int, ...]]] = None
            for strand, codes in (
                ("+", forward),
                ("-", reverse_complement(forward)),
            ):
                if len(codes) < self.index.k:
                    continue
                candidate = self._candidate(codes)
                if candidate is None:
                    continue
                score, diagonal = candidate
                if best is None or score > best[0]:
                    best = (score, diagonal, strand, codes)
            if best is None or best[0] < self.min_chain_score:
                self.unseeded += 1
                tasks.append(
                    SeedTask(record.name, record.sequence, "+", None, 0, None)
                )
                continue
            _, diagonal, strand, codes = best
            start, window = self.index.window(
                len(codes), diagonal, padding=self.padding
            )
            self.seeded += 1
            tasks.append(
                SeedTask(record.name, record.sequence, strand,
                         codes, start, window)
            )
        return [tasks]


class ExtendStage(Stage):
    """GACT-extend seeded reads, tiles batched across the chunk.

    Every seeded read in a chunk advances in lockstep through
    :func:`repro.pipeline.extend.extend_batch`; the resulting stitched
    alignment is accepted when its base-level identity clears
    ``min_identity``, with MAPQ scaled linearly above that floor.
    """

    def __init__(
        self,
        dispatcher: TileDispatcher,
        tile_size: int = 128,
        overlap: int = 32,
        min_identity: float = 0.55,
    ) -> None:
        if not 0.0 < min_identity < 1.0:
            raise ValueError(
                f"min_identity must be in (0, 1), got {min_identity}"
            )
        self.dispatcher = dispatcher
        self.tile_size = tile_size
        self.overlap = overlap
        self.min_identity = min_identity
        self.tiles = 0
        self.cached_tiles = 0
        self.mapped = 0
        self.unmapped = 0

    @property
    def name(self) -> str:
        """Stage name in pipeline metrics."""
        return "extend"

    def _mapq(self, identity: float) -> int:
        """MAPQ from identity, linear above the accept floor, 0..60."""
        span = 1.0 - self.min_identity
        scaled = 60.0 * (identity - self.min_identity) / span
        return max(0, min(60, int(round(scaled))))

    def process(self, chunk: Sequence[SeedTask]) -> List[List[MappedItem]]:
        """Extend one chunk of seeded reads."""
        seeded = [
            (i, task) for i, task in enumerate(chunk)
            if task.window is not None
        ]
        outcomes = extend_batch(
            [(task.query, task.window) for _, task in seeded],
            self.dispatcher,
            tile_size=self.tile_size,
            overlap=self.overlap,
        )
        items: List[Optional[MappedItem]] = [None] * len(chunk)
        for (i, task), outcome in zip(seeded, outcomes):
            self.tiles += outcome.tiles
            self.cached_tiles += outcome.cached_tiles
            identity = (
                outcome.matches / len(task.query) if task.query else 0.0
            )
            if identity < self.min_identity:
                items[i] = MappedItem(task.name, task.sequence, None, 0)
                continue
            hit = MappedRead(
                position=task.window_start,
                strand=task.strand,
                score=float(outcome.matches),
                cigar=compress_cigar(outcome.alignment.moves),
                window_offset=0,
            )
            items[i] = MappedItem(
                task.name, task.sequence, hit, self._mapq(identity)
            )
        for i, task in enumerate(chunk):
            if items[i] is None:
                items[i] = MappedItem(task.name, task.sequence, None, 0)
        finished = [item for item in items if item is not None]
        self.mapped += sum(1 for item in finished if item.hit is not None)
        self.unmapped += sum(1 for item in finished if item.hit is None)
        return [finished]

    def close(self) -> None:
        """Close the tile dispatcher with the stage."""
        self.dispatcher.close()
