"""Seed-and-extend short-read mapping on the semi-global kernel (#7).

The BWA-MEM shape (Table 1's application for kernel #7): exact k-mer
seeds vote for genome diagonals, the best candidate window is verified by
a semi-global alignment of the read against that window (on both
strands), and hits below a score threshold are rejected.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.stage import Stage
from repro.data.genome import reverse_complement
from repro.data.sam import MappedRead
from repro.kernels import get_kernel
from repro.systolic import align


class ReadMapper:
    """A k-mer-indexed genome plus the device kernel that verifies hits."""

    def __init__(
        self,
        genome: Sequence[int],
        k: int = 12,
        window_padding: int = 16,
        min_score_fraction: float = 0.5,
        n_pe: int = 16,
    ) -> None:
        if k < 4:
            raise ValueError(f"k must be >= 4, got {k}")
        if len(genome) < k:
            raise ValueError("genome shorter than k")
        self.genome = tuple(genome)
        self.k = k
        self.window_padding = window_padding
        self.min_score_fraction = min_score_fraction
        self.n_pe = n_pe
        self._kernel = get_kernel(7)  # semi-global: read end-to-end
        self._index: Dict[Tuple[int, ...], List[int]] = defaultdict(list)
        for pos in range(len(genome) - k + 1):
            self._index[self.genome[pos:pos + k]].append(pos)

    # ------------------------------------------------------------------
    def _seed_votes(self, read: Sequence[int]) -> Counter:
        """Diagonal votes: genome_pos - read_pos for every seed hit."""
        votes: Counter = Counter()
        for offset in range(0, len(read) - self.k + 1):
            for pos in self._index.get(tuple(read[offset:offset + self.k]), ()):
                votes[pos - offset] += 1
        return votes

    def chain(self, read: Sequence[int]):
        """Best seed chain for a read (the minimap2-style pre-filter)."""
        from repro.apps.chaining import anchors_from_index, chain_anchors

        anchors = anchors_from_index(read, self._index, self.k)
        return chain_anchors(anchors)

    def _verify(self, read: Sequence[int], diagonal: int) -> Optional[MappedRead]:
        start = max(0, diagonal - self.window_padding)
        end = min(len(self.genome), diagonal + len(read) + self.window_padding)
        window = self.genome[start:end]
        if len(window) < len(read):
            return None
        result = align(self._kernel, read, window, n_pe=self.n_pe)
        return MappedRead(
            position=start,
            strand="+",
            score=result.score,
            cigar=result.cigar,
            window_offset=result.end[1],
        )

    def _map_strand(self, read: Sequence[int]) -> Optional[MappedRead]:
        votes = self._seed_votes(read)
        if not votes:
            return None
        best: Optional[MappedRead] = None
        for diagonal, _count in votes.most_common(3):
            hit = self._verify(read, diagonal)
            if hit and (best is None or hit.score > best.score):
                best = hit
        return best

    def map(self, read: Sequence[int]) -> Optional[MappedRead]:
        """Map one read (both strands); None when no confident placement."""
        if len(read) < self.k:
            raise ValueError(
                f"read of length {len(read)} shorter than k={self.k}"
            )
        forward = self._map_strand(read)
        rc = self._map_strand(reverse_complement(tuple(read)))
        best = forward
        if rc is not None and (best is None or rc.score > best.score):
            best = MappedRead(
                position=rc.position, strand="-", score=rc.score,
                cigar=rc.cigar, window_offset=rc.window_offset,
            )
        threshold = (
            self.min_score_fraction
            * self._kernel.default_params.match
            * len(read)
        )
        if best is None or best.score < threshold:
            return None
        return best

    def mapped_start(self, hit: MappedRead) -> int:
        """Genome coordinate where the read alignment begins."""
        return hit.position + hit.window_offset


class ReadMapperStage(Stage):
    """:class:`ReadMapper` as a pipeline :class:`~repro.api.Stage`.

    Consumes chunks of ``(name, read)`` records and emits one chunk of
    ``(name, read, MappedRead | None)`` decisions per input chunk, so a
    flowcell streams through in bounded memory.
    """

    def __init__(self, mapper: ReadMapper) -> None:
        self.mapper = mapper

    @property
    def name(self) -> str:
        """Metric prefix component (``pipeline.map.*``)."""
        return "map"

    def process(self, chunk):
        """Map every read of one chunk; unmappable reads carry ``None``."""
        out = []
        for read_name, read in chunk:
            hit = self.mapper.map(read) if len(read) >= self.mapper.k else None
            out.append((read_name, read, hit))
        return [out]
