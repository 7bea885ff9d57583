"""Vectorized k-mer index over a multi-megabase reference.

The dict-of-tuples index in :class:`repro.apps.read_mapper.ReadMapper`
is fine for toy genomes but allocates one Python tuple per genome
position — hopeless at 2 Mb+.  :class:`KmerIndex` packs every k-mer
into a 2-bit-per-base integer code (k ≤ 31), sorts the codes once with
NumPy, and answers lookups by binary search: construction is O(G log G)
in C, a lookup is two ``searchsorted`` calls, and the whole structure
is three flat arrays.

Repeat handling follows minimap2: k-mers occurring more than
``max_occ`` times are treated as repeat-masked (they vote for too many
places to be informative) and return no positions.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.apps.chaining import Anchor


def kmer_codes(sequence: Sequence[int], k: int) -> np.ndarray:
    """Pack every k-mer of a 2-bit-coded sequence into int64 codes.

    Returns an array of length ``len(sequence) - k + 1`` (empty when the
    sequence is shorter than ``k``).
    """
    if not 4 <= k <= 31:
        raise ValueError(f"k must be in [4, 31], got {k}")
    arr = np.asarray(sequence, dtype=np.int64)
    if arr.size < k:
        return np.empty(0, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > 3):
        raise ValueError("k-mer indexing needs 2-bit DNA codes (0..3)")
    n = arr.size - k + 1
    codes = np.zeros(n, dtype=np.int64)
    for offset in range(k):
        codes = (codes << 2) | arr[offset:offset + n]
    return codes


class KmerIndex:
    """Sorted-array k-mer index of one reference genome."""

    def __init__(
        self,
        genome: Sequence[int],
        k: int = 12,
        max_occ: int = 64,
    ) -> None:
        if max_occ < 1:
            raise ValueError(f"max_occ must be >= 1, got {max_occ}")
        self.k = k
        self.max_occ = max_occ
        self.genome = np.asarray(genome, dtype=np.int8)
        if self.genome.size < k:
            raise ValueError(
                f"genome of length {self.genome.size} shorter than k={k}"
            )
        codes = kmer_codes(self.genome, k)
        order = np.argsort(codes, kind="stable")
        self._sorted_codes = codes[order]
        self._positions = order.astype(np.int64)

    def __len__(self) -> int:
        """Number of indexed k-mer positions."""
        return int(self._positions.size)

    def lookup(self, code: int) -> np.ndarray:
        """Genome positions of one k-mer code, ascending (the index is built
        with a stable sort); none for a repeat-masked k-mer (more than
        ``max_occ`` occurrences)."""
        lo = int(np.searchsorted(self._sorted_codes, code, side="left"))
        hi = int(np.searchsorted(self._sorted_codes, code, side="right"))
        if hi - lo > self.max_occ:
            return np.empty(0, dtype=np.int64)
        return self._positions[lo:hi]

    def _hits(self, read: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """(read offsets, genome positions) of every seed hit of a read, by
        offset and then position: ``lookup`` of all its k-mers at once."""
        codes = kmer_codes(np.asarray(read, dtype=np.int64), self.k)
        lo = np.searchsorted(self._sorted_codes, codes, side="left")
        counts = np.searchsorted(self._sorted_codes, codes, side="right") - lo
        counts[counts > self.max_occ] = 0
        offsets = np.repeat(np.arange(codes.size), counts)
        first = np.cumsum(counts) - counts  # of each offset's run of hits
        nth = np.arange(offsets.size) - np.repeat(first, counts)
        return offsets, self._positions[np.repeat(lo, counts) + nth]

    def anchors(self, read: Sequence[int], max_anchors: int = 128) -> List[Anchor]:
        """Seed anchors of a read against the reference (capped).

        When the raw anchor count exceeds ``max_anchors`` the list is
        evenly subsampled, bounding the O(n²) chaining DP downstream.
        """
        offsets, positions = self._hits(read)
        if offsets.size > max_anchors:
            stride = offsets.size / max_anchors
            keep = (np.arange(max_anchors) * stride).astype(np.int64)
            offsets, positions = offsets[keep], positions[keep]
        return [
            Anchor(read_pos=offset, ref_pos=pos, length=self.k)
            for offset, pos in zip(offsets.tolist(), positions.tolist())
        ]

    def best_diagonal(self, read: Sequence[int], bin_width: int = 16) -> Tuple[int, int]:
        """(diagonal, votes) of the strongest binned diagonal.

        Diagonals (``ref_pos - read_pos``) are binned so noisy long-read
        seeds landing a few bases apart still vote together.  Returns
        ``(0, 0)`` when the read produces no usable seeds.
        """
        offsets, positions = self._hits(read)
        if not offsets.size:
            return 0, 0
        diag_arr = positions - offsets
        bins = diag_arr // bin_width
        values, counts = np.unique(bins, return_counts=True)
        winner = int(np.argmax(counts))
        members = diag_arr[bins == values[winner]]
        return int(np.median(members)), int(counts[winner])

    def window(
        self, read_len: int, diagonal: int, padding: int = 32
    ) -> Tuple[int, Tuple[int, ...]]:
        """(start, bases) of the genome window a diagonal selects.

        The window covers the read's projection on the reference plus
        ``padding`` on each side, clamped to the genome.
        """
        start = max(0, diagonal - padding)
        end = min(int(self.genome.size), diagonal + read_len + padding)
        window = tuple(int(b) for b in self.genome[start:end])
        return start, window
