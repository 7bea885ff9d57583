"""Minimal SAM output for the read mappers.

Real aligners emit SAM; :class:`MappedRead` — the mapping decision both
``repro.apps.read_mapper`` and ``repro.pipeline`` produce — carries all
the fields a minimal single-end record needs.  Only the subset of the spec
the pipeline example uses is implemented: header (@HD/@SQ), FLAG bits 4
(unmapped) and 16 (reverse strand), POS/MAPQ/CIGAR, and the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.result import Move, expand_cigar

PathLike = Union[str, Path]

FLAG_UNMAPPED = 4
FLAG_REVERSE = 16


@dataclass(frozen=True)
class MappedRead:
    """One mapping decision."""

    position: int          # 0-based genome offset of the alignment window start
    strand: str            # '+' or '-'
    score: float
    cigar: str
    window_offset: int     # alignment start within the window


def sam_header(reference_name: str, reference_length: int) -> str:
    """@HD + @SQ lines for a single-reference run."""
    return (
        "@HD\tVN:1.6\tSO:unsorted\n"
        f"@SQ\tSN:{reference_name}\tLN:{reference_length}"
    )


def sam_record(
    read_name: str,
    sequence: str,
    hit: Optional[MappedRead],
    reference_name: str = "ref",
    mapq: int = 60,
) -> str:
    """One alignment line (or an unmapped record when ``hit`` is None)."""
    if hit is None:
        return "\t".join(
            [read_name, str(FLAG_UNMAPPED), "*", "0", "0", "*",
             "*", "0", "0", sequence, "*"]
        )
    flag = FLAG_REVERSE if hit.strand == "-" else 0
    position = hit.position + hit.window_offset
    return "\t".join(
        [
            read_name,
            str(flag),
            reference_name,
            str(position + 1),  # SAM is 1-based
            str(mapq),
            hit.cigar or "*",
            "*", "0", "0",
            sequence,
            "*",
            f"AS:i:{int(hit.score)}",
        ]
    )


def write_sam(
    path: PathLike,
    records: List[Tuple[str, str, Optional[MappedRead]]],
    reference_length: int,
    reference_name: str = "ref",
) -> None:
    """Write a header plus one record per (name, sequence, hit) triple."""
    lines = [sam_header(reference_name, reference_length)]
    for name, sequence, hit in records:
        lines.append(sam_record(name, sequence, hit, reference_name))
    Path(path).write_text("\n".join(lines) + "\n")


def parse_sam_positions(path: PathLike) -> List[Tuple[str, int, bool]]:
    """(name, 0-based position, mapped) per record — enough for tests."""
    out = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("@"):
            continue
        fields = line.split("\t")
        flag = int(fields[1])
        out.append((fields[0], int(fields[3]) - 1, not flag & FLAG_UNMAPPED))
    return out


class SamWriter:
    """Streaming SAM emitter: header up front, one record at a time.

    The write-side counterpart of :func:`iter_sam`: records leave the
    process as they arrive (nothing is accumulated), which is what lets
    the pipeline's emission stage run in constant memory.  Usable as a
    context manager.
    """

    def __init__(
        self,
        path: PathLike,
        reference_name: str,
        reference_length: int,
    ) -> None:
        self.reference_name = reference_name
        self._handle = open(path, "w")
        self._records = 0
        try:
            self._handle.write(
                sam_header(reference_name, reference_length) + "\n"
            )
        except BaseException:
            self._handle.close()
            raise

    def write(
        self,
        read_name: str,
        sequence: str,
        hit: Optional[MappedRead],
        mapq: int = 60,
    ) -> None:
        """Emit one record (an unmapped line when ``hit`` is None)."""
        self._handle.write(
            sam_record(
                read_name, sequence, hit,
                reference_name=self.reference_name, mapq=mapq,
            ) + "\n"
        )
        self._records += 1

    @property
    def records_written(self) -> int:
        """Alignment lines emitted so far (header excluded)."""
        return self._records

    def close(self) -> None:
        """Flush and release the file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SamWriter":
        """Context-manager entry: the writer itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the handle."""
        self.close()


@dataclass(frozen=True)
class SamRecord:
    """One parsed alignment line (the fields this repo's dialect emits).

    CIGARs follow the repo's :class:`~repro.core.result.Move` semantics
    (``D`` consumes a read base, ``I`` a reference base — the transpose
    of the standard SAM convention), matching what :func:`sam_record`
    writes from the engine's traceback.
    """

    name: str
    flag: int
    reference_name: str
    position: int          # 0-based (converted from SAM's 1-based POS)
    mapq: int
    cigar: str
    sequence: str
    score: Optional[int]   # the AS:i tag, when present

    @property
    def mapped(self) -> bool:
        """Whether the record places the read on the reference."""
        return not self.flag & FLAG_UNMAPPED

    @property
    def reverse(self) -> bool:
        """Whether the read mapped on the reverse strand."""
        return bool(self.flag & FLAG_REVERSE)


def iter_sam(path: PathLike) -> Iterator[SamRecord]:
    """Stream and validate the alignment lines of a SAM file.

    Each mapped record's CIGAR is decoded (:func:`expand_cigar`) and
    checked for consistency with the sequence under the repo's move
    semantics: ``M + D`` columns must consume exactly the read.  This is
    the round-trip the CI smoke job leans on to call emitted SAM valid.
    """
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line == "" or line.startswith("@"):
                continue
            fields = line.split("\t")
            if len(fields) < 11:
                raise ValueError(
                    f"{path}:{number}: {len(fields)} fields (need >= 11)"
                )
            flag = int(fields[1])
            cigar = fields[5]
            sequence = fields[9]
            if not flag & FLAG_UNMAPPED and cigar != "*":
                moves = expand_cigar(cigar)
                consumed = sum(
                    1 for m in moves if m in (Move.MATCH, Move.DEL)
                )
                if consumed != len(sequence):
                    raise ValueError(
                        f"{path}:{number}: CIGAR {cigar} consumes "
                        f"{consumed} read bases but SEQ has {len(sequence)}"
                    )
            score: Optional[int] = None
            for tag in fields[11:]:
                if tag.startswith("AS:i:"):
                    score = int(tag[5:])
            yield SamRecord(
                name=fields[0],
                flag=flag,
                reference_name=fields[2],
                position=int(fields[3]) - 1,
                mapq=int(fields[4]),
                cigar=cigar,
                sequence=sequence,
                score=score,
            )
