"""Whole-flowcell pipeline benchmark.

Maps a simulated long-read flowcell (32 reads x 512 bp) against a
multi-megabase reference twice through one shared tile cache: the cold
pass measures end-to-end streaming throughput, the warm pass measures
what the cache turns the same flowcell into.  The asserts gate the
cache-integration claims on a fresh run; ``python3 -m bench``
(``map_flowcell``) is the regression ledger.
"""

from __future__ import annotations

from repro.cache.facade import CacheStack
from repro.data.fastq import write_flowcell
from repro.data.genome import random_genome
from repro.data.sam import iter_sam
from repro.pipeline import map_flowcell

from benchmarks.conftest import emit

GENOME_LEN = 2_000_000
N_READS = 32
READ_LEN = 512


def test_flowcell_mapping(tmp_path):
    """Cold + warm flowcell passes through one cache.

    The warm-speedup floor (>= 2x) is the pipeline's cache-integration
    claim: every tile of an identical flowcell must come out of the
    cache, so the second pass pays only seeding + stitching.
    """
    genome = random_genome(GENOME_LEN, seed=11)
    fastq = tmp_path / "flowcell.fastq"
    n = write_flowcell(
        fastq, genome, N_READS, length=READ_LEN, error_rate=0.12, seed=12
    )
    assert n == N_READS

    stack = CacheStack()
    cold_sam = tmp_path / "cold.sam"
    warm_sam = tmp_path / "warm.sam"
    cold = map_flowcell(fastq, genome, cold_sam, cache=stack)
    warm = map_flowcell(fastq, genome, warm_sam, cache=stack)

    assert cold.reads == N_READS and warm.reads == N_READS
    assert cold.mapped > 0
    assert cold.pipeline.dropped == 0 and warm.pipeline.dropped == 0
    assert sum(1 for _ in iter_sam(cold_sam)) == N_READS
    assert cold_sam.read_bytes() == warm_sam.read_bytes()
    assert warm.tile_hit_rate == 1.0

    speedup = cold.elapsed_s / warm.elapsed_s
    assert speedup >= 2.0, (
        f"warm flowcell pass only {speedup:.2f}x faster than cold"
    )

    lines = [
        f"flowcell mapping — {N_READS} reads x {READ_LEN} bp vs "
        f"{GENOME_LEN / 1e6:.0f} Mb reference, tile cache shared",
    ]
    for label, report in (("cold", cold), ("warm", warm)):
        lines.append(
            f"  {label}: {report.reads_per_sec:6.1f} reads/s "
            f"({report.elapsed_s:.2f} s), {report.mapped}/{report.reads} "
            f"mapped, tile hit rate {report.tile_hit_rate:.2f}"
        )
    lines.append(f"  warm speedup {speedup:.1f}x")
    emit("pipeline_flowcell", "\n".join(lines))
