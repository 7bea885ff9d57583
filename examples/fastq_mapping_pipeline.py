"""End-to-end read-mapping pipeline: FASTQ in, SAM out.

Chains the library's substrates the way a real deployment would: simulate
a FASTQ run against a reference genome, drop low-quality reads, map the
rest with the seed-chain-extend mapper (kernel #7 doing the verification
alignments), and emit a SAM file — then audit mapping accuracy against
the simulation's ground truth.

Run:  python examples/fastq_mapping_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.apps.read_mapper import ReadMapper
from repro.core.alphabet import decode_dna, encode_dna
from repro.data.fastq import FastqRecord
from repro.data.genome import extract_region, random_genome
from repro.data.pbsim import simulate_read
from repro.data.sam import parse_sam_positions, write_sam

GENOME_LENGTH = 3000
N_READS = 12
READ_LENGTH = 80
MIN_MEAN_QUALITY = 4.0


def main() -> None:
    genome = random_genome(GENOME_LENGTH, seed=77, repeat_fraction=0.05)
    mapper = ReadMapper(genome, k=14)

    # Simulate reads against *this* genome (keeping ground-truth starts)
    # with quality strings the way simulate_fastq would emit them.
    rng = np.random.RandomState(5)
    records = []
    truth = {}
    for idx in range(N_READS):
        start = int(rng.randint(0, GENOME_LENGTH - READ_LENGTH))
        read = simulate_read(
            extract_region(genome, start, READ_LENGTH),
            error_rate=0.06, seed=int(rng.randint(2**31 - 1)),
        )
        name = f"read_{idx}"
        truth[name] = start
        phred = tuple(
            int(q) for q in np.clip(rng.normal(14, 4, len(read)), 2, 40)
        )
        records.append(FastqRecord(name, decode_dna(read), phred))

    kept = [r for r in records if r.mean_quality >= MIN_MEAN_QUALITY]
    print(f"{len(records)} reads simulated, {len(kept)} pass the "
          f"Q>={MIN_MEAN_QUALITY:.0f} filter")

    sam_rows = []
    correct = 0
    for record in kept:
        hit = mapper.map(encode_dna(record.sequence))
        sam_rows.append((record.name, record.sequence, hit))
        if hit is not None:
            delta = abs(mapper.mapped_start(hit) - truth[record.name])
            correct += delta <= 5

    with tempfile.TemporaryDirectory() as tmp:
        sam_path = Path(tmp) / "mapped.sam"
        write_sam(sam_path, sam_rows, len(mapper.genome),
                  reference_name="synthetic_chr")
        parsed = parse_sam_positions(sam_path)
        mapped = sum(1 for _n, _p, ok in parsed if ok)
        print(f"SAM written: {len(parsed)} records, {mapped} mapped")
        print(Path(sam_path).read_text().splitlines()[0])

    print(f"mapping accuracy: {correct}/{len(kept)} within 5 bp of truth")
    assert correct >= 0.8 * len(kept)


if __name__ == "__main__":
    main()
