"""Tests for FASTQ support and the protein profile kernel."""

import numpy as np
import pytest

from repro.data.fastq import (
    FastqRecord,
    decode_qualities,
    encode_qualities,
    read_fastq,
    simulate_fastq,
    write_fastq,
)
from repro.kernels.extensions import (
    N_PROTEIN_CHANNELS,
    PROFILE_PROTEIN,
    default_protein_sop,
)
from repro.reference import oracle_align
from repro.reference.classic import profile_global
from repro.systolic import align


class TestQualityEncoding:
    def test_roundtrip(self):
        phred = (2, 10, 33, 60)
        assert decode_qualities(encode_qualities(phred)) == phred

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_qualities((61,))
        with pytest.raises(ValueError):
            encode_qualities((-1,))


class TestFastqIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "reads.fq"
        records = [
            FastqRecord("r1", "ACGT", (30, 30, 20, 10)),
            FastqRecord("r2", "GG", (40, 2)),
        ]
        write_fastq(path, records)
        assert read_fastq(path) == records

    def test_length_mismatch_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_fastq(tmp_path / "x.fq", [FastqRecord("r", "ACGT", (30,))])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.fq"
        path.write_text("r1\nACGT\n+\nIIII\n")
        with pytest.raises(ValueError, match="@"):
            read_fastq(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.fq"
        path.write_text("@r1\nACGT\n+\n")
        with pytest.raises(ValueError, match="truncated"):
            read_fastq(path)


class TestSimulateFastq:
    def test_record_shape(self):
        records = simulate_fastq(4, length=50, seed=1)
        assert len(records) == 4
        for record in records:
            assert len(record.sequence) == len(record.qualities)
            assert set(record.sequence) <= set("ACGT")

    def test_quality_tracks_error_rate(self):
        noisy = simulate_fastq(5, length=80, error_rate=0.3, seed=2)
        clean = simulate_fastq(5, length=80, error_rate=0.01, seed=2)
        mean_noisy = np.mean([r.mean_quality for r in noisy])
        mean_clean = np.mean([r.mean_quality for r in clean])
        assert mean_clean > mean_noisy + 5

    def test_invalid_error_rate(self):
        with pytest.raises(ValueError):
            simulate_fastq(1, error_rate=0.0)


def one_hot_protein_profile(sequence):
    """Each column: frequency 1.0 on the residue channel."""
    columns = []
    for residue in sequence:
        col = [0.0] * N_PROTEIN_CHANNELS
        col[residue] = 1.0
        columns.append(tuple(col))
    return tuple(columns)


class TestProteinProfileKernel:
    def test_matrix_shape(self):
        sop = default_protein_sop()
        assert len(sop) == 21 and all(len(row) == 21 for row in sop)
        m = np.asarray(sop)
        assert (m == m.T).all()

    def test_engine_matches_oracle(self):
        from repro.data.protein import mutate_protein, random_protein

        ref = one_hot_protein_profile(random_protein(10, seed=1))
        qry = one_hot_protein_profile(
            mutate_protein(random_protein(10, seed=1), seed=2)[:10]
        )
        ours = align(PROFILE_PROTEIN, qry, ref, n_pe=3)
        oracle = oracle_align(PROFILE_PROTEIN, qry, ref)
        assert ours.score == oracle.score
        assert ours.alignment.moves == oracle.alignment.moves

    def test_one_hot_profiles_reduce_to_blosum(self):
        """Aligning one-hot profiles equals plain BLOSUM62 global scoring."""
        from repro.data.protein import random_protein

        seq = random_protein(8, seed=3)
        profile = one_hot_protein_profile(seq)
        result = align(PROFILE_PROTEIN, profile, profile, n_pe=2)
        from repro.data.blosum import BLOSUM62

        assert np.isclose(
            result.score, sum(BLOSUM62[a][a] for a in seq), atol=1e-2
        )

    def test_matches_classic_profile_global(self):
        from repro.data.protein import random_protein

        a = one_hot_protein_profile(random_protein(7, seed=4))
        b = one_hot_protein_profile(random_protein(7, seed=5))
        ours = align(PROFILE_PROTEIN, a, b, n_pe=2).score
        expected = profile_global(
            a, b, default_protein_sop(),
            gap=PROFILE_PROTEIN.default_params.linear_gap,
        )
        assert np.isclose(ours, expected, atol=1e-2)

    def test_dsp_appetite_scales_with_channels(self):
        """21-channel profiles need ~(21^2+21) multipliers per PE."""
        from repro.core.datapath import OpKind

        graph = PROFILE_PROTEIN.trace_datapath()
        assert graph.count(OpKind.MUL) == 21 * 21 + 21
