"""Tests for SAM output, the compiled backend as the affine and banded
vectorized scorer, variant sweeps and tiling properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.read_mapper import ReadMapper
from repro.core.alphabet import decode_dna
from repro.data.genome import extract_region, random_genome
from repro.data.sam import (
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    MappedRead,
    parse_sam_positions,
    sam_header,
    sam_record,
    write_sam,
)
from repro.backend import compiled_align
from repro.kernels import get_kernel
from repro.kernels.variants import make_banded
from repro.reference.classic import NEG, banded_nw_linear, gotoh_global
from tests.conftest import mutated_copy, random_dna


def gotoh_global_score(query, reference):
    """Kernel #2 on the compiled backend: the vectorised affine scorer."""
    return compiled_align(get_kernel(2), query, reference).score


def banded_nw_linear_score(query, reference, band):
    """Banded kernel #1 on the compiled backend."""
    return compiled_align(
        make_banded(get_kernel(1), band), query, reference
    ).score


class TestSam:
    @pytest.fixture(scope="class")
    def mapper(self):
        return ReadMapper(
            random_genome(600, seed=31, repeat_fraction=0.0), k=12
        )

    def test_header(self):
        header = sam_header("chr1", 1000)
        assert "@SQ\tSN:chr1\tLN:1000" in header

    def test_mapped_record_fields(self, mapper):
        read = extract_region(mapper.genome, 100, 50)
        hit = mapper.map(read)
        record = sam_record("r1", decode_dna(read), hit, "chr1")
        fields = record.split("\t")
        assert fields[0] == "r1"
        assert int(fields[1]) & FLAG_UNMAPPED == 0
        assert fields[2] == "chr1"
        assert int(fields[3]) == 101  # SAM is 1-based
        assert fields[5] == hit.cigar

    def test_unmapped_record(self):
        record = sam_record("r2", "ACGT", None)
        fields = record.split("\t")
        assert int(fields[1]) == FLAG_UNMAPPED
        assert fields[2] == "*"

    def test_reverse_flag(self):
        hit = MappedRead(position=10, strand="-", score=50.0,
                         cigar="25M", window_offset=2)
        record = sam_record("r3", "ACGT", hit)
        assert int(record.split("\t")[1]) & FLAG_REVERSE

    def test_write_and_parse_roundtrip(self, tmp_path, mapper):
        read = extract_region(mapper.genome, 200, 50)
        hit = mapper.map(read)
        path = tmp_path / "out.sam"
        write_sam(path, [("r1", decode_dna(read), hit),
                         ("r2", "ACGTACGTACGT", None)],
                  len(mapper.genome))
        parsed = parse_sam_positions(path)
        assert parsed[0] == ("r1", 200, True)
        assert parsed[1][2] is False


class TestVectorizedAffine:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_classic(self, seed):
        r = random_dna(18 + 6 * seed, seed + 40)
        q = mutated_copy(r, seed + 90)
        assert gotoh_global_score(q, r) == gotoh_global(q, r)

    @given(
        q=st.lists(st.integers(0, 3), min_size=1, max_size=14),
        r=st.lists(st.integers(0, 3), min_size=1, max_size=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_property(self, q, r):
        assert gotoh_global_score(tuple(q), tuple(r)) == gotoh_global(q, r)


class TestSentinelHygiene:
    """Regression: sentinel values must never leak into real scores.

    Out-of-band cells hold ``spec.sentinel()``; arithmetic drags a
    sentinel off its floor (``sentinel + gap``), and on short bands such
    drifted values could survive the max-reduction and surface as
    near-floor "scores" — so the driver re-pins every out-of-band cell.
    """

    def test_repin_floor_pins_drifted_sentinels(self):
        spec = make_banded(get_kernel(1), 1)
        matrix = compiled_align(
            spec, (0, 1, 2, 3), (0, 2, 2, 3), collect_matrix=True
        ).matrix[0]
        i, j = np.indices(matrix.shape)
        outside = (abs(i - j) > 1) & (i > 0) & (j > 0)
        assert outside.any()
        assert (matrix[outside] == spec.sentinel()).all()  # exactly, no drift
        assert (matrix[~outside] > spec.sentinel() / 2).all()

    def test_minimal_banded_case(self):
        """The minimal leak case: band=1 forces band-edge cells whose
        clipped neighbours gather NEG on every anti-diagonal."""
        q, r = (0, 1, 2, 3), (0, 2, 2, 3)
        got = banded_nw_linear_score(q, r, band=1)
        assert got == banded_nw_linear(q, r, band=1)
        assert got > NEG / 2  # a real score, nowhere near the floor

    @pytest.mark.parametrize("band", (0, 1, 2, 5))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_classic_banded(self, band, seed):
        r = random_dna(12 + 3 * seed, seed + 7)
        if band == 0:  # outside the engine's contract: refused, not mis-scored
            with pytest.raises(ValueError, match="band must be >= 1"):
                make_banded(get_kernel(1), band)
            assert banded_nw_linear(r, r, band=0) == 2.0 * len(r)
            return
        q = mutated_copy(r, seed + 70)[: len(r)]
        got = banded_nw_linear_score(q, r, band=band)
        assert got == banded_nw_linear(q, r, band=band)
        assert got > NEG / 2

    @given(
        q=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        band=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_banded(self, q, band, data):
        delta = data.draw(st.integers(-band, band))
        size = max(1, len(q) + delta)
        r = data.draw(
            st.lists(st.integers(0, 3), min_size=size, max_size=size)
        )
        assert banded_nw_linear_score(tuple(q), tuple(r), band=band) == (
            banded_nw_linear(q, r, band=band)
        )

    def test_band_precondition(self):
        with pytest.raises(ValueError, match="band"):
            banded_nw_linear_score((0, 1, 2), (0,), band=1)

    def test_empty_and_singletons(self):
        """The engine refuses empty sequences (the textbook DP scores them
        as pure gaps); a 1x1 matrix is the smallest it aligns."""
        for q, r in (((), ()), ((1,), ()), ((), (2,))):
            with pytest.raises(ValueError, match="non-empty"):
                banded_nw_linear_score(q, r, band=1)
        assert banded_nw_linear((1,), (), band=1) == -3.0
        assert banded_nw_linear_score((1,), (1,), band=1) == 2.0


class TestScoreOnlySweep:
    """make_score_only preserves the optimum for every traceback kernel."""

    @pytest.mark.parametrize("kid", (1, 2, 3, 4, 5, 6, 7, 11, 13, 15))
    def test_score_preserved(self, kid):
        import numpy as np

        from repro.experiments.workloads import WORKLOADS
        from repro.kernels import get_kernel
        from repro.kernels.variants import make_score_only
        from repro.systolic import align

        spec = get_kernel(kid)
        q, r = WORKLOADS[kid].make_pairs(1, seed=kid + 5)[0]
        q, r = q[:24], r[:24]
        base = align(spec, q, r, n_pe=4)
        stripped = align(make_score_only(spec), q, r, n_pe=4)
        assert np.isclose(base.score, stripped.score)


class TestTilingProperty:
    @given(
        length=st.integers(80, 200),
        tile=st.sampled_from((48, 64, 96)),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=10, deadline=None)
    def test_tiled_path_always_consistent(self, length, tile, seed):
        """Any tiled alignment covers both sequences and rescoring works
        (rescore raises on an inconsistent path)."""
        from repro.kernels import get_kernel
        from repro.reference.rescore import rescore_linear
        from repro.tiling import tiled_align

        spec = get_kernel(1)
        ref = random_dna(length, seed)
        qry = mutated_copy(ref, seed + 1, error_rate=0.1)
        tiled = tiled_align(spec, qry, ref, tile_size=tile, overlap=tile // 4)
        aln = tiled.alignment
        assert aln.query_end == len(qry) and aln.ref_end == len(ref)
        p = spec.default_params
        rescore_linear(aln, qry, ref, p.match, p.mismatch, p.linear_gap)
