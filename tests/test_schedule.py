"""Properties of the chunked wavefront schedule (the systolic contract)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.systolic.schedule import (
    chunk_schedules,
    count_cycles,
    count_wavefronts,
)


def enumerate_cells(chunks, n_cols):
    """(i, j, pe, chunk_idx, wavefront) for every scheduled in-range cell."""
    for idx, chunk in enumerate(chunks):
        for w in chunk.wavefronts:
            for p in range(chunk.rows):
                j = w - p + 1
                if 1 <= j <= n_cols:
                    yield chunk.base + p + 1, j, p, idx, w


class TestUnbandedSchedule:
    def test_every_cell_exactly_once(self):
        n, m, n_pe = 13, 17, 4
        chunks = chunk_schedules(n, m, n_pe)
        cells = [(i, j) for i, j, *_ in enumerate_cells(chunks, m)]
        assert len(cells) == n * m
        assert len(set(cells)) == n * m

    def test_pe_owns_rows_mod_npe(self):
        chunks = chunk_schedules(20, 10, 8)
        for i, _j, p, *_ in enumerate_cells(chunks, 10):
            assert (i - 1) % 8 == p

    def test_dependencies_precede(self):
        """Each cell's up/diag/left neighbours are scheduled strictly earlier."""
        n, m, n_pe = 9, 11, 4
        chunks = chunk_schedules(n, m, n_pe)
        order = {}
        for i, j, _p, c, w in enumerate_cells(chunks, m):
            order[(i, j)] = (c, w)
        for (i, j), when in order.items():
            for ni, nj in ((i - 1, j), (i - 1, j - 1), (i, j - 1)):
                if (ni, nj) in order:
                    assert order[(ni, nj)] < when, (
                        f"cell {(i, j)} scheduled before its dependency "
                        f"{(ni, nj)}"
                    )

    def test_chunk_sizes(self):
        chunks = chunk_schedules(10, 5, 4)
        assert [c.rows for c in chunks] == [4, 4, 2]
        assert [c.base for c in chunks] == [0, 4, 8]

    def test_wavefront_count(self):
        chunks = chunk_schedules(4, 10, 4)
        assert len(chunks[0].wavefronts) == 10 + 4 - 1

    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 12)
    )
    @settings(max_examples=40, deadline=None)
    def test_cell_cover_property(self, n, m, n_pe):
        chunks = chunk_schedules(n, m, n_pe)
        cells = set((i, j) for i, j, *_ in enumerate_cells(chunks, m))
        assert len(cells) == n * m


class TestBandedSchedule:
    def test_only_band_wavefronts_issued(self):
        n = m = 32
        band = 4
        full = chunk_schedules(n, m, 8)
        banded = chunk_schedules(n, m, 8, banding=band)
        assert sum(len(c.wavefronts) for c in banded) < sum(
            len(c.wavefronts) for c in full
        )

    def test_band_cells_all_covered(self):
        n = m = 24
        band = 3
        chunks = chunk_schedules(n, m, 8, banding=band)
        cells = set((i, j) for i, j, *_ in enumerate_cells(chunks, m))
        expected = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, m + 1)
            if abs(i - j) <= band
        }
        assert expected <= cells  # band cells all scheduled

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_schedules(0, 5, 4)
        with pytest.raises(ValueError):
            chunk_schedules(5, 5, 0)


class TestCountCycles:
    def test_unbanded_closed_form(self):
        compute, load = count_cycles(16, 20, 8, ii=1)
        assert compute == 2 * (20 + 8 - 1)
        assert load == 16

    def test_ii_multiplies_compute(self):
        c1, _ = count_cycles(16, 20, 8, ii=1)
        c4, _ = count_cycles(16, 20, 8, ii=4)
        assert c4 == 4 * c1

    def test_banding_reduces_compute(self):
        full, _ = count_cycles(64, 64, 16)
        banded, _ = count_cycles(64, 64, 16, banding=8)
        assert banded < full


class TestCountWavefronts:
    """The closed form equals the enumerated schedule it replaces."""

    @staticmethod
    def enumerated(n, m, n_pe, banding):
        return sum(
            len(c.wavefronts) for c in chunk_schedules(n, m, n_pe, banding)
        )

    @given(
        st.integers(1, 48), st.integers(1, 48), st.integers(1, 64),
        st.one_of(st.none(), st.integers(0, 60)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_chunk_schedules(self, n, m, n_pe, banding):
        assert count_wavefronts(n, m, n_pe, banding) == self.enumerated(
            n, m, n_pe, banding
        )

    @pytest.mark.parametrize("shape", [
        (9, 9, 4, 0),     # banding 0: odd anti-diagonals are empty
        (7, 12, 3, 0),
        (12, 7, 3, 0),
        (5, 20, 32, 2),   # n_pe > Q: one short chunk
        (1, 1, 1, 0),
        (1, 30, 4, 3),    # chunks wholly below the band issue nothing
        (30, 1, 4, 3),
        (40, 8, 4, 2),
        (33, 35, 8, 1),
    ])
    def test_edge_shapes(self, shape):
        assert count_wavefronts(*shape) == self.enumerated(*shape)

    def test_count_cycles_uses_it(self):
        for banding in (None, 0, 5):
            compute, load = count_cycles(37, 29, 8, ii=3, banding=banding)
            assert compute == 3 * self.enumerated(37, 29, 8, banding)
            assert load == 37

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            count_wavefronts(0, 5, 4)
        with pytest.raises(ValueError):
            count_cycles(5, 5, 0)
