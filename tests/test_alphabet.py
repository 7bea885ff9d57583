"""Tests for alphabets and symbol encodings."""

from dataclasses import dataclass

import pytest

from repro.core.alphabet import (
    COMPLEX_SIGNAL,
    DNA,
    DNA_WITH_GAP,
    INT_SIGNAL,
    PROFILE_DNA,
    PROTEIN,
    STANDARD_ALPHABETS,
    decode_dna,
    decode_protein,
    encode_dna,
    encode_protein,
)
from repro.core.datapath import OpKind
from repro.core.expr import ExprValue
from repro.core.spec import KernelSpec, Objective
from repro.hdl_types import ap_int
from repro.kernels.common import zero_init


@dataclass(frozen=True)
class _NoParams:
    pass


def trace_symbols(alphabet, score):
    """Trace a one-layer toy kernel whose score is ``score(qry, ref)``.

    Returns the query operand ``pe_func`` saw and the datapath summary.
    """
    seen = []

    def pe(cell):
        seen.append(cell.qry)
        return (score(cell.qry, cell.ref),), 0

    spec = KernelSpec(
        name="toy", kernel_id=99, alphabet=alphabet, score_type=ap_int(16),
        n_layers=1, objective=Objective.MAXIMIZE, pe_func=pe,
        init_row=zero_init(1), init_col=zero_init(1),
        default_params=_NoParams(),
    )
    datapath = spec.trace_datapath()
    return seen[0], datapath


class TestEncodings:
    def test_dna_roundtrip(self):
        seq = "ACGTACGT"
        assert decode_dna(encode_dna(seq)) == seq

    def test_dna_lowercase(self):
        assert encode_dna("acgt") == (0, 1, 2, 3)

    def test_rna_u_maps_to_t(self):
        assert encode_dna("U") == (3,)

    def test_dna_invalid(self):
        with pytest.raises(ValueError):
            encode_dna("ACGN")

    def test_protein_roundtrip(self):
        seq = "ARNDCQEGHILKMFPSTWYV"
        assert decode_protein(encode_protein(seq)) == seq

    def test_protein_invalid(self):
        with pytest.raises(ValueError):
            encode_protein("B")


class TestAlphabetDescriptors:
    def test_dna_is_scalar(self):
        assert not DNA.is_struct
        assert DNA.size == 4
        assert DNA.storage_bits == 2

    def test_profile_is_struct(self):
        assert PROFILE_DNA.is_struct
        assert len(PROFILE_DNA.fields) == 5

    def test_complex_fields(self):
        names = [n for n, _ in COMPLEX_SIGNAL.fields]
        assert names == ["re", "im"]

    def test_traced_scalar_symbol(self):
        sym, datapath = trace_symbols(DNA, lambda q, r: q + r)
        assert isinstance(sym, ExprValue)
        assert datapath.op_counts == {(OpKind.ADD, 2): 1}

    def test_traced_struct_symbol(self):
        sym, datapath = trace_symbols(COMPLEX_SIGNAL, lambda q, r: q[0] - r[0])
        assert isinstance(sym, tuple) and len(sym) == 2
        assert all(isinstance(f, ExprValue) for f in sym)
        assert datapath.op_counts == {(OpKind.ADD, 24): 1}

    def test_validate_scalar(self):
        assert DNA.validate_symbol(3)
        assert not DNA.validate_symbol(4)
        assert not DNA.validate_symbol("A")

    def test_validate_struct(self):
        assert PROFILE_DNA.validate_symbol((0.25, 0.25, 0.25, 0.25, 0.0))
        assert not PROFILE_DNA.validate_symbol((1.0,))

    def test_validate_numeric(self):
        assert INT_SIGNAL.validate_symbol(200)

    def test_registry(self):
        assert STANDARD_ALPHABETS["dna"] is DNA
        assert STANDARD_ALPHABETS["dna_gap"] is DNA_WITH_GAP
        assert STANDARD_ALPHABETS["protein"] is PROTEIN
