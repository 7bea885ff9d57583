"""The row-major oracle's and the systolic engine's answers, pinned.

Both run ``pe_func`` literally, cell by cell; every other backend is
checked against them.  ``tests/golden/oracle_answers.txt`` holds, for all
15 registry kernels on two seeded workload pairs of at most 64 symbols:
the oracle's score (its ``repr``, so the type is pinned too), start and
end cells and CIGAR; the same from the engine at ``n_pe`` 4 and 16 with
its ``CycleReport``; and a SHA-256 of the oracle's ``collect_matrix``
score matrix for an unbanded integer, a fixed-point and a banded kernel.

A speed-up of either simulator must leave the file byte-identical.
``python tests/test_oracle_golden.py`` prints what the file holds.
"""

import hashlib
import pathlib

from repro.experiments.workloads import WORKLOADS
from repro.kernels import get_kernel, kernel_ids
from repro.reference import oracle_align
from repro.systolic import align

GOLDEN = pathlib.Path(__file__).parent / "golden" / "oracle_answers.txt"
PAIRS = 2
MAX_LEN = 64
SEED = 41
N_PE = (4, 16)
#: Kernels whose full oracle score matrix is hashed: global linear
#: (ap_int), DTW (ap_fixed) and the banded global two-piece kernel.
MATRIX_KERNELS = (1, 9, 13)


def kernel_pairs(kernel_id):
    pairs = WORKLOADS[kernel_id].make_pairs(PAIRS, SEED + kernel_id)
    return [(tuple(q[:MAX_LEN]), tuple(r[:MAX_LEN])) for q, r in pairs]


def answer(result):
    text = (f"score={result.score!r} start={result.start} end={result.end} "
            f"cigar={result.cigar if result.alignment else '-'}")
    return text if result.cycles is None else f"{text} {result.cycles!r}"


def matrix_digest(matrix):
    blob = hashlib.sha256(f"{matrix.dtype.str}{matrix.shape}".encode())
    blob.update(matrix.tobytes())
    return f"{matrix.dtype.str} {matrix.shape} {blob.hexdigest()}"


def render_answers() -> str:
    lines = []
    for kernel_id in kernel_ids():
        spec = get_kernel(kernel_id)
        lines.append(f"# {kernel_id} {spec.name}")
        for index, (query, reference) in enumerate(kernel_pairs(kernel_id)):
            lines.append(f"pair {index} {len(query)}x{len(reference)}")
            lines.append(f"  oracle {answer(oracle_align(spec, query, reference))}")
            for n_pe in N_PE:
                result = align(spec, query, reference, n_pe=n_pe)
                lines.append(f"  engine n_pe={n_pe} {answer(result)}")
            if kernel_id in MATRIX_KERNELS:
                full = oracle_align(spec, query, reference, collect_matrix=True)
                lines.append(f"  oracle matrix {matrix_digest(full.matrix)}")
    return "\n".join(lines) + "\n"


def test_committed_answers_are_what_the_simulators_compute():
    assert GOLDEN.read_text() == render_answers()


if __name__ == "__main__":
    print(render_answers(), end="")
