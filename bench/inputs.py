"""Seeded inputs: the only thing the program under test ever sees.

Everything here is a pure function of ``seed`` (and a size), built from
NumPy's ``RandomState`` and the repo's own data simulators.  Workloads
never draw randomness anywhere else.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Sequence, Tuple

import numpy as np

Pair = Tuple[Tuple[Any, ...], Tuple[Any, ...]]

#: Short serving pairs: length and per-base substitution rate.
SHORT_LEN = 48
SHORT_SUB_RATE = 0.10
#: ``serve_repeat``: size of the hot set and share of draws from it.
HOT_SET = 512
HOT_SHARE = 0.90


def short_pairs(n: int, seed: int, length: int = SHORT_LEN) -> List[Pair]:
    """``n`` all-distinct DNA pairs: a random query and a 10%-substituted copy."""
    rng = np.random.RandomState(seed)
    query = rng.randint(0, 4, size=(n, length))
    shift = rng.randint(1, 4, size=(n, length))
    mutate = rng.random_sample((n, length)) < SHORT_SUB_RATE
    reference = np.where(mutate, (query + shift) % 4, query)
    return [
        (tuple(q), tuple(r))
        for q, r in zip(query.tolist(), reference.tolist())
    ]


def repeat_stream(
    n: int, seed: int, hot: Sequence[Pair]
) -> Tuple[List[Pair], int]:
    """A stream of ``n`` requests over a hot set, plus its repeat count.

    Exactly ``round(HOT_SHARE * n)`` draws, at seeded positions, come
    from ``hot`` with skewed popularity (index ``floor(len(hot) * u**3)``,
    so a few pairs take most of the traffic); the rest are never-seen
    pairs that miss every cache tier and get written into it.
    """
    rng = np.random.RandomState(seed)
    from_hot = rng.permutation(n) < int(round(HOT_SHARE * n))
    index = (len(hot) * rng.random_sample(n) ** 3).astype(int)
    fresh = iter(short_pairs(int(n - from_hot.sum()), seed + 1))
    stream = [
        hot[i] if is_hot else next(fresh)
        for is_hot, i in zip(from_hot.tolist(), index.tolist())
    ]
    return stream, int(from_hot.sum())


def poisson_offsets(n: int, rate: float, seed: int) -> List[float]:
    """Due times (seconds from phase start) of ``n`` Poisson arrivals.

    The gaps are exponential, then stretched so the last arrival is due
    at exactly ``n / rate``: every seed offers the same mean rate, and
    only the burstiness differs.
    """
    rng = np.random.RandomState(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return (offsets * (n / rate / offsets[-1])).tolist()


def kernel_pairs(kernel_id: int, n: int, seed: int, max_len: int = 0) -> List[Pair]:
    """``n`` pairs from the kernel's paper workload generator.

    ``max_len > 0`` truncates both sequences (the systolic oracle and the
    row-major reference are too slow for full-length inputs).
    """
    from repro.experiments.workloads import WORKLOADS

    pairs = WORKLOADS[kernel_id].make_pairs(n, seed)
    if max_len:
        pairs = [(q[:max_len], r[:max_len]) for q, r in pairs]
    return [(tuple(q), tuple(r)) for q, r in pairs]


def one_sweep_pairs(kernel_id: int, n: int, seed: int) -> List[Pair]:
    """``n`` workload pairs that all pad to the kernel's full-length bucket.

    The batched backend sweeps once per (query, reference) length bucket
    of ``PAD_QUANTUM`` symbols, and a sweep costs nearly the same for one
    lane as for thirty.  The simulators shorten a seed-dependent handful
    of reads by a few bases, so an unfiltered batch is one sweep on one
    seed and two or three on the next — a 2x swing in call time that says
    nothing about the code.  Skipping the short reads makes every call
    exactly one sweep; ragged batches are covered by ``map_flowcell`` and
    ``backend.padded_waste_frac`` instead.
    """
    from repro.backend.batch import PAD_QUANTUM
    from repro.experiments.workloads import WORKLOADS

    def padded(length: int) -> int:
        return -(-length // PAD_QUANTUM) * PAD_QUANTUM

    workload = WORKLOADS[kernel_id]
    full = (padded(workload.max_query_len), padded(workload.max_ref_len))
    kept: List[Pair] = []
    draw = 0
    while len(kept) < n:
        for q, r in workload.make_pairs(2 * n, seed + 7919 * draw):
            if (padded(len(q)), padded(len(r))) == full:
                kept.append((tuple(q), tuple(r)))
        draw += 1
    return kept[:n]


def flowcell(
    directory: Path, seed: int, genome_length: int, reads: int, read_length: int
) -> Tuple[Tuple[int, ...], Path]:
    """A synthetic genome and a FASTQ flowcell sampled from it."""
    from repro.data.fastq import write_flowcell
    from repro.data.genome import random_genome

    genome = random_genome(genome_length, seed=seed)
    path = directory / "flowcell.fastq"
    written = write_flowcell(
        path, genome, reads, length=read_length, error_rate=0.12,
        seed=seed + 1,
    )
    if written != reads:
        raise RuntimeError(f"flowcell holds {written} reads, wanted {reads}")
    return genome, path
