"""Micro-benchmarks of the simulator itself (not a paper figure).

Measures the functional systolic engine's and the compiled wavefront
backend's cell-update rates — useful when sizing functional verification
campaigns (the paper's C-simulation step) and the evidence behind
serving on the compiled backend: cells/sec per backend, the speedup
ratio, p50/p95 per-pair latency, and the batched lockstep sweep's
throughput at service-sized pairs.  The ``smoke-compiled`` CI job runs
the head-to-head test for its asserts; ``python3 -m bench`` is the
regression ledger.
"""

import time

import pytest

from repro.backend import compiled_align, compiled_align_batch
from repro.kernels import get_kernel
from repro.reference import oracle_align
from repro.systolic import align
from tests.conftest import mutated_copy, random_dna

from .conftest import emit

LENGTH = 96
BENCH_LENGTH = 256
#: The batched section measures the serving shape: short pairs, whole
#: batcher flushes (the service benchmarks use length-48 pairs too).
BATCH_PAIR_LENGTH = 48
BATCH_SIZE = 64


@pytest.fixture(scope="module")
def dna_pair():
    reference = random_dna(LENGTH, seed=1)
    query = mutated_copy(reference, seed=2)[:LENGTH]
    return query, reference


@pytest.mark.parametrize("kid", (1, 2, 5))
def test_systolic_engine_speed(benchmark, dna_pair, kid):
    spec = get_kernel(kid)
    query, reference = dna_pair
    result = benchmark(align, spec, query, reference, n_pe=16)
    assert result.score is not None


@pytest.mark.parametrize("kid", (1, 2, 5))
def test_compiled_backend_speed(benchmark, dna_pair, kid):
    spec = get_kernel(kid)
    query, reference = dna_pair
    result = benchmark(compiled_align, spec, query, reference, n_pe=16)
    assert result.score is not None


def test_oracle_speed(benchmark, dna_pair):
    spec = get_kernel(1)
    query, reference = dna_pair
    result = benchmark(oracle_align, spec, query, reference)
    assert result.score is not None


def test_synthesis_flow_speed(benchmark):
    """One full trace -> resources -> timing -> throughput pass."""
    from repro.synth import LaunchConfig, synthesize

    report = benchmark(
        synthesize, get_kernel(2), LaunchConfig(n_pe=32, n_b=16, n_k=4)
    )
    assert report.feasible


def _time_backend(fn, spec, query, reference, reps):
    """Per-pair wall-clock samples (seconds) for one backend."""
    fn(spec, query, reference, n_pe=16)  # warm-up (compile, allocations)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn(spec, query, reference, n_pe=16)
        samples.append(time.perf_counter() - t0)
        assert result.score is not None
    return sorted(samples)


def _percentile(sorted_samples, q):
    index = min(len(sorted_samples) - 1,
                round(q / 100 * (len(sorted_samples) - 1)))
    return sorted_samples[index]


def test_backend_speedup():
    """Head-to-head cells/sec, single pair and batched."""
    spec = get_kernel(1)
    reference = random_dna(BENCH_LENGTH, seed=11)
    query = mutated_copy(reference, seed=12)[:BENCH_LENGTH]
    cells = len(query) * len(reference)

    systolic = _time_backend(align, spec, query, reference, reps=3)
    compiled = _time_backend(compiled_align, spec, query, reference, reps=20)

    def stats(samples):
        p50 = _percentile(samples, 50)
        return {
            "reps": len(samples),
            "cells_per_sec": cells / p50,
            "p50_ms": p50 * 1e3,
            "p95_ms": _percentile(samples, 95) * 1e3,
        }

    backends = {"systolic": stats(systolic), "compiled": stats(compiled)}
    speedup = (
        backends["compiled"]["cells_per_sec"]
        / backends["systolic"]["cells_per_sec"]
    )
    batched = _bench_batched(spec)

    lines = [f"engine microbench — {spec.name}, "
             f"{len(query)}x{len(reference)} cells, n_pe=16"]
    for name, s in backends.items():
        lines.append(
            f"  {name:>8}: {s['cells_per_sec']:,.0f} cells/s  "
            f"p50 {s['p50_ms']:.2f} ms  p95 {s['p95_ms']:.2f} ms"
        )
    lines.append(f"  speedup: {speedup:.1f}x")
    lines.append(
        f"  batched ({batched['batch_size']}x len "
        f"{batched['pair_length']}): {batched['cells_per_sec']:,.0f} "
        f"cells/s, {batched['batched_speedup_vs_single']:.1f}x over "
        f"single-pair compiled"
    )
    emit("engine_microbench", "\n".join(lines))

    # the acceptance bar is 10x; assert conservatively so a loaded CI
    # machine does not flake the build
    assert speedup >= 5.0
    assert batched["batched_speedup_vs_single"] >= 2.0


def _bench_batched(spec):
    """Batched lockstep sweep vs per-pair compiled at the serving shape.

    Service-sized pairs (length :data:`BATCH_PAIR_LENGTH` <= 64) in one
    :data:`BATCH_SIZE`-pair flush (>= 32), as the batcher would hand the
    pool — the regime where per-diagonal dispatch overhead dominates a
    single-pair sweep.
    """
    pairs = []
    for index in range(BATCH_SIZE):
        reference = random_dna(BATCH_PAIR_LENGTH, seed=100 + index)
        query = mutated_copy(
            reference, seed=200 + index
        )[:BATCH_PAIR_LENGTH]
        pairs.append((query, reference))
    cells = sum(len(q) * len(r) for q, r in pairs)

    # warm-up both paths (compile cache, allocations)
    compiled_align(spec, *pairs[0], n_pe=16)
    compiled_align_batch(spec, pairs[:4], n_pe=16)

    t0 = time.perf_counter()
    for query, reference in pairs:
        compiled_align(spec, query, reference, n_pe=16)
    single_s = time.perf_counter() - t0

    reps = 5
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        results = compiled_align_batch(spec, pairs, n_pe=16)
        samples.append(time.perf_counter() - t0)
        assert len(results) == BATCH_SIZE
    samples.sort()
    batched_s = _percentile(samples, 50)

    return {
        "pair_length": BATCH_PAIR_LENGTH,
        "batch_size": BATCH_SIZE,
        "reps": reps,
        "cells_per_sec": cells / batched_s,
        "single_cells_per_sec": cells / single_s,
        "p50_batch_ms": batched_s * 1e3,
        "batched_speedup_vs_single": single_s / batched_s,
    }
