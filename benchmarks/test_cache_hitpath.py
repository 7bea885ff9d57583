"""Hit-path latency of the content-addressed cache (repro.cache).

The cache earns its place when a warm batch is dramatically cheaper
than an engine batch.  This measures the same batch through a
:class:`~repro.cache.CachedRuntime` cold (engine + store) and warm
(memory tier), plus the disk tier after dropping the memory tier, and
asserts the ISSUE 5 bar: the memory hit path is ≥10× faster than the
engine path.
"""

import time

from benchmarks.conftest import emit
from repro.cache import CacheConfig, CacheStack, CachedRuntime
from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.synth import LaunchConfig
from tests.conftest import mutated_copy, random_dna

PAIRS = 32
LENGTH = 48


def _batch():
    out = []
    for k in range(PAIRS):
        ref = random_dna(LENGTH, seed=3000 + k)
        out.append((mutated_copy(ref, 4000 + k)[:LENGTH], ref))
    return out


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_memory_hit_path_10x_faster_than_engine(tmp_path):
    """Cold vs warm vs disk timings for one 32-pair batch."""
    stack = CacheStack(CacheConfig(directory=str(tmp_path)))
    runtime = CachedRuntime(
        DeviceRuntime(
            get_kernel(1),
            LaunchConfig(n_pe=16, n_b=4, n_k=1,
                         max_query_len=64, max_ref_len=64),
            backend="systolic",  # the 10x bar is against the oracle engine
        ),
        stack,
    )
    batch = _batch()

    cold_started = time.perf_counter()
    cold = runtime.run(batch)
    cold_s = time.perf_counter() - cold_started
    assert cold.errors == [] and cold.hits == 0

    warm_s = _best_of(3, lambda: runtime.run(batch))
    warm = runtime.run(batch)
    assert warm.hit_rate == 1.0

    # Disk tier: drop the memory tier so every lookup replays from the
    # shard files (and re-promotes, so clear again between repeats).
    def disk_pass():
        stack.memory.clear()
        outcome = runtime.run(batch)
        assert outcome.hit_rate == 1.0

    disk_s = _best_of(3, disk_pass)
    stack.close()

    speedup = cold_s / warm_s
    disk_speedup = cold_s / disk_s
    per_pair = 1e6 / PAIRS
    rows = [
        ("engine (cold, miss+store)", cold_s, 1.0),
        ("disk hit (replay+promote)", disk_s, disk_speedup),
        ("memory hit (LRU)", warm_s, speedup),
    ]
    lines = [
        f"Cache hit-path latency — kernel #1, {PAIRS} pairs × L={LENGTH}",
        "",
        f"{'path':<28} {'batch ms':>10} {'us/pair':>9} {'speedup':>9}",
    ]
    for name, seconds, ratio in rows:
        lines.append(
            f"{name:<28} {seconds * 1e3:>10.3f} "
            f"{seconds * per_pair:>9.2f} {ratio:>8.1f}x"
        )
    emit("cache_hitpath", "\n".join(lines))

    assert speedup >= 10.0, (
        f"memory hit path only {speedup:.1f}x faster than the engine"
    )
