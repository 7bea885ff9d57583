"""CacheStack and CachedRuntime: the tiers wired around the engine.

Pins the facade's contracts: the entry codec round-trips every result
shape, a lookup walks memory → disk → engine with disk hits promoted,
and :class:`CachedRuntime` is observably identical to the uncached
:class:`DeviceRuntime` — same results, same errors — apart from being
served from the tiers when warm.
"""

import sys
import threading
import time

import pytest

from repro.cache import (
    CacheConfig,
    CacheStack,
    CachedRuntime,
    decode_result,
    encode_result,
)
from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.obs import MetricsRecorder, use_recorder
from repro.synth import LaunchConfig
from tests.conftest import mutated_copy, random_dna


def _spin_until(predicate, deadline_s: float = 30.0):
    """Busy-wait for ``predicate()`` with a hard deadline (test safety)."""
    deadline = time.monotonic() + deadline_s
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover
            raise AssertionError("condition not reached before deadline")
        time.sleep(0.001)


def small_config(**overrides):
    base = dict(n_pe=8, n_b=2, n_k=1, max_query_len=64, max_ref_len=64)
    base.update(overrides)
    return LaunchConfig(**base)


def make_pairs(n, length=24, seed=0):
    out = []
    for k in range(n):
        ref = random_dna(length, seed=seed + k)
        out.append((mutated_copy(ref, seed + 1000 + k)[:length], ref))
    return out


def cached_runtime(stack=None, kernel_id=1):
    stack = stack or CacheStack(CacheConfig())
    return CachedRuntime(
        DeviceRuntime(get_kernel(kernel_id), small_config()), stack
    )


class TestCodec:
    @pytest.mark.parametrize("kernel_id", (1, 3, 7))
    def test_roundtrip_equals_original(self, kernel_id):
        runtime = DeviceRuntime(get_kernel(kernel_id), small_config())
        result = runtime.run(make_pairs(1)).results[0]
        decoded = decode_result(encode_result(result))
        assert decoded.score == result.score
        assert decoded.start == result.start
        assert decoded.end == result.end
        assert decoded.cigar == result.cigar
        assert decoded.cycles.total == result.cycles.total

    def test_encoding_is_deterministic(self):
        runtime = DeviceRuntime(get_kernel(1), small_config())
        pair = make_pairs(1)[0]
        one = encode_result(runtime.run([pair]).results[0])
        two = encode_result(runtime.run([pair]).results[0])
        assert one == two

    def test_unknown_codec_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            decode_result(b'{"v":999}')


class TestCacheStack:
    def test_tier_walk_and_promotion(self, tmp_path):
        stack = CacheStack(CacheConfig(directory=str(tmp_path)))
        runtime = cached_runtime(stack)
        pair = make_pairs(1)[0]
        key = runtime.pair_key(*pair)

        calls = []

        def compute():
            calls.append(1)
            return runtime.runtime.run([pair]).results[0]

        _, source = stack.get_or_compute(key, compute)
        assert source == "engine"
        _, source = stack.get_or_compute(key, compute)
        assert source == "memory"
        # Drop the memory tier: the next lookup must hit disk and promote.
        stack.memory.clear()
        result, source = stack.get_or_compute(key, compute)
        assert source == "disk"
        _, source = stack.get_or_compute(key, compute)
        assert source == "memory"
        assert len(calls) == 1
        stack.close()

    def test_memory_only_stack_has_no_disk_tier(self):
        stack = CacheStack(CacheConfig())
        assert stack.disk is None
        assert stack.stats()["disk"] is None
        assert stack.clear() == 0

    def test_store_charges_encoded_bytes(self):
        stack = CacheStack(CacheConfig())
        runtime = cached_runtime(stack)
        pair = make_pairs(1)[0]
        result = runtime.runtime.run([pair]).results[0]
        stack.store("some-key", result)
        assert stack.memory.bytes_used == len(encode_result(result))

    def test_eviction_counter_conserves_under_concurrent_stores(self):
        """Each store counts only the evictions its own put made, so
        ``cache.evictions`` equals the memory tier's real eviction count
        however the threads interleave."""
        result = cached_runtime().runtime.run(make_pairs(1)).results[0]
        stack = CacheStack(CacheConfig(memory_bytes=2000))
        recorder = MetricsRecorder()

        def worker(base):
            for k in range(1000):
                stack.store(f"{base}-{k}", result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_recorder(recorder):
                threads = [
                    threading.Thread(target=worker, args=(t,))
                    for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        real = stack.memory.stats().evictions
        assert real > 0
        counted = recorder.snapshot()["counters"]["cache.evictions"]
        assert counted == real


class TestCachedRuntime:
    def test_results_identical_to_uncached(self):
        plain = DeviceRuntime(get_kernel(1), small_config())
        wrapped = CachedRuntime(
            DeviceRuntime(get_kernel(1), small_config()),
            CacheStack(CacheConfig()),
        )
        batch = make_pairs(6)
        baseline = plain.run(batch)
        cold = wrapped.run(batch)
        warm = wrapped.run(batch)
        for ours, theirs in zip(cold.results, baseline.results):
            assert encode_result(ours) == encode_result(theirs)
        for ours, theirs in zip(warm.results, baseline.results):
            assert encode_result(ours) == encode_result(theirs)
        assert cold.cached == [False] * 6
        assert warm.cached == [True] * 6
        assert warm.hit_rate == 1.0
        assert cold.fingerprints == warm.fingerprints

    def test_within_batch_duplicates_run_once(self):
        wrapped = cached_runtime()
        pair = make_pairs(1)[0]
        outcome = wrapped.run([pair, pair, pair])
        assert outcome.cached == [False, True, True]
        assert len(set(outcome.fingerprints)) == 1
        # Exactly one engine execution: one flight, nothing coalesced
        # (in-batch duplicates resolve through the leader, not waits).
        assert wrapped.stack.flights.stats().flights == 1

    def test_per_pair_errors_preserved(self):
        """A too-long pair stays a structured per-item error, index-true."""
        wrapped = cached_runtime()
        good = make_pairs(1)[0]
        too_long = make_pairs(1, length=100, seed=77)[0]
        outcome = wrapped.run([good, too_long, good])
        assert outcome.results[1] is None
        assert [e.index for e in outcome.errors] == [1]
        assert "tiling" in outcome.errors[0].message
        assert outcome.cached == [False, False, True]
        # The failed pair must not be cached: it reruns (and refails).
        again = wrapped.run([too_long])
        assert [e.index for e in again.errors] == [0]
        assert again.cached == [False]

    def test_warm_restart_from_disk(self, tmp_path):
        batch = make_pairs(4)
        first = cached_runtime(
            CacheStack(CacheConfig(directory=str(tmp_path)))
        )
        cold = first.run(batch)
        first.stack.close()
        # A brand-new stack over the same directory — the "restarted
        # process" — must serve the whole batch without engine work.
        second = cached_runtime(
            CacheStack(CacheConfig(directory=str(tmp_path)))
        )
        warm = second.run(batch)
        assert warm.cached == [True] * 4
        for ours, theirs in zip(warm.results, cold.results):
            assert encode_result(ours) == encode_result(theirs)
        assert second.stack.flights.stats().flights == 0
        second.stack.close()

    def test_cross_thread_single_flight(self):
        """Two threads running the identical batch share engine work.

        Thread A's engine execution is held open until thread B has
        joined its flights, so the coalescing path is exercised
        deterministically: every pair reaches the engine exactly once
        across both threads, and B's batch reports all-cached.
        """
        stack = CacheStack(CacheConfig())
        wrapped = cached_runtime(stack)
        inner = wrapped.runtime
        batch = make_pairs(3, seed=50)
        real_run = inner.run
        engine_pair_counts = []
        leader_entered = threading.Event()
        release = threading.Event()

        def slow_run(pairs):
            engine_pair_counts.append(len(pairs))
            leader_entered.set()
            assert release.wait(timeout=30.0)
            return real_run(pairs)

        inner.run = slow_run
        outcomes = {}

        def worker(name):
            outcomes[name] = wrapped.run(batch)

        thread_a = threading.Thread(target=worker, args=("a",))
        thread_a.start()
        assert leader_entered.wait(timeout=30.0)
        thread_b = threading.Thread(target=worker, args=("b",))
        thread_b.start()
        # B probes (miss), joins A's open flights, then parks; releasing
        # lets A compute and settle, unblocking B's waits.
        _spin_until(lambda: stack.flights.stats().coalesced >= 3)
        release.set()
        thread_a.join(timeout=60.0)
        thread_b.join(timeout=60.0)
        assert set(outcomes) == {"a", "b"}
        for ours, theirs in zip(
            outcomes["a"].results, outcomes["b"].results
        ):
            assert encode_result(ours) == encode_result(theirs)
        assert sum(engine_pair_counts) == 3  # one engine pass over the keys
        assert outcomes["a"].cached == [False] * 3
        assert outcomes["b"].cached == [True] * 3
        stats = stack.flights.stats()
        assert stats.flights == 3
        assert stats.coalesced == 3

    def test_runtime_surface_passthrough(self):
        wrapped = cached_runtime()
        assert wrapped.spec is wrapped.runtime.spec
        assert wrapped.config is wrapped.runtime.config
        assert wrapped.params is wrapped.runtime.params
        assert wrapped.report is wrapped.runtime.report

    def test_different_kernels_never_share_keys(self):
        stack = CacheStack(CacheConfig())
        one = cached_runtime(stack, kernel_id=1)
        other = cached_runtime(stack, kernel_id=3)
        pair = make_pairs(1)[0]
        assert one.pair_key(*pair) != other.pair_key(*pair)
