"""Tests for the device pool (routing, linked-design deployment)."""

import pytest

from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.service.pool import DevicePool, PoolRejection
from repro.synth import LaunchConfig
from repro.synth.linker import ChannelSpec, link
from tests.conftest import mutated_copy, random_dna


def small_config(**overrides):
    base = dict(n_pe=8, n_b=2, n_k=1, max_query_len=64, max_ref_len=64)
    base.update(overrides)
    return LaunchConfig(**base)


def make_pairs(n, length=24):
    out = []
    for k in range(n):
        ref = random_dna(length, seed=300 + k)
        out.append((mutated_copy(ref, 400 + k)[:length], ref))
    return out


class TestConstruction:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            DevicePool([])

    def test_invalid_workers(self):
        runtime = DeviceRuntime(get_kernel(1), small_config())
        with pytest.raises(TypeError):
            DevicePool([runtime], workers=0)

    def test_kernel_index(self):
        pool = DevicePool([
            DeviceRuntime(get_kernel(1), small_config()),
            DeviceRuntime(get_kernel(3), small_config()),
            DeviceRuntime(get_kernel(1), small_config()),
        ])
        assert pool.kernel_ids() == [1, 3]
        assert pool.supports(1) and pool.supports(3)
        assert not pool.supports(9)

    def test_max_lengths(self):
        pool = DevicePool([
            DeviceRuntime(get_kernel(1), small_config(max_query_len=32,
                                                      max_ref_len=32)),
            DeviceRuntime(get_kernel(1), small_config()),
        ])
        assert pool.max_lengths(1) == (64, 64)
        with pytest.raises(PoolRejection):
            pool.max_lengths(9)


class TestExecution:
    def test_results_match_direct_run(self):
        runtime = DeviceRuntime(get_kernel(1), small_config())
        pool = DevicePool([runtime])
        pairs = make_pairs(5)
        outcome, member = pool.execute(1, pairs)
        assert not outcome.errors
        expected_results = runtime.run(pairs).results
        for expected, result in zip(expected_results, outcome.results):
            assert result.score == expected.score
            assert result.cigar == expected.cigar
        assert member.pairs_served == 5
        assert member.in_flight == 0

    def test_unknown_kernel_rejected(self):
        pool = DevicePool([DeviceRuntime(get_kernel(1), small_config())])
        with pytest.raises(PoolRejection, match="no runtime"):
            pool.execute(9, make_pairs(1))

    def test_per_pair_failures_isolated(self):
        pool = DevicePool([DeviceRuntime(get_kernel(1), small_config())])
        good = make_pairs(1)[0]
        overlong = make_pairs(1, length=100)[0]  # beyond max_query_len
        outcome, _member = pool.execute(1, [good, overlong])
        assert outcome.results[0] is not None
        assert outcome.results[1] is None
        assert [e.index for e in outcome.errors] == [1]

    def test_least_loaded_routing_spreads_replicas(self):
        pool = DevicePool([
            DeviceRuntime(get_kernel(1), small_config()),
            DeviceRuntime(get_kernel(1), small_config()),
        ])
        served = set()
        for _ in range(4):
            _outcome, member = pool.execute(1, make_pairs(2))
            served.add(member.name)
        # With zero in-flight load between calls the (in_flight, name)
        # key always picks rt0 first; after it books/releases the next
        # identical call ties again — equal-load ties go to the stable
        # name order, so rt0 serves everything serially.  Under load the
        # booking shows: acquire twice without releasing.
        first = pool._acquire(1, 10)
        second = pool._acquire(1, 1)
        assert first is not second
        pool._release(first, 10)
        pool._release(second, 1)
        assert served  # the serial calls all succeeded

    def test_stats_shape(self):
        pool = DevicePool([DeviceRuntime(get_kernel(1), small_config())])
        pool.execute(1, make_pairs(3))
        (stats,) = pool.stats()
        assert stats["kernel_id"] == 1
        assert stats["pairs_served"] == 3
        assert stats["batches_served"] == 1
        assert stats["in_flight"] == 0


class TestLinkedDesignDeployment:
    def test_heterogeneous_design_becomes_pool(self):
        design = link([
            ChannelSpec(kernel=get_kernel(1), n_pe=8, n_b=2,
                        max_query_len=64, max_ref_len=64),
            ChannelSpec(kernel=get_kernel(3), n_pe=8, n_b=2,
                        max_query_len=64, max_ref_len=64),
        ])
        pool = DevicePool.from_linked_design(design)
        assert pool.kernel_ids() == [1, 3]
        assert len(pool.members) == 2
        for channel, member in zip(design.channels, pool.members):
            assert member.runtime.config.n_pe == channel.n_pe
            assert member.runtime.config.n_b == channel.n_b
        outcome, _member = pool.execute(3, make_pairs(2))
        assert not outcome.errors


class TestMembership:
    """Online add/retire: the autoscale actuator's substrate."""

    def _pool(self, n=2):
        return DevicePool([
            DeviceRuntime(get_kernel(1), small_config()) for _ in range(n)
        ])

    def test_add_member_joins_routing(self):
        pool = self._pool(1)
        member = pool.add_member(
            DeviceRuntime(get_kernel(1), small_config())
        )
        assert member in pool.active_members(1)
        assert pool.replica_counts() == {1: 2}
        outcome, _ = pool.execute(1, make_pairs(2))
        assert outcome.errors == []

    def test_add_member_names_are_unique(self):
        pool = self._pool(1)
        first = pool.add_member(
            DeviceRuntime(get_kernel(1), small_config())
        )
        second = pool.add_member(
            DeviceRuntime(get_kernel(1), small_config())
        )
        assert first.name != second.name
        with pytest.raises(ValueError):
            pool.add_member(
                DeviceRuntime(get_kernel(1), small_config()),
                name=first.name,
            )

    def test_retire_member_removes_idle(self):
        pool = self._pool(2)
        victim = pool.active_members(1)[-1]
        retired = pool.retire_member(victim.name)
        assert retired is victim
        assert pool.replica_counts() == {1: 1}
        assert victim not in pool.members

    def test_retire_unknown_raises(self):
        pool = self._pool(1)
        with pytest.raises(KeyError):
            pool.retire_member("nope")

    def test_retire_last_member_refused(self):
        pool = self._pool(1)
        only = pool.members[0]
        with pytest.raises(ValueError):
            pool.retire_member(only.name)
        retired = pool.retire_member(only.name, allow_last=True)
        assert retired is only
        assert not pool.supports(1)

    def test_retire_waits_for_in_flight_work(self):
        import threading
        import time as time_module

        pool = self._pool(2)
        busy = pool._acquire(1, 3)  # book load as execute() would
        done = threading.Event()

        def retire():
            pool.retire_member(busy.name, timeout_s=10.0)
            done.set()

        thread = threading.Thread(target=retire, daemon=True)
        thread.start()
        time_module.sleep(0.1)
        # The drain is still blocked on the booked load, but the member
        # already left the routing table.
        assert not done.is_set()
        assert busy not in pool.active_members(1)
        pool._release(busy, 3)
        thread.join(5.0)
        assert done.is_set()
        assert busy not in pool.members

    def test_retire_timeout_leaves_member_draining(self):
        pool = self._pool(2)
        busy = pool._acquire(1, 1)
        with pytest.raises(TimeoutError):
            pool.retire_member(busy.name, timeout_s=0.05)
        assert busy.draining
        assert busy in pool.members
        assert busy not in pool.active_members(1)
        pool._release(busy, 1)
        retired = pool.retire_member(busy.name, timeout_s=5.0)
        assert retired is busy
        assert busy not in pool.members
