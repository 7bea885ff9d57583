"""The sharded serving tier, end to end.

The load-bearing claim is shard transparency: a client must not be
able to tell (from response bytes) whether it spoke to the
single-process server or to N worker shards behind the front door.
That, plus the operational guarantees — reject-not-drop backpressure,
dead-shard eviction with ring remapping, aggregated metrics, graceful
drain with clean exit codes — is what this module pins.

Worker processes spawn real interpreters, so the 2-shard server is a
module-scoped fixture shared by every transparency/metrics test; the
eviction and backpressure tests build their own small servers because
they mutate or constrain the deployment.
"""

import json
import os
import random
import signal
import socket
import time

import multiprocessing

import pytest

from repro.service import AlignmentClient, InProcClient, Status
from repro.shard import Deployment, FrontDoorConfig, ShardServer
from repro.shard.frontdoor import MAX_LINE_BYTES
from repro.shard.router import FingerprintRouter
from repro.shard.worker import DRAIN, run_inline

KERNEL = 1


def workload(n=14, seed=11, cardinality=4, max_len=24):
    """Deterministic integer-symbol pairs for the dna kernel."""
    rng = random.Random(seed)
    return [
        (
            [rng.randrange(cardinality) for _ in range(rng.randint(6, max_len))],
            [rng.randrange(cardinality) for _ in range(rng.randint(6, max_len))],
        )
        for _ in range(n)
    ]


def deterministic(responses):
    """Canonical byte-comparison form of a response list."""
    return [
        json.dumps(r.to_dict(with_latency=False), sort_keys=True)
        for r in responses
    ]


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    """A small cached deployment shared by the module's servers."""
    cache_root = tmp_path_factory.mktemp("shard-cache")
    return Deployment(
        kernel_ids=(KERNEL,), n_pe=8, max_len=64,
        cache_dir=str(cache_root / "cache"),
    )


@pytest.fixture(scope="module")
def baseline(deployment):
    """Single-process deterministic responses for the module workload."""
    core = deployment.build_core(cache=deployment.build_cache()).start()
    client = InProcClient(core)
    try:
        responses = [
            client.align(KERNEL, q, r, request_id=f"req-{i}")
            for i, (q, r) in enumerate(workload())
        ]
    finally:
        core.stop()
    assert all(r.status is Status.OK for r in responses)
    return deterministic(responses)


@pytest.fixture(scope="module")
def sharded(deployment):
    """A live 2-shard server (drained at module teardown)."""
    server = ShardServer(("127.0.0.1", 0), deployment, n_shards=2).start()
    yield server
    codes = server.close()
    assert codes == {} or all(code == 0 for code in codes.values()), codes


@pytest.fixture(scope="module")
def client(sharded):
    """One TCP client pinned to the module server."""
    tcp = AlignmentClient(*sharded.address, read_timeout=60.0)
    yield tcp
    tcp.close()


class TestShardTransparency:
    """Byte-identical responses, cold and warm."""

    def test_cold_pass_matches_single_process(self, client, baseline):
        responses = [
            client.align(KERNEL, q, r, request_id=f"req-{i}")
            for i, (q, r) in enumerate(workload())
        ]
        assert deterministic(responses) == baseline

    def test_warm_pass_matches_and_hits_both_shards(self, client, baseline):
        responses = [
            client.align(KERNEL, q, r, request_id=f"req-{i}")
            for i, (q, r) in enumerate(workload())
        ]
        assert deterministic(responses) == baseline
        snapshot = client.metrics()
        per_shard = {
            name: shard.get("counters", {}).get("cache_hits_total", 0)
            for name, shard in snapshot["shards"].items()
        }
        assert len(per_shard) == 2
        assert all(hits > 0 for hits in per_shard.values()), per_shard

    def test_unknown_kernel_reads_like_single_process(self, client):
        response = client.align(999, [0, 1], [1, 0], request_id="nope")
        assert response.status is Status.ERROR
        assert "kernel #999 is not deployed" in response.error

    def test_ping(self, client):
        assert client.ping()

    def test_oversize_line_gets_an_error_and_the_door_stays_open(self, sharded):
        # the door reads lines with the single-process server's loop, so an
        # oversize one gets that server's answer before the hang-up
        with socket.create_connection(sharded.address, timeout=30) as hostile:
            hostile.sendall(b"x" * (70 * 1024) + b"\n")
            answer = json.loads(hostile.makefile("rb").readline())
        assert answer["status"] == "error"
        assert str(MAX_LINE_BYTES) in answer["error"]
        second = AlignmentClient(*sharded.address, read_timeout=60.0)
        try:
            assert second.ping()
            query, reference = workload(1)[0]
            assert second.align(KERNEL, query, reference).status is Status.OK
        finally:
            second.close()


class TestAggregation:
    """One metrics endpoint for the whole deployment."""

    def test_counters_sum_across_shards(self, client):
        snapshot = client.metrics()
        aggregate = snapshot["counters"]
        by_shard = [
            shard.get("counters", {}).get("aligned_total", 0)
            for shard in snapshot["shards"].values()
        ]
        assert aggregate["aligned_total"] == sum(by_shard)
        assert aggregate["frontdoor.routed_total"] >= sum(by_shard)
        assert "frontdoor.requests_total" in aggregate

    def test_histograms_merge_envelopes(self, client):
        snapshot = client.metrics()
        latency = snapshot["histograms"]["latency_ms"]
        assert latency["count"] > 0
        assert latency["min"] <= latency["mean"] <= latency["max"]

    def test_topology_is_reported(self, client):
        snapshot = client.metrics()
        ring = snapshot["frontdoor"]["ring"]
        assert ring["nodes"] == ["shard-00", "shard-01"]
        links = {link["name"]: link for link in snapshot["frontdoor"]["links"]}
        assert all(link["up"] for link in links.values())
        assert sum(link["routed_total"] for link in links.values()) > 0

    def test_metrics_text_has_shard_sections(self, client):
        text = client.metrics_text()
        assert "== shard-00 ==" in text
        assert "== shard-01 ==" in text
        assert "counter aligned_total" in text

    def test_trace_is_valid_chrome_shape(self, client):
        trace = client.trace()
        assert "traceEvents" in trace
        assert isinstance(trace["traceEvents"], list)


class TestRoutingKeyIsCacheKey:
    """The router must reproduce the workers' cache fingerprints."""

    def test_router_matches_cached_runtime(self, deployment):
        from repro.cache import CacheConfig, CacheStack
        from repro.cache.facade import CachedRuntime
        from repro.host import DeviceRuntime

        router = FingerprintRouter.from_deployment(deployment)
        spec = deployment.specs()[0]
        runtime = DeviceRuntime(
            spec, deployment.launch_config(), backend=deployment.backend
        )
        stack = CacheStack(CacheConfig(directory=None))
        cached = CachedRuntime(runtime, stack)
        assert router.runtime_keys[KERNEL] == cached.runtime_key
        query, reference = workload(1)[0]
        assert router.key(KERNEL, tuple(query), tuple(reference)) == (
            cached.pair_key(tuple(query), tuple(reference))
        )

    def test_unknown_kernel_raises(self, deployment):
        router = FingerprintRouter.from_deployment(deployment)
        with pytest.raises(KeyError):
            router.key(999, (0,), (1,))


class TestBackpressure:
    """Reject-not-drop at the per-shard in-flight window."""

    def test_window_overflow_rejects_and_answers_everything(self, tmp_path):
        # A deliberately sluggish single shard (long linger, huge
        # batch) holds requests in flight; a window of 1 then forces
        # deterministic rejections for the burst behind the first.
        deployment = Deployment(
            kernel_ids=(KERNEL,), n_pe=8, max_len=64,
            max_batch=64, max_delay_ms=300.0,
        )
        server = ShardServer(
            ("127.0.0.1", 0), deployment, n_shards=1,
            config=FrontDoorConfig(shard_inflight_bound=1),
        ).start()
        try:
            client = AlignmentClient(*server.address, read_timeout=60.0)
            slots = [
                client.submit(KERNEL, q, r, request_id=f"bp-{i}")
                for i, (q, r) in enumerate(workload(8))
            ]
            responses = [slot.result(timeout=60.0) for slot in slots]
            client.close()
        finally:
            codes = server.close()
        statuses = [r.status for r in responses]
        assert len(responses) == 8  # answered, never dropped
        assert Status.REJECTED in statuses
        assert Status.OK in statuses
        rejected = [r for r in responses if r.status is Status.REJECTED]
        assert all("retry" in r.error for r in rejected)
        assert all(code == 0 for code in codes.values())


class TestEviction:
    """A killed worker is detected, evicted and routed around."""

    def test_dead_shard_evicts_and_survivor_serves(self, tmp_path):
        deployment = Deployment(kernel_ids=(KERNEL,), n_pe=8, max_len=64)
        server = ShardServer(
            ("127.0.0.1", 0), deployment, n_shards=2,
            config=FrontDoorConfig(
                heartbeat_interval_s=0.2,
                heartbeat_timeout_s=0.5,
                heartbeat_misses=2,
            ),
        ).start()
        try:
            client = AlignmentClient(*server.address, read_timeout=60.0)
            victim = server.manager.handles()[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if len(server.frontdoor.ring) == 1:
                    break
                time.sleep(0.05)
            assert len(server.frontdoor.ring) == 1
            # Every key now routes to the survivor and must still serve.
            responses = [
                client.align(KERNEL, q, r, request_id=f"ev-{i}", timeout=60.0)
                for i, (q, r) in enumerate(workload(6))
            ]
            assert all(r.status is Status.OK for r in responses)
            snapshot = client.metrics()
            assert snapshot["counters"]["frontdoor.shards_evicted_total"] == 1
            assert len(snapshot["shards"]) == 1
            client.close()
        finally:
            codes = server.close()
        assert all(code == 0 for code in codes.values()), codes


class TestWorkerProtocol:
    """The parent ↔ worker control pipe, exercised without a spawn."""

    def test_inline_worker_ready_serve_drain(self):
        deployment = Deployment(kernel_ids=(KERNEL,), n_pe=8, max_len=64)
        parent, child = multiprocessing.Pipe()
        thread = run_inline(deployment, "inline-00", child)
        assert parent.poll(60.0)
        status, port = parent.recv()
        assert status == "ready"
        client = AlignmentClient("127.0.0.1", port)
        query, reference = workload(1)[0]
        response = client.align(KERNEL, query, reference, request_id="w-0")
        assert response.status is Status.OK
        client.close()
        parent.send(DRAIN)
        assert parent.poll(30.0)
        assert parent.recv() == ("stopped", "inline-00")
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_construction_failure_reports_over_pipe(self):
        deployment = Deployment(kernel_ids=(KERNEL,), n_pe=8, max_len=64,
                                backend="no-such-backend")
        parent, child = multiprocessing.Pipe()
        thread = run_inline(deployment, "inline-01", child)
        assert parent.poll(60.0)
        status, reason = parent.recv()
        assert status == "failed"
        assert reason
        thread.join(timeout=30.0)


class TestDeployment:
    """The shared deployment value object."""

    def test_for_shard_narrows_cache_root(self):
        deployment = Deployment(kernel_ids=(KERNEL,), cache_dir="/tmp/root")
        narrowed = deployment.for_shard("shard-03")
        assert narrowed.cache_dir == "/tmp/root/shard-shard-03"
        assert Deployment(kernel_ids=(KERNEL,)).for_shard("x").cache_dir is None

    def test_needs_a_kernel(self):
        with pytest.raises(ValueError):
            Deployment(kernel_ids=())

    def test_struct_kernels_are_refused(self):
        from repro.kernels import list_kernels

        struct_ids = [
            info["id"] for info in list_kernels() if info["struct_alphabet"]
        ]
        if not struct_ids:
            pytest.skip("no struct-alphabet kernels registered")
        with pytest.raises(ValueError):
            Deployment(kernel_ids=(struct_ids[0],)).specs()
