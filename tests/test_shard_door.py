"""The front door as a core of the one threaded server.

``tests/test_shard_frontdoor.py`` pins what a client sees of a sharded
deployment.  This module pins how the door is built: no second server
loop or concurrency model, the single-process server's exact protocol
answers, one downstream write per worker flush, an exact in-flight
window under racing connections, and eviction the moment a link dies.

Most tests stand the "worker" up in this process (a real
``AlignmentServer`` over a real ``ServiceCore``) and attach it to a
hand-built :class:`FrontDoor`, so they can hold its runtime.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.service import (
    AlignmentClient,
    AlignmentServer,
    BatcherConfig,
    DevicePool,
    ServiceCore,
    Status,
)
from repro.service.protocol import AlignRequest
from repro.shard import Deployment, FrontDoorConfig, ShardServer
from repro.shard import frontdoor as frontdoor_module
from repro.shard.frontdoor import FrontDoor
from repro.shard.manager import ShardHandle, ShardManager
from repro.shard.router import FingerprintRouter
from tests.test_service_server import (
    _CountingServer,
    flush_counts,
    make_workload,
    small_config,
    wait_until,
)

DEPLOYMENT = Deployment(kernel_ids=(1,), n_pe=8, max_len=64)


def test_no_asyncio_is_imported():
    code = (
        "import sys, repro.cli, repro.shard; "
        "sys.exit('asyncio' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class _Door:
    """One in-process worker behind a hand-built door, served counting."""

    def __init__(self, config=None):
        pool = DevicePool([DeviceRuntime(get_kernel(1), small_config())])
        self.worker_core = ServiceCore(pool, BatcherConfig(
            max_batch=64, max_delay_ms=10_000.0, max_queue_depth=512
        )).start()
        self.worker = AlignmentServer(("127.0.0.1", 0), self.worker_core)
        self.worker.serve_in_thread()
        self.door = FrontDoor(
            DEPLOYMENT, FingerprintRouter.from_deployment(DEPLOYMENT),
            ShardManager(DEPLOYMENT, 1), config=config,
        )
        self.door.attach(ShardHandle(
            "shard-00", process=None, conn=None,
            port=self.worker.server_address[1],
        ))
        self.door.start()
        self.server = _CountingServer(("127.0.0.1", 0), self.door)
        self.server.serve_in_thread()
        self.address = self.server.server_address

    @property
    def runtime_held(self):
        """Context manager: the worker answers nothing while inside."""
        return self.worker_core.pool.members[0].exclusive

    def close(self):
        self.server.close()
        self.worker.close()


@pytest.fixture
def door():
    built = _Door()
    yield built
    built.close()


class TestOneServerLoop:
    """The door answers with the single-process server's own loop."""

    def test_a_worker_flush_is_one_downstream_write(self, door):
        client = AlignmentClient(*door.address)
        try:
            # Request 0 boards alone (idle) and blocks in the held
            # runtime; the next 32 queue and leave as one flush.
            with door.runtime_held:
                slots = [
                    client.submit(1, query, reference)
                    for _kid, query, reference in make_workload(33)
                ]
                assert wait_until(lambda: door.worker_core.metrics.snapshot()[
                    "counters"].get("admitted_total") == 33)
                connection, = door.server.accepted
                assert connection.sendalls == []
            responses = [slot.result(timeout=60.0) for slot in slots]
            assert all(r.status is Status.OK for r in responses)
            assert flush_counts(door.worker_core) == {"idle": 2}
            # One write per worker flush — or one for both, when the
            # link read them in one chunk; never one per response.
            assert [w.count(b"\n") for w in connection.sendalls] in (
                [1, 32], [33]
            )
        finally:
            client.close()

    def test_protocol_errors_read_like_the_single_process_server(self, door):
        plain = AlignmentServer(("127.0.0.1", 0), door.worker_core)
        plain.serve_in_thread()
        lines = (b"this is not json\n", b'{"type":"bogus","id":"u1"}\n',
                 b'{"type":"align","id":"a1"}\n', b'[1, 2]\n')
        answers = []
        try:
            for address in (plain.server_address, door.address):
                with socket.create_connection(address, timeout=30) as sock:
                    wire = sock.makefile("rwb")
                    got = []
                    for line in lines:
                        wire.write(line)
                        wire.flush()
                        got.append(wire.readline())
                    wire.write(b'{"type":"ping","id":"p"}\n')  # still usable
                    wire.flush()
                    assert wire.readline() == b'{"id":"p","type":"pong"}\n'
                    answers.append(got)
        finally:
            plain.shutdown()
            plain.server_close()
        assert answers[0] == answers[1]
        assert all(b'"status":"error"' in answer for answer in answers[1])


class TestWindowUnderRacingConnections:
    """The in-flight bound is exact however many handlers race for it."""

    def test_the_window_never_overfills_and_everything_is_answered(self):
        bound, threads, each = 2, 8, 60
        built = _Door(FrontDoorConfig(shard_inflight_bound=bound))
        link = built.door.links["shard-00"]
        send, seen = link.client.send, []

        def watched(request, wire_id):
            time.sleep(0.002)  # a slow send: check and send must be one step
            slot = send(request, wire_id)
            seen.append(link.client.in_flight)  # under link.lock, as routed
            return slot

        link.client.send = watched
        workload = make_workload(threads * each)
        responses = [None] * threads

        def fire(index):
            # Closed loop: eight callers keep contending for two places.
            client = AlignmentClient(*built.address)
            try:
                responses[index] = [
                    client.align(1, query, reference, request_id=f"{index}-{n}")
                    for n, (_kid, query, reference) in enumerate(
                        workload[index * each:(index + 1) * each]
                    )
                ]
            finally:
                client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=fire, args=(index,), daemon=True)
                for index in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120.0)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
            built.close()
        assert max(seen) <= bound
        for index, answered in enumerate(responses):
            assert [r.request_id for r in answered] == [
                f"{index}-{n}" for n in range(each)
            ]
        statuses = [r.status for answered in responses for r in answered]
        routed = statuses.count(Status.OK)
        assert routed == len(seen) == link.routed_total
        assert statuses.count(Status.REJECTED) == threads * each - routed
        counter = built.door.metrics.counter
        assert counter("frontdoor.routed_total").value == routed
        assert counter("frontdoor.requests_total").value == threads * each


class TestEvictionAtEOF:
    """A dead link is evicted by its own reader, not by the next ping."""

    def test_killed_worker_leaves_the_ring_and_fails_its_in_flight(self):
        server = ShardServer(
            ("127.0.0.1", 0), DEPLOYMENT, n_shards=1,
            config=FrontDoorConfig(heartbeat_interval_s=60.0),
        ).start()
        try:
            client = AlignmentClient(*server.address, read_timeout=60.0)
            victim = server.manager.handles()[0].process.pid
            os.kill(victim, signal.SIGSTOP)  # requests pile up in flight
            slots = [
                client.submit(1, query, reference)
                for _kid, query, reference in make_workload(8)
            ]
            link = server.frontdoor.links["shard-00"]
            assert wait_until(lambda: link.client.in_flight == 8)
            killed_at = time.monotonic()
            os.kill(victim, signal.SIGKILL)
            assert wait_until(lambda: len(server.frontdoor.ring) == 0, 5.0)
            responses = [slot.result(timeout=5.0) for slot in slots]
            assert time.monotonic() - killed_at < 5.0
            assert [r.status for r in responses] == [Status.ERROR] * 8
            assert all("evicted mid-request" in r.error for r in responses)
            refused = client.align(1, (0, 1), (0, 1))
            assert refused.status is Status.REJECTED
            assert "no live shards" in refused.error
            client.close()
        finally:
            server.close()

    @pytest.mark.parametrize("before_up", (True, False))
    def test_a_worker_that_hangs_up_at_once_never_stays_on_the_ring(
        self, monkeypatch, before_up
    ):
        class HungUpOn(AlignmentClient):
            """Returns from its constructor only once its reader has ended."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._reader.join(timeout=30.0)

        if before_up:  # the link's on_close fires while ``up`` is still False
            monkeypatch.setattr(frontdoor_module, "AlignmentClient", HungUpOn)
        door = FrontDoor(
            DEPLOYMENT, FingerprintRouter.from_deployment(DEPLOYMENT),
            ShardManager(DEPLOYMENT, 1),
            config=FrontDoorConfig(heartbeat_interval_s=60.0),
        )
        with socket.create_server(("127.0.0.1", 0)) as listener:
            hang_up = threading.Thread(
                target=lambda: listener.accept()[0].close(), daemon=True
            )
            hang_up.start()
            door.attach(ShardHandle(
                "shard-00", process=None, conn=None,
                port=listener.getsockname()[1],
            ))
            hang_up.join(timeout=30.0)
        assert wait_until(lambda: len(door.ring) == 0, 5.0)
        assert door.links == {}
        evicted = door.metrics.counter("frontdoor.shards_evicted_total")
        assert evicted.value == 1
        answer = door.submit(AlignRequest("r0", 1, (0, 1), (0, 1))).result(5.0)
        assert answer.status is Status.REJECTED
        assert "no live shards" in answer.error
