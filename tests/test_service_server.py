"""End-to-end tests of the alignment service (TCP and in-proc).

Pins the serving subsystem's acceptance contract: a 2-runtime
mixed-kernel pool answers hundreds of concurrent requests with payloads
byte-identical to ``DeviceRuntime.run`` on the same pairs, idle- and
size-triggered flushes are observable in the metrics, a flush reaches
each connection in one write, and past the admission bound requests are
*rejected* (answered), never dropped.
"""

import json
import socket
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
    InProcClient,
    ServiceCore,
    Status,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    AlignRequest,
    response_from_result,
)
from tests.conftest import mutated_copy, random_dna

KERNEL_IDS = (1, 3)
PAIR_LENGTH = 16


def small_config(**overrides):
    base = dict(n_pe=8, n_b=4, n_k=1, max_query_len=64, max_ref_len=64)
    base.update(overrides)
    from repro.synth import LaunchConfig

    return LaunchConfig(**base)


def make_workload(n):
    """n (kernel_id, query, reference) tuples cycling the two kernels."""
    out = []
    for k in range(n):
        ref = random_dna(PAIR_LENGTH, seed=500 + k)
        qry = mutated_copy(ref, 900 + k)[:PAIR_LENGTH]
        out.append((KERNEL_IDS[k % len(KERNEL_IDS)], qry, ref))
    return out


def two_runtime_pool():
    return DevicePool([
        DeviceRuntime(get_kernel(kernel_id), small_config())
        for kernel_id in KERNEL_IDS
    ])


def wait_until(condition, timeout=30.0):
    """Poll ``condition()`` until true; the final verdict is returned."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


def flush_counts(core):
    """``{trigger: flushes}`` from the core's counters."""
    counters = core.metrics.snapshot()["counters"]
    return {
        name[len("flush_"):-len("_total")]: value
        for name, value in counters.items() if name.startswith("flush_")
    }


@pytest.fixture
def served_core():
    """A started core over a 2-runtime mixed-kernel pool."""
    core = ServiceCore(two_runtime_pool(), BatcherConfig(
        max_batch=8, max_delay_ms=15.0, max_queue_depth=512
    )).start()
    yield core
    core.stop()


class TestEndToEndTCP:
    def test_200_concurrent_mixed_kernel_requests(self, served_core):
        """The acceptance-criteria run, over real sockets."""
        reference_runtimes = {
            kernel_id: DeviceRuntime(get_kernel(kernel_id), small_config())
            for kernel_id in KERNEL_IDS
        }
        server = AlignmentServer(("127.0.0.1", 0), served_core)
        server.serve_in_thread()
        host, port = server.server_address
        client = AlignmentClient(host, port)
        try:
            workload = make_workload(200)
            slots = [
                client.submit(kernel_id, query, reference)
                for kernel_id, query, reference in workload
            ]
            responses = [slot.result(timeout=120.0) for slot in slots]
            assert all(r.status is Status.OK for r in responses)

            # Byte-identity: the wire payload (minus wall-clock latency)
            # must equal one built locally from DeviceRuntime.run.
            for (kernel_id, query, reference), slot, response in zip(
                workload, slots, responses
            ):
                local = reference_runtimes[kernel_id].run(
                    [(query, reference)]
                ).results[0]
                expected = response_from_result(
                    slot.request.request_id, local
                )
                assert response.to_line(with_latency=False) == \
                    expected.to_line(with_latency=False)

            # A solo request on a drained service leaves via the idle
            # trigger — it must then show up in the metrics.
            kernel_id, query, reference = workload[0]
            assert client.align(kernel_id, query, reference).ok
            snapshot = client.metrics()
            counters = snapshot["counters"]
            assert counters["aligned_total"] == 201
            assert counters["flush_idle_total"] >= 1
            assert counters["flush_size_total"] >= 1
            assert counters.get("rejected_total", 0) == 0
            assert snapshot["histograms"]["latency_ms"]["count"] == 201
            assert snapshot["kernels"] == [1, 3]
            assert sum(m["pairs_served"] for m in snapshot["pool"]) == 201
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_control_plane_and_error_paths(self, served_core):
        server = AlignmentServer(("127.0.0.1", 0), served_core)
        server.serve_in_thread()
        host, port = server.server_address
        client = AlignmentClient(host, port)
        try:
            assert client.ping()
            unknown = client.align(9, (1, 2, 3), (1, 2, 3))
            assert unknown.status is Status.ERROR
            assert "not deployed" in unknown.error
            overlong = client.align(1, tuple([0] * 100), (0, 1))
            assert overlong.status is Status.ERROR
            assert "exceeds" in overlong.error
        finally:
            client.close()
            server.shutdown()
            server.server_close()


    def test_api_serve_single_shard_answers_and_closes(self):
        """``api.serve(shards=1)`` returns a *serving* handle: a request
        is answered and ``close()`` returns."""
        from repro import api
        from repro.shard import Deployment

        handle = api.serve(
            Deployment(kernel_ids=(1,), max_len=64, backend="compiled"),
            shards=1,
        )
        closer = threading.Thread(target=handle.close, daemon=True)
        client = AlignmentClient(*handle.address)
        try:
            _kid, query, reference = make_workload(1)[0]
            slot = client.submit(1, query, reference)
            assert slot.result(timeout=30.0).status is Status.OK
        finally:
            client.close()
            closer.start()
            closer.join(timeout=30.0)
        assert not closer.is_alive()


class _CountingSocket:
    """An accepted connection that records every ``sendall``."""

    def __init__(self, sock):
        self._sock = sock
        self.sendalls = []

    def sendall(self, data):
        self.sendalls.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _CountingServer(AlignmentServer):
    """Hands its handlers :class:`_CountingSocket` connections."""

    def __init__(self, address, core):
        self.accepted = []
        super().__init__(address, core)

    def get_request(self):
        sock, peer = super().get_request()
        self.accepted.append(_CountingSocket(sock))
        return self.accepted[-1], peer


class TestWire:
    """What the server does to the socket: un-Nagled, one write a flush."""

    @pytest.fixture
    def served(self):
        pool = DevicePool([DeviceRuntime(get_kernel(1), small_config())])
        core = ServiceCore(pool, BatcherConfig(
            max_batch=64, max_delay_ms=10_000.0, max_queue_depth=512
        )).start()
        server = _CountingServer(("127.0.0.1", 0), core)
        server.serve_in_thread()
        yield server
        server.close()

    def test_lone_request_does_not_wait_for_the_timer(self, served):
        client = AlignmentClient(*served.server_address)
        try:
            _kid, query, reference = make_workload(1)[0]
            assert client.align(1, query, reference).ok  # lowers the kernel
            started = time.monotonic()
            assert client.align(1, query, reference).ok
            assert time.monotonic() - started < 1.0  # max_delay_ms is 10 s
            assert flush_counts(served.core) == {"idle": 2}
        finally:
            client.close()

    def test_accepted_socket_is_un_nagled(self, served):
        with socket.create_connection(served.server_address, timeout=30) as sock:
            wire = sock.makefile("rwb")
            wire.write(b'{"type":"ping","id":"p"}\n')
            wire.flush()
            assert json.loads(wire.readline())["type"] == "pong"
            accepted, = served.accepted
            assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_a_flush_is_one_write_and_inline_answers_write_at_once(self, served):
        core = served.core
        client = AlignmentClient(*served.server_address)
        try:
            workload = make_workload(65)
            # Hold the runtime: request 0 boards alone (idle) and blocks,
            # the next 64 fill one size flush behind it.
            with core.pool.members[0].exclusive:
                slots = [
                    client.submit(1, query, reference)
                    for _kid, query, reference in workload
                ]
                assert wait_until(
                    lambda: flush_counts(core) == {"idle": 1, "size": 1}
                )
                connection, = served.accepted
                assert connection.sendalls == []
                # Inline answers are not held for any flush.
                assert client.ping()
                refused = client.align(1, tuple([0] * 100), (0, 1))
                assert refused.status is Status.ERROR
                assert len(connection.sendalls) == 2
            responses = [slot.result(timeout=60.0) for slot in slots]
            assert all(r.status is Status.OK for r in responses)
            first, batch = connection.sendalls[2:]
            assert first.count(b"\n") == 1
            assert batch.count(b"\n") == 64
        finally:
            client.close()

    def test_malformed_line_is_one_immediate_write(self, served):
        with socket.create_connection(served.server_address, timeout=30) as sock:
            wire = sock.makefile("rwb")
            wire.write(b"this is not json\n")
            wire.flush()
            assert json.loads(wire.readline())["status"] == "error"
            connection, = served.accepted
            assert len(connection.sendalls) == 1


class TestClientAsALink:
    """What a relaying caller (the shard front door) reads off a client."""

    def test_in_flight_tracks_submit_and_answer(self):
        pool = DevicePool([DeviceRuntime(get_kernel(1), small_config())])
        core = ServiceCore(pool, BatcherConfig(max_batch=64)).start()
        server = AlignmentServer(("127.0.0.1", 0), core)
        server.serve_in_thread()
        client = AlignmentClient(*server.server_address)
        try:
            assert client.in_flight == 0
            with core.pool.members[0].exclusive:  # nothing can be answered
                slots = [
                    client.submit(1, query, reference)
                    for _kid, query, reference in make_workload(5)
                ]
                assert client.in_flight == 5
                assert client.ping()  # control traffic is not in flight
                assert client.in_flight == 5
            assert all(slot.result(timeout=60.0).ok for slot in slots)
            assert client.in_flight == 0
        finally:
            client.close()
            server.close()

    def test_on_close_fires_once_when_the_server_hangs_up(self):
        reasons = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = AlignmentClient(
                *listener.getsockname(), on_close=reasons.append
            )
            accepted, _peer = listener.accept()
            slot = client.submit(1, (0, 1), (0, 1))
            accepted.close()
            answer = slot.result(timeout=30.0)  # failed, never dropped
            assert answer.status is Status.ERROR
            client._reader.join(timeout=30.0)
            assert not client._reader.is_alive()
            client.close()  # a second, local close is not a second event
        assert reasons == [answer.error]

    def test_on_close_fires_once_on_a_local_close(self, served_core):
        server = AlignmentServer(("127.0.0.1", 0), served_core)
        server.serve_in_thread()
        reasons = []
        client = AlignmentClient(
            *server.server_address, on_close=reasons.append
        )
        try:
            assert client.ping()
            assert reasons == []
            client.close()
            client._reader.join(timeout=30.0)  # its own close() comes second
            assert not client._reader.is_alive()
            client.close()
            assert len(reasons) == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_alone_a_line_is_written_at_once_and_owed_ones_leave_joined(self):
        class Counting:
            """The client's socket, remembering each ``sendall``."""

            def __init__(self, sock):
                self.sock, self.sendalls = sock, []

            def __getattr__(self, name):
                return getattr(self.sock, name)

            def sendall(self, payload):
                self.sendalls.append(payload)
                self.sock.sendall(payload)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = AlignmentClient(*listener.getsockname())
            wire = client._sock = Counting(client._sock)
            accepted, _peer = listener.accept()
            with accepted:
                first = client.submit(1, (0, 1), (1, 0), request_id="r0")
                assert [w.count(b"\n") for w in wire.sendalls] == [1]
                with client._write_lock:  # the writer runs, and has to wait
                    slots = [first] + [
                        client.submit(1, (0, 1), (1, 0), request_id=f"r{n}")
                        for n in range(1, 200)
                    ]
                    assert len(wire.sendalls) == 1
                peer = accepted.makefile("rb")
                ids = [json.loads(peer.readline())["id"] for _ in slots]
                assert ids == [f"r{n}" for n in range(200)]
                # what it had taken before it waited, then all the rest
                assert len(wire.sendalls) <= 3
                client.close()
                assert peer.readline() == b""
            assert all(slot.done for slot in slots)
            late = client.submit(1, (0, 1), (1, 0))  # after fail_pending() ran
            assert late.result(timeout=5.0).status is Status.ERROR
            assert client.in_flight == 0
            with pytest.raises(OSError):
                client.ping()
            writers = [
                thread for thread in threading.enumerate()
                if thread.name == "alignment-client-writer"
            ]
            for thread in writers:
                thread.join(timeout=5.0)
            assert not any(thread.is_alive() for thread in writers)

    def test_an_answer_carries_the_request_id_not_the_wire_id(self, served_core):
        server = AlignmentServer(("127.0.0.1", 0), served_core)
        server.serve_in_thread()
        client = AlignmentClient(*server.server_address)
        try:
            _kid, query, reference = make_workload(1)[0]
            request = AlignRequest("caller-7", 1, tuple(query), tuple(reference))
            answer = client.send(request, wire_id="relay-0").result(30.0)
            assert answer.ok and answer.request_id == "caller-7"
            assert client.in_flight == 0
        finally:
            client.close()
            server.shutdown()
            server.server_close()


class TestHostileWire:
    """Malformed and oversize lines, over a real socket."""

    @pytest.fixture
    def address(self, served_core):
        server = AlignmentServer(("127.0.0.1", 0), served_core)
        server.serve_in_thread()
        yield server.server_address
        server.shutdown()
        server.server_close()

    @staticmethod
    def _exchange(wire, line):
        wire.write(line)
        wire.flush()
        return json.loads(wire.readline())

    @pytest.mark.parametrize(
        "lead", (b"", b'{"type":"ping","id":"p1"}\n'), ids=("first", "later")
    )
    def test_malformed_line_is_answered_with_a_null_id(self, address, lead):
        # `message` used to be unbound on a malformed first line (handler
        # thread died, no answer) and stale on a later one (the error
        # carried the previous, successful request's id)
        with socket.create_connection(address, timeout=30) as sock:
            wire = sock.makefile("rwb")
            if lead:
                assert self._exchange(wire, lead) == {"type": "pong", "id": "p1"}
            answer = self._exchange(wire, b"this is not json\n")
            assert answer["status"] == "error" and answer["id"] is None
            pong = self._exchange(wire, b'{"type":"ping","id":"p2"}\n')
            assert pong == {"type": "pong", "id": "p2"}  # still usable

    def test_oversize_line_gets_an_error_and_the_server_keeps_serving(
        self, address
    ):
        with socket.create_connection(address, timeout=30) as hostile:
            hostile.sendall(b"x" * (70 * 1024) + b"\n")
            wire = hostile.makefile("rb")
            answer = json.loads(wire.readline())
            assert wire.readline() == b""  # one answer, then hung up
        assert answer["status"] == "error" and answer["id"] is None
        assert str(MAX_LINE_BYTES) in answer["error"]
        second = AlignmentClient(*address, read_timeout=60.0)
        try:
            assert second.ping()
            _kid, query, reference = make_workload(1)[0]
            assert second.align(1, query, reference).status is Status.OK
        finally:
            second.close()


class TestBackpressure:
    def test_past_the_bound_requests_reject_not_drop(self):
        """Flooding a tiny admission bound answers every request."""
        core = ServiceCore(two_runtime_pool(), BatcherConfig(
            # max_batch > bound: the queue can never size-flush, so a
            # fast flood must hit admission control.
            max_batch=100, max_delay_ms=100.0, max_queue_depth=5
        )).start()
        client = InProcClient(core)
        try:
            workload = make_workload(50)
            slots = [
                client.submit(1, query, reference)
                for _kid, query, reference in workload
            ]
            responses = [slot.result(timeout=60.0) for slot in slots]
            ok = sum(r.status is Status.OK for r in responses)
            rejected = sum(r.status is Status.REJECTED for r in responses)
            errors = sum(r.status is Status.ERROR for r in responses)
            assert ok + rejected + errors == 50  # answered, never dropped
            assert errors == 0
            assert rejected > 0
            assert ok >= 5  # the admitted head of the flood completes
            for response in responses:
                if response.status is Status.REJECTED:
                    assert "queue is full" in response.error
            counters = core.metrics.snapshot()["counters"]
            assert counters["rejected_total"] == rejected
            assert counters["aligned_total"] == ok
        finally:
            core.stop()


class TestInProc:
    def test_context_manager_lifecycle(self):
        with ServiceCore(two_runtime_pool()) as core:
            client = InProcClient(core)
            response = client.align(1, (0, 1, 2, 3), (0, 1, 2, 3))
            assert response.ok and response.cigar == "4M"
        # After stop, new traffic is refused (answered as rejected).
        late = client.submit(1, (0, 1), (0, 1)).result(timeout=5.0)
        assert late.status is Status.REJECTED

    def test_shutdown_resolves_residual_queue(self):
        """stop() must answer entries still waiting in the batcher.

        The first request boards alone and is held in flight; the other
        two wait behind it (only shutdown can flush them: 60 s cap).
        Its done() then arrives after stop() and must board nothing.
        """
        core = ServiceCore(two_runtime_pool(), BatcherConfig(
            max_batch=64, max_delay_ms=60_000.0
        )).start()
        client = InProcClient(core)
        done = threading.Event()

        def stopper():
            core.stop()
            done.set()

        member, = core.pool.active_members(1)
        with member.exclusive:
            slots = [client.submit(1, (0, 1, 2), (0, 1, 2)) for _ in range(3)]
            assert core.batcher.depth(1) == 2
            threading.Thread(target=stopper).start()
            assert wait_until(lambda: core.batcher.depth(1) == 0)
            assert not done.is_set()  # stop() waits for the batch in flight
        responses = [slot.result(timeout=60.0) for slot in slots]
        assert done.wait(timeout=60.0)
        assert all(r.status is Status.OK for r in responses)
        assert flush_counts(core) == {"idle": 1, "shutdown": 1}

    def test_burst_behind_a_busy_runtime_drains_in_full_batches(self):
        """2,000 offers at once: between the first flush (one request,
        idle) and the last (the 15 left over) every flush is a size
        flush of 64 — work-conserving must not mean small batches."""
        pool = DevicePool([DeviceRuntime(get_kernel(1), small_config())])
        with ServiceCore(pool, BatcherConfig(
            max_batch=64, max_delay_ms=10_000.0, max_queue_depth=100_000
        )) as core:
            client = InProcClient(core)
            _kid, query, reference = make_workload(1)[0]
            with pool.members[0].exclusive:  # busy until all are offered
                slots = [
                    client.submit(1, query, reference) for _ in range(2000)
                ]
            responses = [slot.result(timeout=120.0) for slot in slots]
            assert all(r.status is Status.OK for r in responses)
            assert flush_counts(core) == {"idle": 2, "size": 31}
            assert core.batcher._in_flight == {1: 0}

    def test_failed_batch_still_frees_its_slot(self):
        """An exception escaping pool.execute reaches batcher.done()."""
        pool = DevicePool([DeviceRuntime(get_kernel(1), small_config())])
        with ServiceCore(pool, BatcherConfig(
            max_batch=64, max_delay_ms=10_000.0
        )) as core:
            execute = pool.execute
            pool.execute = lambda *_a: (_ for _ in ()).throw(OSError("boom"))
            InProcClient(core).submit(1, (0, 1), (0, 1))
            assert wait_until(lambda: core.batcher._in_flight == {1: 0})
            pool.execute = execute
            # The slot is free again: the next lone request boards idle.
            assert InProcClient(core).align(1, (0, 1), (0, 1), timeout=5.0).ok

    def test_concurrent_submitters_all_resolve(self):
        """Many client threads hammering one core: every slot resolves."""
        with ServiceCore(two_runtime_pool(), BatcherConfig(
            max_batch=4, max_delay_ms=10.0, max_queue_depth=512
        )) as core:
            client = InProcClient(core)
            workload = make_workload(40)
            results = []
            lock = threading.Lock()

            def worker(chunk):
                for kernel_id, query, reference in chunk:
                    response = client.align(
                        kernel_id, query, reference, timeout=60.0
                    )
                    with lock:
                        results.append(response)

            threads = [
                threading.Thread(target=worker, args=(workload[k::4],))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 40
            assert all(r.status is Status.OK for r in results)
