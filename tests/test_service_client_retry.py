"""Client failure handling: read timeouts, bounded retry, merging.

A hung server must fail outstanding requests after the read timeout
(while an idle connection survives indefinitely); a server that is
still coming up must be reachable through the bounded backoff of
:func:`connect_with_retry`; and merged load reports must conserve
every count.
"""

import socket
import threading
import time

import pytest

from repro.service import (
    ConnectError,
    LoadReport,
    RetryPolicy,
    Status,
    connect_with_retry,
)
from repro.service.client import AlignmentClient


class SilentServer:
    """Accepts connections and reads, but never answers — a hung peer."""

    def __init__(self):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]
        self._conns = []
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self):
        """Park every connection without ever writing a byte."""
        try:
            while True:
                conn, _addr = self._sock.accept()
                self._conns.append(conn)
        except OSError:
            pass

    def close(self):
        """Tear down the listener and every parked connection."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._sock.close()


@pytest.fixture
def silent():
    """One hung server per test."""
    server = SilentServer()
    yield server
    server.close()


class TestReadTimeout:
    """Outstanding requests fail after the timeout; idle links survive."""

    def test_hung_request_resolves_as_error(self, silent):
        client = AlignmentClient("127.0.0.1", silent.port, read_timeout=0.3)
        started = time.monotonic()
        response = client.align(1, [0, 1], [1, 0], timeout=10.0)
        elapsed = time.monotonic() - started
        assert response.status is Status.ERROR
        assert "read timeout" in response.error
        assert elapsed < 5.0
        client.close()

    def test_idle_connection_outlives_the_timeout(self, silent):
        client = AlignmentClient("127.0.0.1", silent.port, read_timeout=0.2)
        # Nothing in flight: several timeout periods later the reader
        # thread must still be pumping, not torn down.
        time.sleep(0.7)
        assert client._reader.is_alive()
        client.close()

    def test_no_timeout_by_default(self, silent):
        client = AlignmentClient("127.0.0.1", silent.port)
        slot = client.submit(1, [0, 1], [1, 0])
        time.sleep(0.3)
        assert not slot.done
        client.close()
        # Closing fails the pending request rather than dropping it.
        assert slot.result(timeout=10.0).status is Status.ERROR


class TestRetryPolicy:
    """The backoff schedule and its validation."""

    def test_delays_grow_to_the_cap(self):
        policy = RetryPolicy(
            attempts=6, base_delay_s=0.1, max_delay_s=0.5, multiplier=2.0
        )
        delays = [policy.delay_s(i) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestConnectWithRetry:
    """Bounded reconnection while a service comes up."""

    def test_exhausted_budget_raises_connect_error(self):
        # Grab a port and close it so nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(attempts=2, base_delay_s=0.01)
        started = time.monotonic()
        with pytest.raises(ConnectError) as excinfo:
            connect_with_retry("127.0.0.1", port, policy=policy,
                               connect_timeout=0.5)
        assert "after 2 attempts" in str(excinfo.value)
        assert excinfo.value.__cause__ is not None
        assert time.monotonic() - started < 10.0

    def test_connects_once_the_server_appears(self, silent):
        # Delay the listener: bind the real port only after the first
        # attempt has already failed.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # first attempt refused

        late = {}

        def come_up():
            time.sleep(0.3)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
            sock.listen(1)
            late["sock"] = sock

        threading.Thread(target=come_up, daemon=True).start()
        client = connect_with_retry(
            "127.0.0.1", port,
            policy=RetryPolicy(attempts=10, base_delay_s=0.1,
                               max_delay_s=0.2),
        )
        client.close()
        late["sock"].close()


class TestLoadReportMerge:
    """Merged concurrent reports conserve counts and pool latencies."""

    def test_merge_sums_counts_and_pools_latencies(self):
        a = LoadReport(offered_rps=50.0, sent=10, ok=8, rejected=1,
                       errors=1, elapsed_s=2.0,
                       samples=[(0.5, 1.0), (1.5, 2.0)])
        b = LoadReport(offered_rps=50.0, sent=10, ok=10, rejected=0,
                       errors=0, elapsed_s=3.0, samples=[(1.0, 3.0)])
        merged = LoadReport.merge([a, b])
        assert merged.offered_rps == 100.0
        assert merged.sent == 20 and merged.ok == 18
        assert merged.rejected == 1 and merged.errors == 1
        assert merged.elapsed_s == 3.0
        assert sorted(merged.latencies_ms) == [1.0, 2.0, 3.0]
        assert merged.achieved_rps == 18 / 3.0

    def test_merge_requires_input(self):
        with pytest.raises(ValueError):
            LoadReport.merge([])
