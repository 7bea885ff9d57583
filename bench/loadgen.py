"""The load generator and the ``repro serve`` child it drives.

One generator thread sends over one client connection; replies are
stamped on the client's reader thread.  Two phase shapes:

* *open loop* — requests are due at seeded Poisson instants and each is
  timed from when it was **due**, not from when it was sent, so a stall
  charges its wait to the requests behind it;
* *burst* — everything is due at once, which measures drain capacity
  with full batches.

A closed loop is deliberately absent: with 16-256 requests in flight
this server is bimodal (304-1100 rps at window 32 on the sizing box),
so no closed-loop number repeats well enough to gate on.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from bench.common import ROOT, child_env, percentile, pin

Pair = Tuple[Tuple[Any, ...], Tuple[Any, ...]]

#: The CLI's ready line: ``serving kernels [1] on 127.0.0.1:40123 (...``.
_READY = re.compile(r"serving kernels .* on ([0-9.]+):(\d+) ")

#: Seconds a child may take to print its ready line / to exit on SIGTERM.
SPAWN_TIMEOUT_S = 60.0
REAP_TIMEOUT_S = 20.0
#: Seconds to wait for stragglers after the last request was sent.
DRAIN_TIMEOUT_S = 60.0


class ServeChild:
    """One ``python -m repro serve`` process, always reaped.

    The child runs on the program's core and the calling thread is left
    on the generator's.  ``ready_s`` is spawn → ready line on this
    process's clock; after :meth:`stop`, ``peak_rss_mib`` holds the
    child's own peak (from ``wait4``, so other children do not leak in).
    """

    def __init__(self, serve_args: Sequence[str]) -> None:
        self.address: Optional[Tuple[str, int]] = None
        self.ready_s = 0.0
        self.peak_rss_mib = 0.0
        self.output: List[str] = []
        self._ready = threading.Event()
        pin("program")  # inherited by the child across fork
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *serve_args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        pin("generator")
        self._reaped = False
        self._drain = threading.Thread(
            target=self._drain_output, args=(started,), daemon=True
        )
        self._drain.start()
        try:
            if not self._ready.wait(SPAWN_TIMEOUT_S) or self.address is None:
                raise RuntimeError(
                    "repro serve did not come up:\n" + "".join(self.output[-20:])
                )
        except BaseException:
            self.stop()
            raise

    def _drain_output(self, started: float) -> None:
        """Read the child's output to EOF so it can never block on a pipe."""
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            if self.address is None:
                match = _READY.search(line)
                if match:
                    self.ready_s = time.perf_counter() - started
                    self.address = (match.group(1), int(match.group(2)))
                    self._ready.set()
            self.output.append(line)
        self._ready.set()  # EOF before ready: wake the waiter to fail

    def cpu_seconds(self) -> float:
        """CPU the live child has used so far, summed over its threads.

        From ``/proc/<pid>/task/*/schedstat`` (nanoseconds on a CPU):
        rusage of a child is only readable once it is reaped, per-burst
        CPU needs it mid-run, and ``/proc/<pid>/stat`` counts in 10 ms
        ticks, 1% of a burst.  The server's threads live as long as the
        connection, so none exits (taking its count along) between reads.
        """
        tasks = f"/proc/{self._proc.pid}/task"
        total_ns = 0
        for tid in os.listdir(tasks):
            with open(f"{tasks}/{tid}/schedstat") as handle:
                total_ns += int(handle.read().split()[0])
        return total_ns / 1e9

    def stop(self) -> None:
        """SIGTERM (graceful drain), escalate to SIGKILL, reap, keep rusage."""
        if self._reaped:
            return
        pid = self._proc.pid
        deadline = time.monotonic() + REAP_TIMEOUT_S
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        while True:
            reaped, status, usage = os.wait4(pid, os.WNOHANG)
            if reaped == pid:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.01)
        self._reaped = True
        self._proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mib = usage.ru_maxrss / 1024.0
        self._drain.join(5.0)
        if self._proc.stdout is not None:
            self._proc.stdout.close()

    def __enter__(self) -> "ServeChild":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


@dataclass
class Phase:
    """What one phase sent and got back, on the generator's clock."""

    name: str
    pairs: Sequence[Pair]
    due: List[float]
    sent: List[float]
    done: List[Optional[float]]
    responses: List[Any]

    @property
    def attempted(self) -> int:
        return len(self.pairs)

    @property
    def ok(self) -> int:
        return sum(1 for r in self.responses if r is not None and r.ok)

    @property
    def failed(self) -> int:
        """Unanswered, refused or errored requests."""
        return self.attempted - self.ok

    def latencies_ms(self, first: int = 0, last: Optional[int] = None) -> List[float]:
        """Due → reply of requests ``first:last``, answered ones only
        (failures count elsewhere)."""
        return [
            (done - due) * 1000.0
            for done, due, resp in zip(
                self.done[first:last], self.due[first:last],
                self.responses[first:last],
            )
            if done is not None and resp is not None and resp.ok
        ]

    def latency_windows_ms(self, size: int) -> List[List[float]]:
        """:meth:`latencies_ms` of each run of ``size`` consecutive requests."""
        return [
            self.latencies_ms(lo, lo + size)
            for lo in range(0, self.attempted, size)
        ]

    def lateness_ms(self) -> List[float]:
        """How late after its due time the generator sent each request."""
        return [(s - d) * 1000.0 for s, d in zip(self.sent, self.due)]

    @property
    def wall_s(self) -> float:
        """First due → last reply."""
        finished = [d for d in self.done if d is not None]
        return (max(finished) if finished else self.sent[-1]) - self.due[0]

    @property
    def drain_rps(self) -> float:
        """Answered requests per second of wall time."""
        return self.ok / self.wall_s

    @property
    def offered_rps(self) -> float:
        """Rate the generator achieved on the sending side."""
        span = self.sent[-1] - self.due[0]
        return (self.attempted - 1) / span if span > 0 else float("inf")

    def describe(self) -> str:
        lat = self.latencies_ms()
        tail = (
            f" p50={percentile(lat, 0.5):.2f}ms p95={percentile(lat, 0.95):.2f}ms"
            f" late_p99={percentile(self.lateness_ms(), 0.99):.2f}ms"
            if lat else ""
        )
        return (
            f"{self.name}: attempted={self.attempted} ok={self.ok} "
            f"failed={self.failed} wall={self.wall_s:.2f}s "
            f"drain={self.drain_rps:.0f}rps{tail}"
        )


def drive(
    client: Any,
    kernel_id: int,
    pairs: Sequence[Pair],
    name: str,
    offsets: Optional[Sequence[float]] = None,
) -> Phase:
    """Send ``pairs`` through ``client`` and wait for every reply.

    ``offsets`` are due times in seconds from the phase start (an open
    loop); ``None`` makes everything due immediately (a burst).  Works
    with any client exposing ``submit(kernel_id, query, reference)`` →
    a slot with ``add_done_callback``.
    """
    n = len(pairs)
    clock = time.perf_counter
    phase = Phase(
        name=name, pairs=pairs, due=[0.0] * n, sent=[0.0] * n,
        done=[None] * n, responses=[None] * n,
    )
    remaining = [n]
    lock = threading.Lock()
    finished = threading.Event()

    def settle(index: int, response: Any) -> None:
        phase.done[index] = clock()
        phase.responses[index] = response
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                finished.set()

    start = clock()
    for index, (query, reference) in enumerate(pairs):
        due = start if offsets is None else start + offsets[index]
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        phase.due[index] = due
        phase.sent[index] = clock()
        slot = client.submit(kernel_id, query, reference)
        slot.add_done_callback(lambda resp, _i=index: settle(_i, resp))
    finished.wait(DRAIN_TIMEOUT_S)
    return phase
