"""Shard process lifecycle: spawn, ready handshake, drain, reap.

The :class:`ShardManager` owns the worker *processes*; the front door
owns their *connections*.  Separating the two keeps each side simple —
the manager blocks on pipes and ``Process.join``, while the front door
only ever asks it for facts (ports, liveness) or actions (drain, kill)
through small thread-safe calls.

Spawning uses the ``spawn`` multiprocessing context by default: the
parent runs server, link-reader and heartbeat threads, and forking a
threaded process can deadlock the child on locks held mid-fork.  ``fork`` can be
requested (``mp_context="fork"``) when startup latency matters more
than that hazard.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.shard.deployment import Deployment
from repro.shard.worker import DRAIN, start_worker

#: How long one worker may take to report ready (synthesis + bind).
DEFAULT_READY_TIMEOUT_S = 60.0


class ShardSpawnError(RuntimeError):
    """A worker failed to come up (construction error or timeout)."""


@dataclass
class ShardHandle:
    """One live worker: process, control pipe and bound port."""

    name: str
    process: Any
    conn: Any
    port: int
    spawned_at: float = field(default_factory=time.monotonic)
    drained: bool = False

    @property
    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.is_alive()

    @property
    def exit_code(self) -> Optional[int]:
        """The worker's exit code (``None`` while running)."""
        return self.process.exitcode

    def describe(self) -> Dict[str, Any]:
        """JSON-safe health summary."""
        return {
            "name": self.name,
            "port": self.port,
            "alive": self.alive,
            "exit_code": self.exit_code,
            "uptime_s": time.monotonic() - self.spawned_at,
        }


class ShardManager:
    """Spawns and reaps the worker processes of one deployment."""

    def __init__(
        self,
        deployment: Deployment,
        n_shards: int,
        mp_context: str = "spawn",
        host: str = "127.0.0.1",
        ready_timeout_s: float = DEFAULT_READY_TIMEOUT_S,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.deployment = deployment
        self.n_shards = n_shards
        self.host = host
        self.ready_timeout_s = ready_timeout_s
        self._ctx = multiprocessing.get_context(mp_context)
        self._handles: Dict[str, ShardHandle] = {}
        self._lock = threading.Lock()

    @staticmethod
    def shard_name(index: int) -> str:
        """Canonical shard name (stable across restarts, keys the ring)."""
        return f"shard-{index:02d}"

    # -- spawn ---------------------------------------------------------

    def spawn(self, name: str) -> ShardHandle:
        """Start one worker and block until its ready handshake."""
        process, conn = start_worker(self._ctx, self.deployment, name)
        deadline = time.monotonic() + self.ready_timeout_s
        while not conn.poll(0.05):
            if time.monotonic() > deadline:
                process.terminate()
                raise ShardSpawnError(
                    f"{name} did not report ready within "
                    f"{self.ready_timeout_s:.0f}s"
                )
            if not process.is_alive():
                raise ShardSpawnError(
                    f"{name} died during startup "
                    f"(exit code {process.exitcode})"
                )
        status, value = conn.recv()
        if status != "ready":
            process.join(timeout=5.0)
            raise ShardSpawnError(f"{name} failed to start: {value}")
        handle = ShardHandle(name=name, process=process, conn=conn, port=value)
        with self._lock:
            self._handles[name] = handle
        return handle

    def spawn_all(self) -> List[ShardHandle]:
        """Start every shard of the deployment (``shard-00`` … ``shard-NN``).

        Workers start concurrently — a ``spawn`` interpreter boot plus
        kernel synthesis is the per-shard critical path, so serializing
        them would make ``--shards 8`` pay it eight times.
        """
        names = [self.shard_name(index) for index in range(self.n_shards)]
        results: Dict[str, Any] = {}

        def boot(name: str) -> None:
            try:
                results[name] = self.spawn(name)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                results[name] = exc

        threads = [
            threading.Thread(target=boot, args=(name,), daemon=True)
            for name in names
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        failures = [
            value for value in results.values() if isinstance(value, Exception)
        ]
        if failures:
            self.kill_all()
            raise ShardSpawnError("; ".join(str(f) for f in failures))
        return [results[name] for name in names]

    # -- introspection -------------------------------------------------

    def handles(self) -> List[ShardHandle]:
        """Live handle list (snapshot)."""
        with self._lock:
            return list(self._handles.values())

    def get(self, name: str) -> Optional[ShardHandle]:
        """Handle of one shard, if it is (still) managed."""
        with self._lock:
            return self._handles.get(name)

    # -- teardown ------------------------------------------------------

    def evict(self, name: str) -> None:
        """Forget a dead shard (kill it first if somehow still alive)."""
        with self._lock:
            handle = self._handles.pop(name, None)
        if handle is None:
            return
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    def drain_all(self, timeout_s: float = 30.0) -> Dict[str, Optional[int]]:
        """Gracefully drain every worker; returns name → exit code.

        Sends :data:`~repro.shard.worker.DRAIN` to each worker, joins
        with a shared deadline, and escalates to ``terminate`` for any
        straggler (whose exit code then reflects the kill).
        """
        handles = self.handles()
        for handle in handles:
            if handle.alive and not handle.drained:
                try:
                    handle.conn.send(DRAIN)
                    handle.drained = True
                except (OSError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + timeout_s
        codes: Dict[str, Optional[int]] = {}
        for handle in handles:
            remaining = max(0.1, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            codes[handle.name] = handle.process.exitcode
            try:
                handle.conn.close()
            except OSError:
                pass
        with self._lock:
            self._handles.clear()
        return codes

    def kill_all(self) -> None:
        """Terminate every worker immediately (startup-failure path)."""
        for handle in self.handles():
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        with self._lock:
            self._handles.clear()
