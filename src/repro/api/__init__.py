"""Stable public facade: compose stages, align pairs, serve traffic.

``repro.api`` is the one import an application needs:

* :class:`Stage` / :class:`Pipeline` — the composition protocol every
  streaming workload implements (bounded queues, ``process(chunk)``,
  drain semantics); see :mod:`repro.api.stage`.
* :func:`align` — one-shot functional alignment (re-exported from
  :mod:`repro.systolic`).
* :func:`serve` — start an alignment service (in-process TCP server or
  the sharded front door) from a :class:`repro.shard.Deployment`.
* :func:`map_flowcell` — the streaming read-mapping pipeline
  (re-exported from :mod:`repro.pipeline`).

Everything here is covered by the one-release deprecation policy: names
exported from this module do not change signature without a
``DeprecationWarning`` cycle first.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.api.stage import (
    FnStage,
    Pipeline,
    PipelineError,
    PipelineReport,
    Stage,
    StageStats,
)
from repro.pipeline.flow import MapReport, map_flowcell
from repro.systolic import align


class ServiceHandle:
    """A started single-process alignment service (TCP + batcher core).

    The sharded path returns a :class:`repro.shard.ShardServer`, which
    exposes the same ``address`` / ``metrics_snapshot()`` / ``close()``
    surface; callers of :func:`serve` can treat both uniformly.
    """

    def __init__(self, server: Any, core: Any) -> None:
        self._server = server
        self.core = core

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) the service accepts connections on."""
        return self._server.server_address

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The service core's JSON-safe metrics snapshot."""
        return self.core.metrics_snapshot()

    def close(self) -> Dict[str, int]:
        """Stop accepting, drain the batcher, and release the pool."""
        self._server.close()  # stops the core too
        return {"service": 0}


def serve(
    deployment: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    shards: int = 1,
) -> Any:
    """Start an alignment service for a :class:`repro.shard.Deployment`.

    ``shards=1`` serves from this process (a
    :class:`~repro.service.AlignmentServer` over a batcher core, with
    the deployment's cache attached); ``shards > 1`` spawns worker
    processes behind the routing front door
    (:class:`repro.shard.ShardServer`).  Returns a started handle with
    ``address``, ``metrics_snapshot()`` and ``close()``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > 1:
        from repro.shard import ShardServer

        return ShardServer((host, port), deployment, n_shards=shards).start()
    from repro.service import AlignmentServer

    core = deployment.build_core(cache=deployment.build_cache()).start()
    try:
        server = AlignmentServer((host, port), core)
    except BaseException:
        core.stop()
        raise
    server.serve_in_thread()
    return ServiceHandle(server, core)


__all__ = [
    "Stage",
    "FnStage",
    "Pipeline",
    "PipelineError",
    "PipelineReport",
    "StageStats",
    "ServiceHandle",
    "MapReport",
    "align",
    "map_flowcell",
    "serve",
]
