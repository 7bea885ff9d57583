"""Sharded serving: a routing front door over worker processes.

The single-process service (:mod:`repro.service`) tops out at one GIL:
however fast the compiled backend aligns, one Python process can only
push so many responses per second.  This package scales the serving
tier the same way DP-HLS scales compute — replicate independent units
and route work between them:

* :mod:`repro.shard.ring`      — a consistent-hash ring mapping cache
  fingerprints to shards with minimal remapping on membership change;
* :mod:`repro.shard.router`    — computes the :mod:`repro.cache`
  fingerprint of a request at the front door so routing and caching
  agree on the key;
* :mod:`repro.shard.deployment`— the picklable description of what a
  shard hosts (kernels, sizing, batching, cache, backend), shared by
  the CLI, the front door and every worker;
* :mod:`repro.shard.worker`    — the worker-process entry point: one
  :class:`~repro.service.DevicePool` + private memory cache tier (own
  disk journal under a shared cache root) behind the existing threaded
  JSON-line server;
* :mod:`repro.shard.manager`   — process lifecycle: spawn with a ready
  handshake, graceful drain via a control pipe, exit-code collection;
* :mod:`repro.shard.frontdoor` — the front door, a routing core under
  the same threaded JSON-line server the workers run: routes each
  request by fingerprint to a shard link, enforces reject-not-drop
  per-shard in-flight bounds, heartbeats every shard and evicts dead
  ones (remapping the ring), and aggregates per-shard metrics behind
  the ``metrics``/``metrics_text``/``trace`` wire endpoints.

Clients cannot tell the difference: the wire protocol, the
deterministic response encoding and the backpressure semantics are
exactly those of :mod:`repro.service` — a 2-shard deployment answers
byte-identically to the single-process server for the same requests.
"""

from repro.shard.deployment import Deployment
from repro.shard.frontdoor import FrontDoorConfig, ShardServer
from repro.shard.ring import HashRing
from repro.shard.router import FingerprintRouter

__all__ = [
    "Deployment",
    "FingerprintRouter",
    "FrontDoorConfig",
    "HashRing",
    "ShardServer",
]
