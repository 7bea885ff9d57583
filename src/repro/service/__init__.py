"""Online alignment serving: the always-on face of the simulated FPGA.

Everything below the :mod:`repro.host` layer is batch-offline: you hand
``DeviceRuntime.run`` a pre-formed batch and wait for it to drain.
This package turns that into a request path, mirroring the paper's host
design (Section 4, step 6) one level up:

* :mod:`repro.service.protocol` — request/response dataclasses with a
  deterministic JSON-line wire encoding;
* :mod:`repro.service.batcher`  — per-kernel dynamic batching with size-
  and deadline-triggered flush plus admission control (the software twin
  of the arbiter filling ``N_B`` blocks);
* :mod:`repro.service.pool`     — a pool of :class:`DeviceRuntime`\\ s
  (optionally built from a linked multi-kernel design) with least-loaded
  routing;
* :mod:`repro.service.server`   — the serving core and a threaded TCP
  front end;
* :mod:`repro.service.client`   — the TCP and in-process clients;
* :mod:`repro.service.loadgen`  — the load generator that drives
  them: one open-loop Poisson firing loop, closed-loop trace replay,
  and one report of completion-stamped latency samples.

Counters, histograms and (optionally) spans are reported through
:mod:`repro.obs` — the core's default recorder keeps the always-on
metrics; install a :class:`~repro.obs.TraceRecorder` for Chrome-trace
timelines (``repro trace``).  The metric primitives themselves
(``Counter``/``Histogram``/``MetricsRegistry``) live in
:mod:`repro.obs.metrics` and are re-exported here for convenience.

For scale-out beyond one process, :mod:`repro.shard` fronts N worker
processes — each running this package's server unchanged — behind one
more :class:`AlignmentServer`, whose core routes on cache fingerprints
over a consistent-hash ring instead of batching.
"""

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.service.batcher import BatcherConfig, DynamicBatcher
from repro.service.client import (
    AlignmentClient,
    ConnectError,
    InProcClient,
    RetryPolicy,
    connect_with_retry,
)
from repro.service.loadgen import LoadGenerator, LoadProfile, LoadReport
from repro.service.pool import DevicePool
from repro.service.protocol import (
    AlignRequest,
    AlignResponse,
    ProtocolError,
    Status,
)
from repro.service.server import AlignmentServer, ReplySlot, ServiceCore

__all__ = [
    "AlignRequest",
    "AlignResponse",
    "AlignmentClient",
    "AlignmentServer",
    "BatcherConfig",
    "ConnectError",
    "Counter",
    "DevicePool",
    "DynamicBatcher",
    "Histogram",
    "InProcClient",
    "LoadGenerator",
    "LoadProfile",
    "LoadReport",
    "MetricsRegistry",
    "ProtocolError",
    "ReplySlot",
    "RetryPolicy",
    "ServiceCore",
    "Status",
    "connect_with_retry",
]
