"""The closed-loop demo: shifting load, live SLO recovery, one report.

:func:`run_autoscale_demo` stands up a complete in-process deployment —
a :class:`~repro.service.pool.DevicePool` with one *paced* replica per
kernel, a :class:`~repro.service.server.ServiceCore` over it, and the
full watch->plan->actuate loop of :mod:`repro.autoscale` — then drives
it with a seeded open-loop step profile: baseline traffic for the first
phase, a multiplied arrival rate after the step.  The single replica
saturates, the windowed p99 blows through the SLO, the controller
deploys more replicas (each one a fresh DSE-chosen runtime), and the
recovery phase's p99 comes back under target — all of which the
returned JSON-safe report quantifies phase by phase, so a CI job can
grep for "scaled up AND recovered".

Pacing is what makes the physics honest: each replica's
:class:`~repro.host.runtime.DeviceRuntime` sleeps until the modelled
makespan has elapsed on the wall clock, so a replica really can serve
only ``1/service_time`` batches per second and adding replicas really
adds capacity (the sleep releases the GIL).  ``dry_run=True`` runs the
same loop but only *rehearses* the actions: the pool is never touched,
which also demonstrates what rehearsal mode is for.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

from repro.autoscale.actuator import Actuator, default_runtime_factory
from repro.autoscale.controller import AutoscaleController
from repro.autoscale.planner import Planner
from repro.autoscale.policy import SloPolicy
from repro.autoscale.signals import MetricsWatcher
from repro.backend import DEFAULT_BACKEND
from repro.kernels import get_kernel
from repro.obs.recorder import use_recorder
from repro.service.batcher import BatcherConfig
from repro.service.client import InProcClient
from repro.service.loadgen import LoadGenerator, LoadProfile, random_workload
from repro.service.pool import DevicePool
from repro.service.server import ServiceCore

__all__ = ["run_autoscale_demo"]


def run_autoscale_demo(
    kernels: Sequence[int] = (1,),
    rate_rps: float = 5.0,
    profile: Optional[LoadProfile] = None,
    duration_s: float = 24.0,
    interval_s: float = 1.0,
    slo_ms: float = 400.0,
    max_replicas: int = 6,
    cooldown_s: float = 2.0,
    per_replica_rps: float = 30.0,
    pace: Optional[float] = None,
    max_batch: int = 4,
    length: int = 48,
    backend: str = DEFAULT_BACKEND,
    dry_run: bool = False,
    seed: int = 7,
    keep_decisions: bool = True,
) -> Dict[str, Any]:
    """Run the closed loop under a shifting load; return the report.

    Per-replica capacity is calibrated, not guessed: a throwaway
    full-size batch is run through the chosen config to measure its
    modelled makespan, and ``pace`` is set so that a *full* batch takes
    ``max_batch / per_replica_rps`` seconds of wall clock (pipeline
    fill makes smaller batches proportionally slower per pair, exactly
    like the device).  Pass ``pace`` explicitly to skip calibration.

    The report's headline fields (``baseline_p99_ms`` /
    ``violation_p99_ms`` / ``recovered_p99_ms`` / ``scale_up_decisions``
    / ``recovered``) are what the CI smoke job asserts on.
    """
    if profile is None:
        profile = LoadProfile(kind="step", t0_s=duration_s / 4.0,
                              multiplier=8.0)
    if duration_s <= 0 or interval_s <= 0:
        raise ValueError("duration_s and interval_s must be positive")
    if per_replica_rps <= 0:
        raise ValueError(
            f"per_replica_rps must be positive, got {per_replica_rps}"
        )

    policy = SloPolicy(
        p99_target_ms=slo_ms,
        min_replicas=1,
        max_replicas=max_replicas,
        cooldown_s=cooldown_s,
        window_s=max(duration_s, 1.0),
        max_actions_per_window=max(8, 2 * max_replicas * len(kernels)),
    )
    planner = Planner(policy, max_query_len=length, max_ref_len=length)
    specs = [get_kernel(kernel_id) for kernel_id in kernels]
    calibration = random_workload(
        specs, pairs=max_batch, length=length, seed=seed + 2
    )

    paces: Dict[int, float] = {}
    for kernel_id in kernels:
        report = planner.replica_report(kernel_id)
        if pace is not None:
            paces[kernel_id] = pace
            continue
        probe = default_runtime_factory(
            max_query_len=length, max_ref_len=length, backend=backend,
        )(kernel_id, report.config.n_pe, report.config.n_b)
        pairs = [
            (q, r) for k, q, r in calibration if k == kernel_id
        ][:max_batch]
        outcome = probe.run(pairs)
        modelled_s = (
            outcome.schedule.makespan_cycles / (outcome.clock_mhz * 1e6)
        )
        paces[kernel_id] = (max_batch / per_replica_rps) / max(
            modelled_s, 1e-12
        )

    def factory(kernel_id: int, n_pe: int, n_b: int):
        return default_runtime_factory(
            max_query_len=length, max_ref_len=length, backend=backend,
            pace=paces[kernel_id],
        )(kernel_id, n_pe, n_b)

    # One replica per kernel at the planner's chosen per-replica config
    # — exactly what a scale-up will deploy more of.
    initial = []
    for kernel_id in kernels:
        report = planner.replica_report(kernel_id)
        initial.append(
            factory(kernel_id, report.config.n_pe, report.config.n_b)
        )
    pool = DevicePool(initial)
    core = ServiceCore(
        pool,
        config=BatcherConfig(max_batch=max_batch, max_delay_ms=15.0,
                             max_queue_depth=64),
        dispatchers=max(4, max_replicas * len(kernels) + 2),
    )

    watcher = MetricsWatcher(core.metrics_snapshot)
    actuator = Actuator(pool, runtime_factory=factory, dry_run=dry_run)
    controller = AutoscaleController(watcher, planner, actuator)

    replicas_initial = dict(pool.replica_counts())
    workload = random_workload(specs, pairs=32, length=length, seed=seed + 1)

    with use_recorder(core.recorder):
        with core:
            watcher.sample()  # establish the first window's baseline
            controller.start(interval_s=interval_s)
            try:
                generator = LoadGenerator(
                    InProcClient(core), workload, seed=seed
                )
                report = generator.run(
                    rate_rps,
                    duration_s=duration_s,
                    profile=profile,
                    result_timeout=max(120.0, 10.0 * duration_s),
                )
            finally:
                controller.stop()

    # Phase-wise percentiles: the step splits the run into baseline /
    # violation (right after the step) / recovery (the tail third).
    bounds = profile.phase_bounds()
    step_at = bounds[0] if bounds else duration_s / 4.0
    tail = max(interval_s, (duration_s - step_at) / 3.0)
    baseline_p99 = report.window_percentile_ms(0.0, step_at, 0.99)
    violation_p99 = report.window_percentile_ms(
        step_at, duration_s - tail, 0.99
    )
    recovered_p99 = report.window_percentile_ms(
        duration_s - tail, math.inf, 0.99
    )

    scale_ups = sum(1 for d in controller.decisions if d.scaled_up)
    scale_downs = sum(1 for d in controller.decisions if d.scaled_down)
    recovered = recovered_p99 is not None and recovered_p99 <= slo_ms

    result: Dict[str, Any] = {
        "schema": "autoscale-demo/v1",
        "slo_target_ms": slo_ms,
        "profile": profile.describe(),
        "offered_rps": rate_rps,
        "duration_s": duration_s,
        "interval_s": interval_s,
        "per_replica_rps": per_replica_rps,
        "pace": {str(k): round(v, 3) for k, v in paces.items()},
        "backend": backend,
        "dry_run": dry_run,
        "kernels": list(kernels),
        "sent": report.sent,
        "ok": report.ok,
        "rejected": report.rejected,
        "errors": report.errors,
        "baseline_p99_ms": baseline_p99,
        "violation_p99_ms": violation_p99,
        "recovered_p99_ms": recovered_p99,
        "slo_violated": policy.violated(violation_p99),
        "recovered": recovered,
        "scale_up_decisions": scale_ups,
        "scale_down_decisions": scale_downs,
        "replicas_initial": {
            str(k): v for k, v in replicas_initial.items()
        },
        "replicas_final": {
            str(k): v for k, v in pool.replica_counts().items()
        },
    }
    if keep_decisions:
        result["decisions"] = [d.to_dict() for d in controller.decisions]
    return result
