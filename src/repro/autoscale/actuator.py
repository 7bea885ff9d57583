"""The actuator: reconciling a live :class:`DevicePool` to a plan.

Given a :class:`~repro.autoscale.planner.Plan`, the actuator compares
desired replica counts against the pool's routable members and issues
the minimal set of membership operations:

* scale-up deploys fresh runtimes (built by a ``runtime_factory`` so
  the caller chooses backend, pacing and parameters) via
  :meth:`~repro.service.pool.DevicePool.add_member`;
* scale-down retires the *newest* member via
  :meth:`~repro.service.pool.DevicePool.retire_member`, inheriting its
  drain-before-retire guarantee — in-flight work always completes.

``dry_run=True`` computes and reports the same actions without touching
the pool — the planning half of the loop can be rehearsed against a
production service with zero actuation risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.autoscale.planner import KernelPlan, Plan
from repro.backend import DEFAULT_BACKEND
from repro.host.runtime import DeviceRuntime
from repro.kernels import get_kernel
from repro.obs.recorder import get_recorder
from repro.service.pool import DevicePool
from repro.synth.compiler import LaunchConfig

__all__ = ["Action", "Actuator", "default_runtime_factory"]

#: Builds a deployable runtime for (kernel_id, n_pe, n_b).
RuntimeFactory = Callable[[int, int, int], DeviceRuntime]


def default_runtime_factory(
    max_query_len: int = 64,
    max_ref_len: int = 64,
    backend: str = DEFAULT_BACKEND,
    pace: Optional[float] = None,
    params_by_kernel: Optional[Dict[int, Any]] = None,
) -> RuntimeFactory:
    """A :data:`RuntimeFactory` over the kernel registry.

    Every deployed replica is a single-channel (``N_K = 1``) runtime at
    the planned (N_PE, N_B) sizing.  ``pace`` forwards to
    :class:`~repro.host.runtime.DeviceRuntime` so scaled-up replicas
    model the same wall-clock service time as the incumbents.
    """
    params_by_kernel = params_by_kernel or {}

    def build(kernel_id: int, n_pe: int, n_b: int) -> DeviceRuntime:
        spec = get_kernel(kernel_id)
        return DeviceRuntime(
            spec,
            LaunchConfig(
                n_pe=n_pe, n_b=n_b, n_k=1,
                max_query_len=max_query_len, max_ref_len=max_ref_len,
            ),
            params=params_by_kernel.get(kernel_id),
            backend=backend,
            pace=pace,
        )

    return build


@dataclass(frozen=True)
class Action:
    """One membership operation the actuator performed (or rehearsed)."""

    kind: str          #: "add" or "retire"
    kernel_id: int
    member: str        #: member name involved ("" for dry-run adds)
    n_pe: int
    n_b: int
    dry_run: bool
    ok: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (decision logs, the demo report)."""
        return {
            "kind": self.kind,
            "kernel_id": self.kernel_id,
            "member": self.member,
            "n_pe": self.n_pe,
            "n_b": self.n_b,
            "dry_run": self.dry_run,
            "ok": self.ok,
            "detail": self.detail,
        }


class Actuator:
    """Applies plans to a live pool, one membership delta at a time."""

    def __init__(
        self,
        pool: DevicePool,
        runtime_factory: Optional[RuntimeFactory] = None,
        dry_run: bool = False,
        drain_timeout_s: float = 30.0,
    ) -> None:
        self.pool = pool
        self.runtime_factory = runtime_factory or default_runtime_factory()
        self.dry_run = dry_run
        self.drain_timeout_s = drain_timeout_s

    def _apply_kernel(self, entry: KernelPlan) -> List[Action]:
        recorder = get_recorder()
        actions: List[Action] = []
        current = len(self.pool.active_members(entry.kernel_id))
        delta = entry.replicas - current
        if delta > 0:
            for _ in range(delta):
                if self.dry_run:
                    actions.append(Action(
                        kind="add", kernel_id=entry.kernel_id, member="",
                        n_pe=entry.n_pe, n_b=entry.n_b, dry_run=True,
                        ok=True, detail="rehearsed",
                    ))
                    continue
                try:
                    runtime = self.runtime_factory(
                        entry.kernel_id, entry.n_pe, entry.n_b
                    )
                    member = self.pool.add_member(runtime)
                    actions.append(Action(
                        kind="add", kernel_id=entry.kernel_id,
                        member=member.name, n_pe=entry.n_pe, n_b=entry.n_b,
                        dry_run=False, ok=True,
                    ))
                except Exception as exc:  # deploy failures are reported,
                    actions.append(Action(  # never raised into the loop
                        kind="add", kernel_id=entry.kernel_id, member="",
                        n_pe=entry.n_pe, n_b=entry.n_b, dry_run=False,
                        ok=False, detail=str(exc),
                    ))
                    break
        elif delta < 0:
            for _ in range(-delta):
                members = self.pool.active_members(entry.kernel_id)
                if len(members) <= 1:
                    break
                newest = members[-1]
                if self.dry_run:
                    actions.append(Action(
                        kind="retire", kernel_id=entry.kernel_id,
                        member=newest.name, n_pe=entry.n_pe, n_b=entry.n_b,
                        dry_run=True, ok=True, detail="rehearsed",
                    ))
                    continue
                try:
                    self.pool.retire_member(
                        newest.name, timeout_s=self.drain_timeout_s
                    )
                    actions.append(Action(
                        kind="retire", kernel_id=entry.kernel_id,
                        member=newest.name, n_pe=entry.n_pe, n_b=entry.n_b,
                        dry_run=False, ok=True,
                    ))
                except Exception as exc:
                    actions.append(Action(
                        kind="retire", kernel_id=entry.kernel_id,
                        member=newest.name, n_pe=entry.n_pe, n_b=entry.n_b,
                        dry_run=False, ok=False, detail=str(exc),
                    ))
                    break
        for action in actions:
            suffix = "dry_run" if action.dry_run else action.kind
            recorder.count(f"autoscale.actions_{suffix}_total")
        return actions

    def apply(self, plan: Plan) -> List[Action]:
        """Reconcile the pool to ``plan``; returns the actions taken.

        Kernels absent from the plan are left untouched.  In dry-run
        mode the same action list is computed and counted but the pool
        is not mutated.
        """
        actions: List[Action] = []
        for entry in plan.kernels:
            actions.extend(self._apply_kernel(entry))
        return actions
