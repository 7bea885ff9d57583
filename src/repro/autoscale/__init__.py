"""repro.autoscale — closed-loop autoscaling DSE for the serving tier.

The paper's design-space exploration picks (N_PE, N_B, N_K) *offline*
for a known workload; this package closes the loop *online*.  Live
serving metrics (windowed arrival rates and p99s, differentiated from
the cumulative instruments by :class:`MetricsWatcher`) feed a
:class:`Planner` that re-solves the memoized DSE under the device's
resource budget, and an :class:`Actuator` reconciles the live
:class:`~repro.service.pool.DevicePool` to the plan with
drain-before-retire membership changes.  :class:`AutoscaleController`
runs the watch->plan->actuate cycle with cooldown + sliding-window
hysteresis; :func:`run_autoscale_demo` shows the whole loop recovering
a blown SLO under a step load.  See ``docs/autoscale.md``.
"""

from repro.autoscale.actuator import Action, Actuator, default_runtime_factory
from repro.autoscale.controller import AutoscaleController, Decision
from repro.autoscale.demo import run_autoscale_demo
from repro.autoscale.planner import KernelPlan, Plan, PlanInfeasible, Planner
from repro.autoscale.policy import SloPolicy
from repro.autoscale.signals import (
    DemandSample,
    KernelSignal,
    MetricsWatcher,
    flatten_snapshot,
    quantile_from_buckets,
)

__all__ = [
    "Action",
    "Actuator",
    "AutoscaleController",
    "Decision",
    "DemandSample",
    "KernelPlan",
    "KernelSignal",
    "MetricsWatcher",
    "Plan",
    "PlanInfeasible",
    "Planner",
    "SloPolicy",
    "default_runtime_factory",
    "flatten_snapshot",
    "quantile_from_buckets",
    "run_autoscale_demo",
]
