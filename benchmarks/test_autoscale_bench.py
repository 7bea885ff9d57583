"""Closed-loop autoscaling benchmark: SLO violation -> automatic recovery.

Runs the full :func:`repro.autoscale.run_autoscale_demo` loop — paced
replicas, step load profile, watch/plan/actuate controller — so the
headline claim — *the single replica saturates, the controller scales
up, the recovery-phase p99 returns under the SLO* — is re-proven on
every run, not just asserted once.
"""

from __future__ import annotations

from repro.autoscale import run_autoscale_demo

from benchmarks.conftest import emit


def test_autoscale_demo():
    report = run_autoscale_demo(
        kernels=(1,),
        rate_rps=5.0,
        duration_s=24.0,
        interval_s=0.5,
        slo_ms=400.0,
        max_replicas=6,
        cooldown_s=1.5,
        per_replica_rps=30.0,
        seed=7,
        keep_decisions=False,
    )

    # The honesty gates: the overload really happened, the controller
    # really acted, and the post-recovery tail really came back.
    assert report["errors"] == 0
    assert report["slo_violated"] is True
    assert report["scale_up_decisions"] >= 1
    assert report["recovered"] is True
    assert report["recovered_p99_ms"] is not None
    assert report["recovered_p99_ms"] <= report["slo_target_ms"]
    assert report["violation_p99_ms"] > report["slo_target_ms"]

    lines = [
        "autoscale closed loop (step x8 at t=6s, slo "
        f"{report['slo_target_ms']:.0f}ms)",
        f"  baseline  p99 {report['baseline_p99_ms']:8.1f} ms",
        f"  violation p99 {report['violation_p99_ms']:8.1f} ms"
        f"  (violated={report['slo_violated']})",
        f"  recovered p99 {report['recovered_p99_ms']:8.1f} ms"
        f"  (recovered={report['recovered']})",
        f"  scale-ups {report['scale_up_decisions']}, replicas "
        f"{report['replicas_initial']} -> {report['replicas_final']}",
    ]
    emit("autoscale_demo", "\n".join(lines))
