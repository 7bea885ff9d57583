"""Smoke tests of the benchmark itself (``python -m pytest bench/tests``).

Not part of tier-1: they spawn servers and take about a minute.  They
pin the contract between ``BENCHMARK.json`` and what ``python -m bench``
emits, the reaping of the ``repro serve`` child, and ``--check-repeat``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from bench import loadgen
from bench.common import ROOT, child_env, load_manifest

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def manifest():
    return load_manifest()


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def quick_run(request, tmp_path_factory):
    """One ``--quick`` run of every workload; (trace flag, result set)."""
    out = tmp_path_factory.mktemp("quick") / "results.json"
    proc = bench("--quick", "--seed", "3", "--trace", str(request.param),
                 "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return request.param, out, json.loads(out.read_text())


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    names = [w["name"] for w in manifest["workloads"]]
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        names.append(entry["name"])
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [e for e in manifest["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in manifest["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_quick_emits_exactly_the_declared_metrics(manifest, quick_run):
    trace, _path, results = quick_run
    declared = manifest["per_layer"] if trace else manifest["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(results["workloads"]) == {w["name"] for w in manifest["workloads"]}
    for name, result in results["workloads"].items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(units), name
        for metric_name, got in result["metrics"].items():
            assert NAME.match(metric_name)
            assert got["unit"] == units[metric_name]
            assert isinstance(got["value"], float)
    if not trace:
        values = [r["metrics"][m]["value"] for r in results["workloads"].values()
                  for m in units]
        assert all(v > 0 for v in values), "an end-to-end metric read zero"


def test_traced_run_writes_its_trace_file(quick_run):
    trace, _path, _results = quick_run
    if not trace:
        pytest.skip("only the traced run writes spans")
    written = json.loads((ROOT / "bench" / "out" / "trace.design_sweep.json").read_text())
    assert written["spans"] and written["span_self_seconds"]
    assert {"name", "id", "parent", "start", "end"} == set(written["spans"][0])
    assert abs(sum(written["profile_self_seconds"].values())) > 0


def test_check_repeat_accepts_a_file_against_itself(quick_run, tmp_path):
    trace, path, results = quick_run
    same = bench("--check-repeat", str(path), str(path))
    assert same.returncode == 0, same.stdout[-2000:]
    assert "0 disagreements" in same.stdout
    if trace:
        results["workloads"]["design_sweep"]["metrics"][
            "systolic.sim_cycles_total"]["value"] += 1
    else:
        results["workloads"]["offline_long"]["metrics"][
            "throughput_ops_s"]["value"] *= 0.5
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(results))
    differs = bench("--check-repeat", str(path), str(doctored))
    assert differs.returncode == 1
    assert ("DIFFERS" if trace else "WORSE") in differs.stdout


def test_single_workload_prints_the_result_object_last():
    proc = bench("--quick", "--workload", "design_sweep", "--seed", "5",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        load_manifest()["command"] + ["--workload", "offline_long", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _gone(pid: int) -> bool:
    """Reaped: no process, not even a zombie, answers to ``pid``."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_serve_child_is_reaped_after_a_normal_stop():
    with loadgen.ServeChild(["--kernel", "1", "--backend", "compiled"]) as child:
        pid = child._proc.pid
        assert child.address is not None and child.ready_s > 0
        assert child.cpu_seconds() > 0
    assert _gone(pid)
    assert child.peak_rss_mib > 0


def test_serve_child_is_reaped_when_the_body_raises():
    pid = None
    with pytest.raises(RuntimeError, match="boom"):
        with loadgen.ServeChild(["--kernel", "1", "--backend", "compiled"]) as child:
            pid = child._proc.pid
            raise RuntimeError("boom")
    assert pid is not None and _gone(pid)


def test_serve_child_is_reaped_when_it_never_comes_up():
    with pytest.raises(RuntimeError, match="did not come up"):
        loadgen.ServeChild(["--kernel", "no-such-kernel"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # nothing left to reap


def test_serve_child_is_killed_when_it_outlives_the_reap_timeout(monkeypatch):
    monkeypatch.setattr(loadgen, "REAP_TIMEOUT_S", -1.0)  # SIGKILL at once
    child = loadgen.ServeChild(["--kernel", "1", "--backend", "compiled"])
    pid = child._proc.pid
    child.stop()
    assert _gone(pid)
    assert child._proc.returncode == -signal.SIGKILL
