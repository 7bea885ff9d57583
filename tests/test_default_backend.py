"""The default backend is the fast path, and one constant decides it.

With no ``backend=`` / ``--backend``, every entry point runs the
compiled backend; naming ``systolic`` still selects the oracle wherever
it could be selected before.  Assertions are on what actually ran
(``engine.cells_total{backend=...}`` under a recorder) or on the
``backend`` the built object reports, never on the declared default.
"""

import inspect
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backend import BACKENDS, DEFAULT_BACKEND
from repro.cli import build_parser, main
from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.obs import TraceRecorder, use_recorder
from repro.service import DevicePool
from repro.shard import Deployment
from repro.synth import LaunchConfig
from repro.synth.linker import ChannelSpec, link

ROOT = Path(__file__).resolve().parents[1]
OTHER = {"compiled": "systolic", "systolic": "compiled"}
#: ``repro cache warm --kernel 1 --kernel 3 --pairs 24 --length 20`` at
#: commit 1cf68a4, the last one that served it from the systolic engine.
ORACLE_DIGEST = (
    "da19a1be28c32fda4f392c7fd8c218a70548b7ff0fa165c6320140458271d4e5"
)


def cells_by_backend(argv, capsys):
    """Run one CLI command under a recorder: {backend: cells it swept}.

    ``repro trace`` installs its own recorder and prints its counters, so
    the printed snapshot is read as well.
    """
    recorder = TraceRecorder()
    with use_recorder(recorder):
        assert main(argv) == 0
    counters = recorder.snapshot()["counters"]
    printed = dict(re.findall(
        r"^counter (engine\.cells_total\{backend=\w+\}) (\d+)$",
        capsys.readouterr().out, re.MULTILINE,
    ))
    return {
        name: counters.get(key, 0) + int(printed.get(key, 0))
        for name in BACKENDS
        for key in [f"engine.cells_total{{backend={name}}}"]
    }


#: Every subcommand that builds an engine, with arguments small enough
#: for the oracle to serve too; the last field says whether it takes
#: ``--backend``.
COMMANDS = {
    "loadgen": (["loadgen", "--in-proc", "--kernel", "1", "--rate", "200",
                 "--requests", "6", "--pairs", "3", "--length", "12"], True),
    "campaign": (["campaign", "1", "--pairs", "2", "--engine-sample", "1",
                  "--length", "16"], True),
    "trace": (["trace", "--pairs", "3", "--length", "12"], False),
    "cache-warm": (["cache", "warm", "--pairs", "3", "--length", "12"], False),
}


def argv_for(name, tmp_path):
    argv, _ = COMMANDS[name]
    extra = {"trace": ["--out", str(tmp_path / "trace.json")],
             "cache-warm": ["--dir", str(tmp_path / "cache.d")]}
    return argv + extra.get(name, [])


class TestCommandsRunTheCompiledBackend:
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_no_flag_runs_compiled_only(self, name, tmp_path, capsys):
        cells = cells_by_backend(argv_for(name, tmp_path), capsys)
        assert cells["compiled"] > 0 and cells["systolic"] == 0, cells

    @pytest.mark.parametrize(
        "name", sorted(n for n, (_, flag) in COMMANDS.items() if flag)
    )
    def test_backend_systolic_still_selects_the_oracle(
        self, name, tmp_path, capsys
    ):
        cells = cells_by_backend(
            argv_for(name, tmp_path) + ["--backend", "systolic"], capsys
        )
        assert cells["systolic"] > 0 and cells["compiled"] == 0, cells

    @pytest.mark.parametrize(
        "sub", ("campaign 1", "serve", "loadgen", "autoscale", "map")
    )
    def test_flag_parses_where_it_parsed_before(self, sub):
        parser = build_parser()
        assert parser.parse_args(sub.split()).backend == DEFAULT_BACKEND
        for name in BACKENDS:
            args = parser.parse_args(sub.split() + ["--backend", name])
            assert args.backend == name

    @pytest.mark.parametrize("sub", ("trace", "cache warm --dir d"))
    def test_no_subcommand_gained_the_flag(self, sub, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(sub.split() + ["--backend", "compiled"])

    def test_cache_warm_digest_is_what_the_oracle_answered(
        self, tmp_path, capsys
    ):
        """CI's smoke-cache command prints the digest it printed when
        ``cache warm`` could only build its core on the systolic engine."""
        assert main(["cache", "warm", "--dir", str(tmp_path / "cache.d"),
                     "--kernel", "1", "--kernel", "3", "--pairs", "24",
                     "--length", "20"]) == 0
        assert f"response digest: {ORACLE_DIGEST}" in capsys.readouterr().out


class TestLibraryDefaults:
    CONFIG = LaunchConfig(n_pe=8, n_b=2, n_k=1, max_query_len=64,
                          max_ref_len=64)

    def test_runtime_pool_and_deployment(self):
        assert DeviceRuntime(get_kernel(1), self.CONFIG).backend == "compiled"
        design = link([ChannelSpec(kernel=get_kernel(1), n_pe=8, n_b=2,
                                   max_query_len=64, max_ref_len=64)])
        (member,) = DevicePool.from_linked_design(design).members
        assert member.runtime.backend == "compiled"
        assert Deployment().backend == "compiled"
        (member,) = Deployment(max_len=64).build_pool().members
        assert member.runtime.backend == "compiled"

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_a_runtime_runs_the_backend_it_was_built_with(self, name):
        runtime = DeviceRuntime(get_kernel(1), self.CONFIG, backend=name)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            outcome = runtime.run([((0, 1, 2, 3), (0, 1, 3, 3))])
        assert not outcome.errors
        counters = recorder.snapshot()["counters"]
        assert counters[f"engine.cells_total{{backend={name}}}"] == 16
        assert f"engine.cells_total{{backend={OTHER[name]}}}" not in counters

    def test_the_backend_is_not_a_per_call_option(self):
        assert list(inspect.signature(DeviceRuntime.run).parameters) == [
            "self", "pairs",
        ]
        assert not hasattr(DeviceRuntime, "_backend_fns")


class TestServeBanner:
    def test_no_flags_serves_compiled(self):
        """``repro serve`` alone prints the ready line ``bench/loadgen.py``
        waits for, and it names the compiled backend."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            for line in proc.stdout:
                if line.startswith("serving kernels"):
                    break
            else:
                pytest.fail("repro serve exited without a ready line")
            assert re.search(r"serving kernels .* on ([0-9.]+):(\d+) ", line)
            assert line.rstrip().endswith("backend=compiled)")
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
