"""The five workloads, untraced: end-to-end metrics and output checks.

Sizes below are quoted for ``--seconds 15`` on a 2-core box and scale
linearly with ``--seconds`` (repeats, passes, bursts, Phase A length);
the *shape* of an operation — pairs per call, batch limits, read length —
never scales, because that is what makes a workload stress its layers.
``--quick`` shrinks shapes too and is only good for smoke tests.

Every workload pins ``backend="compiled"`` by name except
``design_sweep``, whose point is the systolic oracle and the synthesis
flow.  Correctness is always judged against ``repro.reference``'s
row-major oracle, never against the compiled backend.
"""

from __future__ import annotations

import gc
import itertools
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from bench import inputs
from bench.common import (
    BASE_SECONDS,
    ROOT,
    child_env,
    cpu_seconds,
    metric,
    peak_rss_mib,
    pin,
    quiet,
    run_dir,
    typical,
    windowed_percentile,
)
from bench.loadgen import Phase, ServeChild, drive

#: Kernels of ``offline_long``: 1/3/5 layers, banded, min-objective,
#: no-traceback and protein — everything the wavefront driver branches on.
OFFLINE_KERNELS = (1, 2, 4, 5, 7, 9, 10, 12, 13, 15)
OFFLINE_PAIRS_PER_CALL = 32
#: Symbols of the per-kernel check pair (a full-length pair costs the
#: row-major oracle 0.3-1.9 s per kernel, as much as the whole timed window).
OFFLINE_CHECK_LEN = 96

SERVE_KERNEL = 1
SERVE_RATE_RPS = 200.0
SERVE_ARGS = (
    "--kernel", "1", "--backend", "compiled", "--n-pe", "8",
    "--max-len", "64", "--max-batch", "64", "--max-delay-ms", "5",
    "--queue-bound", "100000",
)
#: Responses compared against the oracle per ``serve_*`` run.
SERVE_CHECK_SAMPLE = 64
#: Phase A requests per latency window: one second's worth, which leaves
#: ten samples beyond each window's p95.
SERVE_WINDOW = int(SERVE_RATE_RPS)

#: ``map_flowcell`` placement check.  The seed stage opens the window one
#: ``padding`` before the voted diagonal, and indels move that diagonal
#: along a 1 kb read at 12% error (worst seen: 73 bases over 480 reads),
#: so a right placement is within three paddings of the origin.  Reads
#: the mapper itself reports below MAPQ 20 (identity < 0.70: it found a
#: paralogous copy and says so) are listed but not counted as wrong.
MAP_PADDING = 32
MAP_TOLERANCE = 3 * MAP_PADDING
MAP_CONFIDENT_MAPQ = 20

DESIGN_N_PE = (4, 16)
DESIGN_PAIRS = 2
DESIGN_MAX_LEN = 64

COLD_STARTS = 5


@dataclass
class Outcome:
    """What one untraced workload run produced."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def note(self, text: str) -> None:
        print(f"  {text}", flush=True)


class Calls:
    """Wall and CPU seconds of every call, per repeat of one call list."""

    def __init__(self) -> None:
        self.wall: List[List[float]] = []
        self.cpu: List[List[float]] = []

    def new_repeat(self) -> None:
        self.wall.append([])
        self.cpu.append([])

    @contextmanager
    def timed(self) -> Iterator[None]:
        cpu, wall = cpu_seconds(), time.perf_counter()
        yield
        self.wall[-1].append(time.perf_counter() - wall)
        self.cpu[-1].append(cpu_seconds() - cpu)


def _scaled(base: int, seconds: float, floor: int = 1) -> int:
    return max(floor, int(round(base * seconds / BASE_SECONDS)))


# -- set-up time --------------------------------------------------------


def cold_start_inproc(workload: str, *args: str) -> float:
    """Spawn → ``ready`` line of one ``bench.coldstart`` child, seconds."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.coldstart", workload, *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        proc.stdout.read()
    finally:
        try:
            proc.wait(60.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"cold start of {workload} failed: {line!r}")
    return ready_s


def _setup_metric(out: Outcome, samples: Sequence[float]) -> None:
    out.metrics["setup_s"] = metric(median(samples), "s")
    out.note(
        "setup_s samples: " + " ".join(f"{s:.3f}" for s in samples)
    )


# -- what each in-process workload builds first (also the cold start) ----


def build_offline_runtimes() -> Dict[int, Any]:
    """One compiled ``DeviceRuntime`` per offline kernel (lowers each)."""
    from repro.host import DeviceRuntime
    from repro.kernels import get_kernel
    from repro.synth import LaunchConfig

    config = LaunchConfig(
        n_pe=32, n_b=1, n_k=1, max_query_len=512, max_ref_len=512
    )
    return {
        k: DeviceRuntime(get_kernel(k), config, backend="compiled")
        for k in OFFLINE_KERNELS
    }


def design_kernel_ids(quick: bool) -> Tuple[int, ...]:
    from repro.kernels import kernel_ids

    return (1, 2, 12, 15) if quick else tuple(kernel_ids())


def build_design_specs(quick: bool = False) -> Dict[int, Any]:
    """Every kernel spec with its datapath traced (the flow's front end)."""
    from repro.kernels import get_kernel

    specs = {k: get_kernel(k) for k in design_kernel_ids(quick)}
    for spec in specs.values():
        spec.trace_datapath()
    return specs


def build_index(genome: Any) -> Any:
    """The standalone k-mer index ``map_flowcell`` builds per call."""
    from repro.pipeline import KmerIndex

    return KmerIndex(genome)


# -- correctness ---------------------------------------------------------


def oracle_mismatch(spec: Any, pair: Any, score: float, start: Any, cigar: str) -> str:
    """'' when (score, start, cigar) equal the row-major oracle's answer."""
    from repro.reference import oracle_align

    want = oracle_align(spec, pair[0], pair[1])
    if not np.isclose(score, want.score):
        return f"score {score} != oracle {want.score}"
    if tuple(start) != tuple(want.start):
        return f"start {tuple(start)} != oracle {tuple(want.start)}"
    if spec.has_traceback and cigar != want.cigar:
        return f"cigar {cigar} != oracle {want.cigar}"
    return ""


# -- offline_long --------------------------------------------------------


def offline_long(seed: int, seconds: float, quick: bool) -> Outcome:
    pin("program")
    out = Outcome()
    per_call = 3 if quick else OFFLINE_PAIRS_PER_CALL
    repeats = 1 if quick else _scaled(3, seconds)
    batches = {
        k: inputs.one_sweep_pairs(k, per_call, seed + k) for k in OFFLINE_KERNELS
    }
    check_pairs = {
        k: inputs.kernel_pairs(k, 1, seed + 100 + k, OFFLINE_CHECK_LEN)[0]
        for k in OFFLINE_KERNELS
    }
    _setup_metric(out, [
        cold_start_inproc("offline_long")
        for _ in range(1 if quick else COLD_STARTS)
    ])

    runtimes = build_offline_runtimes()
    for k, runtime in runtimes.items():  # first-call laziness stays untimed
        runtime.run([check_pairs[k]])
    gc.collect()
    gc.freeze()

    calls = Calls()
    for _ in range(repeats):
        calls.new_repeat()
        for k, runtime in runtimes.items():
            with calls.timed():
                outcome = runtime.run(batches[k])
            out.attempted += len(batches[k])
            out.failed += sum(1 for r in outcome.results if r is None)
    rss = peak_rss_mib()

    for k, runtime in runtimes.items():
        result = runtime.run([check_pairs[k]]).results[0]
        out.attempted += 1
        problem = "no result" if result is None else oracle_mismatch(
            runtime.spec, check_pairs[k], result.score, result.start,
            result.cigar,
        )
        if problem:
            out.failed += 1
            out.note(f"WRONG kernel #{k}: {problem}")

    out.note(
        f"timed: {repeats} sweeps x {len(OFFLINE_KERNELS)} kernels x "
        f"{per_call} pairs; latency samples={len(OFFLINE_KERNELS)} typical "
        f"calls; checked {len(OFFLINE_KERNELS)} pairs against the oracle"
    )
    _report_calls(out, calls, len(OFFLINE_KERNELS) * per_call, rss)
    return out


def _report(
    out: Outcome,
    throughput: float,
    latency_windows_ms: Sequence[Sequence[float]],
    cpu_ms_per_op: float,
    rss_mib: float,
) -> None:
    out.metrics["throughput_ops_s"] = metric(throughput, "1/s")
    for name, q in (("latency_p50_ms", 0.50), ("latency_p95_ms", 0.95)):
        out.metrics[name] = metric(windowed_percentile(latency_windows_ms, q), "ms")
    out.metrics["cpu_ms_per_op"] = metric(cpu_ms_per_op, "ms")
    out.metrics["peak_rss_mb"] = metric(rss_mib, "MiB")


def _report_calls(out: Outcome, calls: Calls, ops: int, rss_mib: float) -> None:
    """Metrics of an in-process workload from its *typical* repeat.

    ``ops`` is what one repeat completes.  Throughput is ``ops`` over the
    typical repeat's wall time, CPU likewise, and the latency
    percentiles are over the typical repeat's calls (for a one-call
    repeat both read that call's typical time: no tail is claimed from a
    handful of samples).
    """
    wall = typical(calls.wall)
    _report(
        out, ops / sum(wall), [[w * 1000.0 for w in wall]],
        sum(typical(calls.cpu)) * 1000.0 / ops, rss_mib,
    )


# -- serve_unique / serve_repeat ------------------------------------------


def _serve(seed: int, seconds: float, quick: bool, repeat: bool) -> Outcome:
    from repro.kernels import get_kernel
    from repro.service import AlignmentClient

    pin("generator")
    out = Outcome()
    phase_a_s = 0.6 if quick else (7.0 if repeat else 8.0) * seconds / BASE_SECONDS
    bursts = 1 if quick else _scaled(10 if repeat else 8, seconds)
    burst_size = 300 if quick else (3000 if repeat else 2000)
    n_open = int(round(SERVE_RATE_RPS * phase_a_s))
    warm = inputs.short_pairs(64 if quick else 256, seed + 1)
    offsets = inputs.poisson_offsets(n_open, SERVE_RATE_RPS, seed + 2)
    n_stream = n_open + bursts * burst_size
    hot: List[Any] = []
    if repeat:
        hot = inputs.short_pairs(64 if quick else inputs.HOT_SET, seed + 3)
        stream, repeats_in_stream = inputs.repeat_stream(n_stream, seed + 4, hot)
        out.note(
            f"stream: {repeats_in_stream}/{n_stream} draws from "
            f"{len(hot)} pre-filled pairs"
        )
    else:
        stream = inputs.short_pairs(n_stream, seed + 4)
    gc.collect()
    gc.freeze()

    scratch = run_dir()
    cache_dirs = itertools.count()

    def serve_args() -> List[str]:
        if not repeat:
            return list(SERVE_ARGS)
        return [*SERVE_ARGS, "--cache-dir", str(scratch / f"cache-{next(cache_dirs)}")]

    setup_samples = []
    for _ in range(0 if quick else COLD_STARTS - 1):
        with ServeChild(serve_args()) as throwaway:
            setup_samples.append(throwaway.ready_s)

    phases: List[Phase] = []
    child = ServeChild(serve_args())
    try:
        setup_samples.append(child.ready_s)
        client = AlignmentClient(*child.address)
        try:
            phases.append(drive(client, SERVE_KERNEL, warm, "warm-up"))
            if repeat:
                phases.append(drive(client, SERVE_KERNEL, hot, "pre-fill"))
            open_phase = drive(
                client, SERVE_KERNEL, stream[:n_open], "A open-loop", offsets
            )
            phases.append(open_phase)
            burst_phases = []
            burst_cpu_ms = []
            for b in range(bursts):
                lo = n_open + b * burst_size
                cpu_before = child.cpu_seconds()
                burst = drive(
                    client, SERVE_KERNEL, stream[lo:lo + burst_size],
                    f"B burst {b + 1}",
                )
                burst_cpu_ms.append(
                    (child.cpu_seconds() - cpu_before) * 1000.0 / max(1, burst.ok)
                )
                burst_phases.append(burst)
            phases += burst_phases
        finally:
            client.close()
    finally:
        child.stop()
    _setup_metric(out, setup_samples)

    for phase in phases:
        out.note(phase.describe())
        out.attempted += phase.attempted
        out.failed += phase.failed
    windows = open_phase.latency_windows_ms(SERVE_WINDOW)
    if not any(windows):
        raise RuntimeError("no Phase A request was answered")
    out.note(
        f"Phase A offered {open_phase.offered_rps:.1f} rps of "
        f"{SERVE_RATE_RPS:.0f}; latency samples={sum(map(len, windows))} "
        f"in {len(windows)} windows"
    )
    timed_phases = [open_phase, *burst_phases]
    if repeat:
        timed = [r for p in timed_phases for r in p.responses]
        cached = sum(1 for r in timed if r is not None and r.cached)
        out.note(f"responses flagged cached: {cached}/{len(timed)} = "
                 f"{cached / len(timed):.4f}")

    # Seeded sample of served responses against the row-major oracle.
    spec = get_kernel(SERVE_KERNEL)
    served = [
        (pair, resp)
        for phase in timed_phases
        for pair, resp in zip(phase.pairs, phase.responses)
        if resp is not None and resp.ok
    ]
    rng = np.random.RandomState(seed + 5)
    picks = rng.choice(len(served), size=min(SERVE_CHECK_SAMPLE, len(served)),
                       replace=False)
    wrong = 0
    for i in picks.tolist():
        pair, resp = served[i]
        problem = oracle_mismatch(spec, pair, resp.score, resp.start, resp.cigar)
        if problem:
            wrong += 1
            out.note(f"WRONG response {resp.request_id}: {problem}")
    out.failed += wrong
    out.note(f"checked {len(picks)} served responses against the oracle: "
             f"{wrong} wrong")

    _report(
        out, 1.0 / quiet([1.0 / p.drain_rps for p in burst_phases]), windows,
        quiet(burst_cpu_ms), child.peak_rss_mib,
    )
    return out


def serve_unique(seed: int, seconds: float, quick: bool) -> Outcome:
    return _serve(seed, seconds, quick, repeat=False)


def serve_repeat(seed: int, seconds: float, quick: bool) -> Outcome:
    return _serve(seed, seconds, quick, repeat=True)


# -- map_flowcell ----------------------------------------------------------


def flowcell_shape(quick: bool) -> Tuple[int, int, int]:
    """(genome length, reads, read length)."""
    return (100_000, 6, 512) if quick else (1_000_000, 48, 1024)


def check_sam(path: Path, reads: int) -> Tuple[int, List[str]]:
    """(bad records, messages): count, and placement of every mapped read."""
    problems: List[str] = []
    records = 0
    with open(path) as handle:
        for line in handle:
            if line.startswith("@"):
                continue
            records += 1
            fields = line.split("\t")
            if int(fields[1]) & 4:  # unmapped: nothing to place
                continue
            truth = int(fields[0].split("pos=")[1])
            position = int(fields[3]) - 1
            if abs(position - truth) > MAP_TOLERANCE:
                text = (f"{fields[0]} placed at {position}, "
                        f"{position - truth:+d} from its origin, MAPQ {fields[4]}")
                if int(fields[4]) >= MAP_CONFIDENT_MAPQ:
                    problems.append(text)
                else:
                    print(f"  low-confidence placement, not counted: {text}",
                          flush=True)
    bad = len(problems) + abs(records - reads)
    if records != reads:
        problems.append(f"{records} SAM records for {reads} reads")
    return bad, problems


def map_flowcell(seed: int, seconds: float, quick: bool) -> Outcome:
    from repro import api

    pin("program")
    out = Outcome()
    genome_length, reads, read_length = flowcell_shape(quick)
    passes = 2 if quick else _scaled(7, seconds, floor=2)
    scratch = run_dir()
    genome, fastq = inputs.flowcell(scratch, seed, genome_length, reads, read_length)
    genome_file = scratch / "genome.npy"
    np.save(genome_file, np.asarray(genome, dtype=np.int8))
    _setup_metric(out, [
        cold_start_inproc("map_flowcell", str(genome_file))
        for _ in range(1 if quick else COLD_STARTS)
    ])

    with open(fastq) as whole, open(scratch / "warm.fastq", "w") as head:
        head.writelines(whole.readlines()[:8])  # two reads: lazy set-up only
    api.map_flowcell(scratch / "warm.fastq", genome, scratch / "warm.sam")
    gc.collect()
    gc.freeze()

    calls = Calls()
    sams: List[bytes] = []
    for index in range(passes):
        sam = scratch / f"pass-{index}.sam"
        calls.new_repeat()
        with calls.timed():
            report = api.map_flowcell(fastq, genome, sam)
        sams.append(sam.read_bytes())
        out.attempted += reads
        bad, problems = check_sam(sam, reads)
        out.failed += bad
        for problem in problems:
            out.note(f"WRONG pass {index}: {problem}")
    rss = peak_rss_mib()
    if any(sam != sams[0] for sam in sams[1:]):
        out.failed += reads
        out.note("WRONG: SAM output differs between passes")
    out.note(
        f"timed: {passes} passes x {reads} reads of {read_length} b on a "
        f"{genome_length} b genome; mapped {report.mapped}/{report.reads}, "
        f"{report.tiles} tiles; SAM byte-identical across passes: "
        f"{all(sam == sams[0] for sam in sams)}"
    )
    _report_calls(out, calls, reads, rss)
    return out


# -- design_sweep -----------------------------------------------------------


def design_journey(spec: Any, pairs: Any) -> Any:
    """Spec → resources/Fmax/throughput → design space → C-sim check."""
    from repro.experiments.paper_values import TABLE2
    from repro.synth import LaunchConfig, synthesize
    from repro.synth.dse import clear_explore_memo, explore
    from repro.verify import verify_kernel

    n_pe, n_b, n_k = TABLE2[spec.kernel_id].config
    report = synthesize(spec, LaunchConfig(n_pe=n_pe, n_b=n_b, n_k=n_k))
    clear_explore_memo()
    space = explore(spec)
    verdict = verify_kernel(spec, pairs, n_pe_values=DESIGN_N_PE)
    return report, space, verdict


def design_pairs(kernel_id: int, seed: int, quick: bool) -> List[Any]:
    return inputs.kernel_pairs(
        kernel_id, DESIGN_PAIRS, seed + kernel_id,
        24 if quick else DESIGN_MAX_LEN,
    )


def design_sweep(seed: int, seconds: float, quick: bool) -> Outcome:
    pin("program")
    out = Outcome()
    passes = 1 if quick else _scaled(2, seconds)
    pairs = {
        k: design_pairs(k, seed, quick) for k in design_kernel_ids(quick)
    }
    _setup_metric(out, [
        cold_start_inproc("design_sweep", *(["quick"] if quick else []))
        for _ in range(1 if quick else COLD_STARTS)
    ])

    specs = build_design_specs(quick)
    gc.collect()
    gc.freeze()

    calls = Calls()
    for _ in range(passes):
        calls.new_repeat()
        for k, spec in specs.items():
            with calls.timed():
                verdict = design_journey(spec, pairs[k])[2]
            out.attempted += verdict.runs
            out.failed += min(verdict.runs, len(verdict.failures))
            if not verdict.passed:
                out.note(f"WRONG {verdict.summary()}")
    out.note(
        f"timed: {passes} passes x {len(specs)} kernels x "
        f"{DESIGN_PAIRS} pairs x n_pe {DESIGN_N_PE}; every "
        f"VerificationReport passed: {out.failed == 0}"
    )
    _report_calls(out, calls, out.attempted // passes, peak_rss_mib())
    return out


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "offline_long": offline_long,
    "serve_unique": serve_unique,
    "serve_repeat": serve_repeat,
    "map_flowcell": map_flowcell,
    "design_sweep": design_sweep,
}
