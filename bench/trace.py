"""The traced run: a per-layer ledger measured from outside the program.

Three sources, none of them inside ``src/``:

1. a *stepped replay* — seeded inputs pushed through each layer's public
   functions by the benchmark itself, every call inside one of the
   benchmark's own :class:`Spans` (name, start, end, parent, id);
2. ``cProfile`` (on every thread, CPU-time clock) around the in-process
   form of the traced workload, self time bucketed by source path;
3. counters from public snapshots (``metrics_snapshot()``, ``MapReport``,
   ``CacheStack.stats()``, a ``repro.obs`` recorder's ``snapshot()``).

The ledger probes use the same fixed shapes in every traced run, so a
layer metric means the same thing whichever workload was traced; only
``profile.*`` and ``trace.overhead_frac`` describe the traced workload.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import math
import pstats
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from bench import inputs, workloads
from bench.common import OUT, metric, percentile, pin, run_dir
from bench.loadgen import Phase, ServeChild, drive
from bench.workloads import Outcome

#: profile bucket -> substring of the source path that selects it.
PROFILE_BUCKETS = {
    "backend": "/repro/backend/",
    "systolic": "/repro/systolic/",
    "hdl_types": "/repro/hdl_types/",
    "core": "/repro/core/",
    "service": "/repro/service/",
    "cache": "/repro/cache/",
    "pipeline": "/repro/pipeline/",
}

#: Workloads whose in-process form runs more than one thread.
THREADED_FORMS = ("serve_unique", "serve_repeat", "map_flowcell")

#: SLO of the rate ladder: p95 within this, achieved >= 95% of offered.
SLO_P95_MS = 50.0
SLO_RUNG_S = 3.0
SLO_MAX_RUNGS = 5


# -- spans -----------------------------------------------------------------


class Span:
    """One closed interval; ``seconds`` is valid after the ``with`` block."""

    __slots__ = ("name", "ident", "parent", "start", "end")

    def __init__(self, name: str, ident: Any, parent: Optional[int]) -> None:
        self.name, self.ident, self.parent = name, ident, parent
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """The benchmark's own span store: in memory, written out at exit."""

    def __init__(self) -> None:
        self.rows: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, ident: Any = None) -> Iterator[Span]:
        row = Span(name, ident, self._open[-1] if self._open else None)
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)
        row.start = time.perf_counter()
        try:
            yield row
        finally:
            row.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Per name: duration minus what child spans cover."""
        own = [row.seconds for row in self.rows]
        for row in self.rows:
            if row.parent is not None:
                own[row.parent] -= row.seconds
        totals: Dict[str, float] = {}
        for row, seconds in zip(self.rows, own):
            totals[row.name] = totals.get(row.name, 0.0) + seconds
        return totals

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"name": r.name, "id": r.ident, "parent": r.parent,
             "start": r.start, "end": r.end}
            for r in self.rows
        ]


# -- profiling ----------------------------------------------------------------


class ThreadProfiler:
    """``cProfile`` on this thread and every thread started inside.

    For a form that runs several threads the clock is per-thread CPU
    time, so a thread blocked on a queue or the GIL accrues nothing and
    buckets from several threads add up without double counting.  That
    clock costs a system call per profiler event — 10x on
    ``design_sweep``'s millions of tiny calls — so a single-threaded form
    keeps cProfile's default wall clock, which is the same thing there.
    """

    def __init__(self, threaded: bool) -> None:
        self._timer = time.thread_time if threaded else time.perf_counter
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _profile_this_thread(self) -> None:
        profile = cProfile.Profile(self._timer)
        with self._lock:
            self._profiles.append(profile)
        profile.enable()

    def _on_first_event(self, *_event: Any) -> None:
        # threading installs this as the new thread's profile function;
        # enabling a cProfile.Profile replaces it for that thread.
        self._profile_this_thread()

    def __enter__(self) -> "ThreadProfiler":
        threading.setprofile(self._on_first_event)
        self._profile_this_thread()
        return self

    def __exit__(self, *_exc: Any) -> None:
        threading.setprofile(None)
        self._profiles[0].disable()

    def self_time_by_bucket(self) -> Dict[str, float]:
        """Seconds of self time per bucket, summed over all threads."""
        seconds = dict.fromkeys(
            ["generated_pe", "numpy", "other", *PROFILE_BUCKETS], 0.0
        )
        for profile in self._profiles:
            for (path, _line, func), row in pstats.Stats(profile).stats.items():
                seconds[_bucket(path, func)] += row[2]
        return seconds


def _bucket(path: str, func: str) -> str:
    if path.startswith("<compiled:"):
        return "generated_pe"
    for bucket, marker in PROFILE_BUCKETS.items():
        if marker in path:
            return bucket
    if "/numpy/" in path or (path == "~" and "numpy" in func):
        return "numpy"
    return "other"


# -- ledger probes -------------------------------------------------------------
# Each probe returns {metric name: (value, unit)}; order matters only for
# backend_probe and synth_probe, which must see a process that has not
# lowered or traced any kernel yet.


class Ledger:
    """Shared state of one traced run's probes."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.spans = Spans()
        self.values: Dict[str, Tuple[float, str]] = {}
        self.counters: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.scratch = run_dir()

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def n(self, full: int, quick: int) -> int:
        return quick if self.quick else full

    def account(self, phase: Phase) -> None:
        print(f"  {phase.describe()}", flush=True)
        self.attempted += phase.attempted
        self.failed += phase.failed


def serve_deployment(cache_dir: Optional[str] = None) -> Any:
    """The ``repro serve`` child's deployment, built in-process."""
    from repro.shard import Deployment

    return Deployment(
        kernel_ids=(workloads.SERVE_KERNEL,), n_pe=8, n_b=4, max_len=64,
        max_batch=64, max_delay_ms=5.0, queue_bound=100_000,
        backend="compiled", cache_dir=cache_dir,
    )


def backend_probe(led: Ledger) -> None:
    from repro.backend import compiled_align, compiled_align_batch, lower
    from repro.kernels import get_kernel

    specs = [get_kernel(k) for k in workloads.OFFLINE_KERNELS]
    with led.spans.span("backend.lower") as cold:
        for spec in specs:
            lower(spec)
    led.put("backend.lower_ms_per_kernel", cold.seconds * 1e3 / len(specs), "ms")

    spec = get_kernel(workloads.SERVE_KERNEL)
    short = inputs.short_pairs(64, led.seed + 10)
    sizing = dict(n_pe=8, max_query_len=64, max_ref_len=64)
    compiled_align_batch(spec, short, **sizing)
    for lanes, reps in ((1, led.n(40, 2)), (8, led.n(20, 2)), (64, led.n(8, 1))):
        with led.spans.span("backend.sweep", ident=lanes) as sweep:
            for _ in range(reps):
                compiled_align_batch(spec, short[:lanes], **sizing)
        led.put(f"backend.sweep_ms_b{lanes}", sweep.seconds * 1e3 / reps, "ms")
        if lanes == 64:
            cells = sum(len(q) * len(r) for q, r in short) * reps
            led.put("backend.batch_cells_per_s", cells / sweep.seconds, "1/s")

    query, reference = inputs.kernel_pairs(1, 1, led.seed + 11)[0]
    compiled_align(spec, query, reference)
    reps = led.n(4, 1)
    with led.spans.span("backend.single") as single:
        for _ in range(reps):
            compiled_align(spec, query, reference)
    led.put("backend.single_cells_per_s",
            len(query) * len(reference) * reps / single.seconds, "1/s")


def synth_probe(led: Ledger) -> None:
    from repro.experiments.paper_values import TABLE2
    from repro.kernels import get_kernel
    from repro.synth import LaunchConfig, synthesize
    from repro.synth.dse import clear_explore_memo, explore

    kernel_ids = workloads.design_kernel_ids(led.quick)
    synth_s = explore_s = 0.0
    feasible = 0
    aln_log = lut_log = 0.0
    for k in kernel_ids:
        spec = get_kernel(k)
        n_pe, n_b, n_k = TABLE2[k].config
        with led.spans.span("synth.synthesize", ident=k) as one:
            report = synthesize(spec, LaunchConfig(n_pe=n_pe, n_b=n_b, n_k=n_k))
        synth_s += one.seconds
        clear_explore_memo()
        with led.spans.span("synth.explore", ident=k) as sweep:
            feasible += len(explore(spec).feasible)
        explore_s += sweep.seconds
        block = synthesize(spec, LaunchConfig(n_pe=32))
        aln_log += abs(math.log(report.alignments_per_sec
                                / TABLE2[k].alignments_per_sec))
        lut_log += abs(math.log(block.utilization_pct("lut", of_block=True)
                                / TABLE2[k].lut_pct))
    n = len(kernel_ids)
    led.put("synth.synthesize_ms_per_kernel", synth_s * 1e3 / n, "ms")
    led.put("synth.explore_ms_per_kernel", explore_s * 1e3 / n, "ms")
    led.put("synth.feasible_configs_total", feasible, "count")
    # geometric mean of max(model/paper, paper/model), as a percentage over 1
    led.put("synth.table2_aln_err_geomean_pct", (math.exp(aln_log / n) - 1) * 100, "%")
    led.put("synth.table2_lut_err_geomean_pct", (math.exp(lut_log / n) - 1) * 100, "%")


def host_probe(led: Ledger) -> Tuple[Any, List[Any], float]:
    """Returns (serving runtime, 64 results, host.run seconds per pair)."""
    from repro.host import AlignmentBatch, HostScheduler
    from repro.obs import TraceRecorder, use_recorder

    runtime = serve_deployment().build_pool().members[0].runtime
    short = inputs.short_pairs(64, led.seed + 20)
    ragged = inputs.kernel_pairs(1, led.n(32, 4), led.seed + 21)
    long_runtime = workloads.build_offline_runtimes()[1]
    runtime.run(short)
    reps = led.n(10, 1)
    with led.spans.span("host.run", ident="64x48") as timed:
        for _ in range(reps):
            outcome = runtime.run(short)
    led.put("host.run_ms_per_batch", timed.seconds * 1e3 / reps, "ms")
    host_s_per_pair = timed.seconds / (reps * len(short))

    recorder = TraceRecorder()  # the deep layers count only when one listens
    with use_recorder(recorder):
        runtime.run(short)
        long_runtime.run(ragged)
    counters = recorder.snapshot()["counters"]
    led.counters["host_probe"] = counters
    led.put("host.fallback_runs_total",
            2 - counters.get("host.batched_fast_path", 0), "count")
    led.put("backend.padded_waste_frac",
            1.0 - counters["engine.batch.lane_cells"]
            / counters["engine.batch.padded_cells"], "ratio")

    config = runtime.config
    reps = led.n(200, 5)
    with led.spans.span("host.schedule") as sched:
        for _ in range(reps):
            batch = AlignmentBatch()
            for result in outcome.results:
                batch.add(result.cycles.total)
            HostScheduler(config.n_k, config.n_b).run(batch)
    led.put("host.schedule_us_per_pair",
            sched.seconds * 1e6 / (reps * len(short)), "us")
    return runtime, outcome.results, host_s_per_pair


def protocol_probe(led: Ledger, results: List[Any]) -> Dict[str, float]:
    """Returns seconds per request of the steps a served request takes."""
    from repro.service.protocol import (
        AlignRequest, decode_line, response_from_result,
    )

    pairs = inputs.short_pairs(led.n(2000, 100), led.seed + 30)
    with led.spans.span("protocol.request_build") as build:
        requests = [
            AlignRequest(f"req-{i}", workloads.SERVE_KERNEL, q, r)
            for i, (q, r) in enumerate(pairs)
        ]
    lines = [request.to_line() for request in requests]
    with led.spans.span("protocol.decode") as decode:
        for line in lines:
            AlignRequest.from_dict(decode_line(line))
    with led.spans.span("protocol.response_build") as respond:
        responses = [
            response_from_result(f"req-{i}", results[i % len(results)], latency_ms=1.0)
            for i in range(len(pairs))
        ]
    with led.spans.span("protocol.encode") as encode:
        wire = [response.to_line() for response in responses]
    n = len(pairs)
    led.put("protocol.decode_us_per_req", decode.seconds * 1e6 / n, "us")
    led.put("protocol.encode_us_per_resp",
            (respond.seconds + encode.seconds) * 1e6 / n, "us")
    led.put("protocol.bytes_per_req", sum(map(len, lines)) / n, "B")
    led.put("protocol.bytes_per_resp", sum(map(len, wire)) / n, "B")
    return {
        "request_build": build.seconds / n,
        "response_build": respond.seconds / n,
    }


def cache_probe(led: Ledger, runtime: Any) -> None:
    from repro.cache import CacheConfig, CachedRuntime, CacheStack

    stack = CacheStack(CacheConfig(directory=str(led.scratch / "cache-probe")))
    try:
        cached = CachedRuntime(runtime, stack)
        pairs = inputs.short_pairs(led.n(512, 64), led.seed + 40)
        unseen = inputs.short_pairs(len(pairs), led.seed + 41)
        with led.spans.span("cache.fingerprint") as finger:
            keys = [cached.pair_key(q, r) for q, r in pairs]
        unseen_keys = [cached.pair_key(q, r) for q, r in unseen]
        with led.spans.span("cache.fill") as fill:  # all misses: engine + store
            outcome = cached.run(pairs)
        with led.spans.span("cache.probe_hit") as hit:
            found = sum(1 for key in keys if stack.probe(key)[0] is not None)
        with led.spans.span("cache.probe_miss") as miss:
            found += sum(1 for key in unseen_keys if stack.probe(key)[0] is not None)
        with led.spans.span("cache.store") as store:
            for key, result in zip(unseen_keys, outcome.results):
                stack.store(key, result)
        n = len(pairs)
        led.attempted += 2 * n
        led.failed += abs(found - n)  # every stored key hits, no unseen key does
        disk = stack.stats()["disk"]
        led.counters["cache_probe"] = stack.stats()
        led.put("cache.fingerprint_us_per_pair", finger.seconds * 1e6 / n, "us")
        led.put("cache.fill_rps", n / fill.seconds, "1/s")
        led.put("cache.probe_hit_us", hit.seconds * 1e6 / n, "us")
        led.put("cache.probe_miss_us", miss.seconds * 1e6 / n, "us")
        led.put("cache.store_us", store.seconds * 1e6 / n, "us")
        led.put("cache.disk_bytes_per_entry",
                disk["file_bytes"] / disk["entries"], "B")
    finally:
        stack.close()


def shard_probe(led: Ledger) -> None:
    from repro.shard import FingerprintRouter, HashRing

    router = FingerprintRouter.from_deployment(serve_deployment())
    ring = HashRing(("shard-00", "shard-01"))
    pairs = inputs.short_pairs(led.n(2000, 100), led.seed + 50)
    with led.spans.span("shard.route") as route:
        for query, reference in pairs:
            ring.route(router.key(workloads.SERVE_KERNEL, query, reference))
    led.put("shard.route_us_per_req", route.seconds * 1e6 / len(pairs), "us")


def systolic_probe(led: Ledger) -> None:
    from repro.kernels import get_kernel
    from repro.systolic import align

    cells = cycles = mismatches = 0
    busy_s = 0.0
    for k in workloads.design_kernel_ids(led.quick):
        spec = get_kernel(k)
        pair = inputs.kernel_pairs(k, 1, led.seed + 60 + k, led.n(48, 16))[0]
        with led.spans.span("systolic.align", ident=k) as run:
            result = align(spec, pair[0], pair[1], n_pe=8)
        busy_s += run.seconds
        cells += len(pair[0]) * len(pair[1])
        cycles += result.cycles.total
        led.attempted += 1
        if workloads.oracle_mismatch(spec, pair, result.score, result.start,
                                     result.cigar):
            mismatches += 1
    led.failed += mismatches
    led.put("systolic.cells_per_s", cells / busy_s, "1/s")
    led.put("systolic.sim_cycles_total", cycles, "count")
    led.put("systolic.oracle_mismatches", mismatches, "count")


def pipeline_probe(led: Ledger) -> None:
    from repro import api
    from repro.data.fastq import read_fastq
    from repro.data.sam import SamWriter
    from repro.kernels import get_kernel
    from repro.pipeline import (
        ExtendStage, RuntimeTileDispatcher, SeedChainStage, build_tile_runtime,
    )
    from repro.tiling import tiled_align

    genome_length, _, read_length = workloads.flowcell_shape(led.quick)
    reads = led.n(8, 3)
    genome, fastq = inputs.flowcell(
        led.scratch, led.seed + 70, genome_length, reads, read_length
    )
    with led.spans.span("pipeline.index_build") as build:
        index = workloads.build_index(genome)
    led.put("pipeline.index_build_s", build.seconds, "s")

    records = read_fastq(fastq)
    seed_stage = SeedChainStage(index, padding=workloads.MAP_PADDING)
    extend_stage = ExtendStage(RuntimeTileDispatcher(build_tile_runtime()))
    with led.spans.span("pipeline.seed") as seeding:
        (tasks,) = seed_stage.process(records)
    with led.spans.span("pipeline.extend") as extending:
        (items,) = extend_stage.process(tasks)
    extend_stage.close()
    reps = led.n(50, 2)
    with led.spans.span("pipeline.sam_write") as writing:
        with SamWriter(led.scratch / "probe.sam", "ref", len(genome)) as writer:
            for _ in range(reps):
                for item in items:
                    writer.write(item.name, item.sequence, item.hit, mapq=item.mapq)
    led.put("pipeline.seed_ms_per_read", seeding.seconds * 1e3 / reads, "ms")
    led.put("pipeline.extend_ms_per_read", extending.seconds * 1e3 / reads, "ms")
    led.put("pipeline.sam_write_us_per_read",
            writing.seconds * 1e6 / (reps * reads), "us")

    with led.spans.span("pipeline.map_flowcell"):
        report = api.map_flowcell(fastq, genome, led.scratch / "probe-map.sam")
    bad, problems = workloads.check_sam(led.scratch / "probe-map.sam", reads)
    for problem in problems:
        print(f"  WRONG pipeline probe: {problem}", flush=True)
    led.attempted += reads
    led.failed += bad
    led.counters["map_report"] = report.to_dict()
    led.put("pipeline.tiles_total", report.tiles, "count")
    led.put("pipeline.mapped_frac", report.mapped / report.reads, "ratio")
    for stage in ("seed", "extend"):
        led.put(f"pipeline.{stage}_queue_p95_ms",
                report.pipeline.stage(stage).queue_p95_ms, "ms")

    # the serial systolic tiler, on a prefix short enough for the oracle engine
    task = next(t for t in tasks if t.window is not None)
    prefix = led.n(384, 160)
    window = task.window[workloads.MAP_PADDING:workloads.MAP_PADDING + prefix]
    with led.spans.span("tiling.serial") as serial:
        tiled_align(get_kernel(1), task.query[:prefix], window)
    led.put("tiling.serial_ms_per_read", serial.seconds * 1e3, "ms")


def service_probe(led: Ledger, steps: Dict[str, float], host_s_per_pair: float) -> float:
    """In-process ``serve_unique``; returns burst seconds per request."""
    from repro.service import BatcherConfig, DynamicBatcher, InProcClient, ReplySlot
    from repro.service.protocol import AlignRequest

    n_open = int(workloads.SERVE_RATE_RPS * (0.5 if led.quick else 2.5))
    n_burst = led.n(2000, 200)
    pairs = inputs.short_pairs(16 + n_open + n_burst, led.seed + 80)
    offsets = inputs.poisson_offsets(n_open, workloads.SERVE_RATE_RPS, led.seed + 81)
    core = serve_deployment().build_core().start()
    try:
        client = InProcClient(core)
        for query, reference in pairs[:16]:  # first-call laziness, one by one
            client.align(workloads.SERVE_KERNEL, query, reference)
        with led.spans.span("service.open_loop"):
            opened = drive(client, workloads.SERVE_KERNEL, pairs[16:16 + n_open],
                           "ledger in-proc open-loop", offsets)
        snapshot = core.metrics_snapshot()
        with led.spans.span("service.burst"):
            burst = drive(client, workloads.SERVE_KERNEL, pairs[16 + n_open:],
                          "ledger in-proc burst")
    finally:
        core.stop()
    led.account(opened)
    led.account(burst)
    led.counters["service_probe"] = snapshot
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    led.put("service.queue_ms_p50", histograms["queue_ms"]["p50"], "ms")
    led.put("service.queue_ms_p95", histograms["queue_ms"]["p95"], "ms")
    led.put("service.batch_size_mean", histograms["batch_size"]["mean"], "count")
    led.put("service.flush_deadline_frac",
            counters.get("flush_deadline_total", 0) / counters["flushes_total"],
            "ratio")
    led.put("service.rejected_total", counters.get("rejected_total", 0), "count")
    led.put("loadgen.late_p99_ms", percentile(opened.lateness_ms(), 0.99), "ms")
    led.put("loadgen.latency_p99_ms", percentile(opened.latencies_ms(), 0.99), "ms")
    burst_s_per_req = burst.wall_s / burst.attempted
    led.put("service.inproc_overhead_us_per_req",
            (burst_s_per_req - host_s_per_pair) * 1e6, "us")

    # the steps of a request that public classes let the benchmark take alone
    request = AlignRequest("step", workloads.SERVE_KERNEL, *pairs[0])
    n = led.n(2000, 100)
    batcher = DynamicBatcher(
        BatcherConfig(max_batch=64, max_delay_ms=5.0, max_queue_depth=100_000),
        lambda _kernel, _entries, _trigger: None,
    )
    with led.spans.span("service.batcher_offer") as offer:
        for _ in range(n):
            batcher.offer(workloads.SERVE_KERNEL, payload=request)
    with led.spans.span("service.reply_slot") as slots:
        for _ in range(n):
            slot = ReplySlot(request)
            slot.add_done_callback(lambda _response: None)
            slot.resolve(None)
    steps = dict(steps, batcher_offer=offer.seconds / n,
                 reply_slot=slots.seconds / n, host_run=host_s_per_pair)
    led.counters["stepped_us_per_req"] = {k: v * 1e6 for k, v in steps.items()}
    led.put("trace.attributed_frac", sum(steps.values()) / burst_s_per_req, "ratio")
    return burst_s_per_req


def cache_service_probe(led: Ledger) -> None:
    """In-process ``serve_repeat`` burst: the hit share the cache sees."""
    from repro.service import InProcClient

    hot = inputs.short_pairs(led.n(inputs.HOT_SET, 32), led.seed + 90)
    stream, _ = inputs.repeat_stream(led.n(4000, 200), led.seed + 91, hot)
    deployment = serve_deployment(str(led.scratch / "cache-service"))
    cache = deployment.build_cache()
    core = deployment.build_core(cache=cache).start()
    try:
        client = InProcClient(core)
        led.account(drive(client, workloads.SERVE_KERNEL, hot, "ledger pre-fill"))
        before = core.metrics_snapshot()["counters"]
        with led.spans.span("cache.service_burst"):
            led.account(drive(client, workloads.SERVE_KERNEL, stream,
                              "ledger in-proc repeat burst"))
        after = core.metrics_snapshot()
    finally:
        core.stop()
        cache.close()
    hits = after["counters"].get("cache_hits_total", 0) - before.get("cache_hits_total", 0)
    misses = after["counters"].get("cache_misses_total", 0) - before.get("cache_misses_total", 0)
    led.counters["cache_service_probe"] = after.get("cache")
    led.put("cache.hit_frac", hits / (hits + misses), "ratio")


def tcp_probe(led: Ledger, inproc_s_per_req: float) -> None:
    """The real server over TCP: wire + socket overhead and the SLO ladder."""
    from repro.service import AlignmentClient

    n_burst = led.n(2000, 200)
    rung_s = 0.5 if led.quick else SLO_RUNG_S
    pairs = iter(inputs.short_pairs(
        64 + n_burst + int(sum(
            workloads.SERVE_RATE_RPS * 2 ** r * rung_s for r in range(SLO_MAX_RUNGS)
        )),
        led.seed + 100,
    ))

    def take(n: int) -> List[Any]:
        return [next(pairs) for _ in range(n)]

    with ServeChild(workloads.SERVE_ARGS) as child:
        client = AlignmentClient(*child.address)
        try:
            led.account(drive(client, workloads.SERVE_KERNEL, take(64), "ledger tcp warm-up"))
            with led.spans.span("service.tcp_burst"):
                burst = drive(client, workloads.SERVE_KERNEL, take(n_burst),
                              "ledger tcp burst")
            led.account(burst)
            held = 0.0
            for rung in range(1 if led.quick else SLO_MAX_RUNGS):
                rate = workloads.SERVE_RATE_RPS * 2 ** rung
                n = int(rate * rung_s)
                with led.spans.span("loadgen.slo_rung", ident=rate):
                    phase = drive(
                        client, workloads.SERVE_KERNEL, take(n),
                        f"ledger slo rung {rate:.0f} rps",
                        inputs.poisson_offsets(n, rate, led.seed + 101 + rung),
                    )
                led.account(phase)
                latencies = phase.latencies_ms()
                if (phase.failed or not latencies
                        or percentile(latencies, 0.95) > SLO_P95_MS
                        or phase.drain_rps < 0.95 * rate):
                    break
                held = rate
        finally:
            client.close()
    pin("program")  # ServeChild left this thread on the generator's core
    led.put("service.tcp_overhead_us_per_req",
            (burst.wall_s / burst.attempted - inproc_s_per_req) * 1e6, "us")
    led.put("loadgen.slo_rate_rps", held, "1/s")


# -- in-process forms of the workloads ------------------------------------------


def inproc_form(name: str, seed: int, quick: bool, led: Ledger) -> Callable[[], None]:
    """One repeat of ``name`` with the workload's own shapes, in this process."""
    if name == "offline_long":
        per_call = 3 if quick else workloads.OFFLINE_PAIRS_PER_CALL
        batches = {
            k: inputs.one_sweep_pairs(k, per_call, seed + k)
            for k in workloads.OFFLINE_KERNELS
        }
        runtimes = workloads.build_offline_runtimes()

        def form() -> None:
            for k, runtime in runtimes.items():
                outcome = runtime.run(batches[k])
                led.attempted += len(batches[k])
                led.failed += sum(1 for r in outcome.results if r is None)

        return form

    if name in ("serve_unique", "serve_repeat"):
        from repro.service import InProcClient

        repeat = name == "serve_repeat"
        n_open = int(workloads.SERVE_RATE_RPS * (0.3 if quick else 1.0))
        n_burst = 200 if quick else (6000 if repeat else 4000)
        offsets = inputs.poisson_offsets(n_open, workloads.SERVE_RATE_RPS, seed + 2)
        hot = inputs.short_pairs(32 if quick else inputs.HOT_SET, seed + 3)
        if repeat:
            stream, _ = inputs.repeat_stream(n_open + n_burst, seed + 4, hot)
        else:
            stream = inputs.short_pairs(n_open + n_burst, seed + 4)
        runs = itertools.count()

        def form() -> None:
            cache_dir = str(led.scratch / f"form-cache-{next(runs)}") if repeat else None
            deployment = serve_deployment(cache_dir)
            cache = deployment.build_cache()
            core = deployment.build_core(cache=cache).start()
            try:
                client = InProcClient(core)
                if repeat:
                    led.account(drive(client, workloads.SERVE_KERNEL, hot, "form pre-fill"))
                led.account(drive(client, workloads.SERVE_KERNEL, stream[:n_open],
                                  "form open-loop", offsets))
                led.account(drive(client, workloads.SERVE_KERNEL, stream[n_open:],
                                  "form burst"))
            finally:
                core.stop()
                if cache is not None:
                    cache.close()

        return form

    if name == "map_flowcell":
        from repro import api

        genome_length, reads, read_length = workloads.flowcell_shape(quick)
        genome, fastq = inputs.flowcell(led.scratch, seed, genome_length, reads, read_length)

        def form() -> None:
            api.map_flowcell(fastq, genome, led.scratch / "form.sam")
            led.attempted += reads
            led.failed += workloads.check_sam(led.scratch / "form.sam", reads)[0]

        return form

    if name == "design_sweep":
        specs = workloads.build_design_specs(quick)
        pairs = {k: workloads.design_pairs(k, seed, quick) for k in specs}

        def form() -> None:
            for k, spec in specs.items():
                verdict = workloads.design_journey(spec, pairs[k])[2]
                led.attempted += verdict.runs
                led.failed += min(verdict.runs, len(verdict.failures))

        return form

    raise SystemExit(f"unknown workload {name!r}")


# -- the traced run ----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, quick: bool) -> Outcome:
    """Ledger probes, then the profiled in-process form of ``name``.

    ``seconds`` is accepted for the command line's sake: a traced run does
    one repeat of fixed shapes, because its counts must repeat exactly.
    """
    del seconds
    pin("program")
    led = Ledger(seed, quick)
    with led.spans.span("ledger"):
        backend_probe(led)
        synth_probe(led)
        runtime, results, host_s_per_pair = host_probe(led)
        steps = protocol_probe(led, results)
        cache_probe(led, runtime)
        shard_probe(led)
        systolic_probe(led)
        pipeline_probe(led)
        inproc_s_per_req = service_probe(led, steps, host_s_per_pair)
        cache_service_probe(led)
        tcp_probe(led, inproc_s_per_req)

    form = inproc_form(name, seed, quick, led)
    with led.spans.span("form.untraced") as plain:
        form()
    profiler = ThreadProfiler(threaded=name in THREADED_FORMS)
    with led.spans.span("form.traced") as traced, profiler:
        form()
    buckets = profiler.self_time_by_bucket()
    total = sum(buckets.values())
    for bucket, own in buckets.items():
        led.put(f"profile.{bucket}.self_frac", own / total, "ratio")
    led.put("trace.overhead_frac", traced.seconds / plain.seconds - 1.0, "ratio")

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace.{name}.json", "w") as handle:
        json.dump({
            "workload": name, "seed": seed, "quick": quick,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in led.values.items()},
            "profile_self_seconds": buckets,
            "span_self_seconds": led.spans.self_seconds(),
            "counters": led.counters,
            "spans": led.spans.to_json(),
        }, handle, indent=1)
        handle.write("\n")

    out = Outcome(attempted=led.attempted, failed=led.failed)
    out.metrics = {k: metric(v, u) for k, (v, u) in led.values.items()}
    return out
