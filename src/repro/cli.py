"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflow of Fig. 2A plus the experiment harnesses:

* ``list``                      — the kernel registry (Table 1)
* ``align KERNEL QUERY REF``    — functional alignment of two sequences
* ``synth KERNEL``              — Vitis-style synthesis report
* ``rtl KERNEL``                — structural Verilog skeleton (Section 7.2)
* ``verify KERNEL``             — oracle verification of a stock workload
* ``campaign KERNEL|all``       — bulk two-tier verification campaign
* ``fuzz``                      — differential fuzzing of the engine
* ``serve``                     — run the online alignment service (TCP)
* ``loadgen``                   — open-loop Poisson load against a service,
  or closed-loop replay of a recorded tile trace (``--trace``)
* ``map``                       — stream a (simulated) long-read flowcell
  through the read-mapping pipeline to SAM (:mod:`repro.pipeline`)
* ``cache stats|warm|clear``    — inspect, warm or clear the persistent
  content-addressed alignment cache (:mod:`repro.cache`)
* ``trace``                     — serve a traced workload in-process and
  export a Chrome trace (chrome://tracing / Perfetto)
* ``table2`` / ``fig3`` / ``fig4`` / ``fig5`` / ``fig6`` / ``hls`` /
  ``tiling``                    — regenerate an evaluation table/figure

``verify``, ``campaign`` and ``fuzz`` accept ``--workers N`` to fan work
items across a process pool (:mod:`repro.parallel`).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
import threading
from typing import List, Optional

from repro.backend import BACKENDS, DEFAULT_BACKEND
from repro.core.alphabet import encode_dna, encode_protein
from repro.kernels import get_kernel, list_kernels
from repro.shard.deployment import Deployment
from repro.synth import LaunchConfig, synthesize
from repro.synth.rtlgen import generate_rtl_skeleton
from repro.systolic import align


def _kernel_arg(value: str):
    """Resolve a kernel id or name, exiting cleanly on an unknown one."""
    try:
        return get_kernel(value)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc))


def _encode_for(spec, text: str):
    if spec.alphabet.name in ("dna", "dna_gap"):
        return encode_dna(text)
    if spec.alphabet.name == "protein":
        return encode_protein(text)
    if spec.alphabet.name == "int_signal":
        return tuple(int(v) for v in text.split(","))
    raise SystemExit(
        f"kernel {spec.name} consumes {spec.alphabet.name} symbols; "
        f"the CLI only accepts DNA, protein or comma-separated integer "
        f"signals"
    )


def cmd_list(_args) -> int:
    """List the registered kernels (the Table 1 view)."""
    print(f"{'#':>3} {'name':28s} {'layers':>6} {'objective':>9} "
          f"{'traceback':>9} {'band':>5}  tools")
    for info in list_kernels():
        print(
            f"{info['id']:>3} {info['name']:28s} {info['layers']:>6} "
            f"{info['objective']:>9} "
            f"{'yes' if info['traceback'] else 'no':>9} "
            f"{info['banding'] or '-':>5}  "
            f"{', '.join(info['reference_tools'])}"
        )
    return 0


def cmd_info(_args) -> int:
    """What the compiled backend found on this machine: native or NumPy."""
    from repro.backend import native

    print("\n".join(native.describe()))
    return 0


def cmd_align(args) -> int:
    """Align two sequences on a kernel and print the result."""
    spec = _kernel_arg(args.kernel)
    query = _encode_for(spec, args.query)
    reference = _encode_for(spec, args.reference)
    result = align(spec, query, reference, n_pe=args.n_pe)
    print(f"kernel : #{spec.kernel_id} {spec.name}")
    print(f"score  : {result.score}")
    if result.alignment:
        print(f"cigar  : {result.cigar}")
        print(result.alignment.pretty(
            query, reference,
            letters="ACGT" if spec.alphabet.name.startswith("dna")
            else "ARNDCQEGHILKMFPSTWYV",
        ))
    print(f"cycles : {result.cycles.total}")
    return 0


def cmd_synth(args) -> int:
    """Print the Vitis-style synthesis report for a configuration."""
    spec = _kernel_arg(args.kernel)
    report = synthesize(
        spec,
        LaunchConfig(
            n_pe=args.n_pe, n_b=args.n_b, n_k=args.n_k,
            max_query_len=args.max_len, max_ref_len=args.max_len,
        ),
    )
    print(report.summary())
    return 0 if report.feasible else 1


def cmd_rtl(args) -> int:
    """Emit the structural Verilog skeleton of a kernel."""
    spec = _kernel_arg(args.kernel)
    print(generate_rtl_skeleton(spec, LaunchConfig(n_pe=args.n_pe, n_b=args.n_b)))
    return 0


def cmd_verify(args) -> int:
    """Verify a kernel against the oracle on a stock workload."""
    from repro.experiments.workloads import WORKLOADS
    from repro.verify import verify_kernel

    spec = _kernel_arg(args.kernel)
    workload = WORKLOADS.get(spec.kernel_id)
    if workload is None:
        raise SystemExit(
            f"no stock workload for kernel #{spec.kernel_id}; use "
            f"repro.verify.verify_kernel with your own pairs"
        )
    pairs = [
        (q[: args.length], r[: args.length])
        for q, r in workload.make_pairs(args.pairs, args.seed)
    ]
    report = verify_kernel(
        spec, pairs, n_pe_values=(1, 4, 8), workers=args.workers
    )
    print(report.summary())
    return 0 if report.passed else 1


def cmd_campaign(args) -> int:
    """Run a bulk two-tier verification campaign (one kernel or ``all``)."""
    from repro.campaign import run_campaign, run_full_campaign

    options = dict(
        n_pairs=args.pairs, engine_sample=args.engine_sample,
        max_length=args.length, seed=args.seed, workers=args.workers,
        backend=args.backend,
    )
    if args.kernel == "all":
        report = run_full_campaign(**options)
    else:
        report = run_campaign(_kernel_arg(args.kernel).kernel_id, **options)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_fuzz(args) -> int:
    """Differentially fuzz the systolic engine against its oracles."""
    from repro.verify_fuzz import fuzz

    kernels = [_kernel_arg(k).kernel_id for k in args.kernel] or None
    cases = args.cases
    if args.budget is not None and cases is None:
        cases = 1  # one case per kernel per round; rounds fill the budget
    report = fuzz(
        kernels=kernels,
        cases_per_kernel=cases if cases is not None else 10,
        seed=args.seed,
        workers=args.workers,
        max_len=args.max_len,
        budget_s=args.budget,
    )
    print(report.summary())
    print(f"elapsed: {report.elapsed_s:.1f}s")
    return 0 if report.passed else 1


def _serve_in_proc(core, workload):
    """Push ``workload`` through ``core`` in-process, then stop it;
    returns the responses in submission order."""
    from repro.service import InProcClient

    client = InProcClient(core.start())
    try:
        slots = [
            client.submit(kernel_id, query, reference)
            for kernel_id, query, reference in workload
        ]
        return [slot.result(timeout=120.0) for slot in slots]
    finally:
        core.stop()


def _exit_code(responses) -> int:
    """0 when every response resolved OK; otherwise say how many did not."""
    from repro.service import Status

    failures = sum(r.status is not Status.OK for r in responses)
    if failures:
        print(f"error: {failures} request(s) did not resolve OK")
    return 1 if failures else 0


def _deployment_from_args(args) -> Deployment:
    """Build the :class:`~repro.shard.Deployment` an argparse namespace
    describes: every field the subcommand's parser declared (see
    :func:`_add_deployment_args`), the dataclass's own default for the
    rest.  Every in-process service the CLI runs is built from it."""
    declared = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(Deployment)
        if f.name != "kernel_ids" and hasattr(args, f.name)
    }
    try:
        deployment = Deployment(
            kernel_ids=tuple(
                _kernel_arg(k).kernel_id for k in (args.kernel or ["1"])
            ),
            **declared,
        )
        deployment.specs()  # fail fast on unservable kernels
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return deployment


def _print_deployed(kernel_ids) -> None:
    """Describe the deployed kernels, one line each."""
    deployed = set(kernel_ids)
    for info in list_kernels():
        if info["id"] in deployed:
            print(f"  kernel #{info['id']} {info['name']} "
                  f"({info['alphabet']}, {info['layers']} layers, "
                  f"traceback={'yes' if info['traceback'] else 'no'})")


def cmd_serve(args) -> int:
    """Run the always-on alignment service until interrupted.

    ``--shards 1`` (the default) serves from this process;
    ``--shards N`` spawns N worker processes behind a front door that
    routes each request by its cache fingerprint.
    """
    import json as json_module
    import signal

    def _graceful(signum, frame) -> None:
        """Turn SIGTERM/SIGINT into the KeyboardInterrupt drain path."""
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        # Explicit handlers: a server backgrounded from a script
        # inherits SIGINT=ignore (POSIX job control), and SIGTERM
        # should drain gracefully rather than kill mid-request.
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)

    from repro.api import serve

    deployment = _deployment_from_args(args)
    service = serve(
        deployment, args.host, args.port, shards=max(1, args.shards)
    )
    host, port = service.address
    if args.shards > 1:
        shard_ports = ", ".join(
            f"{h.name}:{h.port}" for h in service.manager.handles()
        )
        detail = f"{args.shards} shards: {shard_ports}"
    else:
        detail = (
            f"{len(service.core.pool.members)} runtimes, "
            f"max_batch={args.max_batch}, max_delay={args.max_delay_ms}ms, "
            f"queue_bound={args.queue_bound}"
        )
    _print_deployed(deployment.kernel_ids)
    final = {}
    try:  # from the ready line on: a signal sent on reading it must drain
        print(f"serving kernels {list(deployment.kernel_ids)} on "
              f"{host}:{port} ({detail}, backend={deployment.backend})",
              flush=True)
        # wait() with a timeout stays interruptible by SIGINT
        # (an untimed lock acquire on the main thread is not).
        while not threading.Event().wait(1.0):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        try:
            final = service.metrics_snapshot()
        except Exception:  # noqa: BLE001 - shutdown still proceeds
            pass
        codes = service.close()
        print(json_module.dumps(final, indent=2, sort_keys=True))
        if args.shards > 1:
            print(f"drained shards: {json_module.dumps(codes, sort_keys=True)}")
    return 0 if all(code == 0 for code in codes.values()) else 1


def _validate_loadgen_sources(args) -> None:
    """Reject mixing ``--trace`` with the Poisson workload knobs.

    The two sources are mutually exclusive: a trace fixes the request
    stream (content, order, volume), so every synthetic-workload flag
    would be silently ignored — fail loudly instead.  Called before the
    synthetic defaults are filled in, so "explicit flag" is detectable
    as "not None / non-empty".
    """
    if args.trace is None:
        return
    conflicts = [
        f"--{name}"
        for name in ("rate", "requests", "pairs", "length", "kernel",
                     "concurrency", "profile", "duration")
        if getattr(args, name) not in (None, [])
    ]
    if conflicts:
        raise SystemExit(
            f"--trace replays a recorded workload and cannot be combined "
            f"with the synthetic-load options: {', '.join(conflicts)}. "
            f"Drop them, or drop --trace to generate Poisson load."
        )


def cmd_loadgen(args) -> int:
    """Drive a service: open-loop Poisson load, or trace replay.

    Without ``--trace``, fires a synthetic random workload open-loop at
    each ``--rate``.  With ``--trace``, replays a tile trace recorded by
    ``repro map --trace-out`` closed-loop, in recorded order — the
    request stream (and therefore the cache hit profile) a real mapping
    run produced.
    """
    import json as json_module

    from repro.service import InProcClient, RetryPolicy, connect_with_retry
    from repro.service.loadgen import (
        LoadGenerator, LoadProfile, random_workload,
    )

    _validate_loadgen_sources(args)
    if args.trace is not None:
        from repro.pipeline import read_trace

        try:
            workload = read_trace(args.trace)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load trace: {exc}") from None
        if not workload:
            raise SystemExit(f"trace {args.trace} holds no requests")
        # The deployment must serve the kernels the trace names.
        args.kernel = [str(k) for k in sorted({k for k, _, _ in workload})]
    else:
        args.requests = 100 if args.requests is None else args.requests
        args.pairs = 16 if args.pairs is None else args.pairs
        args.length = 24 if args.length is None else args.length
        kernels = [_kernel_arg(k) for k in (args.kernel or ["1"])]
        workload = random_workload(kernels, args.pairs, args.length, args.seed)
    args.concurrency = 1 if args.concurrency is None else args.concurrency
    core = None
    if args.in_proc:
        deployment = _deployment_from_args(args)
        core = deployment.build_core(cache=deployment.build_cache()).start()
        client = InProcClient(core)
    else:
        client = connect_with_retry(
            args.host, args.port,
            policy=RetryPolicy(attempts=args.connect_retries),
            read_timeout=args.read_timeout,
        )
    failures = 0
    try:
        generator = LoadGenerator(client, workload, seed=args.seed)
        if args.trace is not None:
            report = generator.replay(
                deadline_ms=args.deadline_ms, window=args.window
            )
            failures += report.errors
            print(report.summary())
        else:
            profile = (
                None if args.profile is None
                else LoadProfile.parse(args.profile)
            )
            for rate in args.rate or [100.0]:
                report = generator.run(
                    rate,
                    None if args.duration is not None else args.requests,
                    deadline_ms=args.deadline_ms, duration_s=args.duration,
                    profile=profile, concurrency=args.concurrency,
                )
                failures += report.errors
                print(report.summary())
        snapshot = client.metrics()
        if not snapshot.get("counters"):
            print("error: empty metrics snapshot")
            return 1
        print(json_module.dumps(snapshot, indent=2, sort_keys=True))
    finally:
        client.close()
        if core is not None:
            core.stop()
    return 0 if failures == 0 else 1


def cmd_autoscale(args) -> int:
    """Run the closed-loop autoscaling demo and judge the outcome.

    Exit code 0 means the loop both *scaled up* under the shifted load
    and *recovered* the p99 under the SLO in the tail window — the
    assertion the smoke-autoscale CI job makes.  ``--dry-run`` rehearses
    the loop without touching the pool and always exits 0.
    """
    import json as json_module
    from pathlib import Path

    from repro.autoscale import run_autoscale_demo
    from repro.service import LoadProfile

    profile = (
        LoadProfile.parse(args.profile) if args.profile is not None else None
    )
    kernels = [_kernel_arg(k).kernel_id for k in (args.kernel or ["1"])]
    result = run_autoscale_demo(
        kernels=kernels,
        rate_rps=args.rate,
        profile=profile,
        duration_s=args.duration,
        interval_s=args.interval,
        slo_ms=args.slo_ms,
        max_replicas=args.max_replicas,
        cooldown_s=args.cooldown,
        per_replica_rps=args.per_replica_rps,
        length=args.length,
        backend=args.backend,
        dry_run=args.dry_run,
        seed=args.seed,
        keep_decisions=not args.no_decisions,
    )
    rendered = json_module.dumps(result, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    print(rendered)

    def fmt(value) -> str:
        return "n/a" if value is None else f"{value:.0f}ms"

    print(
        f"autoscale: baseline p99 {fmt(result['baseline_p99_ms'])}, "
        f"violation p99 {fmt(result['violation_p99_ms'])}, "
        f"recovered p99 {fmt(result['recovered_p99_ms'])} "
        f"(slo {result['slo_target_ms']:.0f}ms); "
        f"{result['scale_up_decisions']} scale-up(s), "
        f"replicas {result['replicas_initial']} -> "
        f"{result['replicas_final']}"
    )
    if args.dry_run:
        return 0
    ok = result["scale_up_decisions"] >= 1 and result["recovered"]
    if not ok:
        print("autoscale: FAILED (no scale-up or no SLO recovery)")
    return 0 if ok else 1


def cmd_map(args) -> int:
    """Map a long-read flowcell to SAM through the streaming pipeline.

    Without ``--fastq``, simulates a flowcell from the (seeded) random
    reference first — the self-contained form the smoke-pipeline CI job
    runs.  Tiles execute in-process by default; ``--connect HOST:PORT``
    dispatches them to a running alignment service instead.  The emitted
    SAM is re-parsed (and thereby validated) before the command reports
    success.
    """
    import json as json_module
    from pathlib import Path

    from repro.data.fastq import write_flowcell
    from repro.data.genome import random_genome
    from repro.data.sam import iter_sam
    from repro.pipeline import ServiceTileDispatcher, map_flowcell

    genome = random_genome(args.genome_length, seed=args.genome_seed)
    fastq = args.fastq
    if fastq is None:
        fastq = str(Path(args.out).with_suffix(".fastq"))
        n = write_flowcell(
            fastq, genome, args.reads, length=args.read_length,
            error_rate=args.error_rate, seed=args.seed,
        )
        print(f"simulated {n} reads ({args.read_length} bp, "
              f"{args.error_rate:.0%} error) -> {fastq}", flush=True)

    dispatcher = None
    cache = None
    try:
        if args.connect is not None:
            from repro.service import RetryPolicy, connect_with_retry

            host, _, port = args.connect.rpartition(":")
            if not host or not port.isdigit():
                raise SystemExit(
                    f"--connect needs HOST:PORT, got {args.connect!r}"
                )
            client = connect_with_retry(
                host, int(port),
                policy=RetryPolicy(attempts=args.connect_retries),
            )
            dispatcher = ServiceTileDispatcher(
                client, kernel_id=_kernel_arg(args.kernel).kernel_id
            )
        elif args.cache_dir is not None:
            from repro.cache import CacheConfig, CacheStack

            cache = CacheStack(CacheConfig(
                directory=args.cache_dir,
                memory_bytes=int(args.cache_mem_mb * 1024 * 1024),
            ))
        report = map_flowcell(
            fastq, genome, args.out,
            chunk_size=args.chunk_size,
            queue_bound=args.queue_bound,
            k=args.k,
            tile_size=args.tile_size,
            overlap=args.overlap,
            min_identity=args.min_identity,
            n_pe=args.n_pe,
            backend=args.backend,
            cache=cache,
            dispatcher=dispatcher,
            trace_path=args.trace_out,
        )
    finally:
        if cache is not None:
            cache.close()
    parsed = sum(1 for _ in iter_sam(args.out))
    print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    print(f"sam: {parsed} records validated -> {args.out}")
    if args.trace_out is not None:
        print(f"trace: {report.trace_records} tile requests -> "
              f"{args.trace_out}")
    if parsed != report.reads:
        print(f"error: SAM round-trip saw {parsed} records "
              f"for {report.reads} reads")
        return 1
    if report.reads == 0 or report.mapped == 0:
        print("error: pipeline mapped no reads")
        return 1
    if report.pipeline.dropped:
        print(f"error: {report.pipeline.dropped} chunks dropped")
        return 1
    return 0


def cmd_trace(args) -> int:
    """Serve a traced workload in-process and export a Chrome trace.

    Spins up an in-process :class:`~repro.service.ServiceCore` under a
    :class:`~repro.obs.TraceRecorder`, pushes a small random workload
    through the full request path (service → pool → host → engine),
    writes the Chrome trace-event JSON to ``--out``, and prints the
    plain-text metrics snapshot.  Open the JSON in ``chrome://tracing``
    or https://ui.perfetto.dev.
    """
    from repro.obs import TraceRecorder, use_recorder, write_chrome_trace
    from repro.service.loadgen import random_workload

    deployment = _deployment_from_args(args)
    recorder = TraceRecorder()
    with use_recorder(recorder):
        core = deployment.build_core(recorder=recorder)
        responses = _serve_in_proc(core, random_workload(
            deployment.specs(), args.pairs, args.length, args.seed
        ))
    write_chrome_trace(recorder, args.out)
    categories = sorted({
        event.category for event in recorder.events() if event.kind == "span"
    })
    print(core.metrics_text())
    print(f"trace: {len(recorder.events())} events "
          f"(spans in {', '.join(categories)}; "
          f"{recorder.dropped_events} dropped) -> {args.out}")
    return _exit_code(responses)


def cmd_cache(args) -> int:
    """Inspect, warm or clear a persistent alignment cache directory."""
    import hashlib
    import json as json_module

    if args.cache_command == "stats":
        from repro.cache import DiskStore

        store = DiskStore(args.dir)
        try:
            print(json_module.dumps(
                store.stats().to_dict(), indent=2, sort_keys=True
            ))
        finally:
            store.close()
        return 0

    if args.cache_command == "clear":
        from repro.cache import DiskStore

        store = DiskStore(args.dir)
        try:
            dropped = store.clear()
        finally:
            store.close()
        print(f"cleared {dropped} entries from {args.dir}")
        return 0

    # warm: push a deterministic workload through an in-proc ServiceCore
    # backed by the cache directory, then report attribution.  Running
    # the same command twice (even across process restarts) must produce
    # a byte-identical response digest with a nonzero hit count on the
    # second pass — the smoke-cache CI job pins exactly that.
    from repro.service.loadgen import random_workload

    deployment = _deployment_from_args(args)  # --dir is its cache_dir
    stack = deployment.build_cache()
    core = deployment.build_core(cache=stack)
    workload = random_workload(
        deployment.specs(), args.pairs, args.length, args.seed
    )
    try:
        responses = _serve_in_proc(core, workload)
    finally:
        stack.close()
    lines = [r.to_line(with_latency=False) for r in responses]
    digest = hashlib.sha256(b"".join(sorted(lines))).hexdigest()
    snapshot = core.metrics_snapshot()
    counters = snapshot.get("counters", {})
    hits = counters.get("cache_hits_total", 0)
    misses = counters.get("cache_misses_total", 0)
    print(f"warmed {len(lines)} responses from {len(workload)} requests "
          f"({hits} cache hits, {misses} misses)")
    print(f"response digest: {digest}")
    print(json_module.dumps(snapshot.get("cache"), indent=2, sort_keys=True))
    return _exit_code(responses)


def cmd_occupancy(args) -> int:
    """Render the PE activity Gantt for a matrix shape."""
    from repro.systolic.activity import render_occupancy

    spec = _kernel_arg(args.kernel)
    print(
        render_occupancy(
            args.query_len, args.ref_len, args.n_pe, banding=spec.banding
        )
    )
    return 0


def cmd_matrix(args) -> int:
    """Render a filled DP matrix with the traceback path."""
    from repro.experiments.matrix_viz import render_dp_matrix

    spec = _kernel_arg(args.kernel)
    query = _encode_for(spec, args.query)
    reference = _encode_for(spec, args.reference)
    print(render_dp_matrix(spec, query, reference))
    return 0


#: ``repro <name>`` regenerates one of the paper's tables/figures: the
#: ``render()`` of this :mod:`repro.experiments` module (``fig3`` takes
#: its kernel id).  :func:`build_parser` declares them in this order.
EXPERIMENTS = {
    "table1": "table1", "table2": "table2", "fig4": "fig4", "fig5": "fig5",
    "fig6": "fig6", "hls": "hls_cmp", "tiling": "tiling_exp",
    "all": "summary", "fig3": "fig3",
}


def cmd_experiment(args) -> int:
    """Regenerate one of the paper's tables/figures."""
    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[args.command]}"
    )
    print(module.render(args.kernel_id) if args.command == "fig3"
          else module.render())
    return 0


def _add_backend_arg(p, help_text: Optional[str] = None) -> None:
    """The one ``--backend`` declaration every subcommand that has it calls."""
    p.add_argument("--backend", choices=tuple(BACKENDS),
                   default=DEFAULT_BACKEND, help=help_text)


def _add_deployment_args(p, **helps: Optional[str]) -> None:
    """Declare ``--flag`` for each named :class:`Deployment` field
    (``field=help text``), type and default read from the dataclass —
    :func:`_deployment_from_args` picks up whatever was declared."""
    fields = {f.name: f for f in dataclasses.fields(Deployment)}
    for name, help_text in helps.items():
        default = fields[name].default
        p.add_argument("--" + name.replace("_", "-"), default=default,
                       type=str if default is None else type(default),
                       help=help_text)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DP-HLS reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered kernels")
    sub.add_parser("info", help="the compiled backend here: native or NumPy, and why")

    p = sub.add_parser("align", help="align two sequences on a kernel")
    p.add_argument("kernel")
    p.add_argument("query")
    p.add_argument("reference")
    p.add_argument("--n-pe", type=int, default=8)

    p = sub.add_parser("synth", help="synthesize a kernel configuration")
    p.add_argument("kernel")
    p.add_argument("--n-pe", type=int, default=32)
    p.add_argument("--n-b", type=int, default=1)
    p.add_argument("--n-k", type=int, default=1)
    p.add_argument("--max-len", type=int, default=256)

    p = sub.add_parser("rtl", help="emit the structural Verilog skeleton")
    p.add_argument("kernel")
    p.add_argument("--n-pe", type=int, default=32)
    p.add_argument("--n-b", type=int, default=1)

    p = sub.add_parser("verify", help="verify a kernel against the oracle")
    p.add_argument("kernel")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width for the per-pair checks")

    p = sub.add_parser("campaign", help="bulk functional-verification campaign")
    p.add_argument("kernel", help="kernel number/name, or 'all'")
    p.add_argument("--pairs", type=int, default=25)
    p.add_argument("--engine-sample", type=int, default=2)
    p.add_argument("--length", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width for the broad tier")
    _add_backend_arg(p, "engine the deep-tier sample runs through")

    p = sub.add_parser(
        "fuzz",
        help="differentially fuzz the engine against the reference oracles",
    )
    p.add_argument("--kernel", action="append", default=[],
                   help="kernel number/name (repeatable; default: all)")
    p.add_argument("--cases", type=int, default=None,
                   help="cases per kernel (per round under --budget)")
    p.add_argument("--budget", type=float, default=None,
                   help="keep fuzzing until this many seconds have elapsed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-len", type=int, default=32,
                   help="upper bound on randomized sequence lengths")

    p = sub.add_parser("serve", help="run the online alignment service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--kernel", action="append", default=[],
                   help="kernel number/name to deploy (repeatable; default 1)")
    _add_deployment_args(
        p,
        replicas="runtimes per deployed kernel",
        n_pe=None, n_b=None, max_len=None,
        max_batch="queued requests that flush at once, runtime busy or not",
        max_delay_ms="cap on waiting behind a busy runtime (idle: no wait)",
        queue_bound="per-kernel admission bound (backpressure)",
        cache_dir="enable the content-addressed cache, persisted here",
        cache_mem_mb="in-memory cache tier budget (MiB)",
    )
    _add_backend_arg(p, "alignment engine backing every runtime")
    p.add_argument("--shards", type=int, default=1,
                   help="worker shard processes behind a front door "
                        "routing on cache fingerprints (1 = serve from "
                        "this process)")

    p = sub.add_parser(
        "loadgen",
        help="drive open-loop Poisson load against a service, or replay "
             "a recorded tile trace (--trace)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--in-proc", action="store_true",
                   help="spin up an in-process service instead of TCP")
    p.add_argument("--trace", default=None,
                   help="replay this tile trace (from repro map "
                        "--trace-out) instead of generating Poisson "
                        "load; mutually exclusive with the synthetic "
                        "workload options")
    p.add_argument("--window", type=int, default=64,
                   help="max in-flight requests during --trace replay")
    p.add_argument("--kernel", action="append", default=[],
                   help="kernel number/name to request (repeatable; default 1)")
    p.add_argument("--rate", action="append", type=float, default=[],
                   help="offered load in req/s (repeatable; default 100)")
    p.add_argument("--requests", type=int, default=None,
                   help="requests per offered-load point (default 100)")
    p.add_argument("--pairs", type=int, default=None,
                   help="distinct random pairs per kernel in the "
                        "workload (default 16)")
    p.add_argument("--length", type=int, default=None,
                   help="sequence length of synthetic pairs (default 24)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deadline-ms", type=float, default=None)
    _add_deployment_args(
        p, replicas=None, n_pe=None, n_b=None, max_len=None, max_batch=None,
        max_delay_ms=None, queue_bound=None,
        cache_dir="enable the content-addressed cache (in-proc only)",
        cache_mem_mb=None,
    )
    _add_backend_arg(p, "alignment engine backing the in-proc service")
    p.add_argument("--concurrency", type=int, default=None,
                   help="parallel open-loop firing threads splitting the "
                        "offered rate (default 1)")
    p.add_argument("--profile", default=None,
                   help="shift the offered load over the run: "
                        "step:<t>:<mult> multiplies the rate after t "
                        "seconds; ramp:<t0>:<t1>:<mult> ramps linearly "
                        "between t0 and t1 (default constant)")
    p.add_argument("--duration", type=float, default=None,
                   help="bound the run by wall time (seconds) instead "
                        "of --requests; every firing thread runs for it")
    p.add_argument("--connect-retries", type=int, default=5,
                   help="connection attempts (exponential backoff) while "
                        "the service comes up")
    p.add_argument("--read-timeout", type=float, default=None,
                   help="fail outstanding requests if the server goes "
                        "silent this long (seconds)")

    p = sub.add_parser(
        "autoscale",
        help="closed-loop autoscaling demo: shifting load against an "
             "in-proc service, live metrics drive replica counts",
    )
    p.add_argument("--kernel", action="append", default=[],
                   help="kernel number/name to serve (repeatable; "
                        "default 1)")
    p.add_argument("--rate", type=float, default=5.0,
                   help="baseline offered load in req/s")
    p.add_argument("--profile", default=None,
                   help="load shape: step:<t>:<mult> or "
                        "ramp:<t0>:<t1>:<mult> (default "
                        "step at duration/4, x8)")
    p.add_argument("--duration", type=float, default=24.0,
                   help="run length in seconds")
    p.add_argument("--interval", type=float, default=0.5,
                   help="control-loop sampling interval (seconds)")
    p.add_argument("--slo-ms", type=float, default=400.0,
                   help="p99 latency objective (milliseconds)")
    p.add_argument("--max-replicas", type=int, default=6,
                   help="per-kernel replica ceiling")
    p.add_argument("--cooldown", type=float, default=1.5,
                   help="per-kernel actuation cooldown (seconds)")
    p.add_argument("--per-replica-rps", type=float, default=30.0,
                   help="calibrated full-batch capacity of one replica")
    p.add_argument("--length", type=int, default=48,
                   help="sequence length of the synthetic workload")
    _add_backend_arg(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--dry-run", action="store_true",
                   help="rehearse the control loop without touching "
                        "the pool (always exits 0)")
    p.add_argument("--out", default=None,
                   help="also write the full JSON report here")
    p.add_argument("--no-decisions", action="store_true",
                   help="omit the per-step decision log from the report")

    p = sub.add_parser(
        "map",
        help="map a (simulated) long-read flowcell to SAM through the "
             "streaming pipeline",
    )
    p.add_argument("--out", default="mapped.sam",
                   help="SAM output path")
    p.add_argument("--fastq", default=None,
                   help="input FASTQ; omitted = simulate a flowcell "
                        "from the reference first")
    p.add_argument("--genome-length", type=int, default=2_000_000,
                   help="length of the seeded random reference")
    p.add_argument("--genome-seed", type=int, default=0)
    p.add_argument("--reads", type=int, default=32,
                   help="reads to simulate when --fastq is omitted")
    p.add_argument("--read-length", type=int, default=512)
    p.add_argument("--error-rate", type=float, default=0.12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunk-size", type=int, default=16,
                   help="reads per pipeline chunk")
    p.add_argument("--queue-bound", type=int, default=4,
                   help="inter-stage queue capacity (chunks)")
    p.add_argument("--k", type=int, default=12, help="seed k-mer size")
    p.add_argument("--tile-size", type=int, default=128)
    p.add_argument("--overlap", type=int, default=32)
    p.add_argument("--min-identity", type=float, default=0.55,
                   help="accept floor on base-level identity")
    p.add_argument("--n-pe", type=int, default=32)
    _add_backend_arg(p, "engine for in-process tile execution")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed tile cache (in-process only)")
    p.add_argument("--cache-mem-mb", type=float, default=64.0)
    p.add_argument("--trace-out", default=None,
                   help="record every tile request here (JSONL) for "
                        "repro loadgen --trace")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="dispatch tiles to a running alignment service "
                        "instead of in-process")
    p.add_argument("--connect-retries", type=int, default=5)
    p.add_argument("--kernel", default="1",
                   help="tile kernel for --connect dispatch (must be a "
                        "global kernel)")

    p = sub.add_parser(
        "cache",
        help="inspect, warm or clear a persistent alignment cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cp = cache_sub.add_parser("stats", help="print cache directory statistics")
    cp.add_argument("--dir", required=True, help="cache directory")
    cp = cache_sub.add_parser("clear", help="delete every cached entry")
    cp.add_argument("--dir", required=True, help="cache directory")
    cp = cache_sub.add_parser(
        "warm",
        help="serve a deterministic workload through the cache "
             "(run twice to measure the warm pass)",
    )
    cp.add_argument("--dir", required=True, dest="cache_dir", metavar="DIR",
                    help="cache directory")
    cp.add_argument("--kernel", action="append", default=[],
                    help="kernel number/name (repeatable; default 1)")
    cp.add_argument("--pairs", type=int, default=16,
                    help="distinct random pairs per kernel")
    cp.add_argument("--length", type=int, default=24)
    cp.add_argument("--seed", type=int, default=0)
    _add_deployment_args(cp, replicas=None, n_pe=None, n_b=None,
                         max_len=None, max_batch=None, cache_mem_mb=None)

    p = sub.add_parser(
        "trace",
        help="serve a traced workload in-process and export a Chrome trace",
    )
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace-event JSON output path")
    p.add_argument("--kernel", action="append", default=[],
                   help="kernel number/name to trace (repeatable; default 1)")
    p.add_argument("--pairs", type=int, default=8,
                   help="random pairs per kernel pushed through the service")
    p.add_argument("--length", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    _add_deployment_args(p, replicas=None, n_pe=None, n_b=None,
                         max_len=None, max_batch=None, max_delay_ms=None)

    p = sub.add_parser("occupancy", help="render the PE activity Gantt")
    p.add_argument("kernel")
    p.add_argument("--query-len", type=int, default=24)
    p.add_argument("--ref-len", type=int, default=32)
    p.add_argument("--n-pe", type=int, default=8)

    p = sub.add_parser("matrix", help="render a filled DP matrix with path")
    p.add_argument("kernel")
    p.add_argument("query")
    p.add_argument("reference")

    for name in EXPERIMENTS:
        if name == "fig3":
            p = sub.add_parser(name, help="regenerate fig3 for one kernel")
            p.add_argument("kernel_id", type=int, choices=(1, 9))
        else:
            sub.add_parser(name, help=f"regenerate {name}")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in EXPERIMENTS:
        return cmd_experiment(args)
    return globals()[f"cmd_{args.command}"](args)  # repro X runs cmd_X


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
