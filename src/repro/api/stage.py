"""The ``Stage``/``Pipeline`` composition protocol.

Every streaming workload in this repo — the whole-genome read mapper in
:mod:`repro.pipeline`, the app ports in :mod:`repro.apps` — composes the
same way TAPA composes hardware (PAPERS.md): independent task-parallel
stages connected by *bounded* streams.  A :class:`Stage` transforms
chunks; a :class:`Pipeline` wires stages with bounded queues, runs one
thread per stage, and drains gracefully.

Backpressure is reject-not-drop: every queue ``put`` blocks until the
consumer makes room, so a slow stage throttles the whole line back to
the source and **no chunk is ever dropped** (``PipelineReport.dropped``
is structurally zero; it is reported so monitors can assert it).  Drain
is by sentinel: when the source is exhausted a sentinel flows down the
line, each stage gets its :meth:`Stage.finish` chance to flush held
state (e.g. the assembler emitting contigs), and threads exit in
topological order.

Each stage reports through the current :mod:`repro.obs` recorder:

* span ``pipeline.<stage>.process`` around every chunk,
* counters ``pipeline.<stage>.chunks`` / ``pipeline.<stage>.items``,
* gauge ``pipeline.<stage>.queue_depth`` (input occupancy at dequeue),
* histogram ``pipeline.<stage>.queue_ms`` (time a chunk sat queued).

Exact per-stage p50/p95 queue times are additionally kept in
:class:`StageStats` for the benchmark artifact.
"""

from __future__ import annotations

import abc
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.recorder import get_recorder

#: End-of-stream marker flowed through every queue on drain.
_SENTINEL = object()


class Stage(abc.ABC):
    """One transform in a streaming pipeline.

    A stage consumes *chunks* (whatever unit the upstream stage emits —
    typically a list of reads or records, never the whole dataset) and
    emits zero or more output chunks per input.  Stages must not assume
    they see the full stream at once; state that spans chunks is flushed
    in :meth:`finish`.
    """

    @property
    def name(self) -> str:
        """Stable identifier used in metric names (``pipeline.<name>.*``)."""
        return type(self).__name__.lower()

    @abc.abstractmethod
    def process(self, chunk: Any) -> Iterable[Any]:
        """Transform one chunk into zero or more output chunks."""

    def finish(self) -> Iterable[Any]:
        """Flush state held across chunks; called once at drain time."""
        return ()

    def close(self) -> None:
        """Release resources; called after the stage's queue is drained."""


class FnStage(Stage):
    """Adapter lifting a plain ``chunk -> iterable`` function to a Stage."""

    def __init__(self, fn: Callable[[Any], Iterable[Any]], name: str) -> None:
        self._fn = fn
        self._name = name

    @property
    def name(self) -> str:
        """The name given at construction."""
        return self._name

    def process(self, chunk: Any) -> Iterable[Any]:
        """Apply the wrapped function."""
        return self._fn(chunk)


@dataclass
class StageStats:
    """Observed behaviour of one stage across a pipeline run."""

    name: str
    chunks_in: int = 0
    items_out: int = 0
    errors: int = 0
    queue_ms: List[float] = field(default_factory=list)

    @property
    def queue_p50_ms(self) -> float:
        """Median time a chunk sat in this stage's input queue (0 if none)."""
        # imported on use: ``import repro`` must not load repro.service
        from repro.service.loadgen import exact_percentile

        return exact_percentile(self.queue_ms, 0.50) if self.queue_ms else 0.0

    @property
    def queue_p95_ms(self) -> float:
        """95th-percentile input-queue time (0 if none)."""
        from repro.service.loadgen import exact_percentile

        return exact_percentile(self.queue_ms, 0.95) if self.queue_ms else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (sample list reduced to percentiles)."""
        return {
            "name": self.name,
            "chunks_in": self.chunks_in,
            "items_out": self.items_out,
            "errors": self.errors,
            "queue_p50_ms": round(self.queue_p50_ms, 3),
            "queue_p95_ms": round(self.queue_p95_ms, 3),
        }


@dataclass
class PipelineReport:
    """What one :meth:`Pipeline.run` did, stage by stage.

    ``dropped`` is always 0 — blocking bounded queues cannot drop — and
    is carried so downstream assertions (CI smoke job, monitors) can pin
    the reject-not-drop contract rather than trust it.
    """

    stages: List[StageStats]
    elapsed_s: float
    emitted: int
    dropped: int = 0

    def stage(self, name: str) -> StageStats:
        """Stats of the named stage."""
        for stats in self.stages:
            if stats.name == name:
                return stats
        raise KeyError(f"no stage named {name!r}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe report."""
        return {
            "stages": [stats.to_dict() for stats in self.stages],
            "elapsed_s": round(self.elapsed_s, 6),
            "emitted": self.emitted,
            "dropped": self.dropped,
        }


class PipelineError(RuntimeError):
    """A stage raised; carries the stage name and the original error."""

    def __init__(self, stage_name: str, error: BaseException) -> None:
        super().__init__(f"stage {stage_name!r} failed: {error}")
        self.stage_name = stage_name
        self.error = error


class Pipeline:
    """Bounded-queue, thread-per-stage streaming executor.

    ``queue_bound`` caps every inter-stage queue (and the ingest queue),
    which bounds the pipeline's in-flight memory to
    ``(n_stages + 1) * queue_bound`` chunks regardless of stream length
    — the property the bounded-memory test pins.
    """

    def __init__(self, stages: Sequence[Stage], queue_bound: int = 4) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        if queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {queue_bound}")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        self.stages = list(stages)
        self.queue_bound = queue_bound

    # -- execution ----------------------------------------------------

    def run(
        self,
        source: Iterable[Any],
        sink: Optional[Callable[[Any], None]] = None,
    ) -> PipelineReport:
        """Stream ``source`` through every stage, feeding ``sink``.

        The source is pulled lazily by a feeder thread (blocking on the
        first queue for backpressure); the main thread consumes the last
        stage's output and calls ``sink`` per emitted chunk.  Returns
        the per-stage report; raises :class:`PipelineError` if any stage
        (or the source) raised, after all threads have been joined.
        """
        queues: List[queue.Queue] = [
            queue.Queue(maxsize=self.queue_bound)
            for _ in range(len(self.stages) + 1)
        ]
        stats = [StageStats(name=stage.name) for stage in self.stages]
        failures: List[Tuple[str, BaseException]] = []
        failure_lock = threading.Lock()

        def fail(stage_name: str, error: BaseException) -> None:
            with failure_lock:
                failures.append((stage_name, error))

        def feeder() -> None:
            try:
                for chunk in source:
                    queues[0].put((time.monotonic(), chunk))
            except BaseException as exc:  # noqa: BLE001 - reported below
                fail("<source>", exc)
            finally:
                queues[0].put((time.monotonic(), _SENTINEL))

        def worker(index: int, stage: Stage) -> None:
            recorder = get_recorder()
            q_in, q_out = queues[index], queues[index + 1]
            stage_stats = stats[index]
            prefix = f"pipeline.{stage.name}"
            broken = False
            try:
                while True:
                    if recorder.enabled:
                        recorder.gauge(f"{prefix}.queue_depth", q_in.qsize())
                    enqueued_s, chunk = q_in.get()
                    if chunk is _SENTINEL:
                        break
                    waited_ms = (time.monotonic() - enqueued_s) * 1000.0
                    stage_stats.queue_ms.append(waited_ms)
                    if broken:
                        continue  # drain upstream after a failure
                    stage_stats.chunks_in += 1
                    if recorder.enabled:
                        recorder.observe(f"{prefix}.queue_ms", waited_ms)
                        recorder.count(f"{prefix}.chunks")
                    try:
                        with recorder.span(f"{prefix}.process"):
                            outputs = stage.process(chunk)
                        for item in outputs:
                            q_out.put((time.monotonic(), item))
                            stage_stats.items_out += 1
                            if recorder.enabled:
                                recorder.count(f"{prefix}.items")
                    except BaseException as exc:  # noqa: BLE001
                        stage_stats.errors += 1
                        fail(stage.name, exc)
                        broken = True
                if not broken:
                    try:
                        for item in stage.finish():
                            q_out.put((time.monotonic(), item))
                            stage_stats.items_out += 1
                            if recorder.enabled:
                                recorder.count(f"{prefix}.items")
                    except BaseException as exc:  # noqa: BLE001
                        stage_stats.errors += 1
                        fail(stage.name, exc)
            finally:
                q_out.put((time.monotonic(), _SENTINEL))
                try:
                    stage.close()
                except BaseException as exc:  # noqa: BLE001
                    fail(stage.name, exc)

        started_s = time.monotonic()
        threads = [threading.Thread(target=feeder, name="pipeline-feeder")]
        threads += [
            threading.Thread(
                target=worker, args=(i, stage),
                name=f"pipeline-{stage.name}",
            )
            for i, stage in enumerate(self.stages)
        ]
        for thread in threads:
            thread.start()
        emitted = 0
        final = queues[-1]
        sink_failure: Optional[BaseException] = None
        while True:
            _enq, item = final.get()
            if item is _SENTINEL:
                break
            if sink_failure is not None:
                continue  # keep draining so stages can exit
            emitted += 1
            if sink is not None:
                try:
                    sink(item)
                except BaseException as exc:  # noqa: BLE001
                    sink_failure = exc
                    fail("<sink>", exc)
        for thread in threads:
            thread.join()
        elapsed_s = time.monotonic() - started_s
        if failures:
            stage_name, error = failures[0]
            raise PipelineError(stage_name, error) from error
        return PipelineReport(
            stages=stats, elapsed_s=elapsed_s, emitted=emitted, dropped=0
        )

    def run_collect(self, source: Iterable[Any]) -> Tuple[List[Any], PipelineReport]:
        """Convenience: run and collect every emitted chunk into a list.

        Only for streams small enough to hold — the streaming contract
        lives in :meth:`run` with a true sink.
        """
        out: List[Any] = []
        report = self.run(source, sink=out.append)
        return out, report
