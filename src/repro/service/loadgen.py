"""Traffic for the alignment service, over either client.

:class:`LoadGenerator` drives a client *open-loop*: arrival times are
drawn from a seeded Poisson process at the offered rate and requests
fire at their scheduled instants regardless of completions, so queueing
delay shows up in the measured latency instead of throttling the
offered load (closed-loop generators hide saturation).  One firing loop
runs on ``concurrency`` threads; :meth:`LoadGenerator.replay` is the
closed-loop trace mode.  A :class:`LoadReport` stores one list of
(completion offset, latency) samples that every percentile reads.
:func:`random_workload` builds the seeded synthetic workload.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.protocol import Status
from repro.service.server import ReplySlot

#: One fired request and the box its completion offset is stamped into.
_Fired = Tuple[ReplySlot, List[float]]


def exact_percentile(samples: Sequence[float], q: float) -> float:
    """Exact ``q``-percentile (nearest-rank) of a non-empty sample list.

    >>> exact_percentile([1.0, 2.0, 3.0, 4.0], 0.5)
    2.0
    """
    if not samples:
        raise ValueError("need at least one sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def random_workload(
    specs: Sequence[Any], pairs: int, length: int, seed: int
) -> List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    """Random ``(kernel_id, query, reference)`` tuples, shuffled.

    ``pairs`` per kernel spec, ``length`` symbols each over the spec's
    alphabet (64 symbols where the alphabet is unsized), all drawn from
    ``random.Random(seed)`` — the same seed gives the same requests.
    """
    rng = random.Random(seed)
    workload = []
    for spec in specs:
        cardinality = spec.alphabet.size or 64
        for _ in range(pairs):
            workload.append((
                spec.kernel_id,
                tuple(rng.randrange(cardinality) for _ in range(length)),
                tuple(rng.randrange(cardinality) for _ in range(length)),
            ))
    rng.shuffle(workload)
    return workload


@dataclass(frozen=True)
class LoadProfile:
    """A deterministic time-varying multiplier on the offered rate.

    Three shapes cover the non-stationary traffic the autoscale demo
    (and any capacity experiment) needs:

    * ``const[:mult]`` — a flat multiplier (default 1.0; the identity
      profile, equivalent to not passing one);
    * ``step:<t>:<mult>`` — 1.0 until ``t`` seconds into the run, then
      ``mult`` (the overload step an SLO-recovery demo applies);
    * ``ramp:<t0>:<t1>:<mult>`` — 1.0 until ``t0``, linear up (or down)
      to ``mult`` by ``t1``, then flat.

    ``at(t)`` is the instantaneous multiplier; the generator draws each
    Poisson gap at ``rate * at(elapsed)``, so the arrival process stays
    open-loop and seeded-reproducible while its intensity shifts.
    """

    kind: str = "const"
    t0_s: float = 0.0
    t1_s: float = 0.0
    multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("const", "step", "ramp"):
            raise ValueError(
                f"profile kind must be const/step/ramp, got {self.kind!r}"
            )
        if self.multiplier <= 0:
            raise ValueError(
                f"profile multiplier must be positive, got {self.multiplier}"
            )
        if self.t0_s < 0:
            raise ValueError(f"profile start must be >= 0, got {self.t0_s}")
        if self.kind == "ramp" and self.t1_s <= self.t0_s:
            raise ValueError(
                f"ramp needs t1 > t0, got t0={self.t0_s} t1={self.t1_s}"
            )

    @staticmethod
    def parse(text: str) -> "LoadProfile":
        """Parse the CLI spelling (``step:<t>:<mult>`` etc.)."""
        kind, *values = text.split(":")
        if kind == "const" and not values:
            return LoadProfile()
        fields = {  # the numbers each kind's spelling carries, in order
            "const": ("multiplier",),
            "step": ("t0_s", "multiplier"),
            "ramp": ("t0_s", "t1_s", "multiplier"),
        }.get(kind, ())
        if not fields or len(values) != len(fields):
            raise ValueError(
                f"cannot parse load profile {text!r}; expected const[:mult], "
                f"step:<t>:<mult> or ramp:<t0>:<t1>:<mult>"
            )
        try:
            numbers = [float(value) for value in values]
        except ValueError as exc:
            raise ValueError(
                f"cannot parse load profile {text!r}: {exc}"
            ) from None
        return LoadProfile(kind, **dict(zip(fields, numbers)))

    def at(self, t_s: float) -> float:
        """Instantaneous rate multiplier ``t_s`` seconds into the run."""
        if self.kind == "const":
            return self.multiplier
        if self.kind == "step":
            return self.multiplier if t_s >= self.t0_s else 1.0
        if t_s <= self.t0_s:
            return 1.0
        if t_s >= self.t1_s:
            return self.multiplier
        fraction = (t_s - self.t0_s) / (self.t1_s - self.t0_s)
        return 1.0 + (self.multiplier - 1.0) * fraction

    def phase_bounds(self) -> List[float]:
        """Run offsets (seconds) where the offered intensity changes."""
        if self.kind == "step":
            return [self.t0_s]
        if self.kind == "ramp":
            return [self.t0_s, self.t1_s]
        return []

    def describe(self) -> str:
        """The parseable spelling back."""
        if self.kind == "const":
            return f"const:{self.multiplier:g}"
        if self.kind == "step":
            return f"step:{self.t0_s:g}:{self.multiplier:g}"
        return f"ramp:{self.t0_s:g}:{self.t1_s:g}:{self.multiplier:g}"


@dataclass
class LoadReport:
    """Outcome of one load run at one offered load."""

    offered_rps: float
    sent: int
    ok: int
    rejected: int
    errors: int
    elapsed_s: float
    #: (completion offset seconds, latency ms) per OK response, in
    #: completion order — the one stored list: the time-resolved view a
    #: shifting-load run is analysed with, and every percentile's input.
    samples: List[Tuple[float, float]] = field(
        default_factory=list, repr=False
    )

    @property
    def achieved_rps(self) -> float:
        """Completed-OK throughput over the run."""
        return self.ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def latencies_ms(self) -> List[float]:
        """OK latencies, in completion order."""
        return [latency for _, latency in self.samples]

    def percentile_ms(self, q: float) -> Optional[float]:
        """Exact latency percentile of the OK responses."""
        return self.window_percentile_ms(0.0, float("inf"), q)

    def window_latencies_ms(self, t0_s: float, t1_s: float) -> List[float]:
        """OK latencies whose requests completed in ``[t0_s, t1_s)``."""
        return [
            latency for done_s, latency in self.samples
            if t0_s <= done_s < t1_s
        ]

    def window_percentile_ms(
        self, t0_s: float, t1_s: float, q: float
    ) -> Optional[float]:
        """Exact latency percentile within one completion window.

        This is how a non-stationary run is judged: the percentile of
        the *recovery* window, not the whole-run percentile the overload
        phase dominates.
        """
        window = self.window_latencies_ms(t0_s, t1_s)
        if not window:
            return None
        return exact_percentile(window, q)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (what the benchmark persists)."""
        return {
            "offered_rps": self.offered_rps,
            "sent": self.sent,
            "ok": self.ok,
            "rejected": self.rejected,
            "errors": self.errors,
            "elapsed_s": self.elapsed_s,
            "achieved_rps": self.achieved_rps,
            "p50_ms": self.percentile_ms(0.50),
            "p95_ms": self.percentile_ms(0.95),
            "p99_ms": self.percentile_ms(0.99),
        }

    @staticmethod
    def merge(reports: Sequence["LoadReport"]) -> "LoadReport":
        """Combine the reports of runs that went on side by side.

        Counts and offered load add; elapsed time is the slowest
        run's (they run simultaneously); samples pool, so percentiles
        of the merged report are exact over every request.
        """
        if not reports:
            raise ValueError("need at least one report to merge")
        return LoadReport(
            offered_rps=sum(r.offered_rps for r in reports),
            sent=sum(r.sent for r in reports),
            ok=sum(r.ok for r in reports),
            rejected=sum(r.rejected for r in reports),
            errors=sum(r.errors for r in reports),
            elapsed_s=max(r.elapsed_s for r in reports),
            samples=sorted(s for r in reports for s in r.samples),
        )

    def summary(self) -> str:
        """One-line human rendering."""
        p50 = self.percentile_ms(0.50)
        p99 = self.percentile_ms(0.99)
        return (
            f"offered {self.offered_rps:8.1f} rps | achieved "
            f"{self.achieved_rps:8.1f} rps | ok {self.ok} rej {self.rejected} "
            f"err {self.errors} | p50 "
            f"{p50 if p50 is None else format(p50, '.2f')} ms | p99 "
            f"{p99 if p99 is None else format(p99, '.2f')} ms"
        )


class LoadGenerator:
    """Seeded load over any client: open-loop Poisson, or trace replay.

    ``workload`` is a list of ``(kernel_id, query, reference)`` tuples;
    requests cycle through it.  Arrival gaps are ``Exp(rate)`` draws
    from ``random.Random(seed)``, so a run is reproducible end to end.
    """

    def __init__(
        self,
        client: Any,
        workload: Sequence[Tuple[int, Sequence[Any], Sequence[Any]]],
        seed: int = 0,
    ) -> None:
        if not workload:
            raise ValueError("the load generator needs a non-empty workload")
        self.client = client
        self.workload = list(workload)
        self.seed = seed

    def _fire(
        self, index: int, started: float, deadline_ms: Optional[float]
    ) -> _Fired:
        """Submit workload entry ``index``; stamp its completion offset."""
        kernel_id, query, reference = self.workload[index % len(self.workload)]
        slot = self.client.submit(
            kernel_id, query, reference, deadline_ms=deadline_ms
        )
        done: List[float] = []
        slot.add_done_callback(
            lambda _response: done.append(time.perf_counter() - started)
        )
        return slot, done

    @staticmethod
    def _collect(
        fired: Sequence[_Fired],
        started: float,
        result_timeout: float,
        offered_rps: Optional[float] = None,
    ) -> LoadReport:
        """Wait for every fired request and tally the answers.

        ``offered_rps=None`` reports the achieved submission rate.
        """
        statuses: List[Status] = []
        samples: List[Tuple[float, float]] = []
        for slot, done in fired:
            response = slot.result(timeout=result_timeout)
            statuses.append(response.status)
            if response.ok and response.latency_ms is not None:
                # an empty box means the done-callback raced result();
                # harvest time is an upper bound good enough for windowing
                completed = done[0] if done else time.perf_counter() - started
                samples.append((completed, response.latency_ms))
        elapsed = time.perf_counter() - started
        if offered_rps is None:
            offered_rps = len(fired) / elapsed if elapsed > 0 else 0.0
        ok = statuses.count(Status.OK)
        rejected = statuses.count(Status.REJECTED)
        samples.sort()
        return LoadReport(
            offered_rps=offered_rps,
            sent=len(fired),
            ok=ok,
            rejected=rejected,
            errors=len(fired) - ok - rejected,
            elapsed_s=elapsed,
            samples=samples,
        )

    def run(
        self,
        rate_rps: float,
        n_requests: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        result_timeout: float = 120.0,
        duration_s: Optional[float] = None,
        profile: Optional[LoadProfile] = None,
        concurrency: int = 1,
    ) -> LoadReport:
        """Offer open-loop Poisson load and collect every answer.

        The run is bounded by ``n_requests``, ``duration_s``, or both
        (whichever trips first); at least one must be given.  ``profile``
        modulates the instantaneous rate over the run (step/ramp — see
        :class:`LoadProfile`): each arrival gap is drawn at
        ``rate_rps * profile.at(elapsed)``, keeping the process seeded
        and reproducible while its intensity shifts.  The report's
        ``samples`` carry per-response completion offsets, so phase-wise
        percentiles (baseline / overload / recovery) come from
        :meth:`LoadReport.window_percentile_ms`.

        One open-loop thread caps out when the per-request submit cost
        approaches the inter-arrival gap, so ``concurrency`` threads run
        the same loop side by side: each draws its own seeded Poisson
        gaps at ``rate_rps / concurrency``, takes its share of
        ``n_requests`` (or runs for all of ``duration_s``), and starts
        at a rotated offset of the workload so concurrent threads
        exercise different keys.  The calling thread is the first.
        """
        if rate_rps <= 0:
            raise ValueError(f"rate must be positive, got {rate_rps}")
        if n_requests is None and duration_s is None:
            raise ValueError("bound the run with n_requests or duration_s")
        if n_requests is not None and n_requests < 1:
            raise ValueError(f"need at least one request, got {n_requests}")
        if duration_s is not None and duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        share, remainder = divmod(n_requests or 0, concurrency)
        started = time.perf_counter()
        fired: List[List[_Fired]] = [[] for _ in range(concurrency)]
        failures: List[BaseException] = []

        def loop(worker: int) -> None:
            rng = random.Random(self.seed + worker)
            offset = (worker * len(self.workload)) // concurrency
            count = share + (worker < remainder)
            mine = fired[worker]
            next_fire = started
            try:
                while n_requests is None or len(mine) < count:
                    if (duration_s is not None
                            and next_fire - started >= duration_s):
                        break
                    delay = next_fire - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    mine.append(
                        self._fire(offset + len(mine), started, deadline_ms)
                    )
                    instant_rate = rate_rps / concurrency * (
                        profile.at(next_fire - started)
                        if profile is not None else 1.0
                    )
                    next_fire += rng.expovariate(instant_rate)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        threads = [
            threading.Thread(
                target=loop, args=(worker,),
                name=f"loadgen-{worker}", daemon=True,
            )
            for worker in range(1, concurrency)
        ]
        for thread in threads:
            thread.start()
        loop(0)
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return self._collect(
            [one for mine in fired for one in mine],
            started, result_timeout, offered_rps=rate_rps,
        )

    def replay(
        self,
        deadline_ms: Optional[float] = None,
        result_timeout: float = 120.0,
        window: int = 64,
    ) -> LoadReport:
        """Replay the workload once, in order, closed-loop.

        The trace-replay mode: instead of Poisson arrivals at a chosen
        rate, every workload entry is submitted exactly once in its
        recorded order, with at most ``window`` requests in flight —
        the shape of a pipeline driving the service as fast as it will
        go.  ``offered_rps`` on the report is the achieved submission
        rate (there is no synthetic arrival process to offer).
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        started = time.perf_counter()
        fired: List[_Fired] = []
        for index in range(len(self.workload)):
            if index >= window:  # the oldest in flight answers first
                fired[index - window][0].result(timeout=result_timeout)
            fired.append(self._fire(index, started, deadline_ms))
        return self._collect(fired, started, result_timeout)
