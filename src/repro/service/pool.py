"""A pool of deployed runtimes with least-loaded routing.

The paper links ``N_K`` (possibly heterogeneous) kernels into one design
and lets the host spread work over them; a serving deployment does the
same across whole :class:`~repro.host.runtime.DeviceRuntime` instances.
:class:`DevicePool` indexes its members by kernel id — several members
may serve the same kernel (replicas), and one pool may serve several
kernels (a heterogeneous deployment, buildable directly from a
:class:`~repro.synth.linker.LinkedDesign` via :meth:`from_linked_design`).

Routing is least-loaded: a flushed batch goes to the member currently
holding the fewest in-flight pairs for that kernel.  Execution goes
through ``DeviceRuntime.run``, so per-pair failures stay isolated as
structured errors — and with ``backend="compiled"`` the whole flushed
batch runs as *one* :func:`repro.backend.compiled_align_batch` lockstep
sweep, so the batcher's work of assembling per-kernel batches is paid
back as amortized NumPy dispatch instead of N serialized calls.

Passing a :class:`~repro.cache.CacheStack` wraps every member in a
:class:`~repro.cache.CachedRuntime`: the whole pool shares one
content-addressed cache, so a pair served by any replica is a hit on
every other, and batch outcomes carry per-pair ``fingerprints``/
``cached`` attribution the serving core forwards to clients.

Membership is *online*: :meth:`DevicePool.add_member` deploys another
runtime into a live pool and :meth:`DevicePool.retire_member` removes
one with drain-before-retire semantics — the member leaves the routing
table immediately (no new batches land on it) but stays until every
in-flight pair it holds has resolved, so retirement never drops work.
Each member also executes exclusively (one batch at a time), which is
what makes a replica an honest unit of serving capacity: a simulated
device channel, like the FPGA block it models, cannot time-slice two
batches — and why :meth:`DevicePool.active_members` is the batcher's slot
count.  The :mod:`repro.autoscale` actuator drives both operations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backend import DEFAULT_BACKEND
from repro.host.runtime import BatchOutcome, DeviceRuntime
from repro.obs.recorder import get_recorder
from repro.synth.compiler import LaunchConfig
from repro.synth.linker import LinkedDesign


@dataclass
class PoolMember:
    """One runtime plus its live load accounting."""

    runtime: DeviceRuntime
    name: str
    in_flight: int = 0
    batches_served: int = 0
    pairs_served: int = 0
    draining: bool = False
    #: One batch at a time per member — the device-channel exclusivity
    #: that makes replica count equal serving concurrency.
    exclusive: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def kernel_id(self) -> int:
        """Kernel this member serves."""
        return self.runtime.spec.kernel_id

    def stats(self) -> Dict[str, Any]:
        """JSON-safe load summary."""
        return {
            "name": self.name,
            "kernel_id": self.kernel_id,
            "kernel": self.runtime.spec.name,
            "n_pe": self.runtime.config.n_pe,
            "n_b": self.runtime.config.n_b,
            "in_flight": self.in_flight,
            "batches_served": self.batches_served,
            "pairs_served": self.pairs_served,
            "draining": self.draining,
        }


@dataclass(frozen=True)
class PoolRejection(RuntimeError):
    """Raised when a batch cannot be routed (unsupported kernel)."""

    kernel_id: int
    reason: str

    def __str__(self) -> str:
        return f"kernel #{self.kernel_id}: {self.reason}"


class DevicePool:
    """Kernel-indexed runtime pool with least-loaded batch routing."""

    def __init__(
        self,
        runtimes: Sequence[DeviceRuntime],
        cache: Optional[Any] = None,
    ) -> None:
        if not runtimes:
            raise ValueError("a device pool needs at least one runtime")
        self.cache = cache
        runtimes = [self._wrap(rt) for rt in runtimes]
        self.members: List[PoolMember] = [
            PoolMember(runtime=rt, name=f"rt{k}:{rt.spec.name}")
            for k, rt in enumerate(runtimes)
        ]
        self._by_kernel: Dict[int, List[PoolMember]] = {}
        for member in self.members:
            self._by_kernel.setdefault(member.kernel_id, []).append(member)
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._next_index = len(self.members)

    def _wrap(self, runtime: DeviceRuntime) -> DeviceRuntime:
        """Apply the pool's shared cache to a runtime (idempotent)."""
        if self.cache is None:
            return runtime
        from repro.cache import CachedRuntime

        if isinstance(runtime, CachedRuntime):
            return runtime
        return CachedRuntime(runtime, self.cache)

    @classmethod
    def from_linked_design(
        cls,
        design: LinkedDesign,
        params_by_kernel: Optional[Dict[int, Any]] = None,
        cache: Optional[Any] = None,
        backend: str = DEFAULT_BACKEND,
    ) -> "DevicePool":
        """Deploy every channel of a linked design as one pool member.

        Each channel becomes a :class:`DeviceRuntime` with the channel's
        ``N_PE``/``N_B`` sizing (``N_K = 1``: the channel *is* one of the
        design's K channels) at the design's linked clock target.
        ``cache`` (a :class:`~repro.cache.CacheStack`) is shared across
        every channel, exactly as in the main constructor.  ``backend``
        selects the alignment implementation every channel runs (the
        ``"compiled"`` default or the bit-identical ``"systolic"`` cycle
        simulator — see ``docs/backends.md``).
        """
        params_by_kernel = params_by_kernel or {}
        runtimes = [
            DeviceRuntime(
                channel.kernel,
                LaunchConfig(
                    n_pe=channel.n_pe,
                    n_b=channel.n_b,
                    n_k=1,
                    max_query_len=channel.max_query_len,
                    max_ref_len=channel.max_ref_len,
                ),
                params=params_by_kernel.get(channel.kernel.kernel_id),
                backend=backend,
            )
            for channel in design.channels
        ]
        return cls(runtimes, cache=cache)

    # -- online membership --------------------------------------------

    def add_member(
        self, runtime: DeviceRuntime, name: Optional[str] = None
    ) -> PoolMember:
        """Deploy another runtime into the live pool.

        The new member joins the routing table immediately and is
        eligible for the next flushed batch of its kernel.  Returns the
        created :class:`PoolMember` (its ``name`` is unique within the
        pool's lifetime).
        """
        runtime = self._wrap(runtime)
        with self._lock:
            if name is None:
                name = f"rt{self._next_index}:{runtime.spec.name}"
            self._next_index += 1
            if any(m.name == name for m in self.members):
                raise ValueError(f"pool already has a member named {name!r}")
            member = PoolMember(runtime=runtime, name=name)
            self.members.append(member)
            self._by_kernel.setdefault(member.kernel_id, []).append(member)
        get_recorder().count("pool.members_added_total")
        return member

    def retire_member(
        self,
        name: str,
        timeout_s: Optional[float] = 30.0,
        allow_last: bool = False,
    ) -> PoolMember:
        """Drain and remove one member; in-flight work always completes.

        The member leaves the routing table at once — no further batch
        acquires it — then this call blocks until its booked load drains
        to zero before removing it from ``members``.  Nothing in flight
        is dropped: every pair the member holds resolves normally.

        Retiring the last active member of a kernel is refused (it would
        turn that kernel's traffic into rejections) unless
        ``allow_last=True``.  On drain timeout the member stays out of
        the routing table, marked ``draining``, and ``TimeoutError`` is
        raised — a later call with the same name finishes the removal.
        """
        with self._drained:
            member = next((m for m in self.members if m.name == name), None)
            if member is None:
                raise KeyError(f"no pool member named {name!r}")
            siblings = self._by_kernel.get(member.kernel_id, [])
            if not allow_last and not member.draining and len(siblings) <= 1:
                raise ValueError(
                    f"refusing to retire {name!r}: it is the last active "
                    f"member serving kernel #{member.kernel_id} "
                    f"(pass allow_last=True to undeploy the kernel)"
                )
            member.draining = True
            if member in siblings:
                siblings.remove(member)
                if not siblings:
                    del self._by_kernel[member.kernel_id]
            deadline = (
                None if timeout_s is None
                else time.monotonic() + timeout_s
            )
            while member.in_flight > 0:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"member {name!r} still holds {member.in_flight} "
                        f"in-flight pair(s) after {timeout_s}s; it is out "
                        f"of routing — retry retire_member to finish"
                    )
                self._drained.wait(remaining)
            self.members.remove(member)
        get_recorder().count("pool.members_retired_total")
        return member

    def active_members(self, kernel_id: int) -> List[PoolMember]:
        """Routable (non-draining) members serving ``kernel_id``."""
        with self._lock:
            return list(self._by_kernel.get(kernel_id, []))

    def replica_counts(self) -> Dict[int, int]:
        """Routable member count per kernel id."""
        with self._lock:
            return {
                kernel_id: len(members)
                for kernel_id, members in sorted(self._by_kernel.items())
            }

    # -- routing ------------------------------------------------------

    def kernel_ids(self) -> List[int]:
        """Kernels this pool can serve, ascending."""
        return sorted(self._by_kernel)

    def supports(self, kernel_id: int) -> bool:
        """Whether any member serves ``kernel_id``."""
        return kernel_id in self._by_kernel

    def max_lengths(self, kernel_id: int) -> Tuple[int, int]:
        """Largest (query, reference) lengths any member accepts."""
        members = self._by_kernel.get(kernel_id)
        if not members:
            raise PoolRejection(kernel_id, "no runtime serves this kernel")
        return (
            max(m.runtime.config.max_query_len for m in members),
            max(m.runtime.config.max_ref_len for m in members),
        )

    def _acquire(self, kernel_id: int, n_pairs: int) -> PoolMember:
        """Pick the least-loaded member for a kernel and book the load."""
        with self._lock:
            members = self._by_kernel.get(kernel_id)
            if not members:
                raise PoolRejection(kernel_id, "no runtime serves this kernel")
            member = min(members, key=lambda m: (m.in_flight, m.name))
            member.in_flight += n_pairs
            return member

    def _release(self, member: PoolMember, n_pairs: int) -> None:
        """Return booked load after a batch drains."""
        with self._lock:
            member.in_flight -= n_pairs
            member.batches_served += 1
            member.pairs_served += n_pairs
            if member.draining and member.in_flight <= 0:
                self._drained.notify_all()

    def execute(
        self,
        kernel_id: int,
        pairs: Sequence[Tuple[Sequence[Any], Sequence[Any]]],
    ) -> Tuple[BatchOutcome, PoolMember]:
        """Run one flushed batch on the least-loaded member.

        Returns the runtime's :class:`BatchOutcome` (index-aligned with
        ``pairs``; per-pair failures isolated in ``errors``) plus the
        member that served it.
        """
        member = self._acquire(kernel_id, len(pairs))
        try:
            with get_recorder().span(
                "pool.execute", member=member.name, kernel=kernel_id,
                pairs=len(pairs),
            ):
                with member.exclusive:
                    outcome = member.runtime.run(list(pairs))
        finally:
            self._release(member, len(pairs))
        return outcome, member

    def stats(self) -> List[Dict[str, Any]]:
        """Load summaries of every member."""
        with self._lock:
            return [member.stats() for member in self.members]
