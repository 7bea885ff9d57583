"""What one serving deployment hosts, as a picklable value.

A :class:`Deployment` is the single description shared by every party
of a sharded deployment: the CLI builds it from flags, the front door
derives routing fingerprints from it, and each worker process receives
it (over a ``spawn`` pipe, hence *picklable primitives only*) and
builds its own :class:`~repro.service.DevicePool` + serving core from
it.  Keeping one value authoritative is what makes shard-transparency
cheap to guarantee: every shard deploys *exactly* the same kernels at
exactly the same sizing, so any shard produces byte-identical responses
for any request — routing only decides whose cache stays hot.

The builders here are also used by the single-process ``repro serve``
path, so "1 shard" and "no shards" run literally the same construction
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.backend import DEFAULT_BACKEND

#: Subdirectory pattern of one shard's disk journal under the cache root.
SHARD_CACHE_SUBDIR = "shard-{name}"


@dataclass(frozen=True)
class Deployment:
    """Everything needed to build one shard's serving stack.

    ``kernel_ids`` name registered kernels (resolved in the worker);
    ``cache_dir`` is the *shared cache root* — each shard journals its
    own key range into a private subdirectory of it, so a re-spawned
    shard warm-starts from disk while concurrent shards never contend
    on one append handle.
    """

    kernel_ids: Tuple[int, ...] = (1,)
    replicas: int = 1
    n_pe: int = 16
    n_b: int = 4
    max_len: int = 256
    max_batch: int = 8
    max_delay_ms: float = 20.0
    queue_bound: int = 256
    backend: str = DEFAULT_BACKEND
    cache_dir: Optional[str] = None
    cache_mem_mb: float = 64.0
    params_by_kernel: Dict[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kernel_ids:
            raise ValueError("a deployment needs at least one kernel")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")

    # -- derived values ------------------------------------------------

    def shard_cache_dir(self, shard_name: str) -> Optional[str]:
        """Disk-journal directory of one shard (``None`` without cache)."""
        if self.cache_dir is None:
            return None
        return str(Path(self.cache_dir) / SHARD_CACHE_SUBDIR.format(
            name=shard_name
        ))

    def for_shard(self, shard_name: str) -> "Deployment":
        """This deployment with the cache root narrowed to one shard."""
        return replace(self, cache_dir=self.shard_cache_dir(shard_name))

    # -- builders ------------------------------------------------------

    def specs(self):
        """Resolve ``kernel_ids`` to specs, refusing unservable kernels."""
        from repro.kernels import get_kernel

        specs = []
        for kernel_id in self.kernel_ids:
            spec = get_kernel(kernel_id)
            if spec.alphabet.is_struct:
                raise ValueError(
                    f"kernel {spec.name} consumes struct symbols and cannot "
                    f"be served over the JSON-line protocol"
                )
            specs.append(spec)
        return specs

    def launch_config(self):
        """The :class:`~repro.synth.LaunchConfig` every runtime uses."""
        from repro.synth import LaunchConfig

        return LaunchConfig(
            n_pe=self.n_pe, n_b=self.n_b, n_k=1,
            max_query_len=self.max_len, max_ref_len=self.max_len,
        )

    def prewarm(self) -> int:
        """Compile every served kernel now (compiled backend only).

        The worker ready path calls this before announcing its port, so
        the first request a shard sees never pays PE-function lowering
        latency; results land in the process-wide compiler cache that
        every :class:`~repro.host.DeviceRuntime` reuses.  Returns the
        number of kernels warmed (0 for the systolic backend, and
        kernels outside the compiled surface are skipped, not errors).
        """
        if self.backend != "compiled":
            return 0
        from repro.backend import prewarm

        warmed = 0
        for spec in self.specs():
            params = self.params_by_kernel.get(spec.kernel_id)
            if prewarm(spec, params):
                warmed += 1
        return warmed

    def build_cache(self):
        """The shard-private :class:`~repro.cache.CacheStack` (or ``None``)."""
        if self.cache_dir is None:
            return None
        from repro.cache import CacheConfig, CacheStack

        return CacheStack(CacheConfig(
            directory=self.cache_dir,
            memory_bytes=int(self.cache_mem_mb * 1024 * 1024),
        ))

    def build_pool(self, cache: Any = None):
        """A :class:`~repro.service.DevicePool` of this deployment."""
        from repro.host import DeviceRuntime
        from repro.service import DevicePool

        config = self.launch_config()
        runtimes = []
        for spec in self.specs():
            for _ in range(self.replicas):
                runtimes.append(DeviceRuntime(
                    spec, config,
                    params=self.params_by_kernel.get(spec.kernel_id),
                    backend=self.backend,
                ))
        return DevicePool(runtimes, cache=cache)

    def build_core(self, cache: Any = None, recorder: Any = None):
        """A started-ready :class:`~repro.service.ServiceCore` (not started)."""
        from repro.service import BatcherConfig, ServiceCore

        return ServiceCore(
            self.build_pool(cache=cache),
            BatcherConfig(
                max_batch=self.max_batch,
                max_delay_ms=self.max_delay_ms,
                max_queue_depth=self.queue_bound,
            ),
            recorder=recorder,
        )
