"""Compiled wavefront backend: ``KernelSpec`` -> vectorized NumPy kernel.

This package is the repo's spec-to-implementation *lowering* step — the
same move DP-HLS makes from its front-end spec to generated RTL, applied
to the Python model: :mod:`repro.backend.compiler` traces ``pe_func``
once through :mod:`repro.core.expr` and emits a NumPy function over
whole anti-diagonals; :mod:`repro.backend.batch` sweeps it across a
whole batch of matrices in lockstep (one pair is a batch of one) and
:mod:`repro.backend.wavefront` finishes each matrix — start cell,
traceback view, the engine's cycle report in closed form.

``compiled_align`` is bit-identical to :func:`repro.systolic.engine.align`
(scores, start cells, tracebacks, cycle totals, collected matrices) on
every registered kernel — the contract ``repro.verify_fuzz`` enforces as
a four-way differential against the DP oracle.  Select a backend by
name via :func:`get_backend`; every ``backend=`` parameter and
``--backend`` flag in the package defaults to :data:`DEFAULT_BACKEND`
and routes through it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.backend.batch import compiled_align, compiled_align_batch
from repro.backend.compiler import (
    CompiledKernel,
    UnsupportedSpecError,
    lower,
    prewarm,
)


def _systolic_align(*args: Any, **kwargs: Any):
    from repro.systolic.engine import align

    return align(*args, **kwargs)


#: Backend name -> align callable with the engine's signature.
BACKENDS: Dict[str, Callable[..., Any]] = {
    "systolic": _systolic_align,
    "compiled": compiled_align,
}

#: What every ``backend=`` parameter and ``--backend`` flag runs unless told
#: otherwise; :mod:`repro.verify`, whose subject is the oracle, names its own.
DEFAULT_BACKEND = "compiled"

#: Backend name -> whole-batch align callable (one call, B results),
#: for backends that amortize dispatch across pairs.  Absence means the
#: backend has no batched fast path and callers fall back to per-pair.
BATCH_BACKENDS: Dict[str, Callable[..., Any]] = {
    "compiled": compiled_align_batch,
}


def get_batch_backend(name: str) -> Optional[Callable[..., Any]]:
    """Resolve a backend name to its batched align callable, if any."""
    return BATCH_BACKENDS.get(name)


def get_backend(name: str) -> Callable[..., Any]:
    """Resolve a backend name to its align callable."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from "
            f"{sorted(BACKENDS)}"
        ) from None


__all__ = [
    "BACKENDS",
    "BATCH_BACKENDS",
    "CompiledKernel",
    "DEFAULT_BACKEND",
    "UnsupportedSpecError",
    "compiled_align",
    "compiled_align_batch",
    "get_backend",
    "get_batch_backend",
    "lower",
    "prewarm",
]
