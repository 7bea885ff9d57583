"""Fixed-width integer types modelled on Vitis HLS ``ap_int``/``ap_uint``.

A type object is immutable and hashable; it carries no value.  Values are
plain Python integers that the type quantizes into its representable range
using either two's-complement wrap-around (the hardware default) or
saturation (``AP_SAT``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property


class Overflow(enum.Enum):
    """Overflow handling mode, mirroring Vitis ``AP_WRAP``/``AP_SAT``."""

    WRAP = "wrap"
    SATURATE = "saturate"


@dataclass(frozen=True)
class ApIntType:
    """A ``width``-bit integer type, signed or unsigned.

    Parameters
    ----------
    width:
        Total number of bits (must be >= 1).
    signed:
        Two's-complement when ``True`` (``ap_int``), unsigned otherwise
        (``ap_uint``).
    overflow:
        What :meth:`quantize` does with out-of-range values.
    """

    width: int
    signed: bool = True
    overflow: Overflow = Overflow.WRAP

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")

    @cached_property
    def min_value(self) -> int:
        """Smallest representable value."""
        if self.signed:
            return -(1 << (self.width - 1))
        return 0

    @cached_property
    def max_value(self) -> int:
        """Largest representable value."""
        if self.signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    def in_range(self, value: int) -> bool:
        """Whether ``value`` is representable without overflow."""
        return self.min_value <= value <= self.max_value

    def quantize(self, value: int) -> int:
        """Map an arbitrary integer into this type's range.

        Wrap mode reproduces two's-complement truncation to ``width`` bits;
        saturate mode clamps to the representable extremes.
        """
        if type(value) is not int:
            value = int(value)
        if self.min_value <= value <= self.max_value:
            return value
        if self.overflow is Overflow.SATURATE:
            return max(self.min_value, min(self.max_value, value))
        span = 1 << self.width
        wrapped = value & (span - 1)
        if self.signed and wrapped >= (1 << (self.width - 1)):
            wrapped -= span
        return wrapped

    def quantize_array(self, values):
        """Vectorized :meth:`quantize` over a NumPy array, in the input's kind.

        Bit-identical to mapping :meth:`quantize` over the elements.  An
        integer array (the compiled backend's ``int32`` buckets) takes one
        op: a narrowing ``astype`` (C two's-complement truncation) for the
        8/16/32/64-bit wrap types, ``((v - lo) & mask) + lo`` for other
        widths, ``np.clip`` to saturate.  A float array holds integers far
        inside the 2**53 window: ``int()`` truncation toward zero is
        ``np.trunc``, and in-range input — the usual case — returns after a
        ``min``/``max``.
        """
        import numpy as np

        values = np.asarray(values)
        lo, hi = self.min_value, self.max_value
        exact = values.dtype.kind in "iu"
        if not exact:
            values = np.trunc(values.astype(np.float64, copy=False))
            if not values.size or lo <= values.min() <= values.max() <= hi:
                return values
        if self.overflow is Overflow.SATURATE:
            return np.clip(values, lo, hi)
        ints = values if exact else values.astype(np.int64)
        if self.width in (8, 16, 32, 64):
            ints = ints.astype(f"{'i' if self.signed else 'u'}{self.width // 8}")
        else:
            ints = ((ints - lo) & ((1 << self.width) - 1)) + lo
        return ints if exact else ints.astype(np.float64)

    def sentinel_low(self) -> int:
        """A safe "-infinity" for max-objective recurrences.

        Half the minimum so that adding one gap penalty cannot underflow the
        type — the same idiom hand-written RTL uses for boundary cells.
        """
        return self.min_value // 2

    def sentinel_high(self) -> int:
        """A safe "+infinity" for min-objective recurrences."""
        return self.max_value // 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = "ap_int" if self.signed else "ap_uint"
        return f"{base}<{self.width}>"


def ap_int(width: int, overflow: Overflow = Overflow.WRAP) -> ApIntType:
    """Shorthand for a signed :class:`ApIntType` (Vitis ``ap_int<W>``)."""
    return ApIntType(width=width, signed=True, overflow=overflow)


def ap_uint(width: int, overflow: Overflow = Overflow.WRAP) -> ApIntType:
    """Shorthand for an unsigned :class:`ApIntType` (Vitis ``ap_uint<W>``)."""
    return ApIntType(width=width, signed=False, overflow=overflow)
