"""Fixed-point types modelled on Vitis HLS ``ap_fixed<W, I>``.

``width`` is the total number of bits and ``int_width`` the number of bits
left of the binary point (including the sign bit when signed).  Values are
plain Python floats quantized onto the ``2**-(width - int_width)`` grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from repro.hdl_types.ap_int import ApIntType, Overflow


class Rounding(enum.Enum):
    """Quantisation mode, mirroring Vitis ``AP_RND``/``AP_TRN``.

    ``ROUND`` snaps to the nearest grid point (ties away from zero via
    Python's ``round``); ``TRUNCATE`` drops fraction bits toward negative
    infinity — the cheaper hardware, and Vitis HLS's default.
    """

    ROUND = "round"      # AP_RND
    TRUNCATE = "trunc"   # AP_TRN


@dataclass(frozen=True)
class ApFixedType:
    """A fixed-point type with ``width`` total bits, ``int_width`` integer bits."""

    width: int
    int_width: int
    signed: bool = True
    overflow: Overflow = Overflow.SATURATE
    rounding: Rounding = Rounding.ROUND

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.int_width <= self.width:
            raise ValueError(
                f"int_width must be in [0, width], got {self.int_width} "
                f"with width {self.width}"
            )

    @property
    def frac_bits(self) -> int:
        """Number of bits right of the binary point."""
        return self.width - self.int_width

    @cached_property
    def resolution(self) -> float:
        """The smallest representable increment."""
        return 2.0 ** -self.frac_bits

    @cached_property
    def _raw_type(self) -> ApIntType:
        return ApIntType(self.width, signed=self.signed, overflow=self.overflow)

    @property
    def min_value(self) -> float:
        """Smallest representable value."""
        return self._raw_type.min_value * self.resolution

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return self._raw_type.max_value * self.resolution

    def to_raw(self, value: float) -> int:
        """Quantize to the underlying integer representation."""
        scaled = float(value) / self.resolution
        if self.rounding is Rounding.TRUNCATE:
            raw = math.floor(scaled)
        else:
            raw = round(scaled)
        return self._raw_type.quantize(raw)

    def from_raw(self, raw: int) -> float:
        """Convert an underlying integer representation back to a float."""
        return raw * self.resolution

    def quantize(self, value: float) -> float:
        """Snap an arbitrary real value onto the representable grid."""
        return self.from_raw(self.to_raw(value))

    def quantize_array(self, values):
        """Vectorized :meth:`quantize` over a float64 NumPy array.

        Bit-identical to the scalar path: ``resolution`` is an exact power
        of two (so the pre-scale is exact), ``math.floor`` == ``np.floor``,
        and Python's ``round`` and ``np.round`` both round half to even.
        """
        import numpy as np

        scaled = np.asarray(values, dtype=np.float64) / self.resolution
        if self.rounding is Rounding.TRUNCATE:
            raw = np.floor(scaled)
        else:
            raw = np.round(scaled)
        return self._raw_type.quantize_array(raw) * self.resolution

    def in_range(self, value: float) -> bool:
        """Whether ``value`` lies within the representable range."""
        return self.min_value <= value <= self.max_value

    def sentinel_low(self) -> float:
        """A safe "-infinity" that survives one more subtraction."""
        return self.min_value / 2.0

    def sentinel_high(self) -> float:
        """A safe "+infinity" that survives one more addition."""
        return self.max_value / 2.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = "ap_fixed" if self.signed else "ap_ufixed"
        return f"{base}<{self.width},{self.int_width}>"
