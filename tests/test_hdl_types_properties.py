"""Seeded property tests for the HDL type layer (no hypothesis needed).

Wrap and saturate semantics of ``ap_int``/``ap_uint``/``ap_fixed`` are
cross-checked against plain-Python modular arithmetic over randomized
widths and values.  Everything is driven by fixed-seed ``random.Random``
generators (arbitrary-precision, unlike numpy's int64-bounded RNG), so
a failure reproduces exactly; widening the sweep means bumping N_SAMPLES,
not changing seeds.
"""

import dataclasses
import pickle
import random

import numpy as np
import pytest

from repro.hdl_types import ApFixedType, ApIntType, Overflow, Rounding

N_SAMPLES = 300


def _random_values(rng, bound):
    """Integers spanning in-range, boundary and far-out-of-range regimes.

    Uses ``random.Random`` (arbitrary precision) because 64-bit widths
    produce bounds beyond numpy's int64 RNG range.
    """
    regime = rng.randrange(3)
    if regime == 0:
        return rng.randint(-bound, bound)
    if regime == 1:  # hug the representable boundary
        return rng.choice([-bound, -bound + 1, bound - 1, bound, 0])
    return rng.randint(-8 * bound, 8 * bound)


def _cases(seed):
    rng = random.Random(seed)
    for _ in range(N_SAMPLES):
        width = rng.randint(1, 64)
        value = _random_values(rng, 1 << width)
        yield width, value


class TestApIntWrap:
    def test_signed_wrap_is_twos_complement_mod(self):
        for width, value in _cases(seed=1):
            t = ApIntType(width, signed=True, overflow=Overflow.WRAP)
            span = 1 << width
            half = 1 << (width - 1)
            expected = ((value + half) % span) - half
            assert t.quantize(value) == expected, (width, value)

    def test_unsigned_wrap_is_plain_mod(self):
        for width, value in _cases(seed=2):
            t = ApIntType(width, signed=False, overflow=Overflow.WRAP)
            assert t.quantize(value) == value % (1 << width), (width, value)

    def test_wrap_result_always_in_range(self):
        for width, value in _cases(seed=3):
            for signed in (True, False):
                t = ApIntType(width, signed=signed, overflow=Overflow.WRAP)
                assert t.in_range(t.quantize(value)), (width, value, signed)

    def test_in_range_values_pass_through(self):
        rng = random.Random(4)
        for _ in range(N_SAMPLES):
            width = rng.randint(1, 64)
            for signed in (True, False):
                t = ApIntType(width, signed=signed, overflow=Overflow.WRAP)
                value = rng.randint(t.min_value, t.max_value)
                assert t.quantize(value) == value


class TestApIntSaturate:
    def test_saturate_is_plain_clamp(self):
        for width, value in _cases(seed=5):
            for signed in (True, False):
                t = ApIntType(width, signed=signed, overflow=Overflow.SATURATE)
                expected = max(t.min_value, min(t.max_value, value))
                assert t.quantize(value) == expected, (width, value, signed)

    def test_wrap_and_saturate_agree_in_range(self):
        rng = random.Random(6)
        for _ in range(N_SAMPLES):
            width = rng.randint(1, 64)
            wrap = ApIntType(width, overflow=Overflow.WRAP)
            sat = ApIntType(width, overflow=Overflow.SATURATE)
            value = rng.randint(wrap.min_value, wrap.max_value)
            assert wrap.quantize(value) == sat.quantize(value)

    def test_sentinels_survive_one_more_step(self):
        for width in range(2, 65):
            t = ApIntType(width, overflow=Overflow.SATURATE)
            assert t.in_range(t.sentinel_low() - abs(t.sentinel_low() // 2))
            assert t.in_range(t.sentinel_high() + t.sentinel_high() // 2)


def _random_fixed(rng):
    width = rng.randint(2, 32)
    int_width = rng.randint(0, width)
    return width, int_width


class TestApFixed:
    def test_quantize_idempotent(self):
        rng = random.Random(7)
        for _ in range(N_SAMPLES):
            width, int_width = _random_fixed(rng)
            t = ApFixedType(width, int_width)
            value = float(rng.uniform(-2.0 * abs(t.max_value) - 1, 2.0 * t.max_value + 1))
            q = t.quantize(value)
            assert t.quantize(q) == q, (width, int_width, value)

    def test_round_stays_within_half_resolution_in_range(self):
        rng = random.Random(8)
        for _ in range(N_SAMPLES):
            width, int_width = _random_fixed(rng)
            t = ApFixedType(width, int_width, rounding=Rounding.ROUND)
            value = float(
                rng.uniform(t.min_value + t.resolution, t.max_value - t.resolution)
            )
            assert abs(t.quantize(value) - value) <= t.resolution / 2 + 1e-12

    def test_truncate_floors_toward_negative_infinity(self):
        rng = random.Random(9)
        for _ in range(N_SAMPLES):
            width, int_width = _random_fixed(rng)
            t = ApFixedType(width, int_width, rounding=Rounding.TRUNCATE)
            value = float(
                rng.uniform(t.min_value + t.resolution, t.max_value - t.resolution)
            )
            q = t.quantize(value)
            assert q <= value + 1e-12
            assert value - q < t.resolution + 1e-12

    def test_saturate_clamps_out_of_range(self):
        rng = random.Random(10)
        for _ in range(N_SAMPLES):
            width, int_width = _random_fixed(rng)
            t = ApFixedType(width, int_width, overflow=Overflow.SATURATE)
            high = t.quantize(t.max_value * 4 + 1)
            low = t.quantize(t.min_value * 4 - 1)
            assert high == t.max_value
            assert low == t.min_value

    def test_raw_roundtrip_matches_grid(self):
        rng = random.Random(11)
        for _ in range(N_SAMPLES):
            width, int_width = _random_fixed(rng)
            t = ApFixedType(width, int_width)
            value = float(rng.uniform(t.min_value, t.max_value))
            raw = t.to_raw(value)
            assert t.from_raw(raw) == raw * t.resolution
            assert t.quantize(value) == t.from_raw(raw)

    def test_wrap_mode_matches_underlying_int_wrap(self):
        """ap_fixed WRAP must wrap its raw bits exactly like ap_int."""
        rng = random.Random(12)
        for _ in range(N_SAMPLES):
            width, int_width = _random_fixed(rng)
            t = ApFixedType(width, int_width, overflow=Overflow.WRAP)
            raw_type = ApIntType(width, signed=True, overflow=Overflow.WRAP)
            value = float(rng.uniform(4 * t.min_value - 1, 4 * t.max_value + 1))
            expected_raw = raw_type.quantize(round(value / t.resolution))
            assert t.quantize(value) == expected_raw * t.resolution

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            ApFixedType(0, 0)
        with pytest.raises(ValueError):
            ApFixedType(8, 9)


def _reference_quantize(t, value):
    """The reference formula: ``int()``, then wrap or clamp to the width."""
    value = int(value)
    lo = -(1 << (t.width - 1)) if t.signed else 0
    hi = (1 << (t.width - 1)) - 1 if t.signed else (1 << t.width) - 1
    if lo <= value <= hi:
        return value
    if t.overflow is Overflow.SATURATE:
        return max(lo, min(hi, value))
    wrapped = value & ((1 << t.width) - 1)
    if t.signed and wrapped >= (1 << (t.width - 1)):
        wrapped -= 1 << t.width
    return wrapped


def _int_types():
    for width in range(1, 65):
        for signed in (True, False):
            for overflow in Overflow:
                yield ApIntType(width, signed=signed, overflow=overflow)


class TestApIntQuantizeFastPath:
    """The cached bounds and the ``int`` fast path change no result."""

    def test_quantize_equals_reference_formula_for_every_operand_type(self):
        for t in _int_types():
            lo, hi = t.min_value, t.max_value
            far = (hi - lo + 1) * 7 + 3
            for point in (lo - 1, lo, hi, hi + 1, lo - far, hi + far, 0):
                values = [point, float(point), np.float64(point),
                          float(point) + 0.5, float(point) - 0.5]
                if -(1 << 63) <= point < (1 << 63):
                    values.append(np.int64(point))
                if point in (0, 1):
                    values += [bool(point), np.bool_(point)]
                for value in values:
                    got, want = t.quantize(value), _reference_quantize(t, value)
                    assert type(got) is int and got == want, (t, value)

    @pytest.mark.parametrize("make, other", [
        (lambda: ApIntType(12, signed=False, overflow=Overflow.SATURATE),
         "ApIntType(width=12, signed=False, "
         "overflow=<Overflow.SATURATE: 'saturate'>)"),
        (lambda: ApFixedType(28, 16, rounding=Rounding.TRUNCATE),
         "ApFixedType(width=28, int_width=16, signed=True, "
         "overflow=<Overflow.SATURATE: 'saturate'>, "
         "rounding=<Rounding.TRUNCATE: 'trunc'>)"),
    ], ids=("ap_uint", "ap_fixed"))
    def test_eq_hash_repr_and_pickle_ignore_the_cache(self, make, other):
        warm, cold = make(), make()
        warm.quantize(3.75)  # fills the cached bounds of ``warm`` only
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) == other
        for original in (warm, cold):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and hash(copy) == hash(original)
            assert repr(copy) == other
            assert copy.quantize(1e9) == original.quantize(1e9)

    def test_replace_recomputes_the_cached_bounds(self):
        narrow = ApIntType(8)
        assert (narrow.min_value, narrow.max_value) == (-128, 127)
        wide = dataclasses.replace(narrow, width=12)
        assert (wide.min_value, wide.max_value) == (-2048, 2047)
        assert wide.quantize(300) == 300 and narrow.quantize(300) == 44
        unsigned = dataclasses.replace(narrow, signed=False)
        assert (unsigned.min_value, unsigned.max_value) == (0, 255)

        fixed = ApFixedType(16, 8)
        assert (fixed.resolution, fixed.max_value) == (2.0 ** -8, 127.99609375)
        finer = dataclasses.replace(fixed, width=20)
        assert finer.resolution == 2.0 ** -12
        assert finer.max_value == 127.999755859375
        assert finer.quantize(1 / 3) == round((1 / 3) * 4096) / 4096
