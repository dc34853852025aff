"""Exact ring arithmetic: frozen examples plus randomized algebraic laws."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamg.exact import (
    APPROX_MAX_BITS,
    HALF,
    I_UNIT,
    INV_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    ExactScalar,
    _product_dtype,
    fit_int64,
    plane_matmul,
)


def _sqrt2_oracle(bits: int) -> Fraction:
    """Lower bound on sqrt(2) with error < 2**-bits, by integer square root."""
    return Fraction(math.isqrt(2 << (2 * bits)), 1 << bits)


def _value_oracle(a: ExactScalar, bits: int = 200) -> tuple[Fraction, Fraction]:
    xr, xi, yr, yi, e = a.components
    r2 = _sqrt2_oracle(bits)
    denom = 1 << e
    return (
        (Fraction(xr) + yr * r2) / denom,
        (Fraction(xi) + yi * r2) / denom,
    )


def _rand_scalar(rng: random.Random) -> ExactScalar:
    return ExactScalar(
        rng.randint(-50, 50), rng.randint(-50, 50),
        rng.randint(-50, 50), rng.randint(-50, 50),
        rng.randint(0, 6),
    )


def test_constants_are_canonical():
    assert ZERO.components == (0, 0, 0, 0, 0)
    assert ONE.components == (1, 0, 0, 0, 0)
    assert I_UNIT.components == (0, 1, 0, 0, 0)
    assert SQRT2.components == (0, 0, 1, 0, 0)
    assert INV_SQRT2.components == (0, 0, 1, 0, 1)
    assert HALF.components == (1, 0, 0, 0, 1)


def test_addition_examples():
    assert INV_SQRT2 + INV_SQRT2 == SQRT2
    a = ExactScalar(3, -1, 2, 5, 4)
    assert a + ZERO == a
    # conjugate pair sums to a rational: (1+i)/2 + (1-i)/2 = 1
    half_plus = ExactScalar(1, 1, 0, 0, 1)
    assert half_plus + half_plus.conj() == ONE


def test_multiplication_examples():
    assert INV_SQRT2 * INV_SQRT2 == HALF
    assert I_UNIT * I_UNIT == -ONE
    assert (-INV_SQRT2) * SQRT2 == -ONE
    assert SQRT2 * SQRT2 == ExactScalar.from_int(2)


def test_canonical_reduction():
    assert ExactScalar(2, 0, 0, 0, 1) == ONE
    assert ExactScalar(4, -8, 2, 6, 3) == ExactScalar(2, -4, 1, 3, 2)
    assert ExactScalar(0, 0, 0, 0, 7) == ZERO
    # negative exponent inputs are scaled up into canonical form
    assert ExactScalar(1, 0, 0, 0, -2) == ExactScalar.from_int(4)


def test_approx_trivial_values():
    val, bound = INV_SQRT2.approx()
    assert abs(val - 0.7071067811865476) <= bound
    assert bound <= 2.0 ** -APPROX_MAX_BITS * max(1.0, abs(val)) * 1.0001
    val0, bound0 = ZERO.approx()
    assert val0 == 0 and bound0 == 0.0


def test_approx_matches_high_precision_oracle():
    # (3 + sqrt(2)) / 4, oracle via 200-bit integer square root
    a = ExactScalar(3, 0, 1, 0, 2)
    val, bound = a.approx()
    assert abs(val.real - 1.1035533905932737) <= bound
    re_oracle, im_oracle = _value_oracle(a)
    assert abs(val.real - float(re_oracle)) <= bound
    assert im_oracle == 0 and val.imag == 0


def test_approx_bound_is_rigorous_and_capped():
    rng = random.Random(7)
    for _ in range(200):
        a = _rand_scalar(rng)
        for bits in (1, 10, 30, APPROX_MAX_BITS):
            val, bound = a.approx(bits)
            re_o, im_o = _value_oracle(a)
            assert abs(val.real - float(re_o)) <= bound + 1e-300
            assert abs(val.imag - float(im_o)) <= bound + 1e-300
            mag = math.hypot(float(re_o), float(im_o))
            assert bound <= 2.0 ** -bits * max(1.0, mag) * 1.0001
    with pytest.raises(ValueError):
        ONE.approx(0)
    with pytest.raises(ValueError):
        ONE.approx(APPROX_MAX_BITS + 1)


def test_ring_laws_randomized():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        assert a * ONE == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_abs_sq_is_real_nonnegative():
    rng = random.Random(13)
    for _ in range(200):
        a = _rand_scalar(rng)
        sq = a.abs_sq()
        assert sq.is_real()
        val, bound = sq.approx(40)
        assert val.real >= -bound
        direct = abs(a.approx(40)[0]) ** 2
        assert abs(val.real - direct) < 1e-8 * max(1.0, direct)


def test_rational_extraction():
    assert HALF.to_fraction() == Fraction(1, 2)
    assert ExactScalar(-3, 0, 0, 0, 2).to_fraction() == Fraction(-3, 4)
    with pytest.raises(ValueError):
        SQRT2.to_fraction()
    with pytest.raises(ValueError):
        I_UNIT.to_fraction()


def test_token_round_trip():
    assert INV_SQRT2.token() == "(0,0;1,0)/2^1"
    assert ExactScalar.parse_token("(0,0;1,0)/2^1") == INV_SQRT2
    rng = random.Random(17)
    for _ in range(200):
        a = _rand_scalar(rng)
        assert ExactScalar.parse_token(a.token()) == a
    with pytest.raises(ValueError):
        ExactScalar.parse_token("(1,2;3)/2^0")
    with pytest.raises(ValueError):
        ExactScalar.parse_token("(2,0;0,0)/2^1")  # non-canonical


def test_equality_is_value_equality():
    assert ExactScalar(2, 2, 4, 4, 3) == ExactScalar(1, 1, 2, 2, 2)
    assert hash(ExactScalar(2, 2, 4, 4, 3)) == hash(ExactScalar(1, 1, 2, 2, 2))
    assert ExactScalar.from_int(1) != ExactScalar.from_int(-1)


def _reference_plane_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sixteen separate int64 or Python-int products: the kernel before float64 BLAS."""
    a, b = fit_int64(a.shape[-1], a, b)
    axr, axi, ayr, ayi = a
    bxr, bxi, byr, byi = b
    return np.stack([
        axr @ bxr - axi @ bxi + 2 * (ayr @ byr - ayi @ byi),
        axr @ bxi + axi @ bxr + 2 * (ayr @ byi + ayi @ byr),
        axr @ byr - axi @ byi + ayr @ bxr - ayi @ bxi,
        axr @ byi + axi @ byr + ayr @ bxi + ayi @ bxr,
    ])


@st.composite
def _plane_pair(draw):
    rows, inner, cols = (draw(st.integers(1, n)) for n in (5, 70, 5))
    # the widest entries whose product sums meet the float64 (53) or int64 (63)
    # bound of `_product_dtype`, or one bit wider
    limit, past = draw(st.sampled_from([53, 63])), draw(st.booleans())
    bits = (limit - (inner - 1).bit_length() - 3) // 2 + past
    top = (1 << bits) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        # every entry at full width, signed so the x plane sums 6 * inner * top^2
        a = np.full((4, rows, inner), top, dtype=np.int64)
        b = np.full((4, inner, cols), top, dtype=np.int64) * np.array([1, -1, 1, -1])[:, None, None]
    else:
        a = rng.integers(-top, top, size=(4, rows, inner), endpoint=True)
        b = rng.integers(-top, top, size=(4, inner, cols), endpoint=True)
        a[0, 0, 0], b[3, -1, -1] = top, -top  # reach the full width
    return a, b, bits


@settings(max_examples=150, deadline=None)
@given(_plane_pair())
def test_plane_matmul_matches_reference_products(case):
    a, b, bits = case
    need = 2 * bits + (a.shape[-1] - 1).bit_length() + 3
    want_dtype = np.float64 if need <= 53 else np.int64 if need <= 63 else object
    assert _product_dtype(a.shape[-1], a, b) is want_dtype
    got = plane_matmul(a, b)
    assert got.dtype == (object if want_dtype is object else np.int64)
    assert got.tolist() == _reference_plane_matmul(a, b).tolist()
    # Python-int planes take the same product
    assert plane_matmul(a.astype(object), b.astype(object)).tolist() == got.tolist()
