"""Exact scalar arithmetic for the {Toffoli, Hadamard, i-shift} gate set.

Every amplitude reachable from the gate entries {0, 1, i, +-1/sqrt(2)} lies in
the ring of numbers (x + y*sqrt(2)) / 2**e with Gaussian integers x, y and
e >= 0.  ExactScalar implements that ring with a canonical representative per
value, so equality is structural and serialization round-trips bit-exactly.

Matrices over the ring are stored as integer planes: an array of shape
(4, rows, cols) holding Re x, Im x, Re y and Im y of every entry
(x + y*sqrt(2)) / 2**e, with one exponent e shared by the whole matrix.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

_TOKEN_RE = re.compile(
    r"^\((-?\d+),(-?\d+);(-?\d+),(-?\d+)\)/2\^(\d+)$"
)

APPROX_MAX_BITS = 50
_GUARD_BITS = 64
_INT64_BITS = 63


def _gmul(ar: int, ai: int, br: int, bi: int) -> tuple[int, int]:
    return ar * br - ai * bi, ar * bi + ai * br


class ExactScalar:
    """Canonical (x + y*sqrt(2)) / 2**e with Gaussian-integer x and y.

    Canonical form: e >= 0, and if e > 0 then not all four integer
    components are even.  Zero is (0,0;0,0)/2^0.
    """

    __slots__ = ("_xr", "_xi", "_yr", "_yi", "_e")

    def __init__(self, xr: int, xi: int, yr: int, yi: int, e: int) -> None:
        if e < 0:
            xr, xi, yr, yi = (c << -e for c in (xr, xi, yr, yi))
            e = 0
        if xr == 0 and xi == 0 and yr == 0 and yi == 0:
            e = 0
        else:
            while e > 0 and not ((xr | xi | yr | yi) & 1):
                xr >>= 1
                xi >>= 1
                yr >>= 1
                yi >>= 1
                e -= 1
        self._xr = xr
        self._xi = xi
        self._yr = yr
        self._yi = yi
        self._e = e

    @classmethod
    def from_int(cls, n: int) -> ExactScalar:
        return cls(n, 0, 0, 0, 0)

    @classmethod
    def from_gaussian(cls, re_part: int, im_part: int) -> ExactScalar:
        return cls(re_part, im_part, 0, 0, 0)

    @property
    def components(self) -> tuple[int, int, int, int, int]:
        return self._xr, self._xi, self._yr, self._yi, self._e

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_zero(self) -> bool:
        return self._xr == 0 and self._xi == 0 and self._yr == 0 and self._yi == 0

    def is_real(self) -> bool:
        return self._xi == 0 and self._yi == 0

    def is_rational(self) -> bool:
        return self._yr == 0 and self._yi == 0 and self._xi == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._xr, 1 << self._e)

    def __neg__(self) -> ExactScalar:
        return ExactScalar(-self._xr, -self._xi, -self._yr, -self._yi, self._e)

    def __add__(self, other: ExactScalar) -> ExactScalar:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        e = max(self._e, other._e)
        sa = e - self._e
        sb = e - other._e
        return ExactScalar(
            (self._xr << sa) + (other._xr << sb),
            (self._xi << sa) + (other._xi << sb),
            (self._yr << sa) + (other._yr << sb),
            (self._yi << sa) + (other._yi << sb),
            e,
        )

    def __sub__(self, other: ExactScalar) -> ExactScalar:
        return self + (-other)

    def __mul__(self, other: Union[ExactScalar, int]) -> ExactScalar:
        if isinstance(other, int):
            other = ExactScalar.from_int(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        # (x1 + y1 r)(x2 + y2 r) = (x1 x2 + 2 y1 y2) + (x1 y2 + y1 x2) r,  r = sqrt(2)
        x1x2 = _gmul(self._xr, self._xi, other._xr, other._xi)
        y1y2 = _gmul(self._yr, self._yi, other._yr, other._yi)
        x1y2 = _gmul(self._xr, self._xi, other._yr, other._yi)
        y1x2 = _gmul(self._yr, self._yi, other._xr, other._xi)
        return ExactScalar(
            x1x2[0] + 2 * y1y2[0],
            x1x2[1] + 2 * y1y2[1],
            x1y2[0] + y1x2[0],
            x1y2[1] + y1x2[1],
            self._e + other._e,
        )

    __rmul__ = __mul__

    def conj(self) -> ExactScalar:
        return ExactScalar(self._xr, -self._xi, self._yr, -self._yi, self._e)

    def abs_sq(self) -> ExactScalar:
        return self * self.conj()

    def to_complex(self) -> complex:
        scale = 0.5 ** self._e
        r2 = math.sqrt(2.0)
        return complex(
            (self._xr + self._yr * r2) * scale,
            (self._xi + self._yi * r2) * scale,
        )

    def approx(self, precision_bits: int = APPROX_MAX_BITS) -> tuple[complex, float]:
        """Floating approximation with a rigorous absolute error bound.

        The bound covers both the sqrt(2) truncation and the float64
        rounding of each component, and satisfies
        bound <= 2**-precision_bits * max(1, |a|) for the supported range.
        """
        if not 1 <= precision_bits <= APPROX_MAX_BITS:
            raise ValueError(
                f"precision_bits must be in [1, {APPROX_MAX_BITS}], got {precision_bits}"
            )
        p = precision_bits + _GUARD_BITS
        sqrt2_num = math.isqrt(2 << (2 * p))  # floor(sqrt(2) * 2^p)
        denom = 1 << self._e
        re_frac = Fraction(self._xr, denom) + Fraction(self._yr * sqrt2_num, denom << p)
        im_frac = Fraction(self._xi, denom) + Fraction(self._yi * sqrt2_num, denom << p)
        re_f = float(re_frac)
        im_f = float(im_frac)
        err = Fraction(abs(self._yr) + abs(self._yi), denom << p)
        err += abs(Fraction(re_f) - re_frac) + abs(Fraction(im_f) - im_frac)
        bound = float(err)
        while Fraction(bound) < err:  # round the bound upward
            bound = math.nextafter(bound, math.inf)
        return complex(re_f, im_f), bound

    def token(self) -> str:
        return f"({self._xr},{self._xi};{self._yr},{self._yi})/2^{self._e}"

    @classmethod
    def parse_token(cls, text: str) -> ExactScalar:
        m = _TOKEN_RE.match(text.strip())
        if m is None:
            raise ValueError(f"malformed exact-scalar token: {text!r}")
        xr, xi, yr, yi, e = (int(g) for g in m.groups())
        value = cls(xr, xi, yr, yi, e)
        if value.components != (xr, xi, yr, yi, e):
            raise ValueError(f"non-canonical exact-scalar token: {text!r}")
        return value

    def __repr__(self) -> str:
        return f"ExactScalar{self.components!r}"

    def __str__(self) -> str:
        return self.token()


ZERO = ExactScalar.from_int(0)
ONE = ExactScalar.from_int(1)
I_UNIT = ExactScalar.from_gaussian(0, 1)
SQRT2 = ExactScalar(0, 0, 1, 0, 0)
INV_SQRT2 = ExactScalar(0, 0, 1, 0, 1)
HALF = ExactScalar(1, 0, 0, 0, 1)


# --- matrices as integer planes ---


def fit_int64(terms: int, *planes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The plane arrays, as int64 if sums of `terms` entry products fit, else as object.

    With every |entry| < 2**bits, each entry of a product or squared norm
    sums `terms` products weighted by at most 6, so it stays below
    2**(2*bits + ceil(log2 terms) + 3).
    """
    if all(p.dtype == np.int64 for p in planes):
        bits = max(int(np.abs(p).max(initial=0)).bit_length() for p in planes)
        if 2 * bits + (terms - 1).bit_length() + 3 <= _INT64_BITS:
            return planes
    return tuple(p.astype(object) for p in planes)


def plane_adjoint(a: np.ndarray) -> np.ndarray:
    """Planes of the conjugate transpose."""
    return np.stack([a[0].T, -a[1].T, a[2].T, -a[3].T])


def plane_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Planes of A @ B (exponents add): sixteen integer matrix products."""
    a, b = fit_int64(a.shape[-1], a, b)
    axr, axi, ayr, ayi = a
    bxr, bxi, byr, byi = b
    # (xa + ya r)(xb + yb r) = (xa xb + 2 ya yb) + (xa yb + ya xb) r,  r = sqrt(2)
    return np.stack([
        axr @ bxr - axi @ bxi + 2 * (ayr @ byr - ayi @ byi),
        axr @ bxi + axi @ bxr + 2 * (ayr @ byi + ayi @ byr),
        axr @ byr - axi @ byi + ayr @ bxr - ayi @ bxi,
        axr @ byi + axi @ byr + ayr @ bxi + ayi @ bxr,
    ])


def planes_from_scalars(rows: Sequence[Sequence[ExactScalar]]) -> tuple[np.ndarray, int]:
    """Object-dtype planes of a matrix of scalars and their shared exponent."""
    comps = [[a.components for a in row] for row in rows]
    e = max(c[4] for row in comps for c in row)
    planes = np.empty((4, len(comps), len(comps[0])), dtype=object)
    for i, row in enumerate(comps):
        for j, (xr, xi, yr, yi, ea) in enumerate(row):
            shift = e - ea
            planes[:, i, j] = (xr << shift, xi << shift, yr << shift, yi << shift)
    return planes, e


def scalars_from_planes(planes: np.ndarray, e: int) -> list[list[ExactScalar]]:
    """The matrix of canonical scalars that (4, rows, cols) planes at exponent e hold."""
    xr, xi, yr, yi = (p.tolist() for p in planes)
    return [
        [ExactScalar(*entry, e) for entry in zip(*row)]
        for row in zip(xr, xi, yr, yi)
    ]
