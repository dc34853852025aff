"""Circuits over the {Toffoli, Hadamard, i-shift} gate set and their statevectors.

Qubit 0 is the leftmost / most significant bit of a basis index.  This module
is the one home of the verifier register convention: message j on m qubits
enters at basis index j << k (`message_rows`), on top of a k-qubit workspace
in |0^k>; qubit 0 is the output qubit (`output_one_mask`, the projector Pi);
the workspace is the last k qubits (`suffix_zero_mask`, the projector Delta),
or the first k in a three-message verifier (`prefix_zero_mask`).

One kernel simulates every circuit: a `StateVector` holds one state or a
(2^n, B) block of B columns, and each gate acts in place on all columns
through reshaped views.  Hadamard and the i-shift act on a
(2^q, 2, 2^(n-1-q), B) view, and Toffoli swaps two slices of a (2,)*n + (B,)
view.  Operators, unitaries and the live branches of a trajectory tree are
each simulated as one block.

Float blocks are complex128.  Exact blocks hold Gaussian-integer coefficient
planes for 1 and sqrt(2) with a single shared power-of-two exponent, so gate
application is integer-only: Hadamard is add/subtract plus an exponent bump,
the i-shift is a component rotation, and Toffoli is a slice swap.  After each
circuit the power of two that every entry shares is divided out, so planes
stay int64 and widen to Python ints only past 62 bits.  Exact inner products,
Gram matrices and composed-unitary passes are plane products
(`exact.plane_matmul`), which run on float64 BLAS whenever a magnitude bound
proves every partial sum an integer below 2^53, so exact in any order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exact import (
    ExactScalar,
    fit_int64,
    plane_adjoint,
    plane_matmul,
    planes_from_scalars,
    scalars_from_planes,
)

FLOAT_WIDTH_CAP = 14
EXACT_WIDTH_CAP = 10
_UNITARY_WIDTH_CAP = 10
_INT64_SAFE_BITS = 62

_GATE_ARITY = {"H": 1, "S": 1, "T": 3}


class CircuitParseError(ValueError):
    """Malformed circuit text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class WidthCapError(ValueError):
    """Requested register width exceeds the configured cap."""


def width_cap(exact: bool) -> int:
    raw = os.environ.get("QAMG_WIDTH_CAP")
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValueError(f"QAMG_WIDTH_CAP must be an integer, got {raw!r}") from exc
        if cap < 1:
            raise ValueError(f"QAMG_WIDTH_CAP must be positive, got {cap}")
        return cap
    return EXACT_WIDTH_CAP if exact else FLOAT_WIDTH_CAP


def check_width(n: int, exact: bool) -> None:
    """Raise WidthCapError past the width cap; called before any 2^n array is built."""
    cap = width_cap(exact)
    if n > cap:
        raise WidthCapError(f"width {n} exceeds {'exact' if exact else 'float'} cap {cap}")


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        arity = _GATE_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")


def hadamard(q: int) -> Gate:
    return Gate("H", (q,))


def ishift(q: int) -> Gate:
    """|1> -> i|1> on qubit q."""
    return Gate("S", (q,))


def toffoli(c1: int, c2: int, t: int) -> Gate:
    return Gate("T", (c1, c2, t))


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        for g in self.gates:
            if max(g.qubits) >= self.width:
                raise ValueError(f"gate {g} out of range for width {self.width}")

    def __len__(self) -> int:
        return len(self.gates)

    def hadamard_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "H")


def circuit(width: int, gates: Iterable[Gate] = ()) -> Circuit:
    return Circuit(width, tuple(gates))


def parse_circuit(text: str) -> Circuit:
    width: int | None = None
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0]
        if width is None:
            if op != "qubits":
                raise CircuitParseError(line_no, f"expected 'qubits N' header, got {raw!r}")
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise CircuitParseError(line_no, f"bad qubit count in {raw!r}")
            width = int(parts[1])
            continue
        if op == "qubits":
            raise CircuitParseError(line_no, "duplicate 'qubits' header")
        arity = _GATE_ARITY.get(op)
        if arity is None:
            raise CircuitParseError(line_no, f"unknown gate {op!r}")
        args = parts[1:]
        if len(args) != arity or not all(a.lstrip("-").isdigit() for a in args):
            raise CircuitParseError(line_no, f"{op} expects {arity} qubit index(es), got {raw!r}")
        qubits = tuple(int(a) for a in args)
        try:
            gate = Gate(op, qubits)
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from exc
        if max(qubits) >= width:
            raise CircuitParseError(line_no, f"qubit index out of range in {raw!r}")
        gates.append(gate)
    if width is None:
        raise CircuitParseError(1, "missing 'qubits N' header")
    return Circuit(width, tuple(gates))


def serialize_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.width}"]
    lines.extend(f"{g.kind} {' '.join(str(q) for q in g.qubits)}" for g in c.gates)
    return "\n".join(lines) + "\n"


def dagger(c: Circuit) -> Circuit:
    """Inverse circuit; the i-shift inverse is recorded as three i-shifts."""
    inv: list[Gate] = []
    for g in reversed(c.gates):
        if g.kind == "S":
            inv.extend([g, g, g])
        else:
            inv.append(g)
    return Circuit(c.width, tuple(inv))


# --- library-level macros (gate lists, ancilla-free conjugations) ---


def x_gates(q: int) -> list[Gate]:
    """X = H S S H (H Z H with Z = S^2)."""
    return [hadamard(q), ishift(q), ishift(q), hadamard(q)]


def cnot_gates(control: int, target: int, borrow: int) -> list[Gate]:
    """CNOT from two Toffolis; `borrow` may hold any state and is restored."""
    return (
        [toffoli(control, borrow, target)]
        + x_gates(borrow)
        + [toffoli(control, borrow, target)]
        + x_gates(borrow)
    )


def swap_gates(a: int, b: int, borrow: int) -> list[Gate]:
    return (
        cnot_gates(a, b, borrow)
        + cnot_gates(b, a, borrow)
        + cnot_gates(a, b, borrow)
    )


def multi_controlled_x_gates(
    controls: Sequence[int], target: int, borrows: Sequence[int]
) -> list[Gate]:
    """X on `target` controlled on all of `controls` being 1.

    Borrow qubits may hold arbitrary states and are returned unchanged.  One
    borrow (distinct from controls and target) suffices for any control count
    because the recursion reuses the outer target as the inner borrow.
    """
    used = set(controls) | {target} | set(borrows)
    if len(used) != len(controls) + 1 + len(borrows):
        raise ValueError("controls, target, and borrows must be distinct")
    n = len(controls)
    if n == 0:
        return x_gates(target)
    if n == 1:
        if not borrows:
            raise ValueError("1-controlled X needs one borrow qubit")
        return cnot_gates(controls[0], target, borrows[0])
    if n == 2:
        return [toffoli(controls[0], controls[1], target)]
    if not borrows:
        raise ValueError(f"{n}-controlled X needs a borrow qubit")
    b = borrows[0]
    # t ^= (b ^ c_rest)*c_last twice cancels the dirty borrow contribution.
    inner = multi_controlled_x_gates(controls[:-1], b, list(borrows[1:]) + [target])
    step = inner + [toffoli(b, controls[-1], target)]
    return step + step


# --- the verifier register convention ---


def message_rows(m: int, k: int) -> range:
    """Basis indices of |j>|0^k> for every message j on m qubits: row j << k.

    A lazy range, so no 2^m array exists before a width check.
    """
    return range(0, 1 << (m + k), 1 << k)


def output_one_mask(n: int, q: int = 0) -> np.ndarray:
    """Outcome 1 iff qubit q reads 1 (qubit 0 is the verifier's output)."""
    if not 0 <= q < n:
        raise ValueError(f"qubit {q} out of range for width {n}")
    return (np.arange(1 << n) >> (n - 1 - q)) & 1 == 1


def suffix_zero_mask(n: int, k: int) -> np.ndarray:
    """Outcome 1 iff the last k qubits all read 0 (the workspace restored); k = 0 always passes."""
    if not 0 <= k <= n:
        raise ValueError(f"suffix length {k} out of range for width {n}")
    return np.arange(1 << n) & ((1 << k) - 1) == 0


def prefix_zero_mask(n: int, k: int) -> np.ndarray:
    """Outcome 1 iff the first k qubits all read 0 (a three-message verifier's workspace)."""
    if not 0 <= k <= n:
        raise ValueError(f"prefix length {k} out of range for width {n}")
    return np.arange(1 << n) >> (n - k) == 0


# --- statevectors ---


class StateVector:
    """Dense states on n qubits: one column, or a block of B columns.

    Float data is `vec`, of shape (2^n,) for one state or (2^n, B) for a
    block.  Exact data is `planes`, of shape (4,) + that: Re x, Im x, Re y and
    Im y of every amplitude (x + y*sqrt(2)) / 2**exponent, with one exponent
    for the whole block.  Gates act on every column at once, in place, through
    reshaped views.
    """

    __slots__ = ("n", "exact", "vec", "planes", "exponent", "_mag_bits")

    def __init__(
        self,
        n: int,
        exact: bool,
        vec: np.ndarray | None = None,
        planes: np.ndarray | None = None,
        exponent: int = 0,
        mag_bits: int | None = None,
        skip_cap_check: bool = False,
    ) -> None:
        if not skip_cap_check:
            check_width(n, exact)
        self.n = n
        self.exact = exact
        # gates write through reshaped views, which must not be copies
        self.vec = None if vec is None else np.ascontiguousarray(vec)
        self.planes = None if planes is None else np.ascontiguousarray(planes)
        self.exponent = exponent
        # an upper bound on the bit length of every |plane entry|
        self._mag_bits = mag_bits
        if exact and mag_bits is None:
            self._normalize()

    @classmethod
    def columns(cls, n: int, indices: Iterable[int], exact: bool = False) -> StateVector:
        """Block whose column j is the basis state |indices[j]>."""
        check_width(n, exact)
        indices = list(indices)
        for index in indices:
            if not 0 <= index < (1 << n):
                raise ValueError(f"basis index {index} out of range for width {n}")
        shape = (1 << n, len(indices))
        cols = np.arange(len(indices))
        if exact:
            planes = np.zeros((4,) + shape, dtype=np.int64)
            planes[0, indices, cols] = 1
            return cls(n, True, planes=planes, mag_bits=1)
        vec = np.zeros(shape, dtype=np.complex128)
        vec[indices, cols] = 1.0
        return cls(n, False, vec=vec)

    @classmethod
    def basis(cls, n: int, index: int = 0, exact: bool = False) -> StateVector:
        return cls.columns(n, [index], exact).column(0)

    @classmethod
    def from_amplitudes(cls, amps: Sequence, exact: bool = False) -> StateVector:
        size = len(amps)
        n = size.bit_length() - 1
        if 1 << n != size:
            raise ValueError(f"amplitude count {size} is not a power of two")
        if not exact:
            vec = np.asarray(amps, dtype=np.complex128).copy()
            return cls(n, False, vec=vec)
        if not all(isinstance(a, ExactScalar) for a in amps):
            raise TypeError("exact states take ExactScalar amplitudes")
        planes, e = planes_from_scalars([amps])
        return cls(n, True, planes=planes[:, 0, :], exponent=e)

    def _normalize(self) -> None:
        """Divide out the power of two every entry shares, keeping the exponent >= 0.

        Amplitudes keep their values.  `_mag_bits` becomes the largest bit
        length, and object planes return to int64 when that fits.
        """
        p = self.planes
        common = int(np.bitwise_or.reduce(p, axis=None))
        shift = min((common & -common).bit_length() - 1, self.exponent) if common else self.exponent
        if shift:
            p >>= shift
            self.exponent -= shift
        self._mag_bits = max(1, int(np.abs(p).max(initial=0)).bit_length())
        if p.dtype == object and self._mag_bits <= _INT64_SAFE_BITS:
            self.planes = p.astype(np.int64)

    @property
    def _data(self) -> np.ndarray:
        return self.planes if self.exact else self.vec

    def _like(self, data: np.ndarray) -> StateVector:
        """A state of the same mode and exponent holding `data`."""
        if self.exact:
            return StateVector(
                self.n, True, planes=data, exponent=self.exponent,
                mag_bits=self._mag_bits, skip_cap_check=True,
            )
        return StateVector(self.n, False, vec=data, skip_cap_check=True)

    def _view(self, *shape: int) -> np.ndarray:
        """The data as (planes,) + shape + (B,), a view."""
        lead = (4,) if self.exact else ()
        return self._data.reshape(lead + shape + (-1,))

    def copy(self) -> StateVector:
        return self._like(self._data.copy())

    def column(self, j: int) -> StateVector:
        """Column j of a block, as a single state."""
        return self._like(self._view(1 << self.n)[..., j].copy())

    def select(self, cols) -> StateVector:
        """The block of the chosen columns (indices or a boolean mask)."""
        return self._like(self._view(1 << self.n)[..., cols])

    # gate application (in place, every column at once)

    def apply_gate(self, g: Gate) -> None:
        n = self.n
        if g.kind == "T":
            c1, c2, t = g.qubits
            lo = [slice(None)] * n
            lo[c1] = lo[c2] = 1
            hi = list(lo)
            lo[t], hi[t] = 0, 1
            v = self._view(*(2,) * n)
            a, b = v[(..., *lo, slice(None))], v[(..., *hi, slice(None))]
            tmp = a.copy()
            a[...] = b
            b[...] = tmp
            return
        if (
            g.kind == "H" and self.exact and self.planes.dtype == np.int64
            and self._mag_bits + 2 > _INT64_SAFE_BITS
        ):
            self._normalize()  # the running bound may be loose; widen on the real size
            if self._mag_bits + 2 > _INT64_SAFE_BITS:
                self.planes = self.planes.astype(object)
        q = g.qubits[0]
        v = self._view(1 << q, 2, 1 << (n - 1 - q))
        zero, one = v[..., 0, :, :], v[..., 1, :, :]
        if g.kind == "S":
            if self.exact:
                # i*(re + i im) = -im + i re, for x and for y
                re, im = one[0::2], one[1::2]
                tmp = re.copy()
                np.negative(im, out=re)
                im[...] = tmp
            else:
                one *= 1j
        elif g.kind == "H":
            s, d = zero + one, zero - one
            if self.exact:
                # (x + y*sqrt2)/sqrt2 = (2y + x*sqrt2)/2
                zero[:2], zero[2:] = 2 * s[2:], s[:2]
                one[:2], one[2:] = 2 * d[2:], d[:2]
                self.exponent += 1
                self._mag_bits += 2
            else:
                inv = 1.0 / np.sqrt(2.0)
                zero[...] = s * inv
                one[...] = d * inv
        else:  # pragma: no cover - Gate validates kinds
            raise ValueError(f"unknown gate kind {g.kind!r}")

    # accessors

    def amplitude(self, i: int):
        if self.exact:
            return ExactScalar(*(int(v) for v in self.planes[:, i]), self.exponent)
        return complex(self.vec[i])

    def amplitudes(self) -> list:
        return [self.amplitude(i) for i in range(1 << self.n)]

    def to_float(self) -> StateVector:
        if not self.exact:
            return self.copy()
        scale = 0.5 ** self.exponent
        r2 = np.sqrt(2.0)
        xr, xi, yr, yi = self.planes.astype(np.float64)
        vec = ((xr + r2 * yr) + 1j * (xi + r2 * yi)) * scale
        return StateVector(self.n, False, vec=vec.astype(np.complex128), skip_cap_check=True)

    def norms_sq(self) -> list:
        """Squared norm of every column: Fractions in exact mode, floats otherwise.

        An exact norm is rational / 2^(2e) straight from the integer planes;
        a nonzero sqrt(2) part raises ValueError.
        """
        if not self.exact:
            v = self._view(1 << self.n)
            return [float(x) for x in (v.real ** 2 + v.imag ** 2).sum(axis=0)]
        (planes,) = fit_int64(1 << self.n, self._view(1 << self.n))
        xr, xi, yr, yi = planes
        if (xr * yr + xi * yi).sum(axis=0).any():
            raise ValueError("squared norm has a nonzero sqrt(2) part")
        rational = (xr * xr + xi * xi + 2 * (yr * yr + yi * yi)).sum(axis=0)
        denominator = 1 << 2 * self.exponent
        return [Fraction(int(r), denominator) for r in rational]

    def norm_sq(self):
        if self.exact:
            return self.norms_sq()[0]
        return float(np.vdot(self.vec, self.vec).real)

    def gram_planes(self) -> tuple[np.ndarray, int]:
        """Planes and exponent of the exact Gram matrix of a block's columns."""
        v = self._view(1 << self.n)
        return plane_matmul(plane_adjoint(v), v), 2 * self.exponent

    def gram(self) -> list[list[ExactScalar]]:
        """Exact Gram matrix of a block's columns: entry [i][j] is <col_i|col_j>."""
        return scalars_from_planes(*self.gram_planes())

    def transform(self, planes: np.ndarray, exponent: int) -> StateVector:
        """A new exact block: the 2^n x 2^n matrix that `planes` hold at
        `exponent` applied to every column, as one plane product."""
        out = plane_matmul(planes, self._view(1 << self.n))
        return StateVector(
            self.n, True, planes=out, exponent=self.exponent + exponent, skip_cap_check=True
        )

    def project(self, mask: np.ndarray) -> StateVector:
        """Zero out amplitudes where mask is False (unnormalized), in every column."""
        out = self.copy()
        out._view(1 << self.n)[..., ~mask, :] = 0
        return out

    def split(self, mask: np.ndarray) -> StateVector:
        """Both branches of the measurement {mask, ~mask} on every column.

        Column 2b of the result is column b projected on mask (outcome 1),
        column 2b+1 its projection on the complement (outcome 0); unnormalized.
        """
        cols = self._view(1 << self.n)[..., None]
        keep = mask[:, None, None]
        both = np.concatenate([np.where(keep, cols, 0), np.where(keep, 0, cols)], axis=-1)
        return self._like(both.reshape(both.shape[:-2] + (-1,)))

    def live_columns(self) -> np.ndarray:
        """Boolean mask of the columns with a nonzero amplitude."""
        v = self._view(1 << self.n)
        return (v != 0).reshape(-1, v.shape[-1]).any(axis=0)


def apply_gates(state: StateVector, gates: Iterable[Gate]) -> StateVector:
    """A new state: `gates` applied to every column of `state`."""
    out = state.copy()
    for g in gates:
        out.apply_gate(g)
    if out.exact:
        out._normalize()
    return out


def apply_circuit(state: StateVector, c: Circuit) -> StateVector:
    if c.width != state.n:
        raise ValueError(f"circuit width {c.width} != state width {state.n}")
    return apply_gates(state, c.gates)


def measure_projector(state: StateVector, mask: np.ndarray):
    """Measure {~mask, mask} (outcomes 0 and 1); returns (prob_one, post_0, post_1).

    Exact mode returns unnormalized branch states (their squared norms are the
    branch probabilities).  Float mode renormalizes and returns None for a
    zero-probability branch.
    """
    one = state.project(mask)
    zero = state.project(~mask)
    if state.exact:
        return one.norm_sq(), zero, one
    p_one = one.norm_sq()
    p_zero = zero.norm_sq()
    if p_one > 0.0:
        one.vec /= np.sqrt(p_one)
    else:
        one = None
    if p_zero > 0.0:
        zero.vec /= np.sqrt(p_zero)
    else:
        zero = None
    return p_one, zero, one


def to_unitary(c: Circuit) -> np.ndarray:
    """Dense complex matrix of the circuit (small widths only)."""
    if c.width > _UNITARY_WIDTH_CAP:
        raise WidthCapError(f"to_unitary capped at width {_UNITARY_WIDTH_CAP}, got {c.width}")
    return apply_circuit(StateVector.columns(c.width, range(1 << c.width)), c).vec


def exact_unitary(c: Circuit) -> StateVector:
    """The circuit's matrix as one exact block: column j is its image of |j>."""
    return apply_circuit(StateVector.columns(c.width, range(1 << c.width), exact=True), c)


def to_exact_columns(c: Circuit) -> list[list[ExactScalar]]:
    """Columns of the circuit's matrix as ExactScalar lists."""
    block = exact_unitary(c)
    return scalars_from_planes(block.planes.transpose(0, 2, 1), block.exponent)
