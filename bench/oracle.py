"""Reference values for the benchmark's checks, computed apart from qamg.

Nothing here imports qamg.  Circuits are read from the text form that
instance files carry ("qubits N" then one gate per line) and simulated
densely: H, S and Toffoli are their 2x2, 2x2 and 8x8 matrices applied to a
tensor of basis columns.  Qubit 0 is the most significant bit of a basis
index, as in the instance format.  Spectra come from numpy.linalg.eigvalsh,
tails from exact integer sums or a Poisson-binomial recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

GATE_MATRICES = {
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0),
    "S": np.diag([1.0, 1.0j]).astype(np.complex128),
    "T": np.eye(8, dtype=np.complex128)[[0, 1, 2, 3, 4, 5, 7, 6]],
}


def parse(text: str) -> tuple[int, list[tuple[str, tuple[int, ...]]]]:
    """(width, [(gate, qubits), ...]) from circuit text."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0][0] != "qubits":
        raise ValueError("circuit text must start with 'qubits N'")
    width = int(lines[0][1])
    return width, [(ln[0], tuple(int(q) for q in ln[1:])) for ln in lines[1:]]


def hadamard_count(text: str) -> int:
    return sum(1 for kind, _ in parse(text)[1] if kind == "H")


def simulate(text: str, columns: np.ndarray) -> np.ndarray:
    """Apply the circuit to each column of a (2^n, c) array."""
    width, gates = parse(text)
    cols = columns.shape[1]
    state = np.asarray(columns, dtype=np.complex128).reshape([2] * width + [cols])
    for kind, qubits in gates:
        a = len(qubits)
        gate = GATE_MATRICES[kind].reshape([2] * (2 * a))
        state = np.tensordot(gate, state, axes=(list(range(a, 2 * a)), list(qubits)))
        state = np.moveaxis(state, list(range(a)), list(qubits))
    return state.reshape(1 << width, cols)


def unitary(text: str) -> np.ndarray:
    width = parse(text)[0]
    return simulate(text, np.eye(1 << width, dtype=np.complex128))


def _output_one(width: int) -> np.ndarray:
    return (np.arange(1 << width) >> (width - 1)) & 1 == 1


def acceptance_operator(text: str, m: int, k: int) -> np.ndarray:
    """Q[i,j] = <i|A^dag P1 A|j> on the message register, workspace in |0>."""
    width = parse(text)[0]
    if width != m + k:
        raise ValueError(f"circuit width {width} != m + k = {m + k}")
    starts = np.zeros((1 << width, 1 << m), dtype=np.complex128)
    starts[np.arange(1 << m) << k, np.arange(1 << m)] = 1.0
    cols = simulate(text, starts)[_output_one(width)]
    return cols.conj().T @ cols


def spectrum(op: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending."""
    return np.linalg.eigvalsh(op)[::-1]


def top_eigenvalue(op: np.ndarray) -> float:
    return float(spectrum(op)[0])


def one_coin_tests(v1: str, v2: str, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(tails, heads) test operators of the one-coin game on (work k, message m).

    Tails undoes the first transformation and asks for the work register at
    zero; heads finishes the verification and asks for the output qubit at 1.
    """
    u1, u2 = unitary(v1), unitary(v2)
    idx = np.arange(1 << (k + m))
    work_zero = (idx >> m == 0).astype(np.complex128)
    tails = (u1 * work_zero) @ u1.conj().T
    heads = (u2.conj().T * _output_one(k + m)) @ u2
    return tails, heads


def honest_one_coin_value(v1: str, v2: str, k: int, m: int) -> float:
    """Coin average for the prover that sends V1|0> and answers with identity."""
    tails, heads = one_coin_tests(v1, v2, k, m)
    phi = unitary(v1)[:, 0]
    return float(np.real(np.vdot(phi, tails @ phi) + np.vdot(phi, heads @ phi))) / 2.0


def threshold(n: int, a: Fraction, b: Fraction) -> int:
    """Smallest agreement count meeting n(a+b)/2."""
    return math.ceil(Fraction(n) * (a + b) / 2)


def amplified_events(a: Fraction, b: Fraction, r: int) -> int:
    """N = 8 q^2 r measurement events for error 2^-r, q the least integer with 1/q <= a - b."""
    q = math.ceil(1 / (a - b))
    return 8 * q * q * r


def binomial_tail_exact(p: Fraction, n: int, t0: int) -> Fraction:
    """Pr[Binomial(n, p) >= t0] as an exact fraction, by integer sums."""
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    total = sum(math.comb(n, j) * num**j * (den - num) ** (n - j) for j in range(max(t0, 0), n + 1))
    return Fraction(total, den**n)


def poisson_binomial_tail(ps: Sequence[float], t0: int) -> float:
    """Pr[sum of independent Bernoulli(p_i) >= t0] by the counting recurrence."""
    dist = np.zeros(len(ps) + 1)
    dist[0] = 1.0
    for i, p in enumerate(ps):
        dist[1 : i + 2] = dist[1 : i + 2] * (1.0 - p) + dist[: i + 1] * p
        dist[0] *= 1.0 - p
    return float(dist[max(t0, 0) :].sum())


def binomial_tail(p: float, n: int, t0: int) -> float:
    return poisson_binomial_tail([float(p)] * n, t0)


def as_dyadic(value: float, bits: int) -> Fraction:
    """The multiple of 2^-bits nearest to value; raises if it is not within 1e-12."""
    exact = Fraction(round(value * (1 << bits)), 1 << bits)
    if abs(float(exact) - value) > 1e-12:
        raise ValueError(f"{value} is not a multiple of 2^-{bits}")
    return exact
