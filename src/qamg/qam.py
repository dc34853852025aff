"""Coin-indexed games: per-coin spectra, repetition, and certificate tables.

A two-message game fixes a family of verifier circuits indexed by Arthur's
coin string; Merlin answers the announced coins with a witness.  The game's
value is the coin-average of per-coin optimal acceptance, repetition of the
game multiplies spectra coordinatewise, and exact per-coin certificates
reduce the accept/reject promise to integer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence, Union

import numpy as np

from .amplification import (
    GapCertificate,
    QmaInstance,
    Rational,
    amplified_counting_certificate,
    as_fraction,
    threshold_count,
)
from .circuits import Gate, StateVector, apply_circuit, circuit
from .spectra import eig_hermitian, rejection_operator

REPEATED_GAME_QUBIT_CAP = 12
_REPETITION_BATCH_ENTRIES = 1 << 20  # matrix entries per stacked repetition eigensolve
_EXHAUSTIVE_COIN_CAP = 12  # beyond 2^12 coins, sample
_INDETERMINATE_TOL = 1e-9  # a coin's optimum this close to 1/3 or 2/3 still carries a requirement


def coin_strings(s: int) -> list[str]:
    return ["".join(bits) for bits in product("01", repeat=s)]


@dataclass(frozen=True)
class QamInstance:
    """Coin-indexed verifier family sharing message/workspace arities."""

    s: int
    family: dict
    m: int
    k: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.s < 0:
            raise ValueError("coin count must be nonnegative")
        if not (0 <= self.b < self.a <= 1):
            raise ValueError(f"thresholds need 0 <= b < a <= 1, got a={self.a}, b={self.b}")
        expected = set(coin_strings(self.s))
        if set(self.family) != expected:
            raise ValueError(
                f"family must cover all {1 << self.s} coin strings of length {self.s}"
            )
        for y, circ in self.family.items():
            if circ.width != self.m + self.k:
                raise ValueError(f"coin {y!r}: circuit width {circ.width} != m+k")

    def coins(self) -> list[str]:
        return coin_strings(self.s)

    @cached_property
    def _verifiers(self) -> dict:
        # circuit -> QmaInstance; coins with equal circuits share one verifier
        return {circ: QmaInstance(circ, self.m, self.k, self.a, self.b)
                for circ in self.family.values()}

    def coin_verifier(self, y: str) -> QmaInstance:
        """Coin y's one-message verifier, with the game's arities and thresholds.

        Fixing the coins leaves a QMA verifier, so its operator and clamped
        spectrum are the `QmaInstance` ones, built on first use and shared
        by every coin with the same circuit.
        """
        return self._verifiers[self.family[y]]

    def complement_gap(self) -> float:
        """Largest entry of |Q0 + Q1 - I| over the distinct coin circuits."""
        eye = np.eye(1 << self.m)
        gaps = (
            np.abs(rejection_operator(circ, self.m, self.k) + verifier.q_operator() - eye).max()
            for circ, verifier in self._verifiers.items()
        )
        return float(max(gaps))


def _witness_vec(w) -> np.ndarray:
    if isinstance(w, StateVector):
        w = w.to_float().vec if w.exact else w.vec
    v = np.asarray(w, dtype=np.complex128)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("strategy witnesses must be normalized")
    return v


def qam_value(inst: QamInstance, strategy: dict) -> float:
    """Coin-average acceptance of a concrete per-coin witness assignment."""
    total = 0.0
    for y in inst.coins():
        if y not in strategy:
            raise KeyError(f"strategy missing coin {y!r}")
        psi = _witness_vec(strategy[y])
        q = inst.coin_verifier(y).q_operator()
        total += float(np.real(psi.conj() @ q @ psi))
    return total / (1 << inst.s)


def optimal_qam_value(inst: QamInstance) -> float:
    """Coin-average of per-coin top eigenvalues (best possible Merlin)."""
    tops = (inst.coin_verifier(y).spectrum.eigenvalues[0] for y in inst.coins())
    return float(sum(tops)) / (1 << inst.s)


def multilinear_f(p_values: Sequence[Rational], threshold: Rational):
    """Probability that independent Bernoulli(X_i) outcomes total >= threshold.

    Multilinear and nondecreasing in each coordinate; exact when every input
    is an exact rational.
    """
    exact = all(isinstance(p, (Fraction, int, str)) for p in p_values)
    xs = [as_fraction(p) if exact else float(p) for p in p_values]
    for x in xs:
        if not 0 <= x <= 1:
            raise ValueError(f"arguments must lie in [0,1], got {x}")
    one = Fraction(1) if exact else 1.0
    counts = [one]  # counts[w] = Pr[w successes so far]
    for x in xs:
        nxt = [one * 0] * (len(counts) + 1)
        for w, c in enumerate(counts):
            nxt[w] += c * (one - x)
            nxt[w + 1] += c * x
        counts = nxt
    t = as_fraction(threshold)
    return sum(c for w, c in enumerate(counts) if w >= t)


def parallel_repetition_values(
    inst: QamInstance, n: int, y_tuples: Optional[Sequence[Sequence[str]]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue of the threshold tensor sum vs independent play, per coin tuple.

    The repeated game over announced coins y_1..y_n accepts when the per-round
    outcome count meets n(a+b)/2; its optimal value is the top eigenvalue of
    the sum over accepted patterns of the tensored outcome operators, and
    equals the multilinear tail evaluated at the per-round top eigenvalues.
    Tuples default to itertools.product(inst.coins(), repeat=n); their sums are
    broadcast outer products, solved in stacks of _REPETITION_BATCH_ENTRIES at most.
    """
    if n < 1:
        raise ValueError(f"need at least one round, got {n}")
    if n * inst.m > REPEATED_GAME_QUBIT_CAP:
        raise ValueError(f"tensor dimension 2^{n * inst.m} exceeds cap 2^{REPEATED_GAME_QUBIT_CAP}")
    y_tuples = list(product(inst.coins(), repeat=n)) if y_tuples is None else y_tuples
    if any(len(y_tuple) != n for y_tuple in y_tuples):
        raise ValueError(f"expected {n} coin strings in every tuple")
    used, rows = np.unique(np.array(y_tuples, dtype=object), return_inverse=True)
    unknown = [y for y in used if y not in inst.family]
    if unknown:
        raise KeyError(f"unknown coin string {unknown[0]!r}")
    verifiers = [inst.coin_verifier(y) for y in used]
    outcome_ops = np.stack(  # [coin, z]
        [(np.eye(1 << inst.m) - v.q_operator(), v.q_operator()) for v in verifiers]
    )
    rows = rows.reshape(len(y_tuples), n)
    t0 = threshold_count(n, inst.a, inst.b)
    accepted = [z for z in product((0, 1), repeat=n) if sum(z) >= t0]
    step = max(1, _REPETITION_BATCH_ENTRIES >> (2 * n * inst.m))
    lams = []
    for chunk in (rows[lo : lo + step] for lo in range(0, len(rows), step)):
        total = 0
        for z in accepted:
            term = outcome_ops[chunk[:, 0], z[0]]
            for i in range(1, n):
                kron = term[:, :, None, :, None] * outcome_ops[chunk[:, i], z[i]][:, None, :, None]
                term = kron.reshape(len(chunk), kron.shape[1] * kron.shape[2], -1)
            total = total + term
        lams.append(eig_hermitian(total).eigenvalues[:, 0])
    tops = [v.spectrum.eigenvalues[0] for v in verifiers]
    indep = [float(multilinear_f([tops[i] for i in row], t0)) for row in rows]
    return np.concatenate(lams), np.array(indep)


def parallel_repetition_value(
    inst: QamInstance, n: int, y_tuple: Sequence[str]
) -> tuple[float, float]:
    """parallel_repetition_values for the one coin tuple y_1..y_n."""
    lams, indep = parallel_repetition_values(inst, n, [tuple(y_tuple)])
    return float(lams[0]), float(indep[0])


def _shift_gates(gates: Sequence[Gate], offset: int) -> list[Gate]:
    return [Gate(g.kind, tuple(q + offset for q in g.qubits)) for g in gates]


def repeated_game_operator(inst: QamInstance, y_tuple: Sequence[str]) -> np.ndarray:
    """Circuit-level acceptance operator of the repeated game (small widths).

    Builds one wide circuit running each round's verifier on its own block and
    sums the Gram operators of all accepted per-round output patterns; must
    match the tensor construction of parallel_repetition_values.
    """
    n = len(y_tuple)
    block = inst.m + inst.k
    width = n * block
    if width > REPEATED_GAME_QUBIT_CAP:
        raise ValueError(f"repeated game width {width} exceeds cap {REPEATED_GAME_QUBIT_CAP}")
    gates: list[Gate] = []
    for i, y in enumerate(y_tuple):
        gates.extend(_shift_gates(inst.family[y].gates, i * block))
    big = circuit(width, gates)

    msg_dim = 1 << (n * inst.m)
    indices = []
    for joint in range(msg_dim):
        index = 0
        for i in range(n):
            j_i = (joint >> (inst.m * (n - 1 - i))) & ((1 << inst.m) - 1)
            index |= (j_i << inst.k) << (block * (n - 1 - i))
        indices.append(index)
    cols = apply_circuit(StateVector.columns(width, indices), big).vec

    idx = np.arange(1 << width)
    out_bits = [(idx >> (width - 1 - i * block)) & 1 for i in range(n)]
    t0 = threshold_count(n, inst.a, inst.b)
    total = np.zeros((msg_dim, msg_dim), dtype=np.complex128)
    for z in product((0, 1), repeat=n):
        if sum(z) < t0:
            continue
        mask = np.ones(1 << width, dtype=bool)
        for zi, bits in zip(z, out_bits):
            mask &= bits == zi
        sel = cols[mask, :]
        total += sel.conj().T @ sel
    return 0.5 * (total + total.conj().T)


@dataclass(frozen=True)
class MarkovReport:
    fraction_good: Union[float, Fraction]
    passes: bool
    precondition_ok: bool
    expected_error: Union[float, Fraction]
    mu_by_coin: dict
    exhaustive: bool


def markov_fractions(mu_values: Sequence[Rational], truth: str, tol: float = 0.0) -> MarkovReport:
    """Fraction of coins whose optimum clears the 2/3 / 1/3 cut for the truth label.

    Exact rational inputs are compared exactly; tol only loosens float cuts.
    """
    if truth not in ("yes", "no"):
        raise ValueError(f"truth must be yes or no, got {truth!r}")
    exact = all(isinstance(mu, (Fraction, int, str)) for mu in mu_values)
    vals = [as_fraction(mu) if exact else float(mu) for mu in mu_values]
    total = len(vals)
    if total == 0:
        raise ValueError("need at least one coin value")
    two_thirds = Fraction(2, 3) if exact else 2 / 3
    one_third = Fraction(1, 3) if exact else 1 / 3
    if truth == "yes":
        good = sum(1 for mu in vals if mu >= two_thirds - tol)
        err = sum(1 - mu for mu in vals) / total
    else:
        good = sum(1 for mu in vals if mu <= one_third + tol)
        err = sum(vals) / total
    fraction = Fraction(good, total) if exact else good / total
    precondition_ok = err <= (Fraction(1, 9) if exact else 1 / 9 + 1e-12)
    passes = fraction >= (Fraction(2, 3) if exact else 2 / 3 - 1e-12)
    return MarkovReport(fraction, passes, precondition_ok, err, {}, True)


def markov_check(inst: QamInstance, truth: str, seed: int = 0) -> MarkovReport:
    """Per-coin optimum scan for the 2/3-majority property.

    Exhaustive over coins up to 2^12; beyond that a seeded sample of 64*s
    coins stands in.  The 1/9 error precondition is reported, not enforced.
    """
    coins = inst.coins()
    exhaustive = inst.s <= _EXHAUSTIVE_COIN_CAP
    if not exhaustive:
        rng = np.random.Generator(np.random.Philox(key=seed))
        picks = rng.integers(0, 1 << inst.s, size=64 * inst.s)
        coins = [format(int(p), f"0{inst.s}b") for p in picks]
    mu = {y: float(inst.coin_verifier(y).spectrum.eigenvalues[0]) for y in coins}
    report = markov_fractions(list(mu.values()), truth, tol=1e-9)
    return replace(report, mu_by_coin=mu, exhaustive=exhaustive)


@dataclass(frozen=True)
class CoinCertificateRow:
    coin: str
    mu: float
    certificate: GapCertificate
    in_k: bool
    indeterminate: bool


def bp_pp_conditions(inst: QamInstance) -> list[CoinCertificateRow]:
    """Exact per-coin membership certificates after per-coin amplification.

    Each coin's verifier is amplified (witness-preserving) to error 2^-(m+2)
    and its integer certificate decides membership at the 1/2 threshold;
    coins with optimum strictly between 1/3 and 2/3 carry no requirement and
    are flagged indeterminate.
    """
    rows = []
    r = inst.m + 2
    for y in inst.coins():
        coin = inst.coin_verifier(y)
        mu = float(coin.spectrum.eigenvalues[0])
        cert = amplified_counting_certificate(replace(coin, a=Fraction(2, 3), b=Fraction(1, 3)), r)
        in_k = 2 * cert.h >= 2**cert.g
        indeterminate = (1 / 3 + _INDETERMINATE_TOL) < mu < (2 / 3 - _INDETERMINATE_TOL)
        rows.append(CoinCertificateRow(y, mu, cert, in_k, indeterminate))
    return rows
