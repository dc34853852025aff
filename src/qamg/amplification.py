"""Witness-preserving amplification and exact counting certificates.

The alternating-measurement procedure replays a verifier forward and backward
against the same witness, measuring the output qubit after each forward pass
and the workspace-restored projector after each backward pass.  The agreement
pattern of consecutive outcomes is binomially distributed with the witness's
acceptance probability as bias, so error shrinks exponentially in the number
of events while the witness register never grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from .circuits import (
    Circuit,
    StateVector,
    apply_circuit,
    check_width,
    dagger,
    exact_unitary,
    message_rows,
    output_one_mask,
    suffix_zero_mask,
    to_unitary,
)
from .exact import ExactScalar, plane_adjoint, plane_matmul, planes_from_scalars
from .spectra import (
    SpectralDecomposition,
    acceptance_operator,
    acceptance_operator_exact,
    acceptance_spectrum,
    accepted_columns_exact,
)

ENUMERATE_EVENT_CAP = 20
_CERT_EXPONENT_CAP = 100_000
_FRAME_TOL = 1e-9  # eigenvector residual and distance of p from 0 and 1

Rational = Union[Fraction, int, str, float]


def as_fraction(x: Rational) -> Fraction:
    """Exact threshold values; floats convert by their binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class QmaInstance:
    """Single-message game: verifier on m witness qubits plus k work qubits."""

    verifier: Circuit
    m: int
    k: int
    a: Fraction
    b: Fraction
    label: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.m < 0 or self.k < 0 or self.verifier.width != self.m + self.k:
            raise ValueError(
                f"verifier width {self.verifier.width} != m+k = {self.m}+{self.k}"
            )
        if not (0 <= self.b < self.a <= 1):
            raise ValueError(f"thresholds need 0 <= b < a <= 1, got a={self.a}, b={self.b}")
        if self.label not in (None, "yes", "no"):
            raise ValueError(f"label must be yes/no/None, got {self.label!r}")

    @property
    def gap_q(self) -> int:
        """Smallest integer q with 1/q <= a - b."""
        return math.ceil(1 / (self.a - self.b))

    @cached_property
    def _q_float(self) -> np.ndarray:
        q = acceptance_operator(self.verifier, self.m, self.k)
        q.flags.writeable = False
        return q

    def q_operator(self) -> np.ndarray:
        """Float acceptance operator, built on first use; shared, so read-only."""
        return self._q_float

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """Eigensystem of q_operator(), eigenvalues clamped to [0, 1], solved on
        first use; shared, so read-only."""
        decomp = acceptance_spectrum(self.q_operator())
        decomp.eigenvalues.flags.writeable = False
        decomp.vectors.flags.writeable = False
        return decomp

    @cached_property
    def unitary(self) -> np.ndarray:
        """The verifier expanded once; shared, so read-only."""
        u = to_unitary(self.verifier)
        u.flags.writeable = False
        return u

    def q_operator_exact(self) -> list[list[ExactScalar]]:
        return acceptance_operator_exact(self.verifier, self.m, self.k)


@dataclass(frozen=True)
class TrajectoryDistribution:
    """Distribution over agreement patterns z; exact when probs are Fractions."""

    n_events: int
    probs: dict
    accept_threshold: int  # smallest accepting agreement count

    def total(self):
        return sum(self.probs.values())

    def acceptance_probability(self):
        return sum(p for z, p in self.probs.items() if sum(z) >= self.accept_threshold)

    def weight_distribution(self) -> dict:
        out: dict = {}
        for z, p in self.probs.items():
            w = sum(z)
            out[w] = out.get(w, 0) + p
        return out


def _embed_witness(witness: StateVector, m: int, k: int) -> StateVector:
    """Witness on m qubits joined with k work qubits in |0..0> (message first)."""
    if witness.n != m:
        raise ValueError(f"witness width {witness.n} != m = {m}")
    rows = message_rows(m, k)
    if witness.exact:
        planes = np.zeros((4, 1 << (m + k)), dtype=witness.planes.dtype)
        planes[:, rows] = witness.planes
        return StateVector(
            m + k, True, planes=planes, exponent=witness.exponent,
            mag_bits=witness._mag_bits,
        )
    vec = np.zeros(1 << (m + k), dtype=np.complex128)
    vec[rows] = witness.vec
    return StateVector(m + k, False, vec=vec)


def _check_normalized(witness: StateVector) -> None:
    ns = witness.norm_sq()
    if witness.exact:
        if ns != 1:
            raise ValueError("witness must be exactly normalized in exact mode")
    elif abs(ns - 1.0) > 1e-9:
        raise ValueError(f"witness norm^2 = {ns}, not normalized")


_U64 = (1 << 64) - 1
# Philox4x64-10: the round multipliers split into 32-bit halves, and each
# round's Weyl key increment, as columns
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_HALVES = (_PHILOX_M & np.uint64(0xFFFFFFFF), _PHILOX_M >> np.uint64(32))
_PHILOX_BUMPS = np.array(
    [[[r * 0x9E3779B97F4A7C15 & _U64], [r * 0xBB67AE8584CAA73B & _U64]] for r in range(10)],
    dtype=np.uint64,
)


def _philox_keys(seed: int, draws: int) -> np.ndarray:
    """(2, draws) uint64 low and high words of the 128-bit keys seed..seed+draws-1."""
    if seed < 0 or seed + draws > 1 << 128:
        raise ValueError(f"Philox keys {seed}..{seed + draws - 1} must lie in [0, 2**128)")
    low = np.uint64(seed & _U64) + np.arange(draws, dtype=np.uint64)  # wraps mod 2^64
    high = np.uint64(seed >> 64) + (low < np.uint64(seed & _U64)).astype(np.uint64)
    return np.stack([low, high])


def _philox_mulhilo(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products of the (2, len) words w with
    the round multipliers, from 32-bit halves."""
    half, mask = np.uint64(32), np.uint64(0xFFFFFFFF)
    m0, m1 = _PHILOX_M_HALVES
    w0, w1 = w & mask, w >> half
    mid = m1 * w0 + (m0 * w0 >> half)  # no partial sum here reaches 2^64
    hi = m1 * w1 + (mid >> half) + ((m0 * w1 + (mid & mask)) >> half)
    return hi, _PHILOX_M * w


def _philox_doubles(keys: np.ndarray, counter: int) -> np.ndarray:
    """Philox4x64-10 block `counter` for every key, as (len, 4) doubles in [0, 1).

    keys is the (2, len) uint64 array of `_philox_keys`.  numpy's Philox(key=k)
    increments its counter before each block, so block c holds its draws
    4(c-1)..4c-1, and (raw >> 11) * 2^-53 is what Generator.random() returns.
    """
    ctr = np.zeros((4, keys.shape[1]), dtype=np.uint64)
    ctr[0], ctr[1] = counter & _U64, counter >> 64
    for round_keys in keys + _PHILOX_BUMPS:  # uint64 adds wrap mod 2^64
        hi, lo = _philox_mulhilo(ctr[0::2])
        # the round's output words are (hi2 ^ w1 ^ k0, lo2, hi0 ^ w3 ^ k1, lo0)
        out = np.empty_like(ctr)
        np.bitwise_xor(hi[::-1], ctr[1::2], out=out[0::2])
        out[0::2] ^= round_keys
        out[1::2] = lo[::-1]
        ctr = out
    return (ctr.T >> np.uint64(11)) * 2.0**-53


def run_alternating_measurements(
    inst: QmaInstance,
    witness: StateVector,
    n_events: int,
    mode: str = "enumerate",
    seed: int = 0,
    draws: int = 1,
):
    """Alternating forward/backward measurement procedure.

    Odd events apply the verifier and measure the output qubit; even events
    apply its inverse and measure whether the workspace is restored to zero.
    A run of exactly n_events outcomes y_1..y_N (y_0 = 1) yields agreements
    z_i = [y_i = y_{i-1}]; acceptance is sum(z) >= N(a+b)/2, compared exactly.

    enumerate mode returns the full TrajectoryDistribution (both branches of
    every measurement, zero branches pruned).  An exact witness on n qubits
    replays the verifier's composed exact unitary, and its adjoint, as one
    plane product per event once 2^n <= the verifier's gate count, where one
    dense product per amplitude costs less than the gate list.  sample mode
    plays `draws` seeded trajectories in float and returns (z, accepted): a (draws,
    n_events) int8 array of agreement patterns and a length-draws bool array.
    Trajectory i's doubles are the stream of numpy's Philox(key=seed+i),
    Generator.random() bit for bit, computed for all trajectories at once.
    """
    if n_events < 1:
        raise ValueError("need at least one measurement event")
    check_width(inst.verifier.width, exact=witness.exact and mode == "enumerate")
    _check_normalized(witness)
    threshold = threshold_count(n_events, inst.a, inst.b)
    forward = inst.verifier
    backward = dagger(inst.verifier)
    pi_mask = output_one_mask(inst.verifier.width)
    delta_mask = suffix_zero_mask(inst.verifier.width, inst.k)

    if mode == "sample":
        if draws < 1:
            raise ValueError(f"sample mode needs at least one draw, got {draws}")
        keys = _philox_keys(seed, draws)
        start = _embed_witness(witness.to_float() if witness.exact else witness, inst.m, inst.k)
        # every trajectory is one column of `state`, row b of z its agreement pattern
        state = StateVector(start.n, False, vec=np.repeat(start.vec[:, None], draws, axis=1))
        z = np.empty((draws, n_events), dtype=np.int8)
        y_prev = np.ones(draws, dtype=bool)
        for i in range(1, n_events + 1):
            if i % 4 == 1:  # events i..i+3 read the four doubles of counter block (i+3)/4
                doubles = _philox_doubles(keys, (i + 3) // 4)
            odd = i % 2 == 1
            mask = pi_mask if odd else delta_mask
            state = apply_circuit(state, forward if odd else backward)
            v = state.vec
            weights = v.real ** 2 + v.imag ** 2
            prob_one = weights[mask].sum(axis=0)
            y = doubles[:, (i - 1) % 4] < prob_one
            prob = np.where(y, prob_one, weights[~mask].sum(axis=0))
            v[mask[:, None] != y] = 0
            v /= np.sqrt(prob)
            z[:, i - 1] = y == y_prev
            y_prev = y
        return z, z.sum(axis=1) >= threshold

    if mode != "enumerate":
        raise ValueError(f"unknown mode {mode!r}")
    if n_events > ENUMERATE_EVENT_CAP:
        raise ValueError(
            f"enumerate mode capped at {ENUMERATE_EVENT_CAP} events, got {n_events}"
        )

    # every live branch is one column of `state`; row b of z is its agreement prefix
    state = _embed_witness(witness, inst.m, inst.k)
    composed = witness.exact and 1 << forward.width <= len(forward.gates)
    if composed:
        u = exact_unitary(forward)
        u_dagger = plane_adjoint(u.planes)
    z = np.zeros((1, 0), dtype=np.int8)
    y_prev = np.ones(1, dtype=np.int8)
    for i in range(1, n_events + 1):
        odd = i % 2 == 1
        if composed:
            state = state.transform(u.planes if odd else u_dagger, u.exponent)
        else:
            state = apply_circuit(state, forward if odd else backward)
        state = state.split(pi_mask if odd else delta_mask)
        y = np.tile(np.array([1, 0], dtype=np.int8), len(y_prev))
        z = np.column_stack([np.repeat(z, 2, axis=0), y == np.repeat(y_prev, 2)])
        live = state.live_columns()
        state, z, y_prev = state.select(live), z[live], y[live]

    probs = dict(zip(map(tuple, z.tolist()), state.norms_sq()))
    return TrajectoryDistribution(n_events, probs, threshold)


def binomial_tail(p: Rational, n: int, t0: int):
    """Pr[Binomial(n, p) >= t0]; exact for Fraction p."""
    if not isinstance(p, (Fraction, int, str)):
        return _binomial_tail_float(float(p), n, t0)
    pv = as_fraction(p)
    a, b = pv.numerator, pv.denominator - pv.numerator
    lo = min(max(t0, 0), n + 1)
    if b == 0:  # p = 1
        return Fraction(int(lo <= n))
    # integer pmf numerators C(n,j) a^j b^(n-j) over d^n, each from the last by an exact division
    first = math.comb(n, lo) * a**lo * b ** (n - lo) if lo <= n else 0
    terms = accumulate(range(lo, n), lambda t, j: t * (n - j) * a // ((j + 1) * b), initial=first)
    return Fraction(sum(terms), pv.denominator**n)


def _binomial_tail_float(p: float, n: int, t0: int) -> float:
    """Float tail from pmf weights relative to the mode's, which is set to 1.

    The weights are cumulative products of the term ratio outward from the
    mode, so each lies in [0, 1] and nothing overflows at any n.  Both sides
    are numpy sums, and the tail is returned as tail / (head + tail) with
    head >= 0, so it cannot exceed 1.
    """
    if t0 <= 0:
        return 1.0
    if t0 > n or p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    odds = p / (1.0 - p)
    mode = min(n, int((n + 1) * p))
    j = np.arange(n + 1, dtype=np.float64)
    weights = np.empty(n + 1)
    weights[mode] = 1.0
    up, down = j[mode:n], j[mode:0:-1]
    weights[mode + 1:] = np.cumprod((n - up) / (up + 1) * odds)  # weights[j+1] / weights[j]
    weights[:mode][::-1] = np.cumprod(down / (n - down + 1) / odds)  # weights[j-1] / weights[j]
    tail = weights[t0:].sum()
    return float(tail / (weights[:t0].sum() + tail))


def threshold_count(n: int, a: Fraction, b: Fraction) -> int:
    """Smallest integer agreement count meeting the n(a+b)/2 rule."""
    return math.ceil(Fraction(n) * (a + b) / 2)


def analytic_acceptance(
    eigen_weights: Sequence[tuple], n_events: int, a: Rational, b: Rational
):
    """Acceptance of the alternating procedure from the witness's spectrum.

    eigen_weights lists (p_j, weight_j) with weights summing to 1; on each
    eigencomponent the agreement count is Binomial(n, p_j).
    """
    af, bf = as_fraction(a), as_fraction(b)
    t0 = threshold_count(n_events, af, bf)
    exact = all(isinstance(p, (Fraction, int)) and isinstance(w, (Fraction, int))
                for p, w in eigen_weights)
    wsum = sum(w for _, w in eigen_weights)
    if exact:
        if wsum != 1:
            raise ValueError(f"eigenweights sum to {wsum}, expected 1")
        return sum(Fraction(w) * binomial_tail(Fraction(p), n_events, t0)
                   for p, w in eigen_weights)
    if abs(float(wsum) - 1.0) > 1e-9:
        raise ValueError(f"eigenweights sum to {wsum}, expected 1")
    return float(sum(w * binomial_tail(float(p), n_events, t0) for p, w in eigen_weights))


def sequence_probability(eigen_weights: Sequence[tuple], z: Sequence[int]):
    """Pr[agreement pattern z] = sum_j w_j p_j^w(z) (1-p_j)^(N-w(z))."""
    w = sum(z)
    n = len(z)
    return sum(wt * p**w * (1 - p) ** (n - w) for p, wt in eigen_weights)


@dataclass(frozen=True)
class WitnessPreservingAmplification:
    """Amplified game descriptor; the witness register width is unchanged."""

    base: QmaInstance
    r: int
    n_events: int
    accept_threshold: int  # smallest accepting agreement count
    m: int
    completeness: Fraction
    soundness: Fraction

    def acceptance_probability(self, p: Rational):
        return binomial_tail(p, self.n_events, self.accept_threshold)

    def run(self, witness: StateVector, mode: str = "sample", seed: int = 0):
        return run_alternating_measurements(self.base, witness, self.n_events, mode, seed)


def amplify_preserving_witness(inst: QmaInstance, r: int) -> WitnessPreservingAmplification:
    """Error reduction to (1 - 2^-r, 2^-r) with no growth of the witness."""
    if r < 1:
        raise ValueError("target exponent r must be >= 1")
    q = inst.gap_q
    n = 8 * q * q * r
    return WitnessPreservingAmplification(
        base=inst,
        r=r,
        n_events=n,
        accept_threshold=threshold_count(n, inst.a, inst.b),
        m=inst.m,
        completeness=1 - Fraction(1, 2**r),
        soundness=Fraction(1, 2**r),
    )


@dataclass(frozen=True)
class CopyAmplification:
    """Majority vote over t independent runs; witness width scales by t."""

    base: QmaInstance
    copies: int
    message_width: int
    accept_threshold: int  # smallest accepting vote count

    def acceptance_probability(self, p: Rational):
        return binomial_tail(p, self.copies, self.accept_threshold)


def amplify_by_copies(inst: QmaInstance, t: int) -> CopyAmplification:
    if t < 1:
        raise ValueError("need at least one copy")
    return CopyAmplification(
        base=inst,
        copies=t,
        message_width=t * inst.m,
        accept_threshold=threshold_count(t, inst.a, inst.b),
    )


@dataclass(frozen=True)
class GapCertificate:
    """Integer pair with h / 2^g equal to an exact operator trace."""

    h: int
    g: int
    claim: str

    @property
    def value(self) -> Fraction:
        return Fraction(self.h, 2**self.g)

    @property
    def decision_value(self) -> int:
        return 2 * self.h - 2**self.g


def _diagonal_sum(planes: np.ndarray) -> int:
    """Integer sum of the diagonal of (4, d, d) planes, which must be rational."""
    diag = planes.diagonal(axis1=1, axis2=2)
    if (diag[1:] != 0).any():
        raise ValueError("acceptance operator diagonal must be rational")
    return int(diag[0].sum())


def counting_certificate(inst: QmaInstance) -> GapCertificate:
    """tr(Q) = h / 2^g bit-exactly, g = Hadamard count of the verifier.

    tr(Q) is the sum of the exact squared norms of the accepted columns
    whose Gram matrix Q is, so Q itself is never formed.
    """
    g = inst.verifier.hadamard_count()
    norms = accepted_columns_exact(inst.verifier, inst.m, inst.k).norms_sq()
    trace = sum(norms, Fraction(0))
    h = trace * 2**g
    if h.denominator != 1:
        raise ValueError(f"trace {trace} is not dyadic with exponent {g}")
    if not 0 <= trace <= 2**inst.m:
        raise ValueError(f"trace {trace} outside [0, 2^m]")
    return GapCertificate(h=h.numerator, g=g, claim="2h - 2^g > 0 iff tr(Q) > 1/2")


def tail_polynomial_coefficients(n: int, t0: int) -> list[int]:
    """Integer coefficients of f(x) = sum_{j>=t0} C(n,j) x^j (1-x)^(n-j).

    The x^s coefficient is C(n,s) sum_{t0<=j<=s} (-1)^(s-j) C(s,j), and that
    alternating partial sum of a binomial row is (-1)^(s-t0) C(s-1, t0-1).
    """
    if t0 <= 0:
        return [1] + [0] * n
    return [0] * min(t0, n + 1) + [
        (-1) ** (s - t0) * math.comb(n, s) * math.comb(s - 1, t0 - 1) for s in range(t0, n + 1)
    ]


def _power_traces(q: np.ndarray, n: int) -> list[int]:
    """T_t = tr(M^t) for t = 0..n, M the matrix the (4, d, d) planes q hold at exponent 0.

    Powers are multiplied out only for t <= min(n, d), and their diagonals
    must be rational.  Newton's identities turn those traces into the
    coefficients C_1..C_d of M's characteristic polynomial
    x^d + C_1 x^(d-1) + ... + C_d, and Cayley-Hamilton gives the rest:
    T_t = -(C_1 T_(t-1) + ... + C_d T_(t-d)).  Each C_k is rational, by
    Newton's identities on integer traces, and an algebraic integer, as a
    sum of principal minors of M, so it is an integer and every division
    below is exact.
    """
    d = q.shape[1]
    traces = [d]
    power = q
    for t in range(1, min(n, d) + 1):
        if t > 1:
            power = plane_matmul(power, q)
        traces.append(_diagonal_sum(power))
    if n <= d:
        return traces
    c: list[int] = []  # c[i - 1] = C_i
    for k in range(1, d + 1):
        c.append(-(traces[k] + sum(c[i - 1] * traces[k - i] for i in range(1, k))) // k)
    for t in range(d + 1, n + 1):
        traces.append(-sum(c[i - 1] * traces[t - i] for i in range(1, d + 1)))
    return traces


def amplified_counting_certificate(inst: QmaInstance, r: int) -> GapCertificate:
    """Certificate for the amplified game, via the agreement-tail polynomial.

    The amplified acceptance operator is f(Q) for the binomial tail f, so its
    trace is sum_t alpha_t tr(Q^t) with integer alpha_t; every tr(Q^t) is
    dyadic with exponent t*g, making the total exact at exponent N*g.  The
    power sums tr(Q^t) come from at most d = 2^m exact matrix powers and
    Newton's identities (`_power_traces`), not from N matrix products.
    """
    amp = amplify_preserving_witness(inst, r)
    n = amp.n_events
    g_base = inst.verifier.hadamard_count()
    g = n * g_base
    if g > _CERT_EXPONENT_CAP:
        raise ValueError(f"certificate exponent {g} exceeds cap {_CERT_EXPONENT_CAP}")
    coeffs = tail_polynomial_coefficients(n, threshold_count(n, inst.a, inst.b))
    q, e = accepted_columns_exact(inst.verifier, inst.m, inst.k).gram_planes()
    # tr(Q^t) = traces[t] / 2^(t*e); one integer over 2^(n*e) holds the sum
    traces = _power_traces(q, n)
    total = sum(c * tr << (n - t) * e for t, (c, tr) in enumerate(zip(coeffs, traces)))
    trace = Fraction(total, 1 << n * e)
    h = trace * 2**g
    if h.denominator != 1:
        raise ValueError(f"amplified trace {trace} is not dyadic with exponent {g}")
    return GapCertificate(h=h.numerator, g=g, claim="2h - 2^g > 0 iff tr(f(Q)) > 1/2")


def a0pp_check(cert: GapCertificate) -> tuple[bool, bool]:
    """(2h >= 2^g, 2h <= 2^g / 2), both evaluated over integers."""
    yes_cond = 2 * cert.h >= 2**cert.g
    no_cond = 4 * cert.h <= 2**cert.g
    return yes_cond, no_cond


def mixed_state_acceptance(inst: QmaInstance, exact: bool = False):
    """Acceptance of the totally mixed witness, 2^-m tr(Q), checked two ways.

    Route one takes the trace of the acceptance operator; route two averages
    the verifier's output-qubit statistics over every standard-basis message.
    """
    dim = 1 << inst.m
    width = inst.verifier.width
    block = apply_circuit(
        StateVector.columns(width, message_rows(inst.m, inst.k), exact), inst.verifier
    )
    avg = sum(block.project(output_one_mask(width)).norms_sq()) / dim
    if exact:
        q, e = planes_from_scalars(inst.q_operator_exact())
        trace_route = Fraction(_diagonal_sum(q), 1 << e) / dim
        if trace_route != avg:
            raise AssertionError(f"exact routes disagree: {trace_route} vs {avg}")
        return trace_route
    trace_route = float(np.trace(inst.q_operator()).real) / dim
    if abs(trace_route - avg) > 1e-12:
        raise AssertionError(f"routes disagree: {trace_route} vs {avg}")
    return trace_route


@dataclass(frozen=True)
class TransitionFrame:
    """The four unit vectors of the two-outcome measurement cycle.

    For an eigenvector phi (workspace-zero embedded) with interior acceptance
    probability p, forward/backward passes move among gamma/delta rays with
    amplitudes +-sqrt(p), sqrt(1-p); tails holds the workspace-restored pair,
    heads the output-qubit pair.
    """

    p: float
    phi: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray
    delta0: np.ndarray
    delta1: np.ndarray
    u: np.ndarray = field(compare=False, repr=False)  # the verifier's unitary

    def recurrence_residuals(self) -> dict:
        u = self.u
        sp, sq = math.sqrt(self.p), math.sqrt(1.0 - self.p)
        return {
            "forward_from_delta0": float(
                np.linalg.norm(u @ self.delta0 - (-sp * self.gamma0 + sq * self.gamma1))
            ),
            "forward_from_delta1": float(
                np.linalg.norm(u @ self.delta1 - (sq * self.gamma0 + sp * self.gamma1))
            ),
            "backward_from_gamma0": float(
                np.linalg.norm(u.conj().T @ self.gamma0 - (-sp * self.delta0 + sq * self.delta1))
            ),
            "backward_from_gamma1": float(
                np.linalg.norm(u.conj().T @ self.gamma1 - (sq * self.delta0 + sp * self.delta1))
            ),
            "delta1_is_start": float(np.linalg.norm(self.delta1 - self.phi)),
        }


def transition_frame(inst: QmaInstance, witness: np.ndarray) -> TransitionFrame:
    """Build the measurement-cycle frame for an eigenvector witness."""
    q = inst.q_operator()
    witness = np.asarray(witness, dtype=np.complex128)
    witness = witness / np.linalg.norm(witness)
    image = q @ witness
    p = float(np.real(np.vdot(witness, image)))
    if np.linalg.norm(image - p * witness) > _FRAME_TOL:
        raise ValueError("witness is not an eigenvector of the acceptance operator")
    if not _FRAME_TOL < p < 1.0 - _FRAME_TOL:
        raise ValueError(f"need interior eigenvalue, got p = {p}")
    n = inst.verifier.width
    pi_mask = output_one_mask(n)
    delta_mask = suffix_zero_mask(n, inst.k)
    u = inst.unitary
    phi = np.zeros(1 << n, dtype=np.complex128)
    phi[message_rows(inst.m, inst.k)] = witness
    a_phi = u @ phi
    gamma0 = np.where(pi_mask, 0.0, a_phi) / math.sqrt(1.0 - p)
    gamma1 = np.where(pi_mask, a_phi, 0.0) / math.sqrt(p)
    back = u.conj().T @ gamma1
    delta0 = np.where(delta_mask, 0.0, back) / math.sqrt(1.0 - p)
    delta1 = np.where(delta_mask, back, 0.0) / math.sqrt(p)
    return TransitionFrame(
        p=p, phi=phi, gamma0=gamma0, gamma1=gamma1, delta0=delta0, delta1=delta1, u=u
    )
