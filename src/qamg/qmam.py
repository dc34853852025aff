"""Three-message games: fidelity, the one-coin protocol, and prover optimization.

Registers follow the interactive-proof convention: the verifier's k work
qubits come first (output qubit on top), then the m message qubits, then the
prover's private qubits.  `cheat_game` compiles a `QipInstance` into the
one-coin game, which sends the work register as the prover's first message;
heads replays the verifier's second transformation and checks the output
qubit, tails replays the inverse of the first and checks that the work
register returns to zero.  Every function here takes the verifier itself,
which expands each circuit once and keeps it for its lifetime.

Prover optimization is a see-saw: the state step and the per-coin unitary
step each solve their subproblem exactly, so iterate values are monotone
lower bounds on the true optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .amplification import as_fraction
from .circuits import Circuit, output_one_mask, prefix_zero_mask, to_unitary
from .spectra import eig_hermitian

DIRECT_OPT_QUBIT_CAP = 6
_DENSITY_TOL = 1e-8
# a see-saw start stops once one iteration gains at most this much
_CHEAT_TOL = 1e-8  # the one-coin cheat search
_CONFINED_TOL = 1e-10  # both max-acceptance routes and the Uhlmann bound


# --- fidelity ---


def _check_density(rho: np.ndarray, name: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be square, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > _DENSITY_TOL:
        raise ValueError(f"{name} is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-6:
        raise ValueError(f"{name} has trace {np.trace(rho)}, expected 1")
    return rho


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    decomp = eig_hermitian(mat)
    vals = decomp.eigenvalues
    if vals.size and vals[-1] < -_DENSITY_TOL:
        raise ValueError(f"matrix has negative eigenvalue {vals[-1]}")
    roots = np.sqrt(np.clip(vals, 0.0, None))
    return (decomp.vectors * roots) @ decomp.vectors.conj().T


def fidelity(rho: np.ndarray, xi: np.ndarray) -> float:
    """F(rho, xi) = tr sqrt(sqrt(rho) xi sqrt(rho)), clamped to [0, 1]."""
    rho = _check_density(rho, "rho")
    xi = _check_density(xi, "xi")
    if rho.shape != xi.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {xi.shape}")
    root = _sqrt_psd(rho)
    inner = root @ xi @ root
    vals = eig_hermitian(inner).eigenvalues
    if vals.size and vals[-1] < -1e-8:
        raise ValueError(f"conjugated product has negative eigenvalue {vals[-1]}")
    f = float(np.sqrt(np.clip(vals, 0.0, None)).sum())
    return min(1.0, max(0.0, f))


def fidelity_sum_gap(rho: np.ndarray, sigma: np.ndarray, xi: np.ndarray) -> float:
    """1 + F(rho,xi) - F(rho,sigma)^2 - F(sigma,xi)^2; nonnegative up to rounding."""
    return 1.0 + fidelity(rho, xi) - fidelity(rho, sigma) ** 2 - fidelity(sigma, xi) ** 2


def purify(rho: np.ndarray) -> np.ndarray:
    """Canonical purification on (system, mirror); mirror dim equals system dim."""
    rho = _check_density(rho, "rho")
    decomp = eig_hermitian(rho)
    roots = np.sqrt(np.clip(decomp.eigenvalues, 0.0, None))
    return (decomp.vectors * roots).ravel()


# --- qubit permutations ---


def permute_qubits_vec(vec: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder qubits so new position i holds original qubit perm[i]."""
    n = len(perm)
    return np.asarray(vec).reshape([2] * n).transpose(perm).reshape(-1)


def permute_qubits_op(op: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    n = len(perm)
    axes = list(perm) + [n + p for p in perm]
    return np.asarray(op).reshape([2] * (2 * n)).transpose(axes).reshape(1 << n, 1 << n)


def _interleave_blocks_perm(copies: int, sizes: Sequence[int]) -> list[int]:
    """Map (blockwise per copy) qubit order to (grouped by block kind) order."""
    block = sum(sizes)
    offsets = []
    acc = 0
    for sz in sizes:
        offsets.append(acc)
        acc += sz
    perm = []
    for kind, sz in enumerate(sizes):
        for c in range(copies):
            base = c * block + offsets[kind]
            perm.extend(range(base, base + sz))
    return perm


# --- register-block application helpers ---


def _apply_first(vec: np.ndarray, op: np.ndarray, first_dim: int) -> np.ndarray:
    """Apply op to the leading qubits (row block of size first_dim)."""
    return (op @ vec.reshape(first_dim, -1)).reshape(-1)


def _apply_last(vec: np.ndarray, op: np.ndarray, first_dim: int) -> np.ndarray:
    """Apply op to the trailing qubits, leaving the leading block alone."""
    return (vec.reshape(first_dim, -1) @ op.T).reshape(-1)


# --- instances ---


@dataclass(frozen=True)
class QipInstance:
    """Three-message verifier: two unitary circuits on the (work, message) pair.

    It also holds what the one-coin game reads: the purifying width l, each
    circuit expanded once, and the tails and heads test operators.
    """

    v1: Circuit
    v2: Circuit
    k: int
    m: int
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if self.k < 1 or self.m < 0:
            raise ValueError("need at least one work qubit and nonnegative message qubits")
        if self.v1.width != self.k + self.m or self.v2.width != self.k + self.m:
            raise ValueError(
                f"circuit widths {self.v1.width},{self.v2.width} != k+m = {self.k + self.m}"
            )
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must be in [0,1], got {self.epsilon}")

    @property
    def l(self) -> int:
        # enough private qubits to purify the (work, message) pair
        return self.k + self.m

    @cached_property
    def u1(self) -> np.ndarray:
        """The verifier's first transformation, expanded once; read-only."""
        u = to_unitary(self.v1)
        u.flags.writeable = False
        return u

    @cached_property
    def u2(self) -> np.ndarray:
        """The verifier's second transformation, expanded once; read-only."""
        u = to_unitary(self.v2)
        u.flags.writeable = False
        return u

    @cached_property
    def _lambda_tails(self) -> np.ndarray:
        delta = prefix_zero_mask(self.v1.width, self.k).astype(np.complex128)
        lam = (self.u1 * delta) @ self.u1.conj().T
        lam.flags.writeable = False
        return lam

    @cached_property
    def _lambda_heads(self) -> np.ndarray:
        pi = output_one_mask(self.v2.width).astype(np.complex128)
        lam = (self.u2.conj().T * pi) @ self.u2
        lam.flags.writeable = False
        return lam

    def lambda_tails(self) -> np.ndarray:
        """Test operator for tails: undo the first transformation, check zeros.

        Built on first use; shared, so read-only."""
        return self._lambda_tails

    def lambda_heads(self) -> np.ndarray:
        """Test operator for heads: finish the verification, check the output.

        Built on first use; shared, so read-only."""
        return self._lambda_heads


def soundness_bound(base: QipInstance) -> float:
    """1/2 + sqrt(epsilon)/2: the one-coin game's soundness guarantee."""
    return 0.5 + math.sqrt(float(base.epsilon)) / 2.0


@dataclass(frozen=True)
class MerlinStrategy:
    """A prepared state plus a unitary response for each coin value."""

    psi: np.ndarray
    u_by_coin: dict

    def __post_init__(self):
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-9:
            raise ValueError("strategy state must be normalized")
        for y, u in self.u_by_coin.items():
            gap = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
            if gap > 1e-9:
                raise ValueError(f"coin {y!r}: response deviates from unitary by {gap}")


@dataclass(frozen=True)
class CheatGame:
    """Coin-averaged projective tests on (sent registers) x (kept register)."""

    k: int  # first-message qubits, tested side
    m: int  # second-message qubits
    l: int  # prover-kept qubits
    lambdas: dict  # coin -> projector on the k+m sent qubits

    @property
    def total_qubits(self) -> int:
        return self.k + self.m + self.l

    def coins(self) -> list:
        return sorted(self.lambdas)


def cheat_game(base: QipInstance) -> CheatGame:
    """The one-coin compilation: tails (coin 0) and heads (coin 1) of the verifier."""
    return CheatGame(
        k=base.k,
        m=base.m,
        l=base.l,
        lambdas={"0": base.lambda_tails(), "1": base.lambda_heads()},
    )


def strategy_value(game: CheatGame, psi: np.ndarray, u_by_coin: dict) -> float:
    """Coin-averaged acceptance of a concrete strategy."""
    dim_first = 1 << game.k
    dim_front = 1 << (game.k + game.m)
    total = 0.0
    for y in game.coins():
        moved = _apply_last(psi, u_by_coin[y], dim_first)
        tested = _apply_first(moved, game.lambdas[y], dim_front)
        total += float(np.real(np.vdot(moved, tested)))
    return total / len(game.lambdas)


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    strategy: MerlinStrategy
    converged: bool
    iterations: int


def _polar_align(c: np.ndarray) -> np.ndarray:
    """Unitary U maximizing Re tr(U C), for C or each C of a (..., r, d) stack, r <= d.

    For a wide r x d block C_r of C = Q C_r (Q with r orthonormal columns),
    returns the d x r block U Q = Z W^H of every maximizer, from the thin
    SVD C_r = W S Z^H.  The SVD is taken of the r x r factor of the thin QR
    C_r^H = P R: with R^H = W S X^H, Z = P X, so the block is P (W X^H)^H.
    """
    p, r = np.linalg.qr(c.conj().swapaxes(-1, -2))
    w, _, xh = np.linalg.svd(r.conj().swapaxes(-1, -2))
    return p @ (w @ xh).conj().swapaxes(-1, -2)


def _complete_unitary(cols: np.ndarray) -> np.ndarray:
    """Square unitary whose leading columns are the orthonormal columns given; takes stacks."""
    full, _ = np.linalg.qr(cols, mode="complete")
    full[..., : cols.shape[-1]] = cols
    return full


def _dot_squares(rows: np.ndarray) -> np.ndarray:
    """(..., 1, 1) squared norms of a (..., 1, n) stack, each from one real dot pair."""
    re, im = rows.real, rows.imag
    return re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)


def _dot_norms(rows: np.ndarray) -> np.ndarray:
    """(..., 1, 1) norms of a (..., 1, n) stack, each rounded as numpy.linalg.norm rounds it.

    A polar step on a rank-deficient C turns one ulp into another see-saw path.
    """
    return np.sqrt(_dot_squares(rows))


def _seesaw_cheat(
    game: CheatGame, psi0: Sequence, u0: Sequence[Optional[dict]], tol: float, max_iters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[int], MerlinStrategy]]:
    """See-saw from each start psi0[i] (responses u0[i], None for identities) at once.

    With a start reshaped to P0 (first register by the rest) and the thin QR
    P0^T = Q R, every iterate is P = A Q^T: the state step only mixes
    T_y conj(U_y) = T_y conj(V_y) Q^T, because the unitary step aligns
    V_y = U_y Q with the rows of T_y.  So each step is one stacked call on the
    A (2^k x r) and V_y (du x r), r = min(2^k, du), of the running starts,
    which the loop carries and writes back only when a start stops.
    Returns values, convergence flags, iteration counts and a strategy builder.
    """
    coins = game.coins()
    weight = 1.0 / len(coins)
    lambdas = np.stack([game.lambdas[y] for y in coins])
    psi0 = np.stack([psi / np.linalg.norm(psi) for psi in psi0])
    q_basis, r_factor = np.linalg.qr(psi0.reshape(len(psi0), 1 << game.k, -1).swapaxes(1, 2))
    a_mat = r_factor.swapaxes(1, 2)
    vs = np.stack([[q if u is None else u[y] @ q for y in coins] for q, u in zip(q_basis, u0)])
    values, converged = np.full(len(psi0), -1.0), np.zeros(len(psi0), dtype=bool)
    iterations, live = np.full(len(psi0), max_iters), np.arange(len(psi0))
    a, v, value = a_mat.copy(), vs.copy(), values.copy()
    for it in range(1, max_iters + 1):
        # target step: project each moved state onto its accepting subspace
        moved = (a[:, None] @ v.swapaxes(2, 3)).reshape(*v.shape[:2], lambdas.shape[1], -1)
        projected = (lambdas @ moved).reshape(*v.shape[:2], 1, -1)
        # each Lambda_y is a projector: <moved, Lambda_y moved> = ||Lambda_y moved||^2
        squares = _dot_squares(projected)
        new_value = weight * squares.sum(axis=(1, 2, 3))
        old = value
        if np.any(new_value < old - 1e-9):
            raise AssertionError(f"see-saw value decreased: {old} -> {new_value}")
        value, norms = np.maximum(new_value, old), np.sqrt(squares)
        alive = norms > 1e-150
        # a start stops once it gains at most tol, or when none of its targets is left
        done = (new_value <= old + tol) | ~alive.any(axis=(1, 2, 3))
        if done.any():
            stopped = live[done]
            converged[stopped], iterations[stopped] = True, it
            values[stopped], a_mat[stopped], vs[stopped] = value[done], a[done], v[done]
            live, a, v, value, projected, norms, alive = (
                x[~done] for x in (live, a, v, value, projected, norms, alive)
            )
            if not len(live):
                break
        # a dead target divides to zero, keeping its response and leaving the state step
        targets = (projected / np.where(alive, norms, np.inf)).reshape(*v.shape[:2], a.shape[1], -1)
        # unitary step: best alignment of each state with each live target
        v = np.where(alive, _polar_align(a.swapaxes(1, 2)[:, None] @ targets.conj()), v)
        # state step: top eigenvector of each rank-|coins| induced operator
        b = (targets @ v.conj()).reshape(len(live), len(coins), -1).swapaxes(1, 2)
        b = np.ascontiguousarray(b) * math.sqrt(weight)  # row-major b rounds as one start's
        candidate = (b @ eig_hermitian(b.conj().swapaxes(1, 2) @ b).vectors[..., :1])[..., 0]
        norm = _dot_norms(candidate[:, None])[:, 0]
        grown = norm > 1e-150
        kept = a.reshape(len(live), -1)
        a = np.where(grown, candidate / np.where(grown, norm, np.inf), kept).reshape(a.shape)
    # starts still running after max_iters
    values[live], a_mat[live], vs[live] = value, a, v

    def strategy(i: int) -> MerlinStrategy:
        """Start i's full strategy; each U_y maps Q's complement onto V_y's."""
        q_full = _complete_unitary(q_basis[i]).conj().T
        us = {y: _complete_unitary(v) @ q_full for y, v in zip(coins, vs[i])}
        return MerlinStrategy(psi=(a_mat[i] @ q_basis[i].T).reshape(-1), u_by_coin=us)

    return values, converged, iterations, strategy


def optimize_cheating(
    target,
    max_iters: int = 500,
    restarts: int = 16,
    seed: int = 0,
    seeds: Optional[Sequence[MerlinStrategy]] = None,
) -> OptimizationResult:
    """Best prover found by multi-restart see-saw; a certified lower bound.

    Accepts a three-message verifier, played as its one-coin game, or a
    prepared CheatGame.  Each restart alternates exact subproblem solutions
    (target projection, polar unitary alignment, small-Gram state update),
    so per-restart values never decrease; the random restarts and the
    seeded strategies run as one batch, and the result reports the first
    best restart.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"need at least one iteration, got {max_iters}")
    game = cheat_game(target) if isinstance(target, QipInstance) else target
    dim = 1 << game.total_qubits
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(restarts)]
    starts += [np.asarray(st.psi, dtype=np.complex128) for st in seeds or ()]
    u0 = [None] * restarts + [st.u_by_coin for st in seeds or ()]
    values, converged, iterations, strategy = _seesaw_cheat(game, starts, u0, _CHEAT_TOL, max_iters)
    best = int(np.argmax(values))
    return OptimizationResult(
        float(values[best]), strategy(best), bool(converged[best]), int(iterations[best])
    )


def translate_honest(
    base: QipInstance,
    psi_base: Optional[np.ndarray] = None,
    u: Optional[np.ndarray] = None,
) -> MerlinStrategy:
    """The honest prover lifted into the one-coin game.

    The prover zeroes the work qubits next to its own state, applies the
    verifier's first transformation, and later answers heads with the base
    response and tails with no action.
    """
    k, m, l = base.k, base.m, base.l
    du = 1 << (m + l)
    if psi_base is None:
        psi_base = np.zeros(du, dtype=np.complex128)
        psi_base[0] = 1.0
    if u is None:
        u = np.eye(du, dtype=np.complex128)
    psi_base = np.asarray(psi_base, dtype=np.complex128)
    u = np.asarray(u, dtype=np.complex128)
    if psi_base.shape != (du,) or u.shape != (du, du):
        raise ValueError("base prover arities do not match the game")
    start = np.zeros(1 << (k + m + l), dtype=np.complex128)
    start.reshape(1 << k, du)[0, :] = psi_base
    prepared = _apply_first(start, base.u1, 1 << (k + m))
    return MerlinStrategy(
        psi=prepared,
        u_by_coin={"0": np.eye(du, dtype=np.complex128), "1": u},
    )


def honest_value(base: QipInstance, prover: Optional[tuple] = None) -> float:
    """Value of the lifted honest strategy (defaults to a trivial base prover)."""
    psi_base, u = prover if prover is not None else (None, None)
    strategy = translate_honest(base, psi_base, u)
    return strategy_value(cheat_game(base), strategy.psi, strategy.u_by_coin)


# --- the two characterizations of three-message max acceptance ---


def _lift(basis: np.ndarray, phi: np.ndarray, dim_first: int) -> np.ndarray:
    """(basis (x) I) phi for each row of an (n, cols * rest) stack, as (n, dim_first, du)."""
    return (basis @ phi.reshape(len(phi), basis.shape[1], -1)).reshape(len(phi), dim_first, -1)


def _project(lam: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Lambda (I (x) U) of each (dim_first, du) state, Lambda on the leading block; (n, 1, dim)."""
    moved = states @ u.swapaxes(1, 2)
    return (lam @ moved.reshape(len(moved), len(lam), -1)).reshape(len(moved), 1, -1)


def _pull_back(basis: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(basis^H (x) I)(I (x) U^H) of each (n, 1, dim) row, as an (n, cols * rest) stack."""
    # T conj(U) = conj(conj(T) U): conjugating the rows copies no du x du matrix
    back = (rows.reshape(len(rows), -1, u.shape[-1]).conj() @ u).conj()
    return (basis.conj().T @ back.reshape(len(rows), len(basis), -1)).reshape(len(rows), -1)


def _seesaw_confined(
    lam: np.ndarray,
    basis: np.ndarray,
    dim_first: int,
    phi0: np.ndarray,
    u0: np.ndarray,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """max ||Lambda (I (x) U) B phi||^2 over unit phi and unitary U, from every start at once.

    B = basis (x) I confines the state, the projector Lambda acts on the
    leading block of its size, and U on everything after the leading
    dim_first block.  Each iteration projects onto the target, aligns U with
    it, and pulls the target back into the confined state.  The target has
    rank at most dim_first, so with the thin QR S^T = Q R of the state S the
    unitary step is one r x du polar alignment of R conj(T).  A start stops
    once it gains at most tol or its target is dead (converged), or after
    max_iters; its final (phi, U) replays to its value.  Returns values,
    convergence flags, iteration counts, and each start's final phi and U.
    """
    phis = phi0 / _dot_norms(phi0[:, None])[:, 0]
    us = np.array(u0, dtype=np.complex128)
    values, converged = np.full(len(phis), -1.0), np.zeros(len(phis), dtype=bool)
    iterations, live = np.full(len(phis), max_iters), np.arange(len(phis))
    for it in range(1, max_iters + 1):
        states = _lift(basis, phis[live], dim_first)
        projected = _project(lam, states, us[live])
        norms = _dot_norms(projected)
        new_value, old = norms[:, 0, 0] ** 2, values[live]
        values[live] = np.maximum(new_value, old)
        done = (new_value <= old + tol) | ~(norms[:, 0, 0] > 1e-150)
        converged[live[done]], iterations[live[done]] = True, it
        live, states, projected, norms = (x[~done] for x in (live, states, projected, norms))
        if not len(live) or it == max_iters:
            break
        targets = projected / norms
        q, r = np.linalg.qr(states.swapaxes(1, 2))
        aligned = _polar_align(r @ targets.reshape(states.shape).conj())
        # completing conj(Q) and transposing gives a completion of Q, conjugate-transposed
        u = us[live] = _complete_unitary(aligned) @ _complete_unitary(q.conj()).swapaxes(1, 2)
        phi = _pull_back(basis, targets, u)
        norm = _dot_norms(phi[:, None])[:, 0]
        grown = norm[:, 0] > 1e-150
        phis[live[grown]] = phi[grown] / norm[grown]
    return values, converged, iterations, phis, us


def max_accept_two_ways(
    base: QipInstance,
    max_iters: int = 2000,
    restarts: int = 12,
    seed: int = 0,
) -> tuple[float, float]:
    """Direct prover optimization vs the reduced-state fidelity form.

    Both maximize ||Lambda_heads (I (x) U) a||^2 over a in the lifted tails
    subspace (the prepared states V1 |0_k, psi>) and unitary U, by one
    see-saw.  The direct route starts from random psi with U = I.  The
    fidelity form starts from the direct winner's next state with its U,
    and from the tails projections of random heads-subspace states with
    U = I, so the two agree at convergence instead of stalling in different
    local optima.
    """
    if base.k + base.m > DIRECT_OPT_QUBIT_CAP:
        raise ValueError(f"dense optimization capped at {DIRECT_OPT_QUBIT_CAP} qubits")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"need at least one iteration, got {max_iters}")
    k, m = base.k, base.m
    du = 1 << (m + base.l)
    tails = base.u1[:, : 1 << m]  # the first transformation's zero-work inputs
    heads = base.lambda_heads()
    rng = np.random.Generator(np.random.Philox(key=seed))
    eye = np.broadcast_to(np.eye(du, dtype=np.complex128), (restarts, du, du))
    psi0 = np.stack([rng.normal(size=du) + 1j * rng.normal(size=du) for _ in range(restarts)])
    values, _, _, phis, us = _seesaw_confined(
        heads, tails, 1 << k, psi0, eye, _CONFINED_TOL, max_iters
    )
    best = int(np.argmax(values))
    # fidelity-form starts: one state step from the winner, and P_A w for w = P_B (random)
    ws = [rng.normal(size=du << k) + 1j * rng.normal(size=du << k) for _ in range(restarts)]
    winner = _lift(tails, phis[best : best + 1], 1 << k)
    states = np.concatenate([winner, np.reshape(ws, (-1, 1 << k, du))])
    u0 = np.concatenate([us[best : best + 1], eye])
    phi0 = _pull_back(tails, _project(heads, states, u0), u0)
    fidelity_form = _seesaw_confined(heads, tails, 1 << k, phi0, u0, _CONFINED_TOL, max_iters)[0]
    return float(values[best]), float(fidelity_form.max())


def uhlmann_bound_check(
    joint: np.ndarray,
    lambda1: np.ndarray,
    dim_v: int,
    dim_m: int,
    max_iters: int = 2000,
) -> tuple[float, float]:
    """Measured outcome-1 probability vs the reduced-state fidelity bound.

    The bound's see-saw pins the state to the joint purification j and
    maximizes ||lambda1 (I (x) U) j||^2 over U on (message, mirror).  Its
    first value is the measured probability, so the reported bound never
    undercuts the measurement.
    """
    joint = _check_density(joint, "joint")
    dim = dim_v * dim_m
    if joint.shape != (dim, dim) or lambda1.shape != (dim, dim):
        raise ValueError("joint and projector must act on dim_v * dim_m")
    if dim_v & (dim_v - 1) or dim_m & (dim_m - 1):
        raise ValueError("dims must be powers of two")
    if max_iters < 1:
        raise ValueError(f"need at least one iteration, got {max_iters}")
    measured = float(np.real(np.trace(lambda1 @ joint)))
    j_vec = purify(joint)  # on (work+message, mirror)
    pinned = np.ones((1, 1), dtype=np.complex128)
    eye = np.eye(dim_m * dim, dtype=np.complex128)[None]
    values = _seesaw_confined(
        lambda1, j_vec[:, None], dim_v, pinned, eye, _CONFINED_TOL, max_iters
    )[0]
    bound = float(values[0])
    if measured > bound + 1e-6:
        raise AssertionError(f"measured {measured} exceeds fidelity bound {bound}")
    return measured, bound


# --- parallel repetition ---


def _joint_coin_products(by_coin: dict, copies: int, sizes: Sequence[int]) -> dict:
    """Each joint coin's Kronecker product of per-copy operators, regrouped by block kind."""
    perm = _interleave_blocks_perm(copies, sizes)
    out = {}
    for joint in range(1 << copies):
        coin = format(joint, f"0{copies}b")
        op = np.eye(1)
        for c in coin:
            op = np.kron(op, by_coin[c])
        out[coin] = permute_qubits_op(op, perm)
    return out


def repeated_cheat_game(base: QipInstance, copies: int) -> CheatGame:
    """AND-repetition: joint coins, tensored tests, registers grouped by kind."""
    if copies < 1:
        raise ValueError("need at least one copy")
    single = cheat_game(base).lambdas
    lambdas = _joint_coin_products(single, copies, [base.k, base.m])
    return CheatGame(k=copies * base.k, m=copies * base.m, l=copies * base.l, lambdas=lambdas)


def product_strategy(base: QipInstance, single: MerlinStrategy, copies: int) -> MerlinStrategy:
    """Play one strategy independently in every repetition."""
    k, m, l = base.k, base.m, base.l
    psi = np.array([1.0 + 0j])
    for _ in range(copies):
        psi = np.kron(psi, single.psi)
    psi = permute_qubits_vec(psi, _interleave_blocks_perm(copies, [k, m, l]))
    u_by_coin = _joint_coin_products(single.u_by_coin, copies, [m, l])
    return MerlinStrategy(psi=psi, u_by_coin=u_by_coin)


def repeated_honest_value(
    base: QipInstance, copies: int, prover: Optional[tuple] = None
) -> float:
    """Honest product play of the repeated game."""
    game = repeated_cheat_game(base, copies)
    honest = translate_honest(base, *(prover or (None, None)))
    strategy = product_strategy(base, honest, copies)
    return strategy_value(game, strategy.psi, strategy.u_by_coin)
