"""One-coin game tests: fidelity identities, honest and cheating provers.

Oracles: dim-2 cheating optima have a closed form (the tested subspaces
reduce to single pure states), message-spectator gadgets reduce to a small
eigenvalue problem, product strategies must square the single-shot value
under two-fold repetition, and every start of the batched reduced-rank
see-saws must retrace, or reach the optimum of, full-unitary see-saws kept
here as references.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from qamg.circuits import (
    circuit,
    dagger,
    hadamard,
    ishift,
    multi_controlled_x_gates,
    to_unitary,
    toffoli,
    x_gates,
)
from qamg.harness import generate_instance
import qamg.qmam as qmam
from qamg.qmam import (
    CheatGame,
    MerlinStrategy,
    QipInstance,
    cheat_game,
    fidelity,
    fidelity_sum_gap,
    honest_value,
    max_accept_two_ways,
    optimize_cheating,
    permute_qubits_op,
    permute_qubits_vec,
    product_strategy,
    purify,
    repeated_cheat_game,
    repeated_honest_value,
    soundness_bound,
    strategy_value,
    translate_honest,
    uhlmann_bound_check,
)
from qamg.qmam import _apply_first, _apply_last, _dot_norms, _seesaw_cheat, _seesaw_confined
from qamg.spectra import eig_hermitian, partial_trace


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_gates(rng: np.random.Generator, width: int, count: int) -> list:
    gates = []
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            gates.append(hadamard(int(rng.integers(0, width))))
        elif kind == 1:
            gates.append(ishift(int(rng.integers(0, width))))
        elif width >= 3:
            q = list(rng.permutation(width)[:3])
            gates.append(toffoli(int(q[0]), int(q[1]), int(q[2])))
        else:
            gates.append(hadamard(int(rng.integers(0, width))))
    return gates


def _perfect_base(k: int, m: int, seed: int) -> QipInstance:
    """V2 composes the inverse of V1 with an output flip: honest value 1."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    v1 = circuit(k + m, _random_gates(rng, k + m, 8))
    v2 = circuit(k + m, [*dagger(v1).gates, *x_gates(0)])
    return QipInstance(v1=v1, v2=v2, k=k, m=m, epsilon=Fraction(1))


def _coin_base(n_coins: int, k: int, m: int) -> QipInstance:
    """Work-only gadget: the output fires iff n_coins tossed work qubits are 1.

    The first transformation is trivial, so heads accepts with probability
    exactly 2^-n_coins no matter what the prover sends.
    """
    width = k + m
    assert k >= n_coins + 1 and m >= 1
    gates = [hadamard(q) for q in range(1, 1 + n_coins)]
    if n_coins:
        controls = list(range(1, 1 + n_coins))
        gates += multi_controlled_x_gates(controls, 0, [width - 1])
    return QipInstance(
        v1=circuit(width),
        v2=circuit(width, gates),
        k=k,
        m=m,
        epsilon=Fraction(1, 2**n_coins) if n_coins else Fraction(0),
    )


def _random_base(k: int, m: int, seed: int) -> QipInstance:
    rng = np.random.Generator(np.random.Philox(key=seed))
    v1 = circuit(k + m, _random_gates(rng, k + m, 8))
    v2 = circuit(k + m, _random_gates(rng, k + m, 8))
    return QipInstance(v1=v1, v2=v2, k=k, m=m, epsilon=Fraction(1))


def _tight_half_base() -> QipInstance:
    """V2 rotates the output qubit to a coin: epsilon exactly one half."""
    return QipInstance(
        v1=circuit(2),
        v2=circuit(2, [hadamard(0)]),
        k=1,
        m=1,
        epsilon=Fraction(1, 2),
    )


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        rho = _random_density(rng, 4)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_maximally_mixed_vs_pure(self):
        rho = np.eye(2) / 2
        xi = np.diag([1.0, 0.0]).astype(complex)
        assert abs(fidelity(rho, xi) - 2 ** -0.5) < 1e-12

    def test_pure_state_overlap(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert abs(fidelity(plus, zero) - 2 ** -0.5) < 1e-12
        assert fidelity(zero, one) < 1e-9

    def test_multiplicative_on_products(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        a1, a2 = _random_density(rng, 2), _random_density(rng, 3)
        b1, b2 = _random_density(rng, 2), _random_density(rng, 3)
        lhs = fidelity(np.kron(a1, a2), np.kron(b1, b2))
        rhs = fidelity(a1, b1) * fidelity(a2, b2)
        assert abs(lhs - rhs) < 1e-9

    def test_symmetry(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        rho, xi = _random_density(rng, 4), _random_density(rng, 4)
        assert abs(fidelity(rho, xi) - fidelity(xi, rho)) < 1e-9

    def test_rejects_bad_inputs(self):
        rho = np.eye(2) / 2
        with pytest.raises(ValueError):
            fidelity(rho, np.eye(3) / 3)
        with pytest.raises(ValueError):
            fidelity(rho, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            fidelity(rho, np.eye(2))

    def test_sum_gap_nonnegative_fuzz(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        for _ in range(120):
            dim = int(rng.choice([2, 4, 8]))
            rho, sigma, xi = (_random_density(rng, dim) for _ in range(3))
            assert fidelity_sum_gap(rho, sigma, xi) >= -1e-9

    def test_sum_gap_tight_for_equal_states(self):
        # rho = sigma = xi makes both squared terms 1 and the cross term 1
        rho = np.eye(4) / 4
        assert abs(fidelity_sum_gap(rho, rho, rho)) < 1e-9

    def test_purify_roundtrip(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        rho = _random_density(rng, 4)
        vec = purify(rho)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
        back = partial_trace(vec, keep=[0], dims=[4, 4])
        assert np.abs(back - rho).max() < 1e-9


class TestPermutations:
    def test_vec_roundtrip(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        perm = [2, 0, 3, 1]
        inverse = [perm.index(i) for i in range(4)]
        again = permute_qubits_vec(permute_qubits_vec(vec, perm), inverse)
        assert np.abs(again - vec).max() < 1e-12

    def test_op_conjugation_matches_vector_route(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        perm = [1, 2, 0]
        lhs = permute_qubits_op(op, perm) @ permute_qubits_vec(vec, perm)
        rhs = permute_qubits_vec(op @ vec, perm)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestInstances:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            QipInstance(v1=circuit(2), v2=circuit(3), k=1, m=1, epsilon=Fraction(0))
        with pytest.raises(ValueError):
            QipInstance(v1=circuit(2), v2=circuit(2), k=0, m=2, epsilon=Fraction(0))
        with pytest.raises(ValueError):
            QipInstance(v1=circuit(2), v2=circuit(2), k=1, m=1, epsilon=Fraction(3, 2))

    def test_epsilon_accepts_rational_strings(self):
        base = QipInstance(v1=circuit(2), v2=circuit(2), k=1, m=1, epsilon="1/4")
        assert base.epsilon == Fraction(1, 4)

    def test_build_dimensions(self):
        base = _tight_half_base()
        assert (base.k, base.m, base.l) == (1, 1, 2)
        game = cheat_game(base)
        assert game.total_qubits == 4
        assert game.coins() == ["0", "1"]

    def test_unitaries_expand_once_per_verifier(self, monkeypatch):
        expanded = []

        def counted(circ):
            expanded.append(circ)
            return to_unitary(circ)

        monkeypatch.setattr(qmam, "to_unitary", counted)
        base = _random_base(1, 1, seed=5)
        honest_value(base)
        optimize_cheating(base, restarts=1, max_iters=1)
        max_accept_two_ways(base, restarts=1, max_iters=1)
        assert len(expanded) == 2
        for u in (base.u1, base.u2):
            assert not u.flags.writeable
            with pytest.raises(ValueError):
                u[0, 0] = 0

    def test_lambdas_are_projectors(self):
        base = _perfect_base(2, 1, seed=11)
        tails, heads = base.lambda_tails(), base.lambda_heads()
        for lam in (tails, heads):
            assert np.abs(lam @ lam - lam).max() < 1e-9
            assert np.abs(lam - lam.conj().T).max() < 1e-9

    def test_trivial_lambdas_are_masks(self):
        base = QipInstance(v1=circuit(2), v2=circuit(2), k=1, m=1, epsilon=Fraction(0))
        tails, heads = base.lambda_tails(), base.lambda_heads()
        assert np.abs(tails - np.diag([1, 1, 0, 0])).max() < 1e-12
        assert np.abs(heads - np.diag([0, 0, 1, 1])).max() < 1e-12


class TestHonest:
    def test_perfect_base_gives_value_one(self):
        for seed in (0, 1, 2):
            inst = _perfect_base(2, 1, seed=seed)
            assert abs(honest_value(inst) - 1.0) < 1e-9

    def test_tails_branch_always_accepts(self):
        inst = _tight_half_base()
        strat = translate_honest(inst)
        game = cheat_game(inst)
        moved = strat.psi  # tails answer is the identity
        tested = (game.lambdas["0"] @ moved.reshape(4, -1)).reshape(-1)
        assert abs(np.vdot(moved, tested).real - 1.0) < 1e-12

    def test_zero_epsilon_base_honest_half(self):
        # trivial V2 never sets the output, so only tails contributes
        base = QipInstance(v1=circuit(2), v2=circuit(2), k=1, m=1, epsilon=Fraction(0))
        assert abs(honest_value(base) - 0.5) < 1e-12

    def test_strategy_value_matches_dense_oracle(self):
        inst = _tight_half_base()
        game = cheat_game(inst)
        rng = np.random.Generator(np.random.Philox(key=8))
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        us = {}
        for y in ("0", "1"):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            q, _ = np.linalg.qr(g)
            us[y] = q
        got = strategy_value(game, psi, us)
        want = 0.0
        for y in ("0", "1"):
            big_u = np.kron(np.eye(2), us[y])
            big_l = np.kron(game.lambdas[y], np.eye(4))
            moved = big_u @ psi
            want += 0.5 * float(np.real(moved.conj() @ (big_l @ moved)))
        assert abs(got - want) < 1e-12

    def test_honest_translation_is_valid_strategy(self):
        inst = _perfect_base(1, 1, seed=3)
        strat = translate_honest(inst)
        assert abs(np.linalg.norm(strat.psi) - 1.0) < 1e-9
        assert set(strat.u_by_coin) == {"0", "1"}

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            MerlinStrategy(psi=np.array([2.0, 0.0]), u_by_coin={})
        with pytest.raises(ValueError):
            MerlinStrategy(
                psi=np.array([1.0, 0.0]),
                u_by_coin={"0": np.array([[1.0, 0.0], [0.0, 2.0]])},
            )


def _spectator_optimum(base: QipInstance) -> float:
    """Exact cheat optimum when both tests ignore the message register.

    With message-spectator tests the prover's responses cannot change the
    tested work-register state, so the game value is half the top eigenvalue
    of the summed work-side test operators.
    """
    tails, heads = base.lambda_tails(), base.lambda_heads()
    dim_v = 1 << base.k
    dim_m = 1 << base.m
    t_v = tails.reshape(dim_v, dim_m, dim_v, dim_m)[:, 0, :, 0]
    h_v = heads.reshape(dim_v, dim_m, dim_v, dim_m)[:, 0, :, 0]
    assert np.abs(tails - np.kron(t_v, np.eye(dim_m))).max() < 1e-12
    assert np.abs(heads - np.kron(h_v, np.eye(dim_m))).max() < 1e-12
    top = eig_hermitian(t_v + h_v).eigenvalues[0]
    return 0.5 * float(top)


class TestCheating:
    def test_zero_epsilon_optimum_is_half(self):
        inst = _coin_base(0, 1, 1)
        result = optimize_cheating(inst, restarts=6)
        assert result.value <= 0.5 + 1e-9
        assert result.value >= 0.5 - 1e-7
        assert result.converged

    def test_tight_half_matches_closed_form(self):
        base = _tight_half_base()
        result = optimize_cheating(base, restarts=8)
        closed = 0.5 * (1.0 + 2 ** -0.5)
        assert abs(result.value - closed) < 1e-6
        assert result.value <= soundness_bound(base) + 1e-9

    def test_coin_gadgets_saturate_bound(self):
        # the tossed-coin gadgets achieve exactly 1/2 + sqrt(eps)/2
        for n_coins, k in ((2, 3),):
            base = _coin_base(n_coins, k, 1)
            oracle = _spectator_optimum(base)
            assert abs(oracle - soundness_bound(base)) < 1e-12
            result = optimize_cheating(base, restarts=8)
            assert result.value <= oracle + 1e-9
            assert result.value >= oracle - 1e-5

    def test_dim2_bloch_grid_oracle(self):
        # k = 1 reduces to one qubit: scan pure states on a Bloch grid
        for v2_gates, key in (([hadamard(0)], 9), ([ishift(0), hadamard(0)], 10)):
            base = QipInstance(
                v1=circuit(2),
                v2=circuit(2, v2_gates),
                k=1,
                m=1,
                epsilon=Fraction(1, 2),
            )
            # V2 touches only the work qubit: pull its dagger column out
            b_full = to_unitary(base.v2).conj().T[:, 2].reshape(2, 2)
            assert np.abs(b_full[:, 1]).max() < 1e-12
            b = b_full[:, 0]
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12
            closed = 0.5 * (1.0 + abs(b[0]))
            theta = np.linspace(0.0, np.pi, 241)
            phi = np.linspace(0.0, 2 * np.pi, 480, endpoint=False)
            ct, st = np.cos(theta / 2)[:, None], np.sin(theta / 2)[:, None]
            v0 = np.broadcast_to(ct, (241, 480))
            v1 = st * np.exp(1j * phi)[None, :]
            grid = 0.5 * (np.abs(v0) ** 2 + np.abs(b[0] * v0.conj() + b[1] * v1.conj()) ** 2)
            assert abs(grid.max() - closed) < 2e-4
            result = optimize_cheating(base, restarts=8, seed=key)
            assert abs(result.value - closed) < 1e-4

    def test_random_instances_respect_theorem(self):
        for seed in (21, 22):
            base = _random_base(1, 1, seed=seed)
            direct, _ = max_accept_two_ways(base, restarts=6, seed=seed)
            result = optimize_cheating(base, restarts=8, seed=seed)
            bound = 0.5 + (max(direct, 0.0) + 1e-9) ** 0.5 / 2
            assert result.value <= bound + 1e-6
            assert result.value >= 0.5 - 1e-9

    def test_result_reports_iterations(self):
        inst = _coin_base(0, 1, 1)
        result = optimize_cheating(inst, restarts=2)
        assert result.iterations >= 1
        assert isinstance(result.strategy, MerlinStrategy)

    def test_needs_a_restart(self):
        inst = _coin_base(0, 1, 1)
        for restarts in (0, -4):
            with pytest.raises(ValueError, match="restart"):
                optimize_cheating(inst, restarts=restarts)
        for max_iters in (0, -1):
            with pytest.raises(ValueError, match="iteration"):
                optimize_cheating(inst, max_iters=max_iters, restarts=2)


def _reference_seesaw(game, psi0, u0, tol, max_iters):
    """Full-unitary see-saw: du x du polar steps by full SVD at every iteration."""
    coins = game.coins()
    weight = 1.0 / len(coins)
    dim_first = 1 << game.k
    dim_front = 1 << (game.k + game.m)
    psi = psi0 / np.linalg.norm(psi0)
    us = dict(u0)
    value = -1.0
    for it in range(1, max_iters + 1):
        targets = {}
        new_value = 0.0
        for y in coins:
            moved = _apply_last(psi, us[y], dim_first)
            projected = _apply_first(moved, game.lambdas[y], dim_front)
            new_value += weight * float(np.real(np.vdot(moved, projected)))
            norm = np.linalg.norm(projected)
            targets[y] = projected / norm if norm > 1e-150 else None
        assert new_value >= value - 1e-9
        if new_value <= value + tol:
            return max(new_value, value), psi, us, True, it
        value = new_value
        psi_mat = psi.reshape(dim_first, -1)
        for y in coins:
            if targets[y] is None:
                continue
            c = (targets[y].reshape(dim_first, -1).conj().T @ psi_mat).T
            v, _, wh = np.linalg.svd(c)
            us[y] = (v @ wh).conj().T
        back = [
            _apply_last(targets[y], us[y].conj().T, dim_first)
            for y in coins
            if targets[y] is not None
        ]
        if not back:
            return value, psi, us, True, it
        b = np.stack(back, axis=1) * math.sqrt(weight)
        coeff = eig_hermitian(b.conj().T @ b).vectors[:, 0]
        candidate = b @ coeff
        norm = np.linalg.norm(candidate)
        if norm > 1e-150:
            psi = candidate / norm
    return value, psi, us, False, max_iters


class TestReducedSeesaw:
    @staticmethod
    def _check_batch(game, starts):
        """Every start of one batched see-saw retraces its own full-unitary reference."""
        du = 1 << (game.m + game.l)
        identity = {y: np.eye(du, dtype=np.complex128) for y in game.coins()}
        values, converged, iterations, strategy = _seesaw_cheat(
            game, [psi0 for psi0, _ in starts], [u0 for _, u0 in starts], 1e-8, 500
        )
        for i, (psi0, u0) in enumerate(starts):
            ref = _reference_seesaw(game, psi0, u0 or identity, 1e-8, 500)
            assert iterations[i] == ref[4]
            assert converged[i] == ref[3]
            assert abs(values[i] - ref[0]) < 1e-8
            played = strategy(i)
            assert abs(strategy_value(game, played.psi, played.u_by_coin) - values[i]) < 1e-9
            # batch-mates never touch a start's path: alone it ends bit for bit the same
            alone = _seesaw_cheat(game, [psi0], [u0], 1e-8, 500)
            assert (alone[0][0], alone[2][0]) == (values[i], iterations[i])

    @pytest.mark.parametrize(
        "kind, params, seed",
        [
            ("qip-no", {"k": 3, "m": 1, "coins": 2}, 0),
            ("qip-no", {"k": 3, "m": 1, "coins": 2}, 1),
            ("qip-perfect", {"k": 2, "m": 1}, 2),
            ("qip-perfect", {"k": 2, "m": 1}, 3),
            ("qip-perfect", {"k": 2, "m": 1}, 4),
        ],
    )
    def test_matches_full_unitary_reference(self, kind, params, seed):
        game = cheat_game(generate_instance(kind, seed, **params))
        dim = 1 << game.total_qubits
        du = 1 << (game.m + game.l)
        rng = np.random.Generator(np.random.Philox(key=seed))
        # a random, non-identity starting response as in the seeds= path
        rotated = {y: np.linalg.qr(rng.normal(size=(du, du)) + 1j * rng.normal(size=(du, du)))[0]
                   for y in game.coins()}
        starts = [(rng.normal(size=dim) + 1j * rng.normal(size=dim), u0)
                  for u0 in (None, None, rotated, None)]
        self._check_batch(game, starts)

    def test_norms_round_as_one_vector(self):
        """The batch's norms equal numpy.linalg.norm of each row bit for bit."""
        rng = np.random.Generator(np.random.Philox(key=9))
        scales = 10.0 ** rng.integers(-8, 8, size=(3, 2, 1, 1))
        rows = (rng.normal(size=(3, 2, 1, 40)) + 1j * rng.normal(size=(3, 2, 1, 40))) * scales
        norms = _dot_norms(rows)
        assert norms.shape == (3, 2, 1, 1)
        for i, j in np.ndindex(3, 2):
            assert norms[i, j, 0, 0] == np.linalg.norm(rows[i, j, 0])

    @pytest.mark.parametrize("dead", [("1",), ("0", "1")])
    def test_dead_targets(self, dead):
        """A zero test operator leaves its coin without a target; with none left a start stops."""
        game = cheat_game(generate_instance("qip-no", 5, k=3, m=1, coins=2))
        game = CheatGame(game.k, game.m, game.l, {
            y: np.zeros_like(op) if y in dead else op for y, op in game.lambdas.items()
        })
        dim = 1 << game.total_qubits
        rng = np.random.Generator(np.random.Philox(key=5))
        self._check_batch(game, [(rng.normal(size=dim) + 1j * rng.normal(size=dim), None)
                                 for _ in range(3)])


def _reference_direct(base, psi0, tol, max_iters):
    """Full-unitary direct see-saw: a du x du polar step by full SVD at every iteration."""
    k, m = base.k, base.m
    l = k + m
    dim_vm = 1 << (k + m)
    u1 = to_unitary(base.v1)
    u2 = to_unitary(base.v2)
    n_tot = k + m + l
    idx = np.arange(1 << n_tot)
    pi_mask = (idx >> (n_tot - 1)) & 1 == 1
    du = 1 << (m + l)
    psi = psi0 / np.linalg.norm(psi0)
    u = np.eye(du, dtype=np.complex128)
    value = -1.0
    for it in range(1, max_iters + 1):
        start = np.zeros(1 << n_tot, dtype=np.complex128)
        start.reshape(1 << k, du)[0, :] = psi
        w = _apply_first(start, u1, dim_vm)
        moved = _apply_last(w, u, 1 << k)
        final = _apply_first(moved, u2, dim_vm)
        projected = np.where(pi_mask, final, 0.0)
        new_value = float(np.real(np.vdot(final, projected)))
        if new_value <= value + tol:
            return max(new_value, value), psi, u, True, it
        value = new_value
        norm_t = np.linalg.norm(projected)
        if norm_t < 1e-150:
            return value, psi, u, True, it
        t = projected / norm_t
        alpha = _apply_first(t, u2.conj().T, dim_vm)
        c = (alpha.reshape(1 << k, du).conj().T @ w.reshape(1 << k, du)).T
        v, _, wh = np.linalg.svd(c)
        u = (v @ wh).conj().T
        back = _apply_last(alpha, u.conj().T, 1 << k)
        back = _apply_first(back, u1.conj().T, dim_vm)
        block = back.reshape(1 << k, du)[0, :]
        norm = np.linalg.norm(block)
        if norm > 1e-150:
            psi = block / norm
    return value, psi, u, False, max_iters


def _small_bases() -> list:
    """Small three-message bases on which every see-saw start converges."""
    return [
        generate_instance("qip-no", seed=0, k=2, m=1, coins=1),
        generate_instance("qip-no", seed=0, k=3, m=1, coins=2),
        generate_instance("qip-perfect", seed=1, k=1, m=1, gates=8),
        generate_instance("qip-perfect", seed=2, k=2, m=1, gates=8),
        _random_base(1, 1, seed=31),
        _random_base(2, 1, seed=32),
        _random_base(1, 2, seed=33),
    ]


def _direct_kernel_args(base):
    """(Lambda, basis, dim_first, du) of the direct route: heads test, lifted tails states."""
    return base.lambda_heads(), base.u1[:, : 1 << base.m], 1 << base.k, 1 << (base.m + base.l)


def _random_unitaries(rng, count, dim):
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return np.linalg.qr(g)[0]


class TestConfinedSeesaw:
    @staticmethod
    def _cases():
        """(name, Lambda, basis, dim_first, phi0, u0): direct starts and pinned Uhlmann starts."""
        rng = np.random.Generator(np.random.Philox(key=70))
        cases, bases = [], _small_bases()
        for i in (1, 3, 6):
            lam, basis, dim_first, du = _direct_kernel_args(bases[i])
            phi0 = rng.normal(size=(4, du)) + 1j * rng.normal(size=(4, du))
            u0 = np.concatenate([np.broadcast_to(np.eye(du), (3, du, du)),
                                 _random_unitaries(rng, 1, du)])
            cases.append((f"direct-{i}", lam, basis, dim_first, phi0, u0))
        dim_v, dim_m = 2, 4
        dim = dim_v * dim_m
        q = _random_unitaries(rng, 1, dim)[0]
        lam = q[:, :3] @ q[:, :3].conj().T
        j = purify(_random_density(rng, dim))[:, None]
        u0 = np.concatenate([np.eye(dim_m * dim)[None], _random_unitaries(rng, 2, dim_m * dim)])
        cases.append(("pinned", lam, j, dim_v, np.ones((3, 1), dtype=np.complex128), u0))
        return cases

    def test_starts_run_alone_as_in_the_batch(self):
        for name, lam, basis, dim_first, phi0, u0 in self._cases():
            batch = _seesaw_confined(lam, basis, dim_first, phi0, u0, 1e-10, 2000)
            assert batch[1].all(), name
            for i in range(len(phi0)):
                alone = _seesaw_confined(lam, basis, dim_first, phi0[i : i + 1], u0[i : i + 1],
                                         1e-10, 2000)
                for got, want in zip(alone, batch):
                    assert np.array_equal(got[0], want[i]), name

    def test_results_replay_to_their_values(self):
        for name, lam, basis, dim_first, phi0, u0 in self._cases():
            values, _, _, phis, us = _seesaw_confined(lam, basis, dim_first, phi0, u0, 1e-10, 2000)
            rest = phi0.shape[1] // basis.shape[1]
            full = len(basis) * rest
            lift = np.kron(basis, np.eye(rest))
            test = np.kron(lam, np.eye(full // len(lam)))
            for value, phi, u in zip(values, phis, us):
                assert np.abs(u.conj().T @ u - np.eye(len(u))).max() < 1e-12, name
                assert abs(np.linalg.norm(phi) - 1.0) < 1e-12, name
                replay = np.linalg.norm(test @ np.kron(np.eye(dim_first), u) @ lift @ phi) ** 2
                assert abs(replay - value) < 1e-12, name

    @pytest.mark.parametrize("index", range(7))
    def test_reaches_the_full_unitary_reference(self, index):
        base = _small_bases()[index]
        lam, basis, dim_first, du = _direct_kernel_args(base)
        rng = np.random.Generator(np.random.Philox(key=index))
        phi0 = rng.normal(size=(4, du)) + 1j * rng.normal(size=(4, du))
        eye = np.broadcast_to(np.eye(du), (4, du, du))
        values, converged = _seesaw_confined(lam, basis, dim_first, phi0, eye, 1e-10, 2000)[:2]
        refs = [_reference_direct(base, psi0, 1e-10, 2000) for psi0 in phi0]
        assert converged.all() and all(ref[3] for ref in refs)
        assert abs(values.max() - max(ref[0] for ref in refs)) < 1e-8


class TestTwoWays:
    def test_rejects_bad_counts(self):
        base = _coin_base(0, 1, 1)
        for counts, word in (({"restarts": 0}, "restart"), ({"restarts": -4}, "restart"),
                             ({"max_iters": 0}, "iteration")):
            with pytest.raises(ValueError, match=word):
                max_accept_two_ways(base, **counts)

    def test_agreement_on_random_bases(self):
        for k, m, seed in ((1, 1, 31), (2, 1, 32), (1, 2, 33)):
            base = _random_base(k, m, seed=seed)
            direct, fid_form = max_accept_two_ways(base, restarts=8, seed=seed)
            assert abs(direct - fid_form) < 1e-6

    def test_perfect_base_reaches_one(self):
        base = _perfect_base(1, 1, seed=34)
        direct, fid_form = max_accept_two_ways(base, restarts=6, seed=34)
        assert direct > 1 - 1e-7  # V2 composes to an exact output flip
        assert abs(direct - fid_form) < 1e-6

    def test_known_epsilon_gadget(self):
        base = _coin_base(2, 3, 1)
        direct, fid_form = max_accept_two_ways(base, restarts=8)
        assert abs(direct - 0.25) < 1e-7
        assert abs(fid_form - 0.25) < 1e-6


class TestUhlmannBound:
    def test_seeded_joints_never_beat_bound(self):
        rng = np.random.Generator(np.random.Philox(key=40))
        dim_v, dim_m = 2, 4
        dim = dim_v * dim_m
        for trial in range(10):
            joint = _random_density(rng, dim)
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(g)
            rank = int(rng.integers(1, dim))
            lam = q[:, :rank] @ q[:, :rank].conj().T
            measured, bound = uhlmann_bound_check(joint, lam, dim_v, dim_m)
            assert measured <= bound + 1e-6
            assert bound <= 1.0 + 1e-9

    def test_rejects_bad_counts(self):
        joint = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        for max_iters in (0, -1):
            with pytest.raises(ValueError, match="iteration"):
                uhlmann_bound_check(joint, joint, 2, 2, max_iters=max_iters)

    def test_pure_supported_joint_is_tight(self):
        # joint already inside the subspace: measured = 1 forces bound 1
        lam = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        joint = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        measured, bound = uhlmann_bound_check(joint, lam, 2, 2)
        assert abs(measured - 1.0) < 1e-12
        assert bound >= 1.0 - 1e-9


class TestRepetition:
    def test_product_strategy_squares_value(self):
        inst = _tight_half_base()
        game = cheat_game(inst)
        rng = np.random.Generator(np.random.Philox(key=50))
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        us = {}
        for y in ("0", "1"):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            q, _ = np.linalg.qr(g)
            us[y] = q
        single = MerlinStrategy(psi=psi, u_by_coin=us)
        v1 = strategy_value(game, single.psi, single.u_by_coin)
        doubled = repeated_cheat_game(inst, 2)
        prod = product_strategy(inst, single, 2)
        v2 = strategy_value(doubled, prod.psi, prod.u_by_coin)
        assert abs(v2 - v1 * v1) < 1e-10

    def test_repeated_game_shape(self):
        inst = _tight_half_base()
        doubled = repeated_cheat_game(inst, 2)
        assert (doubled.k, doubled.m, doubled.l) == (2, 2, 4)
        assert sorted(doubled.lambdas) == ["00", "01", "10", "11"]
        for lam in doubled.lambdas.values():
            assert np.abs(lam @ lam - lam).max() < 1e-9

    def test_honest_value_preserved_under_repetition(self):
        inst = _perfect_base(1, 1, seed=60)
        assert abs(repeated_honest_value(inst, 2) - 1.0) < 1e-9

    def test_two_fold_soundness_squares(self):
        base = _tight_half_base()
        single = optimize_cheating(base, restarts=8)
        doubled = repeated_cheat_game(base, 2)
        seed_strategy = product_strategy(base, single.strategy, 2)
        result = optimize_cheating(
            doubled, restarts=6, seeds=[seed_strategy], max_iters=400
        )
        target = single.value**2
        assert result.value <= target + 1e-3
        assert result.value >= target - 1e-3
