"""Spectra tests.

The Hermitian eigensolver (a wrapper on LAPACK) is checked against an exact
characteristic polynomial computed by Leibniz expansion over Gaussian
rationals, plus residual and trace identities.  Acceptance operators are checked against hand-computed
2x2 cases and exact/float agreement on random circuits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qamg.circuits import circuit, hadamard, ishift, to_unitary, toffoli
from qamg.exact import scalars_from_planes
from qamg.spectra import (
    acceptance_operator,
    acceptance_operator_exact,
    acceptance_spectrum,
    eig_hermitian,
    partial_trace,
)


def _top(q: np.ndarray) -> tuple[float, np.ndarray]:
    """Top clamped acceptance eigenvalue and its eigenvector."""
    spec = acceptance_spectrum(q)
    return float(spec.eigenvalues[0]), spec.vectors[:, 0]


# complex rationals as (re, im) Fraction pairs; enough for a det oracle
def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _char_poly_exact(entries: list[list[tuple[Fraction, Fraction]]]) -> list[Fraction]:
    """Coefficients of det(lambda*I - H), ascending degree, by permutation expansion."""
    n = len(entries)
    zero = (Fraction(0), Fraction(0))
    coeffs = [zero] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start] or perm[start] == start:
                seen[start] = True
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        # product over i of (lambda*delta - H)[i, perm[i]], each linear in lambda
        poly = [(Fraction(sign), Fraction(0))]
        for i in range(n):
            const = (-entries[i][perm[i]][0], -entries[i][perm[i]][1])
            lin = (Fraction(1 if perm[i] == i else 0), Fraction(0))
            nxt = [zero] * (len(poly) + 1)
            for d, c in enumerate(poly):
                nxt[d] = _cadd(nxt[d], _cmul(c, const))
                nxt[d + 1] = _cadd(nxt[d + 1], _cmul(c, lin))
            poly = nxt
        for d, c in enumerate(poly):
            coeffs[d] = _cadd(coeffs[d], c)
    for c in coeffs:
        assert c[1] == 0  # Hermitian char poly is real
    return [c[0] for c in coeffs]


def _random_hermitian_rational(rng: np.random.Generator, n: int):
    """Hermitian matrix with entries (a+bi)/8, plus the same data as floats."""
    entries = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = (Fraction(int(rng.integers(-8, 9)), 8), Fraction(0))
        for j in range(i + 1, n):
            re = Fraction(int(rng.integers(-8, 9)), 8)
            im = Fraction(int(rng.integers(-8, 9)), 8)
            entries[i][j] = (re, im)
            entries[j][i] = (re, -im)
    mat = np.array(
        [[float(e[0]) + 1j * float(e[1]) for e in row] for row in entries],
        dtype=np.complex128,
    )
    return entries, mat


class TestEigHermitian:
    def test_char_poly_oracle_6x6(self):
        rng = np.random.default_rng(7)
        entries, mat = _random_hermitian_rational(rng, 6)
        exact_coeffs = _char_poly_exact(entries)
        decomp = eig_hermitian(mat)
        vals = decomp.eigenvalues
        # eigenvalues must reproduce every char poly coefficient
        computed = np.poly(vals)[::-1]  # ascending degree
        for d in range(7):
            target = float(exact_coeffs[d])
            assert abs(computed[d] - target) <= 1e-8 * max(1.0, abs(target))

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 9, 16):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = a + a.conj().T
            decomp = eig_hermitian(h)
            v, lam = decomp.vectors, decomp.eigenvalues
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.abs(h @ v - v * lam).max() <= 1e-10 * max(1.0, np.abs(h).max())
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10
            assert abs(lam.sum() - np.trace(h).real) <= 1e-9 * max(1.0, abs(np.trace(h)))
            assert np.abs(decomp.reconstruct() - h).max() <= 1e-9 * max(1.0, np.abs(h).max())

    def test_degenerate_and_trivial(self):
        d = eig_hermitian(np.eye(4))
        assert np.allclose(d.eigenvalues, 1.0)
        assert np.abs(d.vectors.conj().T @ d.vectors - np.eye(4)).max() <= 1e-12
        d = eig_hermitian(np.zeros((3, 3)))
        assert np.all(d.eigenvalues == 0.0)
        d = eig_hermitian(np.diag([1.0, 2.0, 2.0]))
        assert np.allclose(d.eigenvalues, [2.0, 2.0, 1.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 3, 5, 5)) + 1j * rng.normal(size=(2, 3, 5, 5))
        stack = a + a.conj().swapaxes(-1, -2)
        decomp = eig_hermitian(stack)
        assert decomp.eigenvalues.shape == (2, 3, 5) and decomp.vectors.shape == (2, 3, 5, 5)
        for i, j in np.ndindex(2, 3):
            single = eig_hermitian(stack[i, j])
            assert np.abs(decomp.eigenvalues[i, j] - single.eigenvalues).max() <= 1e-12
            assert np.all(np.diff(decomp.eigenvalues[i, j]) <= 1e-12)
        assert np.abs(decomp.reconstruct() - stack).max() <= 1e-10

    def test_stack_checks_every_matrix(self):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.zeros(3))
        # the Hermitian tolerance scales per matrix, not by the stack's largest entry
        stack = np.stack([np.diag([1e8, 0.0]), np.array([[0.0, 1e-3], [0.0, 0.0]])])
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(stack)

    def test_large_magnitude_scaling(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) * 1e6
        h = a + a.T
        decomp = eig_hermitian(h)
        assert np.abs(h @ decomp.vectors - decomp.vectors * decomp.eigenvalues).max() <= 1e-4


class TestAcceptanceOperator:
    def test_identity_verifier(self):
        c = circuit(1)
        q = acceptance_operator(c, m=1, k=0)
        assert np.abs(q - np.diag([0.0, 1.0])).max() <= 1e-15
        p1, witness = _top(q)
        assert p1 == 1.0
        assert abs(abs(witness[1]) - 1.0) <= 1e-12

    def test_hadamard_verifier(self):
        c = circuit(1, [hadamard(0)])
        q = acceptance_operator(c, m=1, k=0)
        assert np.abs(q - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= 1e-15
        p1, witness = _top(q)
        assert abs(p1 - 1.0) <= 1e-12
        probe = q @ witness
        assert np.linalg.norm(probe - witness) <= 1e-10

    def test_layouts_differ_for_lopsided_circuit(self):
        # the message sits on qubit 0, above the workspace; a work-first
        # embedding (message on qubit 1) would give 0.5 * I instead
        c = circuit(2, [hadamard(0)])
        q_msg = acceptance_operator(c, m=1, k=1)
        assert np.abs(q_msg - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= 1e-12
        u = to_unitary(c)
        accepted = u[[2, 3], :]  # rows where qubit 0 reads 1
        q_work = accepted[:, [0, 1]].conj().T @ accepted[:, [0, 1]]
        assert np.abs(q_work - 0.5 * np.eye(2)).max() <= 1e-12
        assert np.abs(q_msg - q_work).max() >= 0.5 - 1e-12

    def test_exact_matches_float(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            gates = []
            for _ in range(40):
                r = rng.integers(0, 3)
                if r == 0:
                    gates.append(hadamard(int(rng.integers(0, 4))))
                elif r == 1:
                    gates.append(ishift(int(rng.integers(0, 4))))
                else:
                    qs = rng.permutation(4)[:3]
                    gates.append(toffoli(int(qs[0]), int(qs[1]), int(qs[2])))
            c = circuit(4, gates)
            q_float = acceptance_operator(c, m=2, k=2)
            q_exact = scalars_from_planes(*acceptance_operator_exact(c, m=2, k=2))
            for i in range(4):
                diag = q_exact[i][i]
                assert diag.is_rational()
                assert Fraction(0) <= diag.to_fraction() <= Fraction(1)
                for j in range(4):
                    assert q_exact[i][j] == q_exact[j][i].conj()
                    approx, bound = q_exact[i][j].approx()
                    assert abs(approx - q_float[i, j]) <= 1e-12 + bound

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arities"):
            acceptance_operator(circuit(3), m=1, k=1)

    def test_random_witness_sampling_never_beats_optimum(self):
        rng = np.random.default_rng(17)
        gates = [hadamard(0), toffoli(2, 3, 0), ishift(1), hadamard(2), toffoli(1, 2, 0)]
        c = circuit(4, gates)
        q = acceptance_operator(c, m=2, k=2)
        p1, _ = _top(q)
        samples = rng.normal(size=(200_000, 4)) + 1j * rng.normal(size=(200_000, 4))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        probs = np.einsum("si,ij,sj->s", samples.conj(), q, samples).real
        assert probs.max() <= p1 + 1e-9
        assert probs.min() >= -1e-9

    def test_dense_sampling_approaches_optimum_in_dim_2(self):
        q = acceptance_operator(circuit(1, [hadamard(0)]), m=1, k=0)
        p1, _ = _top(q)
        rng = np.random.default_rng(29)
        samples = rng.normal(size=(1_000_000, 2)) + 1j * rng.normal(size=(1_000_000, 2))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        probs = np.einsum("si,ij,sj->s", samples.conj(), q, samples).real
        assert probs.max() <= p1 + 1e-9
        assert probs.max() >= p1 - 1e-3


class TestClamping:
    def test_clamps_within_tolerance(self):
        q = np.diag([1.0 + 5e-10, -3e-10])
        spec = acceptance_spectrum(q)
        assert spec.eigenvalues[0] == 1.0 and spec.eigenvalues[1] == 0.0

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(ValueError, match="outside"):
            acceptance_spectrum(np.diag([1.0 + 1e-6, 0.0]))
        with pytest.raises(ValueError, match="outside"):
            acceptance_spectrum(np.diag([0.5, -1e-6]))


class TestPartialTrace:
    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho = partial_trace(bell, keep=[0], dims=[2, 2])
        assert np.abs(rho - 0.5 * np.eye(2)).max() <= 1e-15
        rho = partial_trace(bell, keep=[1], dims=[2, 2])
        assert np.abs(rho - 0.5 * np.eye(2)).max() <= 1e-15

    def test_product_state_factors(self):
        a = np.array([0.6, 0.8j])
        b = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        joint = np.kron(a, b)
        rho_a = partial_trace(joint, keep=[0], dims=[2, 4])
        assert np.abs(rho_a - np.outer(a, a.conj())).max() <= 1e-14
        rho_b = partial_trace(joint, keep=[1], dims=[2, 4])
        assert np.abs(rho_b - np.outer(b, b.conj())).max() <= 1e-14

    def test_keep_all_and_keep_none(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        v = v / np.linalg.norm(v)
        full = partial_trace(v, keep=[0, 1], dims=[2, 2])
        assert np.abs(full - np.outer(v, v.conj())).max() <= 1e-15
        none = partial_trace(v, keep=[], dims=[2, 2])
        assert none.shape == (1, 1)
        assert abs(none[0, 0] - 1.0) <= 1e-15

    def test_density_input_matches_vector_input(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        from_vec = partial_trace(v, keep=[1], dims=[2, 2, 2])
        from_rho = partial_trace(np.outer(v, v.conj()), keep=[1], dims=[2, 2, 2])
        assert np.abs(from_vec - from_rho).max() <= 1e-14

    def test_three_subsystems_middle_keep(self):
        v = np.kron(np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0])), np.array([1.0, 1.0]) / math.sqrt(2))
        rho = partial_trace(v, keep=[1], dims=[2, 2, 2])
        assert np.abs(rho - np.diag([0.0, 1.0])).max() <= 1e-15

    def test_errors(self):
        with pytest.raises(ValueError, match="length"):
            partial_trace(np.ones(3), keep=[0], dims=[2, 2])
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(np.ones(4) / 2.0, keep=[2], dims=[2, 2])
        with pytest.raises(ValueError, match="shape"):
            partial_trace(np.ones((4, 2)), keep=[0], dims=[2, 2])
