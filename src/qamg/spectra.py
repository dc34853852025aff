"""Acceptance operators and Hermitian spectra.

The acceptance operator of a verifier circuit A on m message qubits with k
workspace qubits is Q[i,j] = <0|A(j)* P1 A(i)|0> restricted to the message
register: its eigenvalues are the acceptance probabilities of the optimal
witnesses.  Eigenproblems are solved by LAPACK through `numpy.linalg.eigh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .circuits import Circuit, StateVector, apply_circuit, message_rows, output_one_mask
from .exact import ExactScalar

_EIG_DIM_CAP = 1 << 14
_CLAMP_TOL = 1e-9  # how far outside [0, 1] an acceptance eigenvalue may round
_DENSITY_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order; vectors[..., :, i] pairs with eigenvalues[..., i].

    Leading axes, if any, index a stack of independent decompositions.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        weighted = self.vectors * self.eigenvalues[..., None, :]
        return weighted @ self.vectors.conj().swapaxes(-1, -2)


def eig_hermitian(matrix: Union[np.ndarray, Sequence[Sequence[complex]]]) -> SpectralDecomposition:
    """Full eigensystem of a Hermitian matrix, or of each in a (..., d, d) stack, by LAPACK.

    Every matrix of a stack passes the same square, dimension-cap and
    Hermitian checks as a single one, and all are solved in one
    `numpy.linalg.eigh` call.
    """
    h = np.array(matrix, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    n = h.shape[-1]
    if n > _EIG_DIM_CAP:
        raise ValueError(f"dimension {n} exceeds cap {_EIG_DIM_CAP}")
    h_dagger = h.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(h - h_dagger).max(axis=(-2, -1), initial=0.0) > 1e-10 * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(0.5 * (h + h_dagger))
    # eigh ascends; reverse to descending
    return SpectralDecomposition(values[..., ::-1].copy(), vectors[..., ::-1].copy())


def _message_columns(verifier: Circuit, m: int, k: int, outcome: int, exact: bool) -> StateVector:
    """The verifier applied to every message basis state as one block, projected on the outcome."""
    _check_arities(verifier, m, k)
    block = apply_circuit(StateVector.columns(verifier.width, message_rows(m, k), exact), verifier)
    mask = output_one_mask(verifier.width)
    return block.project(mask if outcome == 1 else ~mask)


def _gram_operator(verifier: Circuit, m: int, k: int, outcome: int) -> np.ndarray:
    cols = _message_columns(verifier, m, k, outcome, exact=False).vec
    q = cols.conj().T @ cols
    return 0.5 * (q + q.conj().T)


def _gram_operator_exact(
    verifier: Circuit, m: int, k: int, outcome: int
) -> list[list[ExactScalar]]:
    return _message_columns(verifier, m, k, outcome, exact=True).gram()


def accepted_columns_exact(verifier: Circuit, m: int, k: int) -> StateVector:
    """The exact block whose Gram matrix is the acceptance operator: the
    verifier on every message basis state, projected on acceptance."""
    return _message_columns(verifier, m, k, 1, exact=True)


def acceptance_operator(verifier: Circuit, m: int, k: int) -> np.ndarray:
    """Float acceptance operator on the 2^m message space."""
    return _gram_operator(verifier, m, k, 1)


def acceptance_operator_exact(verifier: Circuit, m: int, k: int) -> list[list[ExactScalar]]:
    """Exact acceptance operator; entry [i][j] is <col_i, col_j>."""
    return _gram_operator_exact(verifier, m, k, 1)


def rejection_operator(verifier: Circuit, m: int, k: int) -> np.ndarray:
    """Complementary operator; acceptance + rejection = identity."""
    return _gram_operator(verifier, m, k, 0)


def rejection_operator_exact(verifier: Circuit, m: int, k: int) -> list[list[ExactScalar]]:
    return _gram_operator_exact(verifier, m, k, 0)


def _check_arities(verifier: Circuit, m: int, k: int) -> None:
    if m < 0 or k < 0 or m + k != verifier.width:
        raise ValueError(
            f"message/workspace arities ({m},{k}) do not fit circuit width {verifier.width}"
        )


def acceptance_spectrum(q: np.ndarray) -> SpectralDecomposition:
    """Full spectrum of an acceptance operator, eigenvalues clamped to [0,1]."""
    decomp = eig_hermitian(q)
    vals = decomp.eigenvalues
    if vals.size and (vals[-1] < -_CLAMP_TOL or vals[0] > 1.0 + _CLAMP_TOL):
        raise ValueError(f"eigenvalues {vals} outside [0,1] beyond tolerance")
    return SpectralDecomposition(np.clip(vals, 0.0, 1.0), decomp.vectors)


def partial_trace(
    state_or_density: np.ndarray, keep: Sequence[int], dims: Sequence[int]
) -> np.ndarray:
    """Reduced density matrix over `keep` (ascending original order)."""
    dims = list(dims)
    total = int(np.prod(dims))
    arr = np.asarray(state_or_density, dtype=np.complex128)
    if arr.ndim == 1:
        if arr.shape[0] != total:
            raise ValueError(f"state length {arr.shape[0]} != prod(dims) {total}")
        rho = np.outer(arr, arr.conj())
    elif arr.ndim == 2 and arr.shape == (total, total):
        rho = arr
    else:
        raise ValueError(f"bad shape {arr.shape} for dims {dims}")
    keep = sorted(set(keep))
    if any(i < 0 or i >= len(dims) for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    n = len(dims)
    rho = rho.reshape(dims + dims)
    # trace out complements pairwise, highest axis first to keep indices stable
    for i in reversed(range(n)):
        if i not in keep:
            rho = np.trace(rho, axis1=i, axis2=i + (rho.ndim // 2))
    kept_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    return rho.reshape(kept_dim, kept_dim)


def assert_density(rho: np.ndarray) -> None:
    """Validate Hermiticity, unit trace, and positive semidefiniteness."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    if float(np.abs(rho - rho.conj().T).max(initial=0.0)) > _DENSITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(float(np.trace(rho).real) - 1.0) > _DENSITY_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    vals = eig_hermitian(rho).eigenvalues
    if vals.size and vals[-1] < -_DENSITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {vals[-1]}")
