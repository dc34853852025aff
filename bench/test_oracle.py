"""Hand-checkable cases for the benchmark's oracle.

    python3 -m pytest bench/test_oracle.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle

SRC = Path(__file__).resolve().parent.parent / "src"


def test_hadamard_on_zero():
    state = oracle.simulate("qubits 1\nH 0\n", np.array([[1.0], [0.0]]))
    assert np.allclose(state[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_shift_multiplies_one_by_i():
    assert np.allclose(oracle.unitary("qubits 1\nS 0\n"), np.diag([1, 1j]))


def test_toffoli_truth_table():
    u = oracle.unitary("qubits 3\nT 0 1 2\n")
    for index in range(8):
        flipped = index ^ 1 if index >> 1 == 0b11 else index
        assert u[flipped, index] == 1


def test_toffoli_on_reordered_qubits():
    # controls are qubits 2 and 0, target qubit 1; qubit 0 is the top bit
    u = oracle.unitary("qubits 3\nT 2 0 1\n")
    assert u[0b111, 0b101] == 1 and u[0b101, 0b111] == 1
    assert u[0b110, 0b110] == 1 and u[0b011, 0b011] == 1


def test_gate_on_lower_qubit_of_wider_register():
    # H on qubit 1 of two qubits: |00> -> (|00> + |01>)/sqrt2
    state = oracle.simulate("qubits 2\nH 1\n", np.eye(4)[:, :1])
    assert np.allclose(state[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])


def test_acceptance_operator_of_a_flip():
    # X on the output qubit (= H S S H) accepts message |0> and rejects |1>
    q = oracle.acceptance_operator("qubits 2\nH 0\nS 0\nS 0\nH 0\n", 1, 1)
    assert np.allclose(q, np.diag([1.0, 0.0]))


def test_binomial_tail_symmetry():
    p, n = Fraction(3, 10), 9
    for t in range(n + 2):
        assert oracle.binomial_tail_exact(p, n, t) == 1 - oracle.binomial_tail_exact(1 - p, n, n - t + 1)


def test_binomial_tail_small_case():
    # Pr[Bin(2, 1/2) >= 1] = 3/4
    assert oracle.binomial_tail_exact(Fraction(1, 2), 2, 1) == Fraction(3, 4)
    assert oracle.binomial_tail_exact(Fraction(1, 3), 4, 0) == 1


def test_poisson_binomial_matches_exact_binomial():
    for p, n, t in ((Fraction(1, 4), 12, 5), (Fraction(5, 8), 30, 16)):
        exact = oracle.binomial_tail_exact(p, n, t)
        assert oracle.binomial_tail(float(p), n, t) == pytest.approx(float(exact), abs=1e-14)


def test_poisson_binomial_by_hand():
    # two coins with p = 1/2 and 1/4: Pr[both] = 1/8, Pr[at least one] = 5/8
    assert oracle.poisson_binomial_tail([0.5, 0.25], 2) == pytest.approx(0.125)
    assert oracle.poisson_binomial_tail([0.5, 0.25], 1) == pytest.approx(0.625)


def test_as_dyadic_rejects_non_dyadic():
    assert oracle.as_dyadic(0.75 + 1e-15, 4) == Fraction(3, 4)
    with pytest.raises(ValueError):
        oracle.as_dyadic(1 / 3, 4)


@pytest.fixture(scope="module")
def qamg_harness():
    sys.path.insert(0, str(SRC))
    import qamg.harness

    return qamg.harness


@pytest.mark.parametrize("target, count, coins", [("1/2", 1, 1), ("3/4", 3, 2), ("1/4", 1, 2)])
def test_qma_p_spectrum(qamg_harness, target, count, coins):
    inst = qamg_harness.generate_instance("qma-p", 0, target=target, m=1, k=3)
    data = qamg_harness.instance_to_dict(inst)
    values = sorted(oracle.spectrum(oracle.acceptance_operator(data["circuit"], 1, 3)))
    low = Fraction(count, 2**coins)
    assert values == pytest.approx(sorted([float(low), float(1 - low)]), abs=1e-12)


def test_one_coin_honest_value_of_a_perfect_game(qamg_harness):
    inst = qamg_harness.generate_instance("qip-perfect", 4, k=2, m=1)
    data = qamg_harness.instance_to_dict(inst)
    tails, heads = oracle.one_coin_tests(data["v1"], data["v2"], data["k"], data["m"])
    for op in (tails, heads):
        assert np.allclose(op @ op, op) and np.allclose(op, op.conj().T)
    assert oracle.honest_one_coin_value(data["v1"], data["v2"], data["k"], data["m"]) == pytest.approx(1.0, abs=1e-12)


def test_one_coin_honest_value_of_a_no_game(qamg_harness):
    # V1 is empty and V2 flips the output on one of four coin patterns: (1 + 1/4) / 2
    inst = qamg_harness.generate_instance("qip-no", 0, k=3, m=1, coins=2)
    data = qamg_harness.instance_to_dict(inst)
    assert oracle.honest_one_coin_value(data["v1"], data["v2"], 3, 1) == pytest.approx(5 / 8, abs=1e-12)
