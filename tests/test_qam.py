"""Coin-family game tests.

Repetition optimality is cross-checked two independent ways: the dense kron
tensor-sum eigenvalue and a circuit-level wide-register construction.  The
batched tensor sums must match a per-tuple np.kron loop kept here as the
reference.  The synthetic boundary tables exercise the exact 2/3-fraction cut.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qamg.circuits import (
    Circuit,
    StateVector,
    apply_circuit,
    circuit,
    hadamard,
    ishift,
    measure_projector,
    output_one_mask,
    swap_gates,
    toffoli,
    x_gates,
    cnot_gates,
)
import qamg.amplification as amplification
import qamg.qam as qam
from qamg.harness import generate_instance
from qamg.qam import (
    QamInstance,
    bp_pp_conditions,
    coin_strings,
    markov_check,
    markov_fractions,
    multilinear_f,
    optimal_qam_value,
    parallel_repetition_value,
    parallel_repetition_values,
    qam_value,
    repeated_game_operator,
)
from qamg.spectra import (
    acceptance_operator,
    acceptance_operator_exact,
    eig_hermitian,
    rejection_operator,
    rejection_operator_exact,
)
from qamg.amplification import threshold_count
from qamg.exact import ExactScalar, scalars_from_planes


def _accept_circuit():
    """Q = I on one message qubit (work bit set then swapped to the output)."""
    return circuit(3, x_gates(2) + swap_gates(0, 2, 1))


def _reject_circuit():
    """Q = 0 (a zero work bit is swapped onto the output)."""
    return circuit(3, swap_gates(0, 2, 1))


def _half_circuit():
    """Q = I/2 (a coin flip lands on the output)."""
    return circuit(3, [hadamard(1)] + cnot_gates(1, 0, 2))


def _random_circuit(seed: int, width: int = 3, n_gates: int = 20):
    gen = np.random.default_rng(seed)
    gates = []
    for _ in range(n_gates):
        r = gen.integers(0, 3)
        if r == 0:
            gates.append(hadamard(int(gen.integers(0, width))))
        elif r == 1:
            gates.append(ishift(int(gen.integers(0, width))))
        else:
            qs = gen.permutation(width)[:3]
            gates.append(toffoli(int(qs[0]), int(qs[1]), int(qs[2])))
    return circuit(width, gates)


def _random_instance(seed: int, s: int = 1) -> QamInstance:
    family = {y: _random_circuit(seed * 64 + i) for i, y in enumerate(coin_strings(s))}
    return QamInstance(s, family, 1, 2, Fraction(2, 3), Fraction(1, 3))


def _count_calls(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, fn = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestQamInstance:
    def test_validation(self):
        with pytest.raises(ValueError, match="cover"):
            QamInstance(1, {"0": _accept_circuit()}, 1, 2, Fraction(2, 3), Fraction(1, 3))
        with pytest.raises(ValueError, match="width"):
            QamInstance(0, {"": circuit(2)}, 1, 2, Fraction(2, 3), Fraction(1, 3))
        inst = QamInstance(0, {"": _accept_circuit()}, 1, 2, Fraction(2, 3), Fraction(1, 3))
        assert inst.coins() == [""]

    def test_coin_strings(self):
        assert coin_strings(2) == ["00", "01", "10", "11"]
        assert coin_strings(0) == [""]


class TestCoinSpectra:
    def test_complement_exact_identity(self):
        for circ in (_accept_circuit(), _half_circuit(), _random_circuit(7)):
            one = ExactScalar.from_int(1)
            zero = ExactScalar.from_int(0)
            q1 = scalars_from_planes(*acceptance_operator_exact(circ, 1, 2))
            q0 = scalars_from_planes(*rejection_operator_exact(circ, 1, 2))
            for i in range(2):
                for j in range(2):
                    expected = one if i == j else zero
                    assert q1[i][j] + q0[i][j] == expected

    def test_spectra_shapes_and_complement(self):
        inst = _random_instance(3, s=2)
        for y in coin_strings(2):
            accept = inst.coin_verifier(y).spectrum.eigenvalues
            assert np.all(np.diff(accept) <= 1e-12)
            assert 0.0 <= accept[-1] and accept[0] <= 1.0
            # the rejection operator's spectrum is the acceptance spectrum reflected
            reject = eig_hermitian(rejection_operator(inst.family[y], 1, 2)).eigenvalues
            assert np.abs(accept + reject[::-1] - 1.0).max() <= 1e-12
        assert inst.complement_gap() <= 1e-12

    def test_known_values(self):
        inst = QamInstance(
            1,
            {"0": _accept_circuit(), "1": _half_circuit()},
            1, 2, Fraction(2, 3), Fraction(1, 3),
        )
        assert np.allclose(inst.coin_verifier("0").spectrum.eigenvalues, [1.0, 1.0])
        assert np.allclose(inst.coin_verifier("1").spectrum.eigenvalues, [0.5, 0.5])

    def test_rejects_mismatched_pair(self, monkeypatch):
        # a rejection operator off by 1e-6 shows up as the complement gap
        inst = _random_instance(5, s=1)
        build = qam.rejection_operator
        monkeypatch.setattr(qam, "rejection_operator", lambda *a: build(*a) + 1e-6 * np.eye(2))
        assert abs(inst.complement_gap() - 1e-6) <= 1e-12

    def test_one_verifier_per_distinct_circuit(self, monkeypatch):
        one, half = _accept_circuit(), _half_circuit()
        family = {y: one if y[0] == "0" else half for y in coin_strings(3)}
        inst = QamInstance(3, family, 1, 2, Fraction(2, 3), Fraction(1, 3))
        builds = _count_calls(monkeypatch, qam, "QmaInstance")
        assert inst.coin_verifier("111") is inst.coin_verifier("100")
        assert [args[0] for args in builds] == [one, half]

    def test_coin_lookups_hash_no_circuit(self, monkeypatch):
        inst = generate_instance("qam-bounded", 0, s=6, m=2, k=3, error="1/16")
        markov_check(inst, "yes")
        hashes = _count_calls(monkeypatch, Circuit, "__hash__")
        markov_check(inst, "yes")
        assert hashes == []

    def test_coin_verifier_carries_the_game(self):
        inst = _random_instance(9, s=1)
        verifier = inst.coin_verifier("1")
        assert verifier.verifier is inst.family["1"]
        assert (verifier.m, verifier.k, verifier.a, verifier.b) == (1, 2, inst.a, inst.b)
        assert np.array_equal(verifier.q_operator(), acceptance_operator(inst.family["1"], 1, 2))

    def test_built_once_per_distinct_circuit(self, monkeypatch):
        inst = generate_instance("qam-bounded", 0, s=6, m=2, k=3, error="1/16")
        accepts = _count_calls(monkeypatch, amplification, "acceptance_operator")
        rejects = _count_calls(monkeypatch, qam, "rejection_operator")
        solves = _count_calls(monkeypatch, amplification, "acceptance_spectrum")
        assert len({id(inst.coin_verifier(y)) for y in inst.coins()}) == 2
        optimal_qam_value(inst)
        markov_check(inst, "yes")
        inst.complement_gap()
        # two distinct circuits among the 64 coins
        assert (len(accepts), len(rejects), len(solves)) == (2, 2, 2)


class TestQamValue:
    def test_optimal_eigenvector_strategy(self):
        inst = _random_instance(11, s=1)
        strategy = {y: inst.coin_verifier(y).spectrum.vectors[:, 0] for y in inst.coins()}
        got = qam_value(inst, strategy)
        want = optimal_qam_value(inst)
        assert abs(got - want) <= 1e-10

    def test_zero_coins_degenerates_to_single_verifier(self):
        inst = QamInstance(0, {"": _half_circuit()}, 1, 2, Fraction(2, 3), Fraction(1, 3))
        assert abs(qam_value(inst, {"": np.array([1.0, 0.0])}) - 0.5) <= 1e-12
        assert abs(optimal_qam_value(inst) - 0.5) <= 1e-12

    def test_matches_measurement_oracle(self):
        inst = _random_instance(13, s=1)
        rng = np.random.default_rng(5)
        strategy = {}
        for y in inst.coins():
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            strategy[y] = v / np.linalg.norm(v)
        got = qam_value(inst, strategy)
        # independent route: embed, run, measure the output qubit
        want = 0.0
        for y in inst.coins():
            vec = np.zeros(8, dtype=np.complex128)
            vec[np.arange(2) << 2] = strategy[y]
            state = StateVector.from_amplitudes(vec)
            state = apply_circuit(state, inst.family[y])
            prob_one, _, _ = measure_projector(state, output_one_mask(3))
            want += prob_one
        want /= 2
        assert abs(got - want) <= 1e-12

    def test_missing_coin_and_unnormalized(self):
        inst = _random_instance(17, s=1)
        with pytest.raises(KeyError, match="missing"):
            qam_value(inst, {"0": np.array([1.0, 0.0])})
        with pytest.raises(ValueError, match="normalized"):
            qam_value(inst, {"0": np.array([1.0, 1.0]), "1": np.array([1.0, 0.0])})

    def test_never_beats_optimum(self):
        inst = _random_instance(19, s=2)
        best = optimal_qam_value(inst)
        rng = np.random.default_rng(23)
        for _ in range(50):
            strategy = {}
            for y in inst.coins():
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                strategy[y] = v / np.linalg.norm(v)
            assert qam_value(inst, strategy) <= best + 1e-9

    def test_accept_reject_mix(self):
        inst = QamInstance(
            1,
            {"0": _accept_circuit(), "1": _reject_circuit()},
            1, 2, Fraction(2, 3), Fraction(1, 3),
        )
        assert abs(optimal_qam_value(inst) - 0.5) <= 1e-12


class TestMultilinearF:
    def test_corners(self):
        assert multilinear_f([Fraction(1)] * 4, 2) == 1
        assert multilinear_f([Fraction(0)] * 4, 1) == 0
        assert multilinear_f([Fraction(1, 2)], 1) == Fraction(1, 2)
        assert multilinear_f([Fraction(1, 2), Fraction(1, 2)], 1) == Fraction(3, 4)

    def test_single_variable_is_identity(self):
        for x in (0.0, 0.3, 1.0):
            assert abs(multilinear_f([x], 1) - x) <= 1e-15
        assert multilinear_f([0.3], 0) == 1.0

    def test_fractional_threshold_rounds_up(self):
        # threshold 3/2 needs at least 2 successes
        got = multilinear_f([Fraction(1, 2)] * 3, Fraction(3, 2))
        assert got == Fraction(4, 8)

    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            xs = rng.uniform(size=3)
            i = rng.integers(0, 3)
            bumped = xs.copy()
            bumped[i] = min(1.0, bumped[i] + rng.uniform(0, 1 - bumped[i] + 1e-12))
            assert multilinear_f(list(bumped), 2) >= multilinear_f(list(xs), 2) - 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            multilinear_f([1.5], 1)


def _clamped_top(q: np.ndarray) -> float:
    return min(1.0, max(0.0, float(eig_hermitian(q).eigenvalues[0])))


def _reference_repetition(inst: QamInstance, n: int, y_tuple) -> tuple[float, float]:
    """One tuple's threshold tensor sum by an np.kron loop over accepted patterns,
    and the multilinear tail of the per-round tops clamped to [0, 1]."""
    qs = [inst.coin_verifier(y).q_operator() for y in y_tuple]
    ops = [(np.eye(1 << inst.m) - q, q) for q in qs]
    tops = [_clamped_top(q) for q in qs]
    t0 = threshold_count(n, inst.a, inst.b)
    total = 0
    for z in product((0, 1), repeat=n):
        if sum(z) >= t0:
            term = np.eye(1)
            for zi, pair in zip(z, ops):
                term = np.kron(term, pair[zi])
            total = total + term
    return float(eig_hermitian(total).eigenvalues[0]), float(multilinear_f(tops, t0))


class TestParallelRepetition:
    @pytest.mark.parametrize("s", [1, 2])
    def test_batched_matches_kron_loop(self, s):
        inst = _random_instance(81 + s, s=s)
        for n in (1, 2, 3):
            lams, independent = parallel_repetition_values(inst, n)
            tuples = list(product(inst.coins(), repeat=n))
            assert lams.shape == independent.shape == (len(tuples),)
            for lam, indep, y_tuple in zip(lams, independent, tuples):
                ref_lam, ref_indep = _reference_repetition(inst, n, y_tuple)
                assert abs(lam - ref_lam) <= 1e-12
                assert indep == ref_indep
        with pytest.raises(ValueError, match="round"):
            parallel_repetition_values(inst, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        s=st.integers(1, 2),
        m=st.integers(1, 3),
        k=st.integers(1, 3),
        gates=st.integers(0, 16),
    )
    @example(seed=23, s=1, m=3, k=2, gates=12)  # a top eigenvalue that rounds to 1 + 2e-16
    def test_independent_play_uses_clamped_tops(self, seed, s, m, k, gates):
        inst = generate_instance("qam-random", seed, s=s, m=m, k=k, gates=gates)
        tops = {y: _clamped_top(inst.coin_verifier(y).q_operator()) for y in inst.coins()}
        lams, indep = parallel_repetition_values(inst, 2)
        t0 = threshold_count(2, inst.a, inst.b)
        for y_tuple, value in zip(product(inst.coins(), repeat=2), indep):
            assert value == multilinear_f([tops[y] for y in y_tuple], t0)
        assert np.abs(lams - indep).max() <= 1e-9

    def test_single_round_is_top_eigenvalue(self):
        inst = _random_instance(31, s=1)
        lam, indep = parallel_repetition_value(inst, 1, ["0"])
        q = acceptance_operator(inst.family["0"], 1, 2)
        top = float(eig_hermitian(q).eigenvalues[0])
        assert abs(lam - top) <= 1e-9
        assert abs(indep - top) <= 1e-9

    def test_perfect_coins_stay_perfect(self):
        inst = QamInstance(
            1,
            {"0": _accept_circuit(), "1": _accept_circuit()},
            1, 2, Fraction(2, 3), Fraction(1, 3),
        )
        for n in (1, 2, 3):
            lam, indep = parallel_repetition_value(inst, n, ["0"] * n)
            assert abs(lam - 1.0) <= 1e-9
            assert abs(indep - 1.0) <= 1e-9

    def test_equality_on_random_instances(self):
        for seed in range(6):
            inst = _random_instance(40 + seed, s=1)
            for n, coins in ((2, ["0", "1"]), (3, ["0", "1", "0"])):
                lam, indep = parallel_repetition_value(inst, n, coins)
                assert abs(lam - indep) <= 1e-9

    def test_matches_circuit_level_construction(self):
        inst = _random_instance(61, s=1)
        tensor_lam, _ = parallel_repetition_value(inst, 2, ["0", "1"])
        big = repeated_game_operator(inst, ["0", "1"])
        circuit_lam = float(eig_hermitian(big).eigenvalues[0])
        assert abs(tensor_lam - circuit_lam) <= 1e-9

    def test_tensor_sum_spectrum_is_f_on_lattice(self):
        inst = _random_instance(67, s=1)
        lam, _ = parallel_repetition_value(inst, 2, ["0", "1"])
        p0 = [float(v) for v in inst.coin_verifier("0").spectrum.eigenvalues]
        p1 = [float(v) for v in inst.coin_verifier("1").spectrum.eigenvalues]
        grid = [
            float(multilinear_f([x, y], 1))
            for x in p0
            for y in p1
        ]
        assert abs(lam - max(grid)) <= 1e-9
        # the maximum sits at the all-top corner
        assert abs(max(grid) - multilinear_f([p0[0], p1[0]], 1)) <= 1e-12

    def test_cap_and_arity_errors(self):
        inst = _random_instance(71, s=1)
        with pytest.raises(ValueError, match="coin strings"):
            parallel_repetition_value(inst, 2, ["0"])
        with pytest.raises(KeyError, match="unknown"):
            parallel_repetition_value(inst, 1, ["x"])
        with pytest.raises(ValueError, match="cap"):
            parallel_repetition_value(inst, 13, ["0"] * 13)


class TestMarkov:
    def test_all_perfect_yes(self):
        inst = QamInstance(
            1,
            {"0": _accept_circuit(), "1": _accept_circuit()},
            1, 2, Fraction(2, 3), Fraction(1, 3),
        )
        report = markov_check(inst, "yes")
        assert report.fraction_good == 1.0
        assert report.passes and report.precondition_ok and report.exhaustive

    def test_synthetic_boundary_tables(self):
        # E[1 - mu] = 1/9 exactly, fraction at the 2/3 cut counts inclusively
        report = markov_fractions([Fraction(2, 3), 1, 1], "yes")
        assert report.expected_error == Fraction(1, 9)
        assert report.fraction_good == 1
        assert report.passes and report.precondition_ok

        report = markov_fractions([Fraction(5, 9), 1, 1, 1], "yes")
        assert report.expected_error == Fraction(1, 9)
        assert report.fraction_good == Fraction(3, 4)
        assert report.passes and report.precondition_ok

    def test_precondition_violation_still_reports(self):
        report = markov_fractions([Fraction(0), 1, 1, 1], "yes")
        assert not report.precondition_ok
        assert report.fraction_good == Fraction(3, 4)
        assert report.passes

    def test_no_instances(self):
        inst = QamInstance(
            1,
            {"0": _reject_circuit(), "1": _reject_circuit()},
            1, 2, Fraction(2, 3), Fraction(1, 3),
        )
        report = markov_check(inst, "no")
        assert report.fraction_good == 1.0 and report.passes

    def test_truth_validation(self):
        with pytest.raises(ValueError, match="truth"):
            markov_fractions([Fraction(1)], "both")


class TestBpPpConditions:
    def test_all_accepting_in_k(self):
        inst = QamInstance(
            1,
            {"0": _accept_circuit(), "1": _accept_circuit()},
            1, 2, Fraction(2, 3), Fraction(1, 3),
        )
        rows = bp_pp_conditions(inst)
        assert all(row.in_k and not row.indeterminate for row in rows)

    def test_all_rejecting_out_of_k(self):
        inst = QamInstance(
            1,
            {"0": _reject_circuit(), "1": _reject_circuit()},
            1, 2, Fraction(2, 3), Fraction(1, 3),
        )
        rows = bp_pp_conditions(inst)
        assert all((not row.in_k) and not row.indeterminate for row in rows)

    def test_interior_coin_flagged(self):
        inst = QamInstance(
            1,
            {"0": _accept_circuit(), "1": _half_circuit()},
            1, 2, Fraction(2, 3), Fraction(1, 3),
        )
        rows = {row.coin: row for row in bp_pp_conditions(inst)}
        assert rows["0"].in_k and not rows["0"].indeterminate
        assert rows["1"].indeterminate
        assert abs(rows["1"].mu - 0.5) <= 1e-9
