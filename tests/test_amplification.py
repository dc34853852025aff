"""Amplification tests.

The alternating-measurement enumerator is cross-checked against a brute-force
dense-matrix measurement tree that shares no code with the StateVector branch
logic, and against the closed-form binomial sequence probabilities.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qamg.circuits import (
    StateVector,
    WidthCapError,
    apply_circuit,
    circuit,
    cnot_gates,
    dagger,
    hadamard,
    ishift,
    measure_projector,
    output_one_mask,
    suffix_zero_mask,
    swap_gates,
    to_unitary,
    toffoli,
    x_gates,
)
import qamg.amplification as amplification
from qamg.amplification import (
    GapCertificate,
    QmaInstance,
    _embed_witness,
    _philox_doubles,
    _philox_keys,
    _power_traces,
    a0pp_check,
    amplified_counting_certificate,
    amplify_by_copies,
    amplify_preserving_witness,
    analytic_acceptance,
    binomial_tail,
    counting_certificate,
    mixed_state_acceptance,
    run_alternating_measurements,
    sequence_probability,
    tail_polynomial_coefficients,
    threshold_count,
    transition_frame,
)
from qamg.exact import INV_SQRT2, ONE, ZERO, ExactScalar, plane_matmul, planes_from_scalars
from qamg.harness import generate_instance
from qamg.spectra import eig_hermitian


def _one_branch_enumerate(inst: QmaInstance, witness: list, n_events: int) -> dict:
    """Exact trajectory tree simulated one branch at a time, each branch its own state."""
    n = inst.verifier.width
    amps = [ZERO] * (1 << n)
    for j, a in enumerate(witness):
        amps[j << inst.k] = a
    masks = (suffix_zero_mask(n, inst.k), output_one_mask(n))
    branches = [((), 1, StateVector.from_amplitudes(amps, exact=True))]
    for i in range(1, n_events + 1):
        circ = inst.verifier if i % 2 else dagger(inst.verifier)
        nxt = []
        for z, y_prev, state in branches:
            moved = apply_circuit(state, circ)
            for outcome, keep in ((1, masks[i % 2]), (0, ~masks[i % 2])):
                branch = moved.project(keep)
                if any(branch.amplitudes()):
                    nxt.append((z + (int(outcome == y_prev),), outcome, branch))
        branches = nxt
    return {z: state.norm_sq() for z, _, state in branches}


def _gate_path_enumerate(inst: QmaInstance, witness: StateVector, n_events: int) -> dict:
    """The block enumerator replaying the verifier's gates, and its dagger's, at every event."""
    n = inst.verifier.width
    masks = (suffix_zero_mask(n, inst.k), output_one_mask(n))
    state = _embed_witness(witness, inst.m, inst.k)
    z = np.zeros((1, 0), dtype=np.int8)
    y_prev = np.ones(1, dtype=np.int8)
    for i in range(1, n_events + 1):
        state = apply_circuit(state, inst.verifier if i % 2 else dagger(inst.verifier))
        state = state.split(masks[i % 2])
        y = np.tile(np.array([1, 0], dtype=np.int8), len(y_prev))
        z = np.column_stack([np.repeat(z, 2, axis=0), y == np.repeat(y_prev, 2)])
        live = state.live_columns()
        state, z, y_prev = state.select(live), z[live], y[live]
    return dict(zip(map(tuple, z.tolist()), state.norms_sq()))


def _one_trajectory_reference(
    inst: QmaInstance, witness: StateVector, n_events: int, seed: int
) -> tuple[tuple, bool]:
    """One seeded float trajectory, simulated as its own single state."""
    state = _embed_witness(witness.to_float() if witness.exact else witness, inst.m, inst.k)
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = inst.verifier.width
    y_prev, z = 1, []
    for i in range(1, n_events + 1):
        state = apply_circuit(state, inst.verifier if i % 2 == 1 else dagger(inst.verifier))
        mask = output_one_mask(n) if i % 2 == 1 else suffix_zero_mask(n, inst.k)
        prob_one, post0, post1 = measure_projector(state, mask)
        y = 1 if rng.random() < prob_one else 0
        state = post1 if y == 1 else post0
        z.append(1 if y == y_prev else 0)
        y_prev = y
    return tuple(z), Fraction(sum(z)) >= Fraction(n_events) * (inst.a + inst.b) / 2


@st.composite
def _sampling_case(draw):
    m, k = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    inst = generate_instance("qma-random", draw(st.integers(0, 2**16)), m=m, k=k)
    if draw(st.booleans()):
        # exact: a basis state, or an equal superposition of two (sample mode runs in float)
        j, j2 = draw(st.integers(0, (1 << m) - 1)), draw(st.integers(0, (1 << m) - 1))
        amps = [ZERO] * (1 << m)
        if j == j2:
            amps[j] = ONE
        else:
            amps[j] = amps[j2] = INV_SQRT2
        witness = StateVector.from_amplitudes(amps, exact=True)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        vec = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        witness = StateVector.from_amplitudes(vec / np.linalg.norm(vec))
    n_events, seed = draw(st.integers(1, 12)), draw(st.integers(0, 2**20))
    return inst, witness, n_events, seed, draw(st.integers(1, 64))


def _identity_instance(a=Fraction(3, 4), b=Fraction(1, 4)) -> QmaInstance:
    return QmaInstance(circuit(2), m=1, k=1, a=a, b=b)


def _half_instance() -> QmaInstance:
    """Acceptance operator exactly I/2: coin into the spare, swapped to output."""
    gates = [hadamard(1)] + cnot_gates(1, 0, 2)
    return QmaInstance(circuit(3, gates), m=1, k=2, a=Fraction(3, 4), b=Fraction(1, 4))


def _quarter_instance() -> QmaInstance:
    """Acceptance operator exactly I/4: two coins AND-ed into the spare."""
    gates = [hadamard(1), hadamard(2), toffoli(1, 2, 3)] + swap_gates(0, 3, 1)
    return QmaInstance(
        circuit(4, gates), m=1, k=3, a=Fraction(3, 4), b=Fraction(1, 4), label="no"
    )


def _always_accept_instance() -> QmaInstance:
    """Q = I: the work qubit is set to 1 and swapped onto the output."""
    gates = x_gates(2) + swap_gates(0, 2, 1)
    return QmaInstance(circuit(3, gates), m=1, k=2, a=Fraction(3, 4), b=Fraction(1, 4))


def _oracle_tree(inst: QmaInstance, witness: np.ndarray, n_events: int) -> dict:
    """Dense-matrix enumeration of the measurement tree, no pruning."""
    n = inst.verifier.width
    u = to_unitary(inst.verifier)
    idx = np.arange(1 << n)
    pi_one = (idx >> (n - 1)) & 1 == 1
    delta_one = idx & ((1 << inst.k) - 1) == 0
    start = np.zeros(1 << n, dtype=np.complex128)
    start[np.arange(1 << inst.m) << inst.k] = witness
    branches = [((), 1, start)]
    for i in range(1, n_events + 1):
        mat = u if i % 2 == 1 else u.conj().T
        keep_one = pi_one if i % 2 == 1 else delta_one
        nxt = []
        for z, y_prev, v in branches:
            w = mat @ v
            for outcome in (1, 0):
                branch = np.where(keep_one if outcome == 1 else ~keep_one, w, 0.0)
                nxt.append((z + (1 if outcome == y_prev else 0,), outcome, branch))
        branches = nxt
    probs: dict = {}
    for z, _, v in branches:
        probs[z] = probs.get(z, 0.0) + float(np.real(np.vdot(v, v)))
    return probs


class TestQmaInstance:
    def test_validation(self):
        with pytest.raises(ValueError, match="width"):
            QmaInstance(circuit(2), m=2, k=1, a=Fraction(2, 3), b=Fraction(1, 3))
        with pytest.raises(ValueError, match="thresholds"):
            QmaInstance(circuit(2), m=1, k=1, a=Fraction(1, 3), b=Fraction(2, 3))
        with pytest.raises(ValueError, match="label"):
            QmaInstance(circuit(2), m=1, k=1, a=Fraction(2, 3), b=Fraction(1, 3), label="maybe")

    def test_gap_q(self):
        assert _identity_instance().gap_q == 2
        assert QmaInstance(circuit(2), 1, 1, Fraction(2, 3), Fraction(1, 3)).gap_q == 3
        assert QmaInstance(circuit(2), 1, 1, 1, 0).gap_q == 1

    def test_threshold_strings(self):
        inst = QmaInstance(circuit(2), 1, 1, "3/4", "1/4")
        assert inst.a == Fraction(3, 4) and inst.b == Fraction(1, 4)


class TestRunAlternatingMeasurements:
    def test_certain_witness_gives_all_ones(self):
        inst = _identity_instance()
        witness = StateVector.basis(1, 1, exact=True)
        dist = run_alternating_measurements(inst, witness, 4)
        assert dist.probs == {(1, 1, 1, 1): Fraction(1)}
        assert dist.acceptance_probability() == 1

    def test_rejected_witness_gives_all_zeros(self):
        inst = _identity_instance()
        witness = StateVector.basis(1, 0, exact=True)
        dist = run_alternating_measurements(inst, witness, 5)
        assert dist.probs == {(0, 0, 0, 0, 0): Fraction(1)}
        assert dist.acceptance_probability() == 0

    def test_half_eigenvalue_is_fair_bernoulli(self):
        inst = _half_instance()
        witness = StateVector.basis(1, 0, exact=True)
        dist = run_alternating_measurements(inst, witness, 4)
        assert dist.total() == 1
        assert len(dist.probs) == 16
        for z, p in dist.probs.items():
            assert p == Fraction(1, 16)
        # agreement counts are Binomial(4, 1/2)
        wd = dist.weight_distribution()
        assert wd == {w: Fraction(math.comb(4, w), 16) for w in range(5)}

    def test_superposed_witness_mixes_eigencomponents(self):
        # eigenvalues {1, 0}; |0> splits evenly between the two eigenvectors
        inst = QmaInstance(circuit(1, [hadamard(0)]), 1, 0, Fraction(3, 4), Fraction(1, 4))
        witness = StateVector.basis(1, 0, exact=True)
        dist = run_alternating_measurements(inst, witness, 6)
        assert dist.probs == {
            (1,) * 6: Fraction(1, 2),
            (0,) * 6: Fraction(1, 2),
        }

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_width_cap_checked_before_any_allocation(self, mode, exact, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("a 2^width array was built before the width check")

        for name in ("output_one_mask", "suffix_zero_mask", "_embed_witness"):
            monkeypatch.setattr(amplification, name, no_alloc)
        inst = QmaInstance(circuit(41), 1, 40, Fraction(3, 4), Fraction(1, 4))
        witness = StateVector.basis(1, 0, exact=exact)
        with pytest.raises(WidthCapError, match="width 41"):
            run_alternating_measurements(inst, witness, 4, mode=mode)

    def test_width_cap_follows_the_mode_that_runs(self):
        # width 11 is past the exact cap (10) but not the float cap (14); sample runs in float
        inst = QmaInstance(circuit(11), 1, 10, Fraction(3, 4), Fraction(1, 4))
        witness = StateVector.basis(1, 1, exact=True)
        z, accepted = run_alternating_measurements(inst, witness, 4, mode="sample", draws=2)
        assert z.tolist() == [[1, 1, 1, 1]] * 2 and accepted.all()
        with pytest.raises(WidthCapError, match="exact cap"):
            run_alternating_measurements(inst, witness, 4)

    def test_matches_brute_force_tree(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            gates = []
            for _ in range(25):
                r = rng.integers(0, 3)
                if r == 0:
                    gates.append(hadamard(int(rng.integers(0, 4))))
                elif r == 1:
                    gates.append(ishift(int(rng.integers(0, 4))))
                else:
                    qs = rng.permutation(4)[:3]
                    gates.append(toffoli(int(qs[0]), int(qs[1]), int(qs[2])))
            inst = QmaInstance(circuit(4, gates), 2, 2, Fraction(3, 4), Fraction(1, 4))
            w = rng.normal(size=4) + 1j * rng.normal(size=4)
            w /= np.linalg.norm(w)
            dist = run_alternating_measurements(
                inst, StateVector.from_amplitudes(w), n_events=4
            )
            oracle = _oracle_tree(inst, w, 4)
            for z, p in oracle.items():
                assert abs(dist.probs.get(z, 0.0) - p) <= 1e-12
            assert abs(dist.total() - 1.0) <= 1e-12

    def test_blocks_match_one_branch_reference(self):
        for target, amps in (("5/8", [ONE, ZERO]), ("11/16", [INV_SQRT2, INV_SQRT2])):
            inst = generate_instance("qma-p", 0, target=target, m=1, k=3)
            witness = StateVector.from_amplitudes(amps, exact=True)
            dist = run_alternating_measurements(inst, witness, 8)
            want = _one_branch_enumerate(inst, amps, 8)
            assert len(want) == 256
            assert list(dist.probs.items()) == list(want.items())

    @pytest.mark.parametrize("kind, params, composed", [
        ("qma-p", {"target": "11/16", "m": 1, "k": 3}, True),  # 2^4 <= 37 gates
        ("qma-p", {"target": "1", "m": 1, "k": 2}, True),  # 2^3 <= 29 gates, p = 1
        ("qma-random", {"m": 1, "k": 2, "gates": 8}, True),  # 2^3 <= 8 gates, at the rule
        ("qma-random", {"m": 1, "k": 2, "gates": 7}, False),  # 2^3 > 7 gates
        ("qma-random", {"m": 2, "k": 3}, False),  # 2^5 > 15 gates
        ("qma-random", {"m": 2, "k": 2, "gates": 40}, True),  # 2^4 <= 40 gates
    ])
    def test_composed_unitary_matches_gate_path(self, kind, params, composed, monkeypatch):
        inst = generate_instance(kind, 3, **params)
        builds, build = [], amplification.exact_unitary

        def counted(c):
            builds.append(c)
            return build(c)

        monkeypatch.setattr(amplification, "exact_unitary", counted)
        half_i = ExactScalar(0, 0, 0, 1, 1)  # i / sqrt(2)
        size = 1 << inst.m
        witnesses = [[ONE if j == i else ZERO for j in range(size)] for i in range(size)]
        witnesses.append([INV_SQRT2, half_i] + [ZERO] * (size - 2))
        if size > 2:
            witnesses.append([ZERO, INV_SQRT2, ZERO, -INV_SQRT2][:size] + [ZERO] * (size - 4))
        for amps in witnesses:
            witness = StateVector.from_amplitudes(amps, exact=True)
            for n_events in (1, 2, 5, 8):
                builds.clear()
                dist = run_alternating_measurements(inst, witness, n_events)
                assert builds == ([inst.verifier] if composed else [])
                want = _gate_path_enumerate(inst, witness, n_events)
                assert list(dist.probs.items()) == list(want.items())
                assert all(isinstance(p, Fraction) for p in dist.probs.values())
                assert dist.total() == 1

    def test_matches_sequence_probability_formula(self):
        inst = _half_instance()
        q = inst.q_operator()
        decomp = eig_hermitian(q)
        witness = np.array([0.6, 0.8j])
        weights = [
            (float(decomp.eigenvalues[i]), float(abs(np.vdot(decomp.vectors[:, i], witness)) ** 2))
            for i in range(2)
        ]
        dist = run_alternating_measurements(inst, StateVector.from_amplitudes(witness), 5)
        for z, p in dist.probs.items():
            assert abs(p - sequence_probability(weights, z)) <= 1e-12

    def test_sample_mode_is_seeded_and_consistent(self):
        inst = _half_instance()
        witness = StateVector.basis(1, 0)
        one = run_alternating_measurements(inst, witness, 6, mode="sample", seed=9)
        two = run_alternating_measurements(inst, witness, 6, mode="sample", seed=9)
        assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])
        z, accepted = one
        assert z.shape == (1, 6) and accepted.shape == (1,)
        assert accepted[0] == (Fraction(int(z[0].sum())) >= Fraction(6) * (inst.a + inst.b) / 2)
        # frequency agrees with the analytic value within 4 sigma
        analytic = analytic_acceptance([(Fraction(1, 2), 1)], 6, inst.a, inst.b)
        runs = 600
        hits = int(run_alternating_measurements(
            inst, witness, 6, mode="sample", seed=0, draws=runs
        )[1].sum())
        singles = sum(
            bool(run_alternating_measurements(inst, witness, 6, mode="sample", seed=s)[1][0])
            for s in range(runs)
        )
        assert hits == singles
        sigma = math.sqrt(float(analytic) * (1 - float(analytic)) / runs)
        assert abs(hits / runs - float(analytic)) <= 4 * sigma + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(_sampling_case())
    # keys 2^64-3..2^64+4 cross into the key's high word; 7 events cross a counter block
    @example((generate_instance("qma-random", 3, m=2, k=2), StateVector.basis(2, 1),
              7, 2**64 - 3, 8))
    def test_block_sampler_matches_one_trajectory_reference(self, case):
        inst, witness, n_events, seed, draws = case
        z, accepted = run_alternating_measurements(
            inst, witness, n_events, mode="sample", seed=seed, draws=draws
        )
        assert z.shape == (draws, n_events) and z.dtype == np.int8
        assert accepted.shape == (draws,) and accepted.dtype == bool
        for b in range(draws):
            want_z, want_accepted = _one_trajectory_reference(inst, witness, n_events, seed + b)
            assert tuple(z[b].tolist()) == want_z
            assert bool(accepted[b]) == want_accepted

    def test_errors(self):
        inst = _identity_instance()
        good = StateVector.basis(1, 1)
        with pytest.raises(ValueError, match="event"):
            run_alternating_measurements(inst, good, 0)
        with pytest.raises(ValueError, match="capped"):
            run_alternating_measurements(inst, good, 21)
        with pytest.raises(ValueError, match="mode"):
            run_alternating_measurements(inst, good, 2, mode="guess")
        with pytest.raises(ValueError, match="draw"):
            run_alternating_measurements(inst, good, 2, mode="sample", draws=0)
        for seed, draws in ((-1, 1), (2**128 - 255, 256)):
            with pytest.raises(ValueError, match="2\\*\\*128"):
                run_alternating_measurements(inst, good, 2, mode="sample", seed=seed, draws=draws)
        bad = StateVector.from_amplitudes([0.5, 0.5])
        with pytest.raises(ValueError, match="normalized"):
            run_alternating_measurements(inst, bad, 2)


class TestAnalyticAcceptance:
    def test_endpoints(self):
        assert analytic_acceptance([(1, 1)], 7, Fraction(3, 4), Fraction(1, 4)) == 1
        assert analytic_acceptance([(0, 1)], 7, Fraction(3, 4), Fraction(1, 4)) == 0

    def test_half_two_events(self):
        got = analytic_acceptance([(Fraction(1, 2), 1)], 2, Fraction(3, 4), Fraction(1, 4))
        assert got == Fraction(3, 4)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum"):
            analytic_acceptance([(Fraction(1, 2), Fraction(1, 2))], 2, "3/4", "1/4")

    def test_float_mixture(self):
        got = analytic_acceptance([(0.9, 0.5), (0.1, 0.5)], 3, 0.75, 0.25)
        tail9 = 3 * 0.9**2 * 0.1 + 0.9**3
        tail1 = 3 * 0.1**2 * 0.9 + 0.1**3
        assert abs(got - 0.5 * (tail9 + tail1)) <= 1e-12

    def test_threshold_count_rounding(self):
        assert threshold_count(4, Fraction(3, 4), Fraction(1, 4)) == 2
        assert threshold_count(5, Fraction(3, 4), Fraction(1, 4)) == 3
        assert threshold_count(3, Fraction(2, 3), Fraction(1, 3)) == 2


def _integer_pmf(p: Fraction, n: int) -> list[int]:
    """Exact Binomial(n, p) pmf numerators over the common denominator den^n."""
    a, d = p.numerator, p.denominator
    return [math.comb(n, j) * a**j * (d - a) ** (n - j) for j in range(n + 1)]


class TestBinomialTail:
    def test_float_matches_exact_tail_up_to_2048(self):
        # float tails once overflowed past n ~ 1030 (math.comb taken as float)
        for p in (Fraction(3, 4), Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)):
            for n in (1, 5, 32, 1031, 2048):
                pmf = _integer_pmf(p, n)
                for t0 in sorted({0, 1, n // 2, int(n * p), int(n * p) + 3, n, n + 1}):
                    exact = Fraction(sum(pmf[t0:]), p.denominator**n)
                    assert binomial_tail(p, n, t0) == exact
                    got = binomial_tail(float(p), n, t0)
                    assert abs(got - float(exact)) <= 1e-12
                    assert 0.0 <= got <= 1.0

    def test_float_tail_never_exceeds_one(self):
        assert binomial_tail(0.8, 1000, 500) <= 1.0
        assert binomial_tail(0.0, 8, 1) == 0.0
        assert binomial_tail(1.0, 8, 8) == 1.0

    @pytest.mark.parametrize("p, n", [(1e-9, 50), (0.2, 3), (1 - 1e-12, 40), (0.3, 17)])
    def test_float_tail_at_mode_edges(self, p, n):
        # the first two put the mode at 0, the third at n
        mode = min(n, int((n + 1) * p))
        for t0 in sorted({0, 1, mode, n, n + 1}):
            exact = float(binomial_tail(Fraction(p), n, t0))
            got = binomial_tail(p, n, t0)
            assert abs(got - exact) <= 1e-12 and 0.0 <= got <= 1.0

    def test_float_tail_at_large_n(self):
        p, n = Fraction(5, 8), 4096
        for t0 in (n // 2, int(n * p), int(n * p) + 60):
            assert abs(binomial_tail(float(p), n, t0) - float(binomial_tail(p, n, t0))) <= 1e-12
        n = 1 << 20  # the --copies cap
        for t0 in (n // 2 - 500, n // 2 + 500, n // 2 + 3000):
            assert 0.0 <= binomial_tail(0.5, n, t0) <= 1.0

    def test_amplified_float_acceptance_past_1030_events(self):
        inst = _identity_instance()
        amp = amplify_preserving_witness(inst, 40)  # 1280 events
        assert amp.acceptance_probability(float(inst.a)) >= 1 - 2.0**-40
        assert amp.acceptance_probability(float(inst.b)) <= 2.0**-40


class TestPhiloxKernel:
    @pytest.mark.parametrize("key", [0, 2**64 - 1, 2**64, 2**127 + 3])
    def test_blocks_match_numpy_philox(self, key):
        keys = _philox_keys(key, 3)
        got = np.concatenate([_philox_doubles(keys, c) for c in range(1, 6)], axis=1)
        for b in range(3):
            raw = np.random.Philox(key=key + b).random_raw(20)
            assert np.array_equal(got[b], (raw >> np.uint64(11)) * 2.0**-53)
            stream = np.random.Generator(np.random.Philox(key=key + b)).random(20)
            assert np.array_equal(got[b], stream)


class TestAmplifyPreservingWitness:
    def test_event_count_formula(self):
        amp = amplify_preserving_witness(_identity_instance(), r=2)
        assert amp.n_events == 64
        assert amp.m == 1
        amp = amplify_preserving_witness(_identity_instance(), r=1)
        assert amp.n_events == 32

    def test_error_endpoints_exact(self):
        inst = _identity_instance()
        for r in (1, 2, 4):
            amp = amplify_preserving_witness(inst, r)
            assert amp.acceptance_probability(inst.a) >= 1 - Fraction(1, 2**r)
            assert amp.acceptance_probability(inst.b) <= Fraction(1, 2**r)
            assert amp.completeness == 1 - Fraction(1, 2**r)
            assert amp.soundness == Fraction(1, 2**r)

    def test_executable_form(self):
        inst = _identity_instance()
        amp = amplify_preserving_witness(inst, 1)
        z, accepted = amp.run(StateVector.basis(1, 1), mode="sample", seed=0)
        assert accepted.all() and (z.sum(axis=1) == amp.n_events).all()

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError, match="r must"):
            amplify_preserving_witness(_identity_instance(), 0)


class TestAmplifyByCopies:
    def test_single_copy_is_identity_rule(self):
        amp = amplify_by_copies(_identity_instance(), 1)
        assert amp.message_width == 1
        for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert amp.acceptance_probability(p) == p

    def test_three_copy_majority(self):
        amp = amplify_by_copies(_identity_instance(), 3)
        assert amp.message_width == 3
        got = amp.acceptance_probability(0.9)
        assert abs(got - (3 * 0.9**2 * 0.1 + 0.9**3)) <= 1e-12

    def test_witness_growth_contrast(self):
        inst = _identity_instance()
        assert amplify_preserving_witness(inst, 5).m == inst.m
        assert amplify_by_copies(inst, 5).message_width == 5 * inst.m


def _rule_tail(p: Fraction, n: int, a: Fraction, b: Fraction) -> Fraction:
    """Pr[Binomial(n, p) agreements meet the n(a+b)/2 rule], summed term by term."""
    return sum(
        math.comb(n, j) * p**j * (1 - p) ** (n - j)
        for j in range(n + 1)
        if j >= Fraction(n) * (a + b) / 2
    )


class TestAcceptThreshold:
    """Every descriptor stores the smallest accepting count of the n(a+b)/2 rule."""

    a, b = Fraction(2, 3), Fraction(1, 5)

    def test_copies(self):
        inst = _identity_instance(self.a, self.b)
        amp = amplify_by_copies(inst, 8)
        assert amp.accept_threshold == 4
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)):
            assert amp.acceptance_probability(p) == _rule_tail(p, 8, self.a, self.b)

    def test_preserving_witness(self):
        inst = _identity_instance(self.a, self.b)
        amp = amplify_preserving_witness(inst, 1)
        assert (amp.n_events, amp.accept_threshold) == (72, 32)
        for p in (self.b, Fraction(1, 2), self.a):
            assert amp.acceptance_probability(p) == _rule_tail(p, 72, self.a, self.b)

    def test_enumerated_distribution(self):
        gates = [hadamard(1)] + cnot_gates(1, 0, 2)  # acceptance operator exactly I/2
        inst = QmaInstance(circuit(3, gates), m=1, k=2, a=self.a, b=self.b)
        dist = run_alternating_measurements(
            inst, StateVector.basis(1, 0, exact=True), 8, mode="enumerate"
        )
        assert dist.accept_threshold == 4
        rule = Fraction(8) * (self.a + self.b) / 2
        want = sum(p for z, p in dist.probs.items() if sum(z) >= rule)
        assert want == _rule_tail(Fraction(1, 2), 8, self.a, self.b)
        assert dist.acceptance_probability() == want


class TestCountingCertificate:
    def test_identity_instance(self):
        cert = counting_certificate(_identity_instance())
        assert (cert.h, cert.g) == (1, 0)
        assert cert.value == 1

    def test_single_hadamard_half(self):
        inst = QmaInstance(circuit(1, [hadamard(0)]), m=0, k=1, a=Fraction(2, 3), b=Fraction(1, 3))
        cert = counting_certificate(inst)
        assert (cert.h, cert.g) == (1, 1)
        assert cert.value == Fraction(1, 2)
        assert cert.decision_value == 0

    def test_trace_matches_spectra_diagonal(self):
        inst = _quarter_instance()
        cert = counting_certificate(inst)
        g = inst.verifier.hadamard_count()
        assert cert.g == g
        assert cert.value == Fraction(1, 2)  # tr(I/4 on dim 2)
        q = inst.q_operator_exact()
        diag_sum = sum(q[i][i].to_fraction() for i in range(2))
        assert cert.value == diag_sum

    def test_amplified_pair_separates(self):
        r = 3  # m + 2 for m = 1
        yes_cert = amplified_counting_certificate(_identity_instance(), r)
        assert yes_cert.h >= Fraction(3, 4) * 2**yes_cert.g
        yes_a0, yes_no = a0pp_check(yes_cert)
        assert yes_a0 and not yes_no

        no_cert = amplified_counting_certificate(_quarter_instance(), r)
        assert no_cert.h <= Fraction(1, 4) * 2**no_cert.g
        no_a0_yes, no_a0_no = a0pp_check(no_cert)
        assert no_a0_no and not no_a0_yes

    def test_amplified_trace_matches_binomial_tail_oracle(self):
        # Q = I/4 exactly, so tr f(Q) = 2 * Binomial tail at p = 1/4
        inst = _quarter_instance()
        r = 2
        cert = amplified_counting_certificate(inst, r)
        n = 8 * inst.gap_q**2 * r
        t0 = threshold_count(n, inst.a, inst.b)
        assert cert.value == 2 * binomial_tail(Fraction(1, 4), n, t0)
        assert cert.g == n * inst.verifier.hadamard_count()


def _reference_tail_coefficients(n: int, t0: int) -> list[int]:
    """f(x) = sum_{j>=t0} C(n,j) x^j (1-x)^(n-j), each term expanded by the binomial theorem."""
    coeffs = [0] * (n + 1)
    for j in range(max(t0, 0), n + 1):
        cj = math.comb(n, j)
        for i in range(n - j + 1):
            coeffs[j + i] += cj * math.comb(n - j, i) * (-1) ** i
    return coeffs


def _reference_amplified_certificate(inst: QmaInstance, r: int) -> tuple[int, int]:
    """(h, g) of the amplified certificate from one exact matrix power per event."""
    n = amplify_preserving_witness(inst, r).n_events
    g = n * inst.verifier.hadamard_count()
    coeffs = _reference_tail_coefficients(n, threshold_count(n, inst.a, inst.b))
    q, e = planes_from_scalars(inst.q_operator_exact())
    trace = Fraction(coeffs[0]) * q.shape[1]
    power = q  # Q^t at exponent t*e
    for t in range(1, n + 1):
        if t > 1:
            power = plane_matmul(power, q)
        diag = power.diagonal(axis1=1, axis2=2)
        assert not diag[1:].any()
        trace += coeffs[t] * Fraction(int(diag[0].sum()), 1 << t * e)
    h = trace * 2**g
    assert h.denominator == 1
    return h.numerator, g


class TestPowerSumCertificate:
    def test_tail_coefficients_match_expansion(self):
        for n in range(0, 40):
            for t0 in range(-2, n + 3):
                assert tail_polynomial_coefficients(n, t0) == _reference_tail_coefficients(n, t0)

    def test_power_traces_match_direct_powers(self):
        for m, k, seed in ((0, 2, 1), (1, 2, 2), (2, 2, 3), (3, 1, 4)):
            inst = generate_instance("qma-random", seed, m=m, k=k)
            q, _ = planes_from_scalars(inst.q_operator_exact())
            d = q.shape[1]
            direct, power = [d], q
            for t in range(1, 2 * d + 3):
                direct.append(int(power.diagonal(axis1=1, axis2=2)[0].sum()))
                power = plane_matmul(power, q)
            for n in range(0, 2 * d + 3):  # n < d, n = d and n > d
                assert _power_traces(q, n) == direct[:n + 1]

    @pytest.mark.parametrize("inst", [
        generate_instance("qma-random", 5, m=0, k=2),
        generate_instance("qma-random", 6, m=1, k=2),
        generate_instance("qma-random", 7, m=2, k=3),
        generate_instance("qma-random", 8, m=3, k=2),
        generate_instance("qma-p", 0, target="1", m=1, k=2),  # p = 1
        generate_instance("qma-p", 0, target="5/8", m=2, k=3),
        _identity_instance(),
        _quarter_instance(),
    ], ids=["m0", "m1", "m2", "m3", "p1", "p58", "identity", "quarter"])
    def test_matches_power_loop(self, inst):
        for r in (1, 2, 3):  # N = 8 q^2 r > d = 2^m
            cert = amplified_counting_certificate(inst, r)
            assert (cert.h, cert.g) == _reference_amplified_certificate(inst, r)

    @pytest.mark.parametrize("m, k", [(3, 1), (4, 1)])
    def test_matches_power_loop_at_and_below_dimension(self, m, k):
        # a = 1, b = 0 gives q = 1 and N = 8r: N = d at m = 3, r = 1 and at
        # m = 4, r = 2; N < d at m = 4, r = 1
        base = generate_instance("qma-random", 9, m=m, k=k, gates=4 * (m + k))
        inst = QmaInstance(base.verifier, m, k, a=Fraction(1), b=Fraction(0))
        for r in (1, 2, 3):
            cert = amplified_counting_certificate(inst, r)
            assert (cert.h, cert.g) == _reference_amplified_certificate(inst, r)


class TestA0ppCheck:
    def test_boundary_values(self):
        assert a0pp_check(GapCertificate(h=4, g=2, claim="")) == (True, False)
        assert a0pp_check(GapCertificate(h=0, g=2, claim="")) == (False, True)
        assert a0pp_check(GapCertificate(h=1, g=2, claim="")) == (False, True)
        assert a0pp_check(GapCertificate(h=2, g=2, claim="")) == (True, False)


class TestMixedStateAcceptance:
    def test_identity_instance_half(self):
        assert mixed_state_acceptance(_identity_instance(), exact=True) == Fraction(1, 2)
        assert abs(mixed_state_acceptance(_identity_instance()) - 0.5) <= 1e-15

    def test_always_accept_instance(self):
        inst = _always_accept_instance()
        assert mixed_state_acceptance(inst, exact=True) == 1
        assert abs(mixed_state_acceptance(inst) - 1.0) <= 1e-12

    def test_random_two_qubit_message(self):
        rng = np.random.default_rng(53)
        gates = []
        for _ in range(30):
            r = rng.integers(0, 3)
            if r == 0:
                gates.append(hadamard(int(rng.integers(0, 4))))
            elif r == 1:
                gates.append(ishift(int(rng.integers(0, 4))))
            else:
                qs = rng.permutation(4)[:3]
                gates.append(toffoli(int(qs[0]), int(qs[1]), int(qs[2])))
        inst = QmaInstance(circuit(4, gates), 2, 2, Fraction(2, 3), Fraction(1, 3))
        val = mixed_state_acceptance(inst)  # asserts the two routes agree
        q = inst.q_operator()
        assert abs(val - np.trace(q).real / 4) <= 1e-12


class TestTransitionFrame:
    def test_interior_half_instance(self):
        inst = _half_instance()
        frame = transition_frame(inst, np.array([1.0, 0.0]))
        assert abs(frame.p - 0.5) <= 1e-12
        for name, res in frame.recurrence_residuals().items():
            assert res <= 1e-9, name

    def test_random_interior_eigenvectors(self):
        rng = np.random.default_rng(61)
        found = 0
        seed = 0
        while found < 5:
            seed += 1
            gen = np.random.default_rng(seed)
            gates = []
            for _ in range(20):
                r = gen.integers(0, 3)
                if r == 0:
                    gates.append(hadamard(int(gen.integers(0, 3))))
                elif r == 1:
                    gates.append(ishift(int(gen.integers(0, 3))))
                else:
                    qs = gen.permutation(3)
                    gates.append(toffoli(int(qs[0]), int(qs[1]), int(qs[2])))
            inst = QmaInstance(circuit(3, gates), 1, 2, Fraction(2, 3), Fraction(1, 3))
            decomp = eig_hermitian(inst.q_operator())
            for i, p in enumerate(decomp.eigenvalues):
                if 1e-3 < p < 1 - 1e-3:
                    frame = transition_frame(inst, decomp.vectors[:, i])
                    for name, res in frame.recurrence_residuals().items():
                        assert res <= 1e-9, (seed, name)
                    found += 1
                    break

    def test_rejects_non_eigenvector_and_boundary(self):
        with pytest.raises(ValueError, match="interior"):
            transition_frame(_identity_instance(), np.array([0.0, 1.0]))
        inst = QmaInstance(circuit(1, [hadamard(0)]), 1, 0, Fraction(2, 3), Fraction(1, 3))
        with pytest.raises(ValueError, match="eigenvector"):
            transition_frame(inst, np.array([1.0, 0.0]))
