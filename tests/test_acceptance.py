"""End-to-end acceptance gates, one test per criterion.

Each test prints a single pass/fail line with the worst observed residuals
and asserts both the property and its runtime budget.  Tolerances are the
contract; loosening them here is never the right fix.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qamg.amplification import (
    QmaInstance,
    a0pp_check,
    amplified_counting_certificate,
    amplify_preserving_witness,
    counting_certificate,
    mixed_state_acceptance,
    run_alternating_measurements,
    sequence_probability,
    threshold_count,
    transition_frame,
)
from qamg.circuits import (
    StateVector,
    apply_circuit,
    circuit,
    dagger,
    hadamard,
    ishift,
    measure_projector,
    output_one_mask,
    swap_gates,
    to_unitary,
    toffoli,
)
from qamg.exact import scalars_from_planes
from qamg.harness import generate_instance
from qamg.qam import (
    markov_check,
    markov_fractions,
    multilinear_f,
    parallel_repetition_value,
)
from qamg.qmam import (
    QipInstance,
    fidelity_sum_gap,
    honest_value,
    max_accept_two_ways,
    optimize_cheating,
    product_strategy,
    repeated_cheat_game,
    repeated_honest_value,
    soundness_bound,
    uhlmann_bound_check,
)
from qamg.spectra import acceptance_operator, acceptance_spectrum, eig_hermitian


def _report(num: int, budget: float, started: float, failures: list, detail: str) -> None:
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < budget
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert not failures, f"criterion {num}: {failures[:5]}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s exceeds {budget}s"


def _mixing_gates(rng: random.Random, width: int, layers: int) -> list:
    """Branch, mix classically, branch again: generic interference patterns."""
    gates = []
    for _ in range(layers):
        gates.append(hadamard(rng.randrange(width)))
        if width >= 3:
            q = rng.sample(range(width), 3)
            gates.append(toffoli(q[0], q[1], q[2]))
        gates.append(ishift(rng.randrange(width)))
        gates.append(hadamard(rng.randrange(width)))
    return gates


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _ginibre_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_criterion_01_trajectory_distribution_oracle():
    """Enumerated agreement-pattern distribution matches the spectral formula."""
    started = time.monotonic()
    failures: list = []
    worst = 0.0
    for i in range(50):
        m = 1 + (i % 2)
        k = 1 + (i % 3)
        n_events = 2 + 2 * (i % 3)
        rng = random.Random(1000 + i)
        inst = QmaInstance(
            verifier=circuit(m + k, _mixing_gates(rng, m + k, m + k)),
            m=m, k=k, a=Fraction(3, 4), b=Fraction(1, 4),
        )
        decomp = acceptance_spectrum(inst.q_operator())
        psi = _random_unit(np.random.default_rng(i), 1 << m)
        weights = [
            (float(p), float(abs(np.vdot(decomp.vectors[:, j], psi)) ** 2))
            for j, p in enumerate(decomp.eigenvalues)
        ]
        witness = StateVector.from_amplitudes([complex(x) for x in psi])
        dist = run_alternating_measurements(inst, witness, n_events, mode="enumerate")
        for z in product((0, 1), repeat=n_events):
            gap = abs(float(dist.probs.get(z, 0.0)) - sequence_probability(weights, z))
            worst = max(worst, gap)
            if gap > 1e-9:
                failures.append(f"instance {i} pattern {z}: residual {gap:.2e}")
    # exact mode: a diagonal acceptance operator makes basis witnesses exact
    inst = generate_instance("qma-p", seed=0, target="3/4", m=1, k=3)
    p = scalars_from_planes(*inst.q_operator_exact())[0][0].to_fraction()
    dist = run_alternating_measurements(
        inst, StateVector.basis(1, 0, exact=True), 4, mode="enumerate"
    )
    for z, prob in dist.probs.items():
        w = sum(z)
        if prob != p**w * (1 - p) ** (4 - w):
            failures.append(f"exact pattern {z}: {prob}")
    _report(1, 30.0, started, failures, f"50 instances, worst residual {worst:.2e}")


def test_criterion_02_amplification_endpoints():
    """Witness-preserving error reduction hits the binomial-tail guarantees."""
    started = time.monotonic()
    failures: list = []
    base = generate_instance("qma-p", seed=0, target="1/2", m=1, k=2)
    inst = QmaInstance(verifier=base.verifier, m=1, k=2, a=Fraction(3, 4), b=Fraction(1, 4))
    if inst.gap_q != 2:
        failures.append(f"gap parameter {inst.gap_q} != 2")
    for r in (1, 2, 4):
        amp = amplify_preserving_witness(inst, r)
        if amp.n_events != 32 * r:
            failures.append(f"r={r}: {amp.n_events} events, expected {32 * r}")
        if amp.m != inst.m:
            failures.append(f"r={r}: witness register grew to {amp.m}")
        acc_a = amp.acceptance_probability(Fraction(3, 4))
        acc_b = amp.acceptance_probability(Fraction(1, 4))
        if acc_a < 1 - Fraction(1, 2**r):
            failures.append(f"r={r}: completeness {float(acc_a):.6f}")
        if acc_b > Fraction(1, 2**r):
            failures.append(f"r={r}: soundness {float(acc_b):.6f}")
    _report(2, 5.0, started, failures, "r in {1,2,4}, N = 32r, exact tails")


def test_criterion_03_transition_recurrences():
    """Forward/backward measurement rays satisfy the two-outcome recurrences."""
    started = time.monotonic()
    failures: list = []
    worst = 0.0
    found = 0
    seed = 0
    while found < 20 and seed < 200:
        rng = random.Random(3000 + seed)
        seed += 1
        m = 1 + (seed % 2)
        k = 1 + ((seed >> 1) % 2)
        inst = QmaInstance(
            verifier=circuit(m + k, _mixing_gates(rng, m + k, 2 * (m + k))),
            m=m, k=k, a=Fraction(3, 4), b=Fraction(1, 4),
        )
        decomp = acceptance_spectrum(inst.q_operator())
        interior = [
            j for j, p in enumerate(decomp.eigenvalues) if 1e-3 < float(p) < 1 - 1e-3
        ]
        if not interior:
            continue
        found += 1
        j = interior[0]
        frame = transition_frame(inst, decomp.vectors[:, j])
        for name, residual in frame.recurrence_residuals().items():
            worst = max(worst, residual)
            if residual > 1e-9:
                failures.append(f"seed {seed} {name}: {residual:.2e}")
    if found < 20:
        failures.append(f"only {found} interior-eigenvalue instances found")
    _report(3, 10.0, started, failures, f"20 frames, worst residual {worst:.2e}")


def test_criterion_04_counting_certificates():
    """Integer-pair certificates equal exact traces; amplified pairs separate."""
    started = time.monotonic()
    failures: list = []
    instances = [
        generate_instance("qma-p", seed=0, target="1/2", m=1, k=2),
        generate_instance("qma-p", seed=0, target="3/4", m=1, k=3),
        generate_instance("qma-p", seed=0, target="5/8", m=2, k=3),
        generate_instance("qma-p", seed=0, target="11/16", m=1, k=5),
        generate_instance("qma-p", seed=0, target="1/2", m=2, k=8),
    ]
    for i, (m, k) in enumerate([(1, 2), (2, 2), (1, 3), (2, 3)]):
        rng = random.Random(4000 + i)
        instances.append(
            QmaInstance(
                verifier=circuit(m + k, _mixing_gates(rng, m + k, m + k)),
                m=m, k=k, a=Fraction(3, 4), b=Fraction(1, 4),
            )
        )
    for i, inst in enumerate(instances):
        cert = counting_certificate(inst)
        trace = sum(
            row[j].to_fraction()
            for j, row in enumerate(scalars_from_planes(*inst.q_operator_exact()))
        )
        if cert.value != trace:
            failures.append(f"instance {i}: {cert.value} != {trace}")
    # amplified yes/no pair at error 2^-(m+2), m = 1
    yes_base = generate_instance("qma-p", seed=0, target="3/4", m=1, k=3)
    yes = QmaInstance(verifier=yes_base.verifier, m=1, k=3, a=Fraction(3, 4), b=Fraction(1, 4))
    no_gates = [*swap_gates(0, 1, borrow=3), hadamard(2), hadamard(3), toffoli(2, 3, 0)]
    no = QmaInstance(verifier=circuit(4, no_gates), m=1, k=3, a=Fraction(3, 4), b=Fraction(1, 4))
    cert_yes = amplified_counting_certificate(yes, 3)
    cert_no = amplified_counting_certificate(no, 3)
    if cert_yes.value < Fraction(3, 4):
        failures.append(f"yes trace {float(cert_yes.value):.6f} below 3/4")
    if cert_no.value > Fraction(1, 4):
        failures.append(f"no trace {float(cert_no.value):.6f} above 1/4")
    if a0pp_check(cert_yes) != (True, False):
        failures.append(f"yes conditions {a0pp_check(cert_yes)}")
    if a0pp_check(cert_no) != (False, True):
        failures.append(f"no conditions {a0pp_check(cert_no)}")
    _report(4, 60.0, started, failures,
            f"{len(instances)} exact certificates, amplified pair separated")


def test_criterion_05_mixed_witness_reduction():
    """Totally mixed witness accepts with the dimension-averaged trace."""
    started = time.monotonic()
    failures: list = []
    worst = 0.0
    cases = []
    for m in (1, 2, 3):
        for s in (0, 1):
            rng = random.Random(5000 + 10 * m + s)
            cases.append(
                QmaInstance(
                    verifier=circuit(m + 2, _mixing_gates(rng, m + 2, m + 2)),
                    m=m, k=2, a=Fraction(3, 4), b=Fraction(1, 4),
                )
            )
    cases.append(generate_instance("qma-p", seed=0, target="3/4", m=1, k=3))
    for i, inst in enumerate(cases):
        value = mixed_state_acceptance(inst)
        trace_route = float(np.trace(inst.q_operator()).real) / (1 << inst.m)
        avg = 0.0
        for j in range(1 << inst.m):
            st = StateVector.basis(inst.verifier.width, j << inst.k)
            st = apply_circuit(st, inst.verifier)
            prob_one, _, _ = measure_projector(st, output_one_mask(st.n))
            avg += prob_one
        avg /= 1 << inst.m
        for gap in (abs(value - trace_route), abs(value - avg)):
            worst = max(worst, gap)
            if gap > 1e-12:
                failures.append(f"case {i}: residual {gap:.2e}")
        exact_value = mixed_state_acceptance(inst, exact=True)
        exact_trace = sum(
            row[j].to_fraction()
            for j, row in enumerate(scalars_from_planes(*inst.q_operator_exact()))
        ) / (1 << inst.m)
        if exact_value != exact_trace:
            failures.append(f"case {i}: exact {exact_value} != {exact_trace}")
    _report(5, 5.0, started, failures, f"{len(cases)} cases, worst residual {worst:.2e}")


def test_criterion_06_qam_repetition_optimality():
    """Repeated-game top eigenvalue equals independent per-round play."""
    started = time.monotonic()
    failures: list = []
    worst = 0.0
    rng = random.Random(6000)
    for i in range(25):
        s = 1 + (i % 2)
        inst = generate_instance("qam-random", seed=i, s=s, m=1, k=2, gates=9)
        for n in (1, 2, 3):
            if n == 1:
                tuples = [(y,) for y in inst.coins()]
            else:
                tuples = [
                    tuple(rng.choice(inst.coins()) for _ in range(n)) for _ in range(3)
                ]
            for y_tuple in tuples:
                lam, independent = parallel_repetition_value(inst, n, list(y_tuple))
                gap = abs(lam - independent)
                worst = max(worst, gap)
                if gap > 1e-9:
                    failures.append(f"instance {i} N={n} {y_tuple}: gap {gap:.2e}")
            # lattice check: the multilinear tail peaks at the all-top corner
            y_tuple = tuples[0]
            spectra = [
                [min(1.0, max(0.0, float(p))) for p in eig_hermitian(
                    acceptance_operator(inst.family[y], inst.m, inst.k)
                ).eigenvalues]
                for y in y_tuple
            ]
            t0 = threshold_count(n, inst.a, inst.b)
            corner = float(multilinear_f([sp[0] for sp in spectra], t0))
            lattice_max = max(
                float(multilinear_f(list(point), t0)) for point in product(*spectra)
            )
            if lattice_max > corner + 1e-12:
                failures.append(f"instance {i} N={n}: lattice beats corner")
    _report(6, 60.0, started, failures, f"25 instances, worst eigen gap {worst:.2e}")


def test_criterion_07_markov_two_thirds():
    """Low average error forces a two-thirds majority of good coins."""
    started = time.monotonic()
    failures: list = []
    combos = []
    for s in (2, 3, 4, 5, 6):
        for error in ("1/9", "1/10", "1/12", "1/16", "1/32", "1/64", "1/128"):
            if Fraction(error) * (1 << s) * 4 >= 1:
                combos.append((s, error))
    combos = combos[:25]
    if len(combos) < 25:
        failures.append(f"only {len(combos)} generator shapes available")
    for i, (s, error) in enumerate(combos):
        inst = generate_instance(
            "qam-bounded", seed=i, s=s, m=1 + (i % 2), k=3 + (i % 2), error=error
        )
        report = markov_check(inst, "yes")
        if float(report.expected_error) > 1 / 9 + 1e-12:
            failures.append(f"combo {i}: error {float(report.expected_error):.4f}")
        if not (report.exhaustive and report.precondition_ok and report.passes):
            failures.append(f"combo {i}: report {report}")
    # boundary: one coin at 5/9, three perfect, so E[Z] is exactly 1/9
    boundary = markov_fractions([Fraction(5, 9), 1, 1, 1], "yes")
    if boundary.expected_error != Fraction(1, 9):
        failures.append(f"boundary error {boundary.expected_error}")
    if not boundary.precondition_ok or boundary.fraction_good < Fraction(2, 3):
        failures.append(f"boundary fraction {boundary.fraction_good}")
    _report(7, 30.0, started, failures,
            f"{len(combos)} generated instances plus exact boundary table")


@pytest.mark.slow
def test_criterion_08_one_coin_completeness_soundness():
    """Honest provers win surely; cheating stays under the soundness bound."""
    started = time.monotonic()
    failures: list = []
    shapes = [(1, 1), (2, 1), (1, 2), (2, 2)]
    for i in range(10):
        k, m = shapes[i % 4]
        base = generate_instance("qip-perfect", seed=i, k=k, m=m, gates=8)
        gap = abs(honest_value(base) - 1.0)
        if gap > 1e-9:
            failures.append(f"perfect {i}: honest off by {gap:.2e}")
    no_cases = [
        (0, 1, 1, 10), (0, 2, 1, 10), (0, 1, 2, 10), (0, 2, 2, 10),
        (2, 3, 1, 10), (2, 3, 2, 8), (2, 4, 1, 8),
        (4, 5, 1, 6), (4, 5, 2, 4), (4, 6, 1, 4),
    ]
    worst_slack = 0.0
    for coins, k, m, restarts in no_cases:
        base = generate_instance("qip-no", seed=0, k=k, m=m, coins=coins)
        bound = soundness_bound(base)
        result = optimize_cheating(base, restarts=restarts, seed=coins)
        worst_slack = max(worst_slack, result.value - bound)
        if result.value > bound + 1e-4:
            failures.append(f"coins={coins} k={k} m={m}: {result.value:.6f} > {bound:.6f}")
        if result.value < bound - 1e-3:
            failures.append(f"coins={coins} k={k} m={m}: optimizer stalled at {result.value:.6f}")
    # dim-2 work register: compare against a dense grid of pure states
    for v2_gates, key in (([hadamard(0)], 1), ([ishift(0), hadamard(0)], 2)):
        base = QipInstance(
            v1=circuit(2), v2=circuit(2, v2_gates), k=1, m=1, epsilon=Fraction(1, 2)
        )
        b_col = to_unitary(base.v2).conj().T[:, 2].reshape(2, 2)
        if np.abs(b_col[:, 1]).max() > 1e-12:
            failures.append("grid case: second transformation touches the message")
        b = b_col[:, 0]
        theta = np.linspace(0.0, np.pi, 961)
        phi = np.linspace(0.0, 2 * np.pi, 1920, endpoint=False)
        ct, st = np.cos(theta / 2)[:, None], np.sin(theta / 2)[:, None]
        v0 = np.broadcast_to(ct, (961, 1920))
        v1 = st * np.exp(1j * phi)[None, :]
        grid = 0.5 * (np.abs(v0) ** 2 + np.abs(b[0] * v0.conj() + b[1] * v1.conj()) ** 2)
        result = optimize_cheating(base, restarts=8, seed=key)
        gap = abs(result.value - float(grid.max()))
        if gap > 1e-4:
            failures.append(f"grid case {key}: optimizer vs grid gap {gap:.2e}")
    _report(8, 300.0, started, failures,
            f"10 honest, 10 cheats (worst slack {worst_slack:.2e}), 2 grid checks")


def test_criterion_09_fidelity_and_uhlmann_fuzz():
    """Fidelity sum inequality and measurement-vs-fidelity bound, fuzzed."""
    started = time.monotonic()
    failures: list = []
    rng = np.random.default_rng(900)
    worst_gap = math.inf
    for i in range(1000):
        dim = 2 + (i % 7)
        rho = _ginibre_density(rng, dim)
        sigma = _ginibre_density(rng, dim)
        xi = _ginibre_density(rng, dim)
        gap = fidelity_sum_gap(rho, sigma, xi)
        worst_gap = min(worst_gap, gap)
        if gap < -1e-9:
            failures.append(f"triple {i} dim {dim}: gap {gap:.2e}")
    worst_over = 0.0
    for i in range(1000):
        dim_v, dim_m = (2, 2) if i % 2 else (2, 4)
        joint = _ginibre_density(rng, dim_v * dim_m)
        g = rng.normal(size=(dim_v, dim_v)) + 1j * rng.normal(size=(dim_v, dim_v))
        q, _ = np.linalg.qr(g)
        r = 1 + int(rng.integers(0, dim_v))
        lam = np.kron(q[:, :r] @ q[:, :r].conj().T, np.eye(dim_m))
        measured, bound = uhlmann_bound_check(joint, lam, dim_v, dim_m, max_iters=120)
        worst_over = max(worst_over, measured - bound)
        if measured > bound + 1e-6:
            failures.append(f"joint {i}: measured {measured:.6f} > bound {bound:.6f}")
    _report(9, 60.0, started, failures,
            f"1000 triples (min gap {worst_gap:.2e}), 1000 joints "
            f"(max measured-bound {worst_over:.2e})")


@pytest.mark.slow
def test_criterion_10_max_acceptance_two_routes():
    """Direct prover optimization agrees with the reduced-state overlap form."""
    started = time.monotonic()
    failures: list = []
    bases = [
        generate_instance("qip-no", seed=0, k=2, m=1, coins=1),
        generate_instance("qip-no", seed=0, k=3, m=1, coins=2),
        generate_instance("qip-perfect", seed=1, k=1, m=1, gates=8),
        generate_instance("qip-perfect", seed=2, k=2, m=1, gates=8),
    ]
    for i, (k, m) in enumerate([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]):
        rng = random.Random(37 + i)
        w = k + m
        bases.append(
            QipInstance(
                v1=circuit(w, _mixing_gates(rng, w, 2 * w)),
                v2=circuit(w, _mixing_gates(rng, w, 2 * w)),
                k=k, m=m, epsilon=Fraction(1),
            )
        )
    worst = 0.0
    for i, base in enumerate(bases):
        direct, overlap = max_accept_two_ways(base, restarts=12, seed=i)
        gap = abs(direct - overlap)
        worst = max(worst, gap)
        if gap > 1e-6:
            failures.append(f"base {i}: {direct:.8f} vs {overlap:.8f}")
    _report(10, 120.0, started, failures, f"10 instances, worst gap {worst:.2e}")


def test_criterion_11_one_coin_parallel_repetition():
    """Two-fold play preserves honest wins and squares the cheat optimum."""
    started = time.monotonic()
    failures: list = []
    perfect = generate_instance("qip-perfect", seed=3, k=1, m=1, gates=8)
    honest_gap = abs(repeated_honest_value(perfect, 2) - 1.0)
    if honest_gap > 1e-9:
        failures.append(f"repeated honest off by {honest_gap:.2e}")
    base = QipInstance(
        v1=circuit(2), v2=circuit(2, [hadamard(0)]), k=1, m=1, epsilon=Fraction(1, 2)
    )
    single = optimize_cheating(base, restarts=8, seed=0)
    doubled = repeated_cheat_game(base, 2)
    seeded = product_strategy(base, single.strategy, 2)
    result = optimize_cheating(doubled, restarts=6, seeds=[seeded], max_iters=400, seed=1)
    target = single.value**2
    if result.value > target + 1e-3:
        failures.append(f"two-fold cheat {result.value:.6f} above {target:.6f}")
    if result.value < target - 1e-3:
        failures.append(f"two-fold cheat {result.value:.6f} stalled below {target:.6f}")
    _report(11, 300.0, started, failures,
            f"single {single.value:.6f}, squared {target:.6f}, "
            f"two-fold {result.value:.6f}")


def test_criterion_12_exact_unitarity():
    """Inverse-after-forward is the bit-exact identity; float tracks exact."""
    started = time.monotonic()
    failures: list = []
    rng = random.Random(97)
    worst = 0.0
    for i in range(100):
        width = rng.randint(1, 6)
        count = rng.randint(5, 40)
        gates = []
        for _ in range(count):
            kind = rng.randrange(3 if width >= 3 else 2)
            if kind == 0:
                gates.append(hadamard(rng.randrange(width)))
            elif kind == 1:
                gates.append(ishift(rng.randrange(width)))
            else:
                q = rng.sample(range(width), 3)
                gates.append(toffoli(q[0], q[1], q[2]))
        c = circuit(width, gates)
        round_trip = circuit(width, [*c.gates, *dagger(c).gates])
        for j in range(1 << width):
            out = apply_circuit(StateVector.basis(width, j, exact=True), round_trip)
            amps = out.amplitudes()
            if any(not a.is_zero() for idx, a in enumerate(amps) if idx != j):
                failures.append(f"circuit {i}: column {j} has off-diagonal weight")
                break
            if amps[j].to_fraction() != 1:
                failures.append(f"circuit {i}: column {j} diagonal {amps[j]}")
                break
        j = rng.randrange(1 << width)
        exact = apply_circuit(StateVector.basis(width, j, exact=True), c)
        flt = apply_circuit(StateVector.basis(width, j), c)
        gap = max(
            abs(a.to_complex() - b) for a, b in zip(exact.amplitudes(), flt.vec)
        )
        worst = max(worst, gap)
        if gap > 1e-12:
            failures.append(f"circuit {i}: float drift {gap:.2e}")
    _report(12, 30.0, started, failures,
            f"100 circuits, worst float drift {worst:.2e}")
