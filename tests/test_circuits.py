"""Circuit parsing, gate semantics, macros, and exact/float agreement."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamg.circuits import (
    Circuit,
    CircuitParseError,
    Gate,
    StateVector,
    WidthCapError,
    apply_circuit,
    apply_gates,
    circuit,
    cnot_gates,
    dagger,
    hadamard,
    ishift,
    measure_projector,
    message_rows,
    multi_controlled_x_gates,
    output_one_mask,
    parse_circuit,
    prefix_zero_mask,
    serialize_circuit,
    suffix_zero_mask,
    swap_gates,
    toffoli,
    to_unitary,
    to_exact_columns,
    x_gates,
)
from qamg.exact import I_UNIT, INV_SQRT2, ONE, ZERO, ExactScalar
from qamg.spectra import acceptance_operator_exact

INV_SQRT2_F = 1.0 / np.sqrt(2.0)


def _random_circuit(rng: random.Random, width: int, n_gates: int) -> Circuit:
    gates = []
    for _ in range(n_gates):
        kinds = ["H", "S"] + (["T"] if width >= 3 else [])
        kind = rng.choice(kinds)
        if kind == "T":
            qs = rng.sample(range(width), 3)
            gates.append(toffoli(*qs))
        elif kind == "H":
            gates.append(hadamard(rng.randrange(width)))
        else:
            gates.append(ishift(rng.randrange(width)))
    return circuit(width, gates)


def test_parse_and_serialize_round_trip():
    text = "qubits 3\n# prepare\nH 0\nS 2\nT 0 1 2\n"
    c = parse_circuit(text)
    assert c.width == 3
    assert c.gates == (hadamard(0), ishift(2), toffoli(0, 1, 2))
    assert parse_circuit(serialize_circuit(c)) == c
    # whitespace and comment tolerance
    messy = "  qubits 3 \n\n  H 1  # flip\n\t T 2 1 0\n"
    c2 = parse_circuit(messy)
    assert c2.gates == (hadamard(1), toffoli(2, 1, 0))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitParseError, match="line 1"):
        parse_circuit("H 0\n")
    with pytest.raises(CircuitParseError, match="line 3"):
        parse_circuit("qubits 2\nH 0\nT 0 0 1\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse_circuit("qubits 2\nH 5\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse_circuit("qubits 2\nR 0\n")
    with pytest.raises(CircuitParseError):
        parse_circuit("")


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("T", (0, 1))
    with pytest.raises(ValueError):
        Gate("T", (1, 1, 2))
    with pytest.raises(ValueError):
        Gate("Q", (0,))
    with pytest.raises(ValueError):
        Circuit(2, (hadamard(3),))


def test_hadamard_on_zero():
    st = apply_gates(StateVector.basis(1, 0, exact=True), [hadamard(0)])
    from qamg.exact import INV_SQRT2

    assert st.amplitudes() == [INV_SQRT2, INV_SQRT2]


def test_ishift_semantics():
    # |1> -> i|1>, |0> untouched
    st = apply_gates(StateVector.basis(1, 1, exact=True), [ishift(0)])
    assert st.amplitudes() == [ZERO, I_UNIT]
    st0 = apply_gates(StateVector.basis(1, 0, exact=True), [ishift(0)])
    assert st0.amplitudes() == [ONE, ZERO]


def test_toffoli_on_basis_states():
    # |110> -> |111>, |101> stays
    st = apply_gates(StateVector.basis(3, 0b110, exact=True), [toffoli(0, 1, 2)])
    assert st.amplitude(0b111) == ONE and st.amplitude(0b110) == ZERO
    st2 = apply_gates(StateVector.basis(3, 0b101, exact=True), [toffoli(0, 1, 2)])
    assert st2.amplitude(0b101) == ONE


def test_dagger_inverts_exactly():
    rng = random.Random(23)
    for width in (1, 2, 3, 4):
        c = _random_circuit(rng, width, 25)
        inv = dagger(c)
        for trial in range(3):
            idx = rng.randrange(1 << width)
            st = StateVector.basis(width, idx, exact=True)
            out = apply_circuit(apply_circuit(st, c), inv)
            expected = [ZERO] * (1 << width)
            expected[idx] = ONE
            assert out.amplitudes() == expected


def test_dagger_of_ishift_is_three_ishifts():
    c = circuit(1, [ishift(0)])
    inv = dagger(c)
    assert inv.gates == (ishift(0), ishift(0), ishift(0))
    st = apply_circuit(StateVector.basis(1, 1, exact=True), inv)
    assert st.amplitude(1) == -I_UNIT


def test_measure_output_qubit_exact():
    st = apply_gates(StateVector.basis(1, 0, exact=True), [hadamard(0)])
    prob_one, post0, post1 = measure_projector(st, output_one_mask(1))
    assert prob_one == Fraction(1, 2)
    assert post0.norm_sq() == Fraction(1, 2) and post1.norm_sq() == Fraction(1, 2)
    assert post1.amplitude(0) == ZERO


def test_measure_workspace_zero():
    # |psi>|00> has workspace-zero outcome with certainty
    amps = [ZERO] * 8
    amps[0b000] = ExactScalar(0, 0, 1, 0, 1)
    amps[0b100] = ExactScalar(0, 0, 1, 0, 1)
    st = StateVector.from_amplitudes(amps, exact=True)
    prob_one, post0, post1 = measure_projector(st, suffix_zero_mask(3, 2))
    assert prob_one == 1
    assert post0.norm_sq() == 0


def test_measure_float_renormalizes_and_flags_dead_branch():
    st = StateVector.basis(2, 0b00)
    prob_one, post0, post1 = measure_projector(st, output_one_mask(2))
    assert prob_one == 0.0 and post1 is None
    assert np.allclose(post0.vec, st.vec)
    prob_pref, _, post_pref1 = measure_projector(st, prefix_zero_mask(2, 1))
    assert prob_pref == 1.0
    assert np.allclose(post_pref1.vec, st.vec)


def test_register_convention_against_bit_strings():
    for n in range(1, 6):
        bits = [format(i, f"0{n}b") for i in range(1 << n)]
        for q in range(n):
            assert output_one_mask(n, q).tolist() == [b[q] == "1" for b in bits]
        for k in range(n + 1):
            assert suffix_zero_mask(n, k).tolist() == [b[n - k:] == "0" * k for b in bits]
            assert prefix_zero_mask(n, k).tolist() == [b[:k] == "0" * k for b in bits]
            # message j is the top n - k bits over a zero workspace
            rows = [i for i, b in enumerate(bits) if b[n - k:] == "0" * k]
            assert list(message_rows(n - k, k)) == rows


def test_register_masks_reject_out_of_range():
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            output_one_mask(3, bad)
    for mask in (suffix_zero_mask, prefix_zero_mask):
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                mask(3, bad)


def test_x_macro_unitary():
    u = to_unitary(circuit(1, x_gates(0)))
    assert np.allclose(u, np.array([[0, 1], [1, 0]], dtype=complex), atol=1e-12)


def test_cnot_macro_with_dirty_borrow():
    # control 0, target 1, borrow 2: must act as CNOT x I for any borrow state
    u = to_unitary(circuit(3, cnot_gates(0, 1, 2)))
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = 1
    cnot[2, 3] = cnot[3, 2] = 1
    assert np.allclose(u, np.kron(cnot, np.eye(2)), atol=1e-12)


def test_swap_macro():
    u = to_unitary(circuit(3, swap_gates(0, 1, 2)))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = 1
    swap[1, 2] = swap[2, 1] = 1
    assert np.allclose(u, np.kron(swap, np.eye(2)), atol=1e-12)


def test_multi_controlled_x_with_dirty_borrows():
    for n_controls, width in ((3, 5), (4, 6)):
        controls = list(range(n_controls))
        target = n_controls
        borrows = list(range(n_controls + 1, width))
        gates = multi_controlled_x_gates(controls, target, borrows)
        u = to_unitary(circuit(width, gates))
        expected = np.eye(1 << width)
        for idx in range(1 << width):
            bits = [(idx >> (width - 1 - q)) & 1 for q in range(width)]
            if all(bits[c] for c in controls):
                flipped = idx ^ (1 << (width - 1 - target))
                expected[:, idx] = 0
                expected[flipped, idx] = 1
        assert np.allclose(u, expected, atol=1e-12)


def test_multi_controlled_x_validates_borrows():
    with pytest.raises(ValueError):
        multi_controlled_x_gates([0, 1, 2], 3, [])
    with pytest.raises(ValueError):
        multi_controlled_x_gates([0, 1], 1, [])


def test_unitarity_exact_random_circuits():
    rng = random.Random(31)
    for _ in range(20):
        width = rng.randint(1, 5)
        c = _random_circuit(rng, width, 30)
        round_trip = circuit(width, list(c.gates) + list(dagger(c).gates))
        cols = to_exact_columns(round_trip)
        for j, col in enumerate(cols):
            assert all(a == (ONE if i == j else ZERO) for i, a in enumerate(col))


def test_float_and_exact_agree():
    rng = random.Random(37)
    for _ in range(10):
        width = rng.randint(1, 5)
        c = _random_circuit(rng, width, 100)
        ex = apply_circuit(StateVector.basis(width, 0, exact=True), c)
        fl = apply_circuit(StateVector.basis(width, 0), c)
        assert np.allclose(ex.to_float().vec, fl.vec, atol=1e-12)


def test_norm_preserved_exactly():
    rng = random.Random(41)
    for _ in range(10):
        width = rng.randint(1, 4)
        c = _random_circuit(rng, width, 60)
        st = apply_circuit(StateVector.basis(width, 0, exact=True), c)
        assert st.norm_sq() == 1


def test_int64_planes_widen_before_overflow():
    # 40 Hadamards on one qubit stays exact (values collapse but exponents grow)
    st = StateVector.basis(1, 0, exact=True)
    for _ in range(41):
        st.apply_gate(hadamard(0))
    assert st.norm_sq() == 1
    amp = st.amplitude(0)
    val, bound = amp.approx(40)
    assert abs(val - INV_SQRT2_F) <= bound + 1e-12


def test_width_cap_enforced(monkeypatch):
    monkeypatch.setenv("QAMG_WIDTH_CAP", "3")
    with pytest.raises(WidthCapError):
        StateVector.basis(4, 0)
    st = StateVector.basis(3, 0)
    assert st.n == 3
    monkeypatch.delenv("QAMG_WIDTH_CAP")
    st14 = StateVector.basis(11, 0)
    assert st14.n == 11
    with pytest.raises(WidthCapError):
        StateVector.basis(11, 0, exact=True)


def test_width_cap_checked_before_any_allocation():
    # a 2^70-row block cannot be allocated, so reaching np.zeros would fail otherwise
    for exact in (False, True):
        with pytest.raises(WidthCapError):
            StateVector.columns(70, [0], exact)
        with pytest.raises(WidthCapError):
            StateVector.columns(70, message_rows(70, 0), exact)


def test_exact_norms_are_fractions():
    st = apply_gates(StateVector.columns(2, [0, 1, 3], exact=True), [hadamard(0), hadamard(1)])
    assert st.norms_sq() == [1, 1, 1]
    assert all(type(ns) is Fraction for ns in st.norms_sq())
    assert st.project(output_one_mask(2)).norms_sq() == [Fraction(1, 2)] * 3
    # (1 + sqrt2)/2 has squared norm (3 + 2 sqrt2)/4, which is not rational
    lopsided = StateVector.from_amplitudes([ExactScalar(1, 0, 1, 0, 1), ZERO], exact=True)
    with pytest.raises(ValueError, match="sqrt"):
        lopsided.norm_sq()


def test_circuit_width_mismatch_errors():
    c = circuit(2, [hadamard(0)])
    with pytest.raises(ValueError):
        apply_circuit(StateVector.basis(3, 0), c)


# --- the block kernel against a one-column, per-gate reference ---


def _reference_column(c: Circuit, index: int, exact: bool) -> list:
    """Column `index` of the circuit, one gate at a time on a plain amplitude list."""
    n = c.width
    one, zero, h, i_unit = (ONE, ZERO, INV_SQRT2, I_UNIT) if exact else (1 + 0j, 0j, INV_SQRT2_F, 1j)
    amps = [zero] * (1 << n)
    amps[index] = one
    for g in c.gates:
        bits = [1 << (n - 1 - q) for q in g.qubits]
        for i in range(1 << n):
            if g.kind == "H" and not i & bits[0]:
                a0, a1 = amps[i], amps[i | bits[0]]
                amps[i], amps[i | bits[0]] = (a0 + a1) * h, (a0 - a1) * h
            elif g.kind == "S" and i & bits[0]:
                amps[i] = amps[i] * i_unit
            elif g.kind == "T" and i & bits[0] and i & bits[1] and not i & bits[2]:
                amps[i], amps[i | bits[2]] = amps[i | bits[2]], amps[i]
    return amps


@st.composite
def _circuit_and_columns(draw):
    width = draw(st.integers(1, 8))
    qubit = st.integers(0, width - 1)
    gate = [st.builds(hadamard, qubit), st.builds(ishift, qubit)]
    if width >= 3:
        gate.append(st.permutations(range(width)).map(lambda p: toffoli(*p[:3])))
    gates = draw(st.lists(st.one_of(gate), max_size=30))
    cols = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=4))
    return circuit(width, gates), cols


@settings(max_examples=40, deadline=None)
@given(_circuit_and_columns())
def test_block_kernel_matches_one_column_reference(case):
    c, cols = case
    exact = apply_circuit(StateVector.columns(c.width, cols, exact=True), c)
    flt = apply_circuit(StateVector.columns(c.width, cols), c)
    for j, index in enumerate(cols):
        want = _reference_column(c, index, exact=True)
        assert exact.column(j).amplitudes() == want
        assert np.array_equal(flt.vec[:, j], _reference_column(c, index, exact=False))
    single = apply_circuit(StateVector.basis(c.width, cols[0], exact=True), c)
    assert single.amplitudes() == _reference_column(c, cols[0], exact=True)
    assert np.abs(exact.to_float().vec - flt.vec).max() <= 1e-12


def test_power_of_two_strip_keeps_every_amplitude():
    rng = random.Random(43)
    stripped = 0
    for _ in range(20):
        width = rng.randint(1, 5)
        st_ = StateVector.basis(width, rng.randrange(1 << width), exact=True)
        for g in _random_circuit(rng, width, 40).gates:
            st_.apply_gate(g)  # gate by gate: nothing is divided out
        out = apply_circuit(st_, circuit(width))  # a circuit application strips
        assert out.amplitudes() == st_.amplitudes()
        assert 0 <= out.exponent <= st_.exponent
        stripped += out.exponent < st_.exponent
    assert stripped > 0


def test_object_dtype_gram_matches_scalar_reference():
    # 64 Hadamards between Toffolis grow the plane entries past 30 bits, so the
    # Gram guard 2*bits + n + 3 <= 63 fails and the products run on Python ints
    c = circuit(3, [toffoli(1, 2, 0), hadamard(2), toffoli(0, 2, 1), hadamard(2)] * 32)
    mask = output_one_mask(3)
    block = apply_circuit(StateVector.columns(3, [0, 4], exact=True), c).project(mask)
    bits = max(abs(int(v)) for v in block.planes.ravel()).bit_length()
    assert 2 * bits + 3 + 3 > 63
    cols = [_reference_column(c, index, exact=True) for index in (0, 4)]
    want = [
        [sum((a.conj() * b for a, b, keep in zip(ci, cj, mask) if keep), ZERO) for cj in cols]
        for ci in cols
    ]
    assert acceptance_operator_exact(c, 1, 2) == want
