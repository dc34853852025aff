"""
Error reduction without growing the witness
===========================================

A single-message game with thresholds (a, b) can be repeated on fresh
witness copies, but that multiplies the message size by the number of
copies.  The alternating-measurement procedure instead reuses one
witness: it applies the verifier forward and backward N = 8 q^2 r times
(q = ceil(1/(a-b))), measuring after each pass, and accepts when enough
consecutive outcomes agree.  The message register never grows, and the
error still drops to 2^-r.

This script sweeps r, compares both routes, checks the enumerated
trajectory distribution against the closed form, and finishes with the
integer counting certificates that turn the decision into a gap between
two exact dyadic traces.
"""
import dataclasses
from fractions import Fraction

from qamg import (
    StateVector,
    amplified_counting_certificate,
    amplify_by_copies,
    amplify_preserving_witness,
    analytic_acceptance,
    counting_certificate,
    generate_instance,
    run_alternating_measurements,
)
from qamg.amplification import a0pp_check
from qamg.circuits import hadamard, swap_gates, toffoli
from qamg.circuits import circuit as make_circuit

# %% A verifier whose acceptance operator is diag(3/4, 1/4), declared with
# the weakest useful gap a - b = 1/2.
base = generate_instance("qma-p", seed=0, target="3/4", m=1, k=3)
inst = dataclasses.replace(base, a=Fraction(3, 4), b=Fraction(1, 4))
print("base game: m = %d witness qubit, k = %d work qubits, a = %s, b = %s"
      % (inst.m, inst.k, inst.a, inst.b))
print("gap parameter q = ceil(1/(a-b)) =", inst.gap_q)

# %% Sweep the target error exponent.  The witness-preserving route keeps
# m fixed; the copies route pays t witness qubits for t rounds.
print()
print(" r   events N   witness qubits   P_acc(a) >=        P_acc(b) <=")
for r in (1, 2, 3, 4, 6, 8):
    amp = amplify_preserving_witness(inst, r)
    good = amp.acceptance_probability(inst.a)
    bad = amp.acceptance_probability(inst.b)
    assert good >= amp.completeness and bad <= amp.soundness
    print(" %d   %8d   %14d   %.12f   %.12f"
          % (r, amp.n_events, amp.m, float(good), float(bad)))

copies = amplify_by_copies(inst, 15)
print()
print("majority over 15 copies: message grows to %d qubits, P_acc(a) = %.12f"
      % (copies.message_width, float(copies.acceptance_probability(inst.a))))

# %% The enumerated trajectory distribution over agreement patterns must
# match the closed form: each eigencomponent of the witness contributes a
# Binomial(N, p_j) agreement count.
n_small = 8  # full enumeration at the real N = 32 would be 2^32 branches
witness = StateVector.basis(inst.m, 0)  # eigenvector of Q with p = 3/4
dist = run_alternating_measurements(inst, witness, n_small, mode="enumerate")
closed = analytic_acceptance([(Fraction(3, 4), 1)], n_small, inst.a, inst.b)
print()
print("N = %d enumeration: %d patterns, total probability %.15f"
      % (n_small, len(dist.probs), float(dist.total())))
print("acceptance enumerated = %.15f, closed form = %.15f"
      % (float(dist.acceptance_probability()), float(closed)))
assert abs(float(dist.acceptance_probability()) - float(closed)) < 1e-12

# One seeded sampled trajectory from the same procedure.
(z,), (accepted,) = run_alternating_measurements(inst, witness, n_small, mode="sample", seed=11)
print("sampled agreement pattern z = %s -> %s"
      % ("".join(map(str, z)), "accept" if accepted else "reject"))

# %% Counting certificates: tr Q is h / 2^g with g the Hadamard count, so
# "accept" vs "reject" becomes the sign of the integer 2h - 2^g.
no_inst = dataclasses.replace(
    base,
    verifier=make_circuit(4, [
        *swap_gates(0, 1, borrow=3), hadamard(2), hadamard(3), toffoli(2, 3, 0),
    ]),
    m=1, k=3, a=Fraction(3, 4), b=Fraction(1, 4),
)
print()
for name, game in (("yes", inst), ("no", no_inst)):
    cert = counting_certificate(game)
    amp_cert = amplified_counting_certificate(game, 3)
    hi, lo = a0pp_check(amp_cert)
    print("%3s instance: tr Q = %d / 2^%d = %s; amplified tr f(Q) = %.9f;"
          " gap test (2h >= 2^g, 4h <= 2^g) = (%s, %s)"
          % (name, cert.h, cert.g, cert.value, float(amp_cert.value), hi, lo))
