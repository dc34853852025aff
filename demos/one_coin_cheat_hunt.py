"""
One public coin is enough: hunting the best cheating prover
===========================================================

Any three-message game (prover, verifier, prover) can be squeezed into a
protocol where the verifier's entire contribution is a single public
coin flip: the prover sends a half-purification up front, the coin picks
which end of the transformation to test, and the prover answers once.
An honest prover on a yes instance still convinces the verifier with
certainty.  On a no instance with soundness error eps, the best cheat is
pinned at 1/2 + sqrt(eps)/2: the heads test and the tails test each pass
with probability tied to a fidelity, and fidelities between the two
required reduced states cannot sum past 1 + sqrt(eps).

The cheat optimizer is a see-saw: it alternately solves for the best
state, the best answer unitaries, both exactly, so its value climbs
monotonically to a certified lower bound.  This script pushes it against
the algebraic ceiling on a family of gadgets and watches it land on the
ceiling every time.
"""
import time
from fractions import Fraction

from qamg import (
    generate_instance,
    honest_value,
    max_accept_two_ways,
    optimize_cheating,
    soundness_bound,
)
from qamg.circuits import circuit, hadamard
from qamg.qmam import QipInstance, product_strategy, repeated_cheat_game, repeated_honest_value

# %% Honest play on a perfect-completeness instance wins with certainty.
base = generate_instance("qip-perfect", seed=4, k=2, m=1)
print("perfect base (k = %d, m = %d): honest one-coin value = %.12f"
      % (base.k, base.m, honest_value(base)))

# %% No instances: gadgets with soundness error exactly 2^-coins.  The
# see-saw should reach, and never pass, 1/2 + sqrt(eps)/2.
print()
print(" eps     bound 1/2+sqrt(eps)/2   see-saw value    gap          time")
for coins, k in ((0, 1), (2, 3), (4, 5)):
    gadget = generate_instance("qip-no", seed=0, coins=coins, k=k, m=1)
    bound = soundness_bound(gadget)
    t0 = time.perf_counter()
    result = optimize_cheating(gadget, restarts=10, seed=2)
    dt = time.perf_counter() - t0
    eps = Fraction(1, 1 << coins) if coins else Fraction(0)
    print(" %-6s  %.12f        %.12f   %+.2e   %4.1fs"
          % (eps, bound, result.value, result.value - bound, dt))
    assert result.value <= bound + 1e-4
    assert result.value >= bound - 1e-3  # the ceiling is attained, not just respected

# %% Cross-check: the same maximum through two different formulas.  The
# direct route optimizes the prover inside the circuit; the fidelity
# route scans purifications of the verifier's reduced state.
direct, via_fidelity = max_accept_two_ways(gadget, restarts=8)
print()
print("two routes to max acceptance: direct = %.12f, fidelity = %.12f"
      % (direct, via_fidelity))

# %% AND-repetition of the one-coin game squares a cheater's best value.
# The base here has eps = 1/2, whose single-shot optimum is
# (1 + 1/sqrt(2))/2 = 0.8535...
half = QipInstance(
    v1=circuit(2), v2=circuit(2, [hadamard(0)]), k=1, m=1, epsilon=Fraction(1, 2),
)
single = optimize_cheating(half, restarts=8)
doubled = optimize_cheating(
    repeated_cheat_game(half, 2),
    restarts=6,
    seeds=[product_strategy(half, single.strategy, 2)],
    max_iters=400,
    seed=1,
)
print()
print("single-round optimum   = %.9f (bound %.9f)" % (single.value, soundness_bound(half)))
print("two-round optimum      = %.9f" % doubled.value)
print("square of single round = %.9f" % single.value**2)
assert abs(doubled.value - single.value**2) < 1e-3
print("honest two-round value on the perfect base = %.12f" % repeated_honest_value(base, 2))
