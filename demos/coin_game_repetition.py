"""
Coin-first games: repetition buys nothing, most coins stay good
===============================================================

In a coin-first game the verifier announces s random coins, the prover
answers with an m-qubit state, and a circuit chosen by the coins decides.
The prover's best strategy is simple: for each coin string, send the top
eigenvector of that coin's acceptance operator.  Two consequences are
checked numerically here.

First, playing n rounds in parallel (accept on a majority-style count)
does not help a cheating prover: the optimal value of the repeated game
factors into the single-round optima, so entangling answers across
rounds is useless.  Second, a game with expected error below 1/9 keeps
at least two thirds of its coins at per-coin error below 1/3, which is
what lets the verifier substitute a handful of checked coins for the
full average.
"""
import itertools
from fractions import Fraction

import numpy as np

from qamg import (
    generate_instance,
    markov_check,
    multilinear_f,
    optimal_qam_value,
    parallel_repetition_value,
)
from qamg.amplification import threshold_count
from qamg.qam import markov_fractions

# %% A small random two-coin game.
inst = generate_instance("qam-random", seed=7, s=1, m=1, k=2, gates=9)
print("coin game: s = %d coin, m = %d, k = %d, thresholds a = %s, b = %s"
      % (inst.s, inst.m, inst.k, inst.a, inst.b))
# Fixing the coin leaves a one-message verifier; its spectrum is clamped to [0, 1].
for y in inst.coins():
    accept = inst.coin_verifier(y).spectrum.eigenvalues
    print("  coin %s: acceptance spectrum %s, best reply %.9f"
          % (y, np.round(accept, 9), accept[0]))
print("optimal single-round value =", optimal_qam_value(inst))

# %% Parallel repetition: for every announced coin tuple, the top
# eigenvalue of the repeated-game operator equals the multilinear tail
# of the per-round optima.  No joint strategy beats independent play.
print()
for n in (2, 3):
    t0 = threshold_count(n, inst.a, inst.b)
    worst = 0.0
    for ys in itertools.product(inst.coins(), repeat=n):
        joint, independent = parallel_repetition_value(inst, n, ys)
        worst = max(worst, abs(joint - independent))
        singles = [float(inst.coin_verifier(y).spectrum.eigenvalues[0]) for y in ys]
        f_val = multilinear_f(singles, t0)
        assert abs(joint - f_val) < 1e-9
    print("n = %d: max |joint - independent| over all %d coin tuples = %.3e"
          % (n, (1 << inst.s) ** n, worst))

# %% The two-thirds property on a generated bounded-error game.
bounded = generate_instance("qam-bounded", seed=3, s=4, m=1, k=3, error="1/16")
report = markov_check(bounded, "yes")
print()
print("bounded game: s = %d coins, expected error = %s (<= 1/9: %s)"
      % (bounded.s, report.expected_error, report.precondition_ok))
print("fraction of coins with error < 1/3 = %s (needs >= 2/3: %s)"
      % (report.fraction_good, report.passes))

# The bound is tight: a mean of exactly 1/9 can still leave a quarter of
# the coins bad, but never more.
edge = markov_fractions([Fraction(5, 9), 1, 1, 1], "yes")
print("synthetic edge case mu = [5/9, 1, 1, 1]: expected error = %s,"
      " good fraction = %s" % (edge.expected_error, edge.fraction_good))
