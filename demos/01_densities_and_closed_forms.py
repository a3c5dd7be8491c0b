"""Limiting degree densities: solver against exact formulas.

Vertices split at rate w_deg; a split of a degree-i vertex produces child
degrees (k, i+2-k) with probability (i/2) * w[k, i+2-k] / w_i.  As the tree
grows, the fraction of degree-k vertices settles to a constant a_k, the
minimal solution of the stationary system this package solves.

Three families have exact solutions, which makes them perfect oracles for
the solver.
"""

import numpy as np

from splitgrow import (SplittingWeights, fixed_point_densities, grafting_density,
                       iterate_from_below, make_grafting, make_preferential, make_uniform,
                       uniform_density)

# ----------------------------------------------------------------------------
# Attachment-only weights (w_i = i): every split sheds a leaf and the other
# child inherits degree i+1, so the process is degree-proportional
# attachment.  The exact law is a_k = 4/(k(k+1)(k+2)).

model = make_preferential(SplittingWeights(1.0, 0.0))
sol = fixed_point_densities(model, K=400)
print("attachment-only, w_i = i")
print(f"  regime {sol.regime.value}, s = {sol.s:g}, direct solve at K = {sol.K}, "
      f"max stationarity residual {sol.residuals.max_abs:.1e}")
print(f"  {'k':>3} {'solver':>14} {'exact':>14} {'diff':>9}")
for k in (1, 2, 3, 5, 10, 25, 50):
    exact = 4.0 / (k * (k + 1) * (k + 2))
    print(f"  {k:>3} {sol[k]:>14.10f} {exact:>14.10f} {sol[k] - exact:>9.1e}")
print(f"  sum a_k = {sol.sum_a + sol.residuals.tail_mass:.12f}   "
      f"sum k a_k = {sol.sum_ka:.6f} (+tail)")

# The truncation is closed exactly: beyond K the stationary equations are a
# two-term recursion whose Gamma-ratio tail sums have closed forms, so even
# this power-law family (tail ~ 4 k^-3) is solved to rounding level at K = 400.
# The from-below iteration reaches the same fixed point step by step:

it = iterate_from_below(model, K=400, tol=1e-13)
print(f"  from-below iteration: {len(it) - 1} sweeps, max |iterate - direct| "
      f"= {np.max(np.abs(it[-1] - sol.densities)):.1e}")

# ----------------------------------------------------------------------------
# Uniform partitioning (every ordered child pair equally likely), w_i = i + x.
# The normalisation constant needs a modified Bessel function.

print("\nuniform partitioning, x = 0")
sol = fixed_point_densities(make_uniform(0.0), K=256)
for k in (1, 2, 3, 8):
    print(f"  a_{k} = {sol[k]:.12f}   exact {uniform_density(0.0, k):.12f}")

# ----------------------------------------------------------------------------
# Attachment and grafting: two parameters sweep between a power-law tail
# (gamma < 1) and a geometric tail (gamma = 1).

print("\nattachment-and-grafting")
for alpha, gamma in ((0.0, 0.5), (0.5, 0.5), (0.5, 1.0)):
    sol = fixed_point_densities(make_grafting(alpha, gamma), K=400)
    exact = grafting_density(alpha, gamma, 10)
    tail = ("geometric, rate (1-a)/(2-a) = "
            f"{(1 - alpha) / (2 - alpha):.3f}" if gamma == 1.0
            else f"power law, exponent {-(2 - gamma) / (1 - gamma):.1f}")
    print(f"  (alpha={alpha}, gamma={gamma}): a_10 = {sol[10]:.3e} "
          f"(exact {exact:.3e}); {tail}")

# ----------------------------------------------------------------------------
# The recursive-tree special case: constant splitting weights via
# (alpha, gamma) = (0, 1) give a_k = 2^-k.

sol = fixed_point_densities(make_grafting(0.0, 1.0), K=128)
print("\nrecursive trees: a_k vs 2^-k ->",
      np.max(np.abs(sol.densities[:30] - 2.0 ** -np.arange(1, 31))))
