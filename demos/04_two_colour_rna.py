"""The two-colour variant: recolour blacks, split whites.

Selecting a black vertex recolours it white; selecting a white vertex
splits it into two black children.  The event clock t advances either way,
so per-degree counts over t are not densities; dividing by the total vertex
density recovers them.  With w_white(k) = k+1, w_black(k) = k and uniform
white partitioning this is the tree model behind RNA secondary-structure
folding, and everything is exactly solvable.
"""

import math

import numpy as np

from splitgrow import (TwoColourState, densities_from_e, fixed_point_densities,
                       make_rna, reduce_to_one_colour, rna_closed_form,
                       solve_two_colour, uniform_density)

E2 = math.e ** 2
model = make_rna()

# ----------------------------------------------------------------------------
# Solve via the one-colour reduction and check the exact RNA limits
# e_white_k = 2^k k/(e^2 (k+2)!), e_black_k = 2^k/(e^2 (k+1)!).

sol = solve_two_colour(model, K=256)
print("RNA model: per-degree limits over the event clock")
print(f"  {'k':>2} {'e_white':>12} {'exact':>12} {'e_black':>12} {'exact':>12}")
for k in (1, 2, 3, 5, 8):
    ew, eb = rna_closed_form(k)
    print(f"  {k:>2} {sol.e_white[k - 1]:>12.3e} {ew:>12.3e} "
          f"{sol.e_black[k - 1]:>12.3e} {eb:>12.3e}")
print(f"  colour normalisation |sum(3e_w + 2e_b) - 1| = {sol.colour_sum_dev:.1e}")
print(f"  worst stationarity residual = {sol.max_residual:.1e}")

# ----------------------------------------------------------------------------
# Vertex densities and the colour-sum identity: rho_white + rho_black equals
# the densities of the reduced one-colour model, which for RNA weights is
# exactly the uniform-partitioning model with w_k = k.

rho_w, rho_b = densities_from_e(sol)
red = reduce_to_one_colour(model)
one = fixed_point_densities(red, K=256)
print("\nvertex densities and the one-colour reduction")
print(f"  rho_black_1 = {rho_b[0]:.7f}  (exact 2/(e^2-1) = {2 / (E2 - 1):.7f})")
print(f"  rho_white_1 = {rho_w[0]:.7f}  (exact 4/(6(e^2-1)) = {4 / (6 * (E2 - 1)):.7f})")
worst = max(abs(rho_w[k] + rho_b[k] - uniform_density(0.0, k + 1)) for k in range(30))
print(f"  max |rho_w + rho_b - uniform(x=0)| over k <= 30: {worst:.1e}")
print(f"  reduced model solved directly agrees too: "
      f"{np.max(np.abs(one.densities[:30] - (rho_w + rho_b)[:30])):.1e}")

# ----------------------------------------------------------------------------
# Simulate and watch the exact bookkeeping: sum(3 n_white + 2 n_black) = t+2
# and total weight (a-b)t + b = t at every step.

state = TwoColourState.single_edge(model)
rng = np.random.default_rng(4)
for _ in range(50_000):
    state.step(rng)
snap = state.census()
t, white, black = snap.t, snap.white, snap.black
print(f"\nsimulated to t = {t}: colour identity deviation = "
      f"{state.colour_identity_deviation()}, weight deviations = "
      f"{tuple(f'{d:.1e}' for d in state.weight_deviation())}")
print(f"  n_black_1/t = {black[0] / t:.5f} vs e_black_1 = {1 / E2:.5f}")
print(f"  n_white_1/t = {white[0] / t:.5f} vs e_white_1 = {1 / (3 * E2):.5f}")
