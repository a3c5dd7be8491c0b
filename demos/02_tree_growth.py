"""Growing trees two ways: full planar surgery vs a degree census urn.

The tree engine keeps every vertex's neighbours in cyclic order and splits
them into two contiguous arcs; the urn engine only tracks how many vertices
have each degree.  Driven by the same (degree, child-degree) decisions the
censuses coincide step for step, which is why degree statistics can be
studied on the cheap engine.
"""

import io

import numpy as np

from splitgrow import (OrderedTree, SplittingWeights, UrnState,
                       make_preferential, make_uniform, run, write_census_csv)

rng = np.random.default_rng(20240901)

# ----------------------------------------------------------------------------
# A few explicit split steps on the planar tree.

model = make_uniform(0.0)
tree = OrderedTree.from_edges(model, [(0, i) for i in range(1, 6)])
print("5-star; splitting the hub with child degree k = 3")
ev = tree.split_vertex(0, 3, rng)
print(f"  event: degree {ev.parent_degree} -> {ev.child_degrees}, "
      f"arc start {ev.arrangement}")
print(f"  still a tree: {tree.is_tree()}, census {tree.counts}")

# ----------------------------------------------------------------------------
# Exact bookkeeping identities: vertex count, degree sum, and total weight
# (linear weights make the weight a function of t alone: w_2 * t - 2a).

tree = OrderedTree.single_edge(model)
for _ in range(5000):
    tree.step(rng)
print("\nafter 5000 splits, the checks every replica reports:")
for name, val in tree.checks().items():
    print(f"  {name:<28} {val:.1e}")
print("  (census sums: sum n_k - t and sum k n_k - (2t-2); weights: relative to "
      "the exact sum and to w_2 t - 2a)")

# ----------------------------------------------------------------------------
# Census-coupled engines.

model = make_preferential(SplittingWeights(1.0, 0.0))
urn = UrnState.single_edge(model)
tree = OrderedTree.single_edge(model)
replay = np.random.default_rng(7)
for _ in range(3000):
    ev = urn.step(rng)
    tree.apply_to_degree(ev.parent_degree, ev.child_degrees[0], replay)
print("\ncoupled engines after 3000 shared decisions:"
      f" censuses identical = {tree.counts == urn.counts}")

# ----------------------------------------------------------------------------
# Trajectories: snapshots every 2000 steps, streamable as CSV.

snaps = run(UrnState.single_edge(model), 10_000, rng, thin=2000)
print(f"\ntrajectory snapshots at t = {[s.t for s in snaps]}")
print("fraction of leaves n_1/t over time:",
      [f"{s.counts[0] / s.t:.4f}" for s in snaps], "-> 2/3")
buf = io.BytesIO()
write_census_csv(buf, [snaps[-1:]])
print("last snapshot as CSV rows:")
print("\n".join(buf.getvalue().decode().splitlines()[:6]), "...")
