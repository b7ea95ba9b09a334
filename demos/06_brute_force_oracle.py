"""Cross-checking the fast paths against a dense sweep of the full sphere.

The in-plane search and the eigen-solve both claim their optimum without
looking outside span{a, b}.  The Fibonacci-lattice oracle knows nothing
about that plane; on random ensembles it lands on the same values.
"""

import numpy as np

from qdiscord import (
    accessible_information,
    brute_force_accessible,
    brute_force_geo,
    fibonacci_sphere,
    geometric_discord,
    random_ensemble,
)

grid = fibonacci_sphere(10_000)
print(f"grid: {len(grid)} deterministic points, all unit norm")

rng = np.random.default_rng(11)
print(f"\n{'i_acc':>12} {'oracle':>12} {'diff':>10}   {'geo':>12} {'oracle':>12} {'diff':>10}")
worst_acc = worst_geo = 0.0
for _ in range(8):
    ens = random_ensemble(rng)
    acc = accessible_information(ens)
    oa = brute_force_accessible(ens, 10_000)
    geo = geometric_discord(ens)
    og = brute_force_geo(ens, 10_000)
    da, dg = abs(acc.value - oa.value), abs(geo.value - og.value)
    worst_acc, worst_geo = max(worst_acc, da), max(worst_geo, dg)
    print(
        f"{acc.value:12.9f} {oa.value:12.9f} {da:10.2e}   "
        f"{geo.value:12.9f} {og.value:12.9f} {dg:10.2e}"
    )

print(f"\nworst disagreement: accessible {worst_acc:.2e}, geometric {worst_geo:.2e}")
print("the grid search never assumes the span{a, b} reduction; it confirms it")
