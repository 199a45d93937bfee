"""QAOA on one graph, end to end.

Runs the exact statevector simulation on the 4-cycle: the angle landscape
at depth 1, then optimized metrics for depths 0..3.  The 4-cycle closes
half the remaining gap with one layer and all of it with two.
"""

import numpy as np

from qgraphlab import (AngleVector, cost_vector, cycle_graph, evolve, expectation, grid_scan_p1,
                       maxcut_bruteforce, run_depth_series)

g = cycle_graph(4)
mc = maxcut_bruteforce(g)
print(f"C4: optimum cut {mc.cmax}, {mc.optimal_count} optimal assignments "
      f"{[format(z, '04b') for z in np.flatnonzero(cost_vector(g) == mc.cmax)]}")

# coarse landscape at depth 1
print("\n<C> over a coarse (gamma, beta) slice:")
betas = np.linspace(0, np.pi, 7)[:-1]
gammas = np.linspace(0, 2 * np.pi, 9)[:-1]
print("        " + "  ".join(f"b={b:4.2f}" for b in betas))
for gamma in gammas:
    row = [expectation(g, evolve(g, AngleVector((gamma,), (b,)))) for b in betas]
    print(f"g={gamma:4.2f}  " + "  ".join(f"{v:6.3f}" for v in row))

gamma, beta, best = grid_scan_p1(g)
print(f"\ndepth-1 grid oracle: <C> = {best:.6f} at gamma={gamma:.4f}, beta={beta:.4f}")

print("\noptimized depth series (200 starts):")
print(f"{'p':>2} {'<C>':>10} {'P(C_max)':>10} {'ratio':>8} {'delta':>8}")
for o in run_depth_series(g, 3, starts=200, seed=0):
    delta = "NA" if o.delta_ratio is None else f"{o.delta_ratio:.4f}"
    print(f"{o.p:>2} {o.exp_c:>10.6f} {o.prob_cmax:>10.6f} {o.ratio:>8.4f} {delta:>8}")
