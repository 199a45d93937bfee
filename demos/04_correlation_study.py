"""A miniature of the full study at five vertices.

Builds the property dataset and optimized QAOA metrics for all 21
connected 5-vertex graphs, then prints property-metric correlations and
the bipartite/Eulerian subgroup averages.  With more starts and n up to 8
this is exactly the full pipeline; see the command-line interface for the
file-based version.
"""

from qgraphlab import enumerate_connected
from qgraphlab.analysis import PROPERTY_NAMES, correlation_table, group_averages
from qgraphlab.pipeline import dataset_rows, qaoa_result_rows

N = 5
STARTS = 40  # enough for global optima on graphs this small

graphs = enumerate_connected(N)
rows = dataset_rows(graphs)
outcomes = qaoa_result_rows(graphs, pmax=2, starts=STARTS, seed=0)

for p in (0, 1, 2):
    cells = {(c.property, c.metric): c.r for c in correlation_table(rows, outcomes, N, p)}
    print(f"depth {p}: correlation with <C>")
    for prop in PROPERTY_NAMES:
        r = cells[(prop, "exp_c")]
        bar = "" if r is None else "#" * int(round(abs(r) * 30))
        print(f"  {prop:<22} {('NA' if r is None else f'{r:+.3f}'):>7}  {bar}")
    print()

for flag in ("bipartite", "eulerian"):
    print(f"subgroup averages by {flag}:")
    print(f"{'p':>2}  {'members':>18}  {'non-members':>18}")
    for p in (0, 1, 2):
        member, non = group_averages(rows, outcomes, N, p, flag)
        print(f"{p:>2}  P={member.mean_prob:.3f} <C>={member.mean_exp_c:.3f}"
              f"  P={non.mean_prob:.3f} <C>={non.mean_exp_c:.3f}")
    print()
