"""qgraphlab: exhaustive QAOA-on-MaxCut benchmarking for small graphs.

The package enumerates every connected non-isomorphic graph on 3..8
vertices, extracts structural and symmetry properties, simulates QAOA
exactly on the statevector with optimized angles at depths up to three,
and reduces the results to correlation tables, subgroup averages, and
histogram data.
"""

from .analysis import (CorrelationCell, GroupAverageRow, HistogramSpec, correlation_table,
                       group_averages, histogram, pearson, sign_summary)
from .datastore import (DatasetRow, QaoaResultRow, RunConfig, build_dataset_row, load_config,
                        read_dataset, read_qaoa_results, write_dataset_file, write_qaoa_results)
from .graphs import (Graph, canonical_form, complete_bipartite, complete_graph,
                     connected_graph_count, cycle_graph, decode_graph6, encode_graph6,
                     enumerate_connected, is_connected, path_graph, relabel, star_graph)
from .qaoa import (AngleVector, MaxCutSummary, QaoaOutcome, cost_vector, evolve, expectation,
                   grid_scan_p1, maxcut_bruteforce, metrics_bundle, optimize_angles, prob_cmax,
                   run_depth_series, uniform_outcome)
from .structure import StructureProfile, structure_profile
from .symmetry import AutomorphismSummary, automorphism_group

__version__ = "0.1.0"
