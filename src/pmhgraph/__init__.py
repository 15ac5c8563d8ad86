"""Perfect-matching extension to hamiltonian cycles in line graphs."""

from ._kernel import BACKEND as kernel_backend
from .graph_core import (Graph, are_isomorphic, make_named_graph, parse_graph6,
                         write_graph6)
from .line_graph import LineGraphMap, build_line_graph
from .matching import (Matching, P3Decomposition, enumerate_perfect_matchings,
                       find_p3_decomposition, make_matching, matching_to_p3,
                       one_extendability_check, p3_to_matching)
from .cycles import (CycleWalk, SearchResult, circumference, euler_tour,
                     find_dominating_cycle, find_hamiltonian_cycle,
                     has_dominating_tour, is_arbitrarily_traceable,
                     is_hypohamiltonian, longest_cycle_search, validate_walk)
from .pmh import (EdgeColouring, PmhVerdict, colouring_from_matching,
                  extend_matching_arb_traceable, extend_matching_bipartite,
                  extend_matching_complete, extend_matching_subcubic,
                  extend_via_dominating_cycle, find_pc_hamiltonian_cycle,
                  haggkvist_condition, is_pmh, is_pmh_line,
                  kotzig_partition, lasvergnas_condition)
from .constructions import (prop6_construct, remark1_reduction, y_extension,
                            y_reduction)

__version__ = "0.1.0"
