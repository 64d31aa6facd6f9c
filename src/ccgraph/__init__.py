"""Shortest path trees and arborescences under per-color edge budgets."""

from .arborescence import (Arborescence, RbPartition, cc_arb_flow,
                           cc_arb_flow_stats, cc_rb_arb, min_cc_arb_flow,
                           min_cc_arb_flow_stats, min_cc_rb_arb,
                           rb_partition, solve_cc_arb, unrooted_vertices,
                           verify_arborescence)
from .constrained_path import (CcSpInstance, ReductionCertificate,
                               VccSpInstance, VertexColoredDigraph,
                               cc_sp_decide, cc_to_vcc, vcc_to_cc)
from .errors import (BudgetStateOverflow, CCGraphError,
                     ConstraintLengthMismatch, InstanceTooLarge,
                     LowerBoundTooLarge, NegativeCycleReachable,
                     NonPositiveCycle, NotAcyclic, ParseError,
                     PrecisionError, TooManyArborescences,
                     UnreachableVertex, ValidationError, Violation,
                     WrongColorCount)
from .flow import (FlowAssignment, FlowNetwork, build_arb_network,
                   dinitz_max_flow, min_cost_max_flow, min_cut)
from .graph import (ColorConstraint, ColoredDigraph, EdgeRecord,
                    InDegreeByColor, in_degree_by_color, restrict_to,
                    validate)
from .instance_io import (format_instance, format_vcc_instance,
                          parse_instance, parse_vcc_instance)
from .pipeline import SptResult, at_least_transform, cc_spt, min_cc_spt, \
    verify_spt
from .spg import (AcyclicityResult, DistanceTable, SpgGraph, UNREACHABLE,
                  build_spg, is_acyclic, sssp)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
