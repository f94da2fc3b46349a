"""Combinatorial rigidity of graph frameworks and the dimension thresholds
it induces for distance sets: exact rank certificates, matroid constructions,
threshold formulas, and desk-scale numerical experiments."""

__version__ = "0.1.0"

from .experiments import (
    CantorSampler,
    CoveringEstimate,
    EnumerationLimitError,
    LatticeSampler,
    UnitCubeSampler,
    congruence_class_counts,
    covering_count,
    distance_images,
    euler_t24,
    fit_box_dimension,
    hausdorff_content_bound,
    k4_euler_residuals,
    sample_box_dimension,
    sample_framework_tuples,
)
from .frameworks import (
    Configuration,
    infinitesimal_motions,
    is_general_position,
    make_config,
    squared_distance_map,
)
from .graphs import (
    Graph,
    GraphFormatError,
    PruneTrace,
    complete_graph,
    connected_components,
    double_banana,
    graph_from_json,
    graph_to_json,
    make_graph,
    named_graph,
    path_graph,
    prune_degree_one,
    star_graph,
)
from .linalg import RowSpace, exact_rank_int
from .rigidity import (
    DependentEdgeSetError,
    EdgeBasis,
    GenericCertificate,
    exact_rank,
    generic_rank,
    is_framework_inf_rigid,
    is_generically_rigid,
    is_independent,
    is_minimally_rigid,
    max_independent_subset,
    minimal_rigid_completion,
    required_edge_count,
    sample_generic_config,
)
from .thresholds import (
    SMALL_REGIME_NOTE,
    ThresholdReport,
    analyze,
    natural_measure_exponent,
    necessary_exponent,
    predicted_distance_set_dimension,
    pruned_threshold,
    small_regime_threshold,
    sufficient_threshold,
)
