"""Classical and quantum random walks on biomolecular networks.

The library covers five walk models on labeled graphs — random walk
with restart, continuous- and discrete-time classical walks, and
continuous- and discrete-time quantum walks (including chiral
Hamiltonians and scheduled wavefunction collapse) — together with
ranking metrics (P@K, AP@K), transition-profile comparison, and two
experiment drivers: disease-gene prioritization sweeps and walk-based
analysis of multipartite cell-cell-interaction graphs.
"""

from .classical import (
    ctrw_evolve,
    dtrw_evolve,
    dtrw_transition_profile,
    rwr_iterate,
    rwr_steady_state,
)
from .ctqrw import (
    CollapseSchedule,
    build_hamiltonian,
    collapse,
    evolve,
    evolve_with_collapses,
    initial_state_from_scores,
    measure,
    random_chiral_phases,
    transition_probability,
    transition_rate,
    uniform_chiral_phases,
)
from .dtqrw import (
    ArcIndex,
    arc_basis,
    arc_state_from_scores,
    grover_coin,
    initial_arc_block,
    initial_arc_state,
    node_probabilities,
    transition_profile,
)
from .expm import (
    ConvergenceError,
    HermiticityError,
    SparseHermitian,
    as_hermitian,
    expm_action,
    real_expm_action,
)
from .graphs import (
    CCI_LAYERS,
    CciValidationError,
    GraphFormatError,
    LabeledGraph,
    PartitionedCciGraph,
    adjacency_matrix,
    build_cci_graph,
    connected_components,
    degree_vector,
    graph_from_edges,
    graph_stats,
    greatest_component,
    laplacian,
    load_edge_list,
    read_edge_list,
    symmetrized_view,
)
from .metrics import (
    RankedList,
    average_precision_at_k,
    pairwise_distance_matrix,
    precision_at_k,
    rank_by_probability,
    walk_support_subgraph,
)
from .pipeline import (
    CciConfig,
    ExperimentConfig,
    SeedTargetSets,
    SweepResult,
    build_seed_target_sets,
    emit_cci_reports,
    emit_reports,
    run_cci_analysis,
    run_prioritization,
)

__version__ = "0.1.0"
