"""srdkit: exact strong rainbow disconnection colorings, desk scale.

Construct, verify and exactly compute strong rainbow disconnection (srd) and
rainbow disconnection (rd) edge colorings of small multigraphs, plus the
3-SAT instance generator that shows deciding "is there a rainbow minimum
s-t cut" is NP-hard.
"""

from .graph import (  # noqa: F401
    Graph,
    Block,
    BlockDecomposition,
    ContractionResult,
    SubgraphView,
    blocks,
    components,
    complete_graph,
    complete_multipartite_graph,
    contract,
    cycle_graph,
    export_dot,
    grid_graph,
    grid_vertex,
    induced_subgraph,
    is_cactus_with_cycle,
    is_connected,
    is_tree,
    parse_graph,
    path_graph,
    petersen_graph,
    serialize_graph,
    star_graph,
)
from .connectivity import (  # noqa: F401
    CutCertificate,
    edge_connectivity,
    enumerate_min_cuts,
    local_edge_connectivity,
    upper_edge_connectivity,
)
from .colorings import (  # noqa: F401
    EdgeColoring,
    bipartite_proper_coloring,
    check_coloring_fits,
    color_by_blocks,
    color_cactus,
    color_complete,
    color_complete_multipartite,
    color_general_upper,
    color_grid,
    color_regular,
    color_tree,
    exact_chromatic_index,
    greedy_fan_coloring,
    is_proper,
    normalize_colors,
    parse_coloring,
    serialize_coloring,
)
from .reduction import (  # noqa: F401
    CnfFormula,
    EquivalenceReport,
    ReductionInstance,
    build_reduction,
    check_equivalence,
    cut_from_assignment,
    extract_assignment,
    parse_dimacs_cnf,
    sat_brute_force,
)
from .solver import (  # noqa: F401
    ScanRecord,
    SolveResult,
    all_connected_graphs,
    canonical_colorings,
    conjecture_scan,
    rd_number,
    srd_by_blocks,
    srd_number,
)
from .verifier import (  # noqa: F401
    SearchStats,
    VerificationReport,
    find_rainbow_min_cut,
    is_rainbow,
    is_rd_coloring,
    is_srd_coloring,
)
from .cli import main, run  # noqa: F401
from .errors import (  # noqa: F401
    BudgetExceededError,
    ColoringError,
    ContractionError,
    ExtractionError,
    GraphParseError,
    GraphStructureError,
    NotBipartiteError,
    ReductionError,
    SrdKitError,
)

__version__ = "0.1.0"
