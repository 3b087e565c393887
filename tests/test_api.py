"""The public surface of srdkit, pinned name by name.

Adding or removing a public name is an API change: it has to edit the pin
below, and say so in CHANGES.md.
"""

import inspect
import types

import srdkit

PUBLIC_NAMES = [
    "Block",
    "BlockDecomposition",
    "BudgetExceededError",
    "CnfFormula",
    "ColoringError",
    "ContractionError",
    "ContractionResult",
    "CutCertificate",
    "EdgeColoring",
    "EquivalenceReport",
    "ExtractionError",
    "Graph",
    "GraphParseError",
    "GraphStructureError",
    "NotBipartiteError",
    "ReductionError",
    "ReductionInstance",
    "ScanRecord",
    "SearchStats",
    "SolveResult",
    "SrdKitError",
    "SubgraphView",
    "VerificationReport",
    "all_connected_graphs",
    "bipartite_proper_coloring",
    "blocks",
    "build_reduction",
    "canonical_colorings",
    "check_coloring_fits",
    "check_equivalence",
    "color_by_blocks",
    "color_cactus",
    "color_complete",
    "color_complete_multipartite",
    "color_general_upper",
    "color_grid",
    "color_regular",
    "color_tree",
    "complete_graph",
    "complete_multipartite_graph",
    "components",
    "conjecture_scan",
    "contract",
    "cut_from_assignment",
    "cycle_graph",
    "edge_connectivity",
    "enumerate_min_cuts",
    "exact_chromatic_index",
    "export_dot",
    "extract_assignment",
    "find_rainbow_min_cut",
    "greedy_fan_coloring",
    "grid_graph",
    "grid_vertex",
    "induced_subgraph",
    "is_cactus_with_cycle",
    "is_connected",
    "is_proper",
    "is_rainbow",
    "is_rd_coloring",
    "is_srd_coloring",
    "is_tree",
    "local_edge_connectivity",
    "main",
    "normalize_colors",
    "parse_coloring",
    "parse_dimacs_cnf",
    "parse_graph",
    "path_graph",
    "petersen_graph",
    "rd_number",
    "run",
    "sat_brute_force",
    "serialize_coloring",
    "serialize_graph",
    "srd_by_blocks",
    "srd_number",
    "star_graph",
    "upper_edge_connectivity",
]


def test_public_names_are_pinned():
    # the submodules (srdkit.graph, srdkit.cli, ...) are not names of the API
    names = sorted(
        name
        for name in dir(srdkit)
        if not name.startswith("_")
        and not isinstance(getattr(srdkit, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_graph_public_attributes_are_pinned():
    names = sorted(name for name in dir(srdkit.Graph) if not name.startswith("_"))
    assert names == [
        "adj",
        "degree",
        "edge_count",
        "edges",
        "has_parallel_edges",
        "max_degree",
        "vertex_count",
    ]


def test_verifier_signatures_are_pinned():
    # stats is keyword-only on both verifiers
    for verify in (srdkit.is_srd_coloring, srdkit.is_rd_coloring):
        assert str(inspect.signature(verify)) == (
            "(g: 'Graph', c: 'EdgeColoring', *, stats: 'SearchStats | None' = None)"
            " -> 'VerificationReport'"
        )
