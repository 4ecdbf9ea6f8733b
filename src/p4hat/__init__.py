"""Triangle maxima in graphs avoiding the suspended 4-path.

The forbidden pattern ("p4hat") is a 4-vertex path together with an apex
joined to all four path vertices.  This package computes the maximum
number of triangles an n-vertex graph can hold without containing that
pattern, enumerates the extremal configurations for small n, verifies the
lower-bound constructions, and audits the arithmetic that carries the
result to every larger n.
"""

from .blocks import (
    Block,
    BlockDecomposition,
    BlockPreconditionError,
    K4FreeBoundReport,
    base_edge_reduction,
    classify_block,
    decompose,
    verify_k4free_bound,
)
from .bounds import (
    CaseThresholdReport,
    FloorIdentityReport,
    K4NeighborhoodReport,
    case_threshold_audit,
    floor_identity_audit,
    neighborhood_structure,
)
from .canon import CANON_MAX_VERTICES, are_isomorphic, canonical_form
from .constructions import (
    FAMILIES,
    ConstructionFamily,
    bipartite_matching,
    book,
    complete,
    sixteen_vertex,
    small_extremal,
)
from .graphs import (
    Edge,
    Graph,
    Graph6Error,
    Graph6SizeError,
    GraphError,
    GuardError,
    LoopEdgeError,
    Triangle,
    VertexCountError,
    VertexRangeError,
    count_triangles,
    decode_graph6,
    edge_minimal_reduction,
    encode_graph6,
    enumerate_triangles,
    find_k4,
    from_edges,
    neighborhood_subgraph,
    union_of_triangles,
)
from .patterns import (
    SuspensionWitness,
    brute_force_suspension,
    contains_path4,
    contains_suspension_p4,
    is_p4hat_free,
)
from .search import (
    FIXED_TRIANGLES,
    SearchReport,
    candidate_triangles,
    colex_rank,
    colex_unrank,
    counterexample_search,
    enumerate_extremal_configs,
    excluded_triangles,
    exhaustive_oracle,
    extremal_value,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockDecomposition",
    "BlockPreconditionError",
    "CANON_MAX_VERTICES",
    "CaseThresholdReport",
    "ConstructionFamily",
    "Edge",
    "FAMILIES",
    "FIXED_TRIANGLES",
    "FloorIdentityReport",
    "Graph",
    "Graph6Error",
    "Graph6SizeError",
    "GraphError",
    "GuardError",
    "K4FreeBoundReport",
    "K4NeighborhoodReport",
    "LoopEdgeError",
    "SearchReport",
    "SuspensionWitness",
    "Triangle",
    "VertexCountError",
    "VertexRangeError",
    "are_isomorphic",
    "base_edge_reduction",
    "bipartite_matching",
    "book",
    "brute_force_suspension",
    "candidate_triangles",
    "canonical_form",
    "case_threshold_audit",
    "classify_block",
    "colex_rank",
    "colex_unrank",
    "complete",
    "contains_path4",
    "contains_suspension_p4",
    "count_triangles",
    "counterexample_search",
    "decode_graph6",
    "decompose",
    "edge_minimal_reduction",
    "encode_graph6",
    "enumerate_extremal_configs",
    "enumerate_triangles",
    "excluded_triangles",
    "exhaustive_oracle",
    "extremal_value",
    "find_k4",
    "floor_identity_audit",
    "from_edges",
    "is_p4hat_free",
    "neighborhood_structure",
    "neighborhood_subgraph",
    "sixteen_vertex",
    "small_extremal",
    "union_of_triangles",
    "verify_k4free_bound",
]
