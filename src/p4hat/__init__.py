"""Triangle maxima in graphs avoiding the suspended 4-path.

The forbidden pattern ("p4hat") is a 4-vertex path together with an apex
joined to all four path vertices.  This package computes the maximum
number of triangles an n-vertex graph can hold without containing that
pattern, enumerates the extremal configurations for small n, verifies the
lower-bound constructions, and audits the arithmetic that carries the
result to every larger n.

Every public name can be imported from the package itself.  Its module is
imported on first use (PEP 562), so ``import p4hat`` loads no submodule
and each command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "blocks": (
        "Block", "BlockDecomposition", "BlockPreconditionError",
        "K4FreeBoundReport", "base_edge_reduction", "classify_block",
        "decompose", "verify_k4free_bound",
    ),
    "bounds": (
        "CaseThresholdReport", "FloorIdentityReport", "K4NeighborhoodReport",
        "case_threshold_audit", "floor_identity_audit", "neighborhood_structure",
    ),
    "canon": ("CANON_MAX_VERTICES", "are_isomorphic", "canonical_form"),
    "constructions": (
        "FAMILIES", "ConstructionFamily", "bipartite_matching", "book",
        "complete", "sixteen_vertex", "small_extremal",
    ),
    "graphs": (
        "Edge", "Graph", "Graph6Error", "Graph6SizeError", "GraphError",
        "GuardError", "LoopEdgeError", "Triangle", "VertexCountError",
        "VertexRangeError", "count_triangles", "decode_graph6",
        "edge_minimal_reduction", "encode_graph6", "enumerate_triangles",
        "find_k4", "from_edges", "neighborhood_subgraph", "union_of_triangles",
    ),
    "patterns": (
        "SuspensionWitness", "brute_force_suspension", "contains_path4",
        "contains_suspension_p4", "is_p4hat_free",
    ),
    "search": (
        "FIXED_TRIANGLES", "CertificateReport", "SearchReport",
        "candidate_triangles", "certify_upper_bound", "counterexample_search",
        "enumerate_extremal_configs", "excluded_triangles", "exhaustive_oracle",
        "extremal_value",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
