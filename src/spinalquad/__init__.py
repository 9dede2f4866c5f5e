"""Spinal quadrangulations of closed orientable surfaces.

Pipeline: a spine graph G is doubled into its 2-fold interlacement,
a rotation system turns the interlacement into a quadrilateral
embedding, and independent checkers certify that the result is a
closed orientable surface with the predicted genus, homology, and
chromatic behavior.
"""

from .coloring import (
    CapExceededError,
    ColoringError,
    FaceColoring,
    VertexColoring,
    chromatic_number_exact,
    face_adjacencies,
    face_coloring_from_sources,
    format_face_coloring,
    format_vertex_coloring,
    lift_coloring,
    parse_vertex_coloring,
    verify_proper_faces,
    verify_proper_vertices,
)
from .embed import (
    IsolatedVertexError,
    QuadEmbedding,
    RotationError,
    RotationSystem,
    default_rotations,
    format_quad,
    parse_quad,
    permute_rotations,
    quadrangulate,
)
from .families import (
    RecipeError,
    SpineRecipe,
    VerificationError,
    check_duality_formula,
    check_thickening_identities,
    complete_graph,
    complete_minus_clique,
    min_quad_vertices,
    minimality_report,
    spine_for,
)
from .graph import (
    Graph,
    ParseError,
    components,
    cycle_rank,
    format_edge_list,
    parse_edge_list,
)
from .homology import (
    BettiVector,
    SimplicialComplex,
    betti_numbers,
    boundary_rank,
    euler_poincare_check,
    from_graph,
    parse_complex,
)
from .interlace import (
    format_twin_edge_list,
    interlace,
)
from .verify import ComponentReport, SurfaceReport, verify_surface

__version__ = "1.0.0"

__all__ = [
    "BettiVector",
    "CapExceededError",
    "ColoringError",
    "ComponentReport",
    "FaceColoring",
    "Graph",
    "IsolatedVertexError",
    "ParseError",
    "QuadEmbedding",
    "RecipeError",
    "RotationError",
    "RotationSystem",
    "SimplicialComplex",
    "SpineRecipe",
    "SurfaceReport",
    "VerificationError",
    "VertexColoring",
    "betti_numbers",
    "boundary_rank",
    "check_duality_formula",
    "check_thickening_identities",
    "chromatic_number_exact",
    "complete_graph",
    "complete_minus_clique",
    "components",
    "cycle_rank",
    "default_rotations",
    "euler_poincare_check",
    "face_adjacencies",
    "face_coloring_from_sources",
    "format_edge_list",
    "format_face_coloring",
    "format_quad",
    "format_twin_edge_list",
    "format_vertex_coloring",
    "from_graph",
    "interlace",
    "lift_coloring",
    "min_quad_vertices",
    "minimality_report",
    "parse_complex",
    "parse_edge_list",
    "parse_quad",
    "parse_vertex_coloring",
    "permute_rotations",
    "quadrangulate",
    "spine_for",
    "verify_proper_faces",
    "verify_proper_vertices",
    "verify_surface",
]
