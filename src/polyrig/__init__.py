"""polyrig: how many measurements pin down a shape?

Rank tests, greedy measurement selection, and witness searches for convex
polyhedra (vertices plus face planes) and labeled planar point
configurations, together with generators for the standard test solids and
the equal-diagonal hexahedron families.
"""

from . import errors
from .errors import PolyrigError
from .generators import (
    hexahedron_family_a,
    hexahedron_family_b,
    mesh_volume,
    platonic,
    verify_equal_face_diagonals,
)
from .geometry import (
    DihedralAngle,
    FaceAngle,
    FaceDistance,
    Realization,
    build_pool,
    congruent,
    evaluate_all,
    fit_realization,
    gradient_rows,
    normalize,
    phi,
    d_phi,
)
from .incidence import AbstractPolyhedron, build_incidence, elimination_order
from .offio import read_off
from .pointsets import Angle, Coplanar, DiagonalAngle, Distance
from .polygon import (
    PointConfig2D,
    max_diagonal_oracle,
    octagon_distance_oracle,
    regular_polygon,
    right_angle_quad_oracle,
    square_angle_oracle,
    staircase_measurements,
    staircase_polygon,
    sufficiency2d,
)
from .rigidity import (
    CONGRUENCE,
    SIMILARITY,
    SufficiencyReport,
    flex_witness,
    greedy_minimal_subset,
    is_sufficient,
    numeric_rank,
    point_set_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractPolyhedron",
    "Angle",
    "CONGRUENCE",
    "Coplanar",
    "DiagonalAngle",
    "DihedralAngle",
    "Distance",
    "FaceAngle",
    "FaceDistance",
    "PointConfig2D",
    "PolyrigError",
    "Realization",
    "SIMILARITY",
    "SufficiencyReport",
    "build_incidence",
    "build_pool",
    "congruent",
    "d_phi",
    "elimination_order",
    "errors",
    "evaluate_all",
    "fit_realization",
    "flex_witness",
    "gradient_rows",
    "greedy_minimal_subset",
    "hexahedron_family_a",
    "hexahedron_family_b",
    "is_sufficient",
    "max_diagonal_oracle",
    "mesh_volume",
    "normalize",
    "numeric_rank",
    "octagon_distance_oracle",
    "phi",
    "platonic",
    "point_set_witness",
    "read_off",
    "regular_polygon",
    "right_angle_quad_oracle",
    "square_angle_oracle",
    "staircase_measurements",
    "staircase_polygon",
    "sufficiency2d",
    "verify_equal_face_diagonals",
    "__version__",
]
