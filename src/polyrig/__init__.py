"""polyrig: how many measurements pin down a shape?

Rank tests, greedy measurement selection, and witness searches for convex
polyhedra (vertices plus face planes) and labeled planar point
configurations, together with generators for the standard test solids and
the equal-diagonal hexahedron families.
"""

from . import errors
from .errors import PolyrigError
from .generators import hexahedron_family_a, hexahedron_family_b, platonic
from .geometry import (
    DihedralAngle,
    FaceAngle,
    FaceDistance,
    Realization,
    build_pool,
    evaluate_all,
    fit_realization,
    gradient_rows,
    phi,
    d_phi,
)
from .incidence import AbstractPolyhedron, build_incidence
from .offio import read_off
from .pointsets import Angle, Coplanar, DiagonalAngle, Distance, align_distance
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
    "align_distance",
    "build_incidence",
    "build_pool",
    "d_phi",
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
    "__version__",
]
