"""Checks of generated solids: enclosed volume and equal face diagonals."""

import numpy as np

from polyrig.errors import PolyrigError
from polyrig.geometry import FaceDistance, Realization, evaluate_all
from polyrig.incidence import AbstractPolyhedron


class NonQuadFace(PolyrigError):
    """Operation defined only for quadrilateral faces."""


def mesh_volume(poly: AbstractPolyhedron, real: Realization) -> float:
    """Enclosed volume by the divergence theorem over fan-triangulated,
    outward-oriented faces."""
    total = 0.0
    for cycle in poly.faces:
        pts = real.vertices[list(cycle)]
        for i in range(1, len(pts) - 1):
            total += float(pts[0] @ np.cross(pts[i], pts[i + 1]))
    return total / 6.0


def verify_equal_face_diagonals(poly: AbstractPolyhedron, real: Realization) -> float:
    """Max deviation of the 2F face-diagonal lengths from their mean.

    Every face must be a quadrilateral; for cycle (p, q, r, s) the diagonals
    are pr and qs.
    """
    diagonals = []
    for f, cycle in enumerate(poly.faces):
        if len(cycle) != 4:
            raise NonQuadFace(f"face {f} has {len(cycle)} vertices, need 4")
        p, q, r, s = cycle
        diagonals += [FaceDistance(p, r), FaceDistance(q, s)]
    lengths = evaluate_all(poly, diagonals, real)
    return float(np.abs(lengths - lengths.mean()).max())
