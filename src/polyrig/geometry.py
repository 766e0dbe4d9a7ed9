"""Geometric layer: realizations of a polyhedron and 3D measurements.

A realization assigns coordinates to every vertex and a coefficient
vector (a, b, c) to every face, where the face plane is a x + b y + c z = 1.
That chart requires no face plane through the origin, which is arranged by
recentering vertex coordinates at their centroid (interior for a convex
solid, so every plane offset is nonzero).

The incidence constraint map phi sends a realization to the stacked values
a_j x_i + b_j y_i + c_j z_i - 1 over all incident (vertex, face) pairs; its
zero set is the manifold of planar-faced realizations, and d_phi is the
exact Jacobian of that map.

Measurements on a realization come in three kinds: distances between
vertices sharing a face, angles at a face corner, and interior dihedral
angles along an edge. evaluate_all/gradient_rows give the values and the
exact gradient rows with respect to the full coordinate vector
(x_1, y_1, z_1, ..., x_V, y_V, z_V, a_1, b_1, c_1, ..., a_F, b_F, c_F),
computed by the point-set kernel of pointsets on the vertices or, for a
set holding a dihedral, on the stacked points [vertices; planes; origin].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CollinearFrame,
    DegenerateFace,
    NonPlanarFace,
)
from .incidence import AbstractPolyhedron
from .pointsets import (
    Angle,
    DiagonalAngle,
    Distance,
    MeasurementList,
    _dot,
    _field_ids,
    _unit,
    diameter,
)

PLANARITY_TOL = 1e-9


@dataclass(frozen=True)
class Realization:
    """Vertex coordinates (V, 3) plus face plane coefficients (F, 3).

    Arrays are copied and frozen at construction.
    """

    vertices: np.ndarray
    planes: np.ndarray

    def __post_init__(self):
        for name, rows in (("vertices", "V"), ("planes", "F")):
            a = np.array(getattr(self, name), dtype=float)
            if a.ndim != 2 or a.shape[1] != 3:
                raise ValueError(f"{name} must be ({rows}, 3), got {a.shape}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def face_count(self) -> int:
        return self.planes.shape[0]

    def coordinate_vector(self) -> np.ndarray:
        """Flatten to (3V + 3F,): all vertex coords, then all plane coeffs."""
        return np.concatenate([self.vertices.ravel(), self.planes.ravel()])

    @staticmethod
    def from_coordinate_vector(x: np.ndarray, vertex_count: int, face_count: int) -> "Realization":
        x = np.asarray(x, dtype=float)
        nv = 3 * vertex_count
        return Realization(
            vertices=x[:nv].reshape(vertex_count, 3),
            planes=x[nv : nv + 3 * face_count].reshape(face_count, 3),
        )

    def diameter(self) -> float:
        return diameter(self.vertices)

    def rescaled(self, factor: float) -> "Realization":
        """Scale lengths by factor (plane coefficients scale inversely)."""
        return Realization(self.vertices * factor, self.planes / factor)


# --- measurements -----------------------------------------------------------


@dataclass(frozen=True)
class FaceDistance:
    """Distance between two vertices sharing a face (edge or face diagonal)."""

    v: int
    w: int


@dataclass(frozen=True)
class FaceAngle:
    """Angle at vertex `apex` between rays to `end1` and `end2`, all on one face."""

    apex: int
    end1: int
    end2: int


@dataclass(frozen=True)
class DihedralAngle:
    """Interior dihedral angle between two faces sharing an edge."""

    f: int
    g: int


Measurement3D = FaceDistance | FaceAngle | DihedralAngle


def face_distance_pool(poly: AbstractPolyhedron) -> list[FaceDistance]:
    """All distances between vertex pairs sharing a face, sorted by ids."""
    return [FaceDistance(a, b) for a, b in poly.face_vertex_pairs()]


def edge_pool(poly: AbstractPolyhedron) -> list[FaceDistance]:
    return [FaceDistance(a, b) for a, b in poly.edges()]


def face_diagonal_pool(poly: AbstractPolyhedron) -> list[FaceDistance]:
    return [FaceDistance(a, b) for a, b in poly.face_diagonals()]


def face_angle_pool(poly: AbstractPolyhedron) -> list[FaceAngle]:
    """Every angle formed at a vertex by rays to two other vertices of a
    common face, cycle-adjacent or not; ordered by (apex, end1, end2)."""
    triples = set()
    for cycle in poly.faces:
        for apex in cycle:
            others = sorted(v for v in cycle if v != apex)
            triples.update((apex, a, b) for a, b in itertools.combinations(others, 2))
    return [FaceAngle(*t) for t in sorted(triples)]


def dihedral_pool(poly: AbstractPolyhedron) -> list[DihedralAngle]:
    return [DihedralAngle(f, g) for f, g in poly.adjacent_faces()]


MEASUREMENT_POOLS = {
    "face-distances": face_distance_pool,
    "face-angles": face_angle_pool,
    "dihedrals": dihedral_pool,
    "edges-only": edge_pool,
    "face-diagonals": face_diagonal_pool,
}


def build_pool(poly: AbstractPolyhedron, name: str) -> list[Measurement3D]:
    if name == "all":
        return face_distance_pool(poly) + face_angle_pool(poly) + dihedral_pool(poly)
    try:
        return MEASUREMENT_POOLS[name](poly)
    except KeyError:
        raise ValueError(
            f"unknown pool {name!r}; choose from "
            f"{sorted(MEASUREMENT_POOLS) + ['all']}"
        ) from None


# --- realization construction ----------------------------------------------


def fit_realization(
    poly: AbstractPolyhedron,
    coords: np.ndarray,
    planarity_tol: float = PLANARITY_TOL,
) -> Realization:
    """Build a realization from vertex coordinates alone.

    Divides the coordinates by a power of two just above their largest
    absolute value, so that a fit in any unit is the unit-size fit scaled,
    and recenters them at the vertex centroid. Each face's plane comes
    from one SVD of its vertices about their mean m: the normal n is the
    last right singular vector and the coefficients are n / (n . m), so
    that a x + b y + c z = 1 on the plane. Faces with the same vertex count
    share one stacked SVD. The fit residual
    |a x_i + ... - 1| is dimensionless; if it exceeds planarity_tol for
    some face, NonPlanarFace is raised. Collinear face vertices, and a face
    plane through the vertex centroid (possible only off convex
    position), raise DegenerateFace. The error names the lowest-numbered
    failing face, and the first of these three tests that it fails.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (poly.vertex_count, 3):
        raise ValueError(
            f"expected coords of shape {(poly.vertex_count, 3)}, got {coords.shape}"
        )
    # fit at unit size, where no square overflows or underflows; dividing by
    # a power of two is exact, so the fit is the one in the input's units
    unit = _unit(coords)
    centered = coords / unit
    centered -= centered.mean(axis=0)
    scale = max(np.linalg.norm(centered, axis=1).max(), 1e-300)

    F = poly.face_count
    planes = np.empty((F, 3))
    collinear, through_centroid = np.zeros(F, dtype=bool), np.zeros(F, dtype=bool)
    residual = np.zeros(F)
    sizes = np.array([len(cycle) for cycle in poly.faces])
    for k in np.unique(sizes):
        ids = np.flatnonzero(sizes == k)
        pts = centered[np.array([poly.faces[j] for j in ids])]
        mid = pts.mean(axis=1)
        _, svals, Vt = np.linalg.svd(pts - mid[:, None], full_matrices=False)
        # a (1, 3) @ (3, 1) matmul rounds as a 1-D dot does, so the planes
        # are those of a fit face by face
        offset = (Vt[:, None, 2] @ mid[:, :, None])[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            planes[ids] = Vt[:, 2] / offset[:, None]
            residual[ids] = np.abs(pts @ planes[ids, :, None] - 1.0).max(axis=(1, 2))
        collinear[ids] = svals[:, 1] <= 1e-12 * scale
        through_centroid[ids] = np.abs(offset) <= 1e-12 * scale
    bad = np.flatnonzero(collinear | through_centroid | (residual > planarity_tol))
    if len(bad):
        j = int(bad[0])
        if collinear[j]:
            raise DegenerateFace(f"face {j} vertices are collinear")
        if through_centroid[j]:
            raise DegenerateFace(f"face {j} plane passes through the vertex centroid")
        raise NonPlanarFace(j, float(residual[j]))
    return Realization(centered * unit, planes / unit)


# --- incidence constraint map ------------------------------------------------


def _incidence_indices(poly: AbstractPolyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ids and face ids of the incidence pairs, as two index arrays."""
    pairs = np.array(poly.incidence, dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def phi(poly: AbstractPolyhedron, real: Realization) -> np.ndarray:
    """Incidence residuals a_j x_i + b_j y_i + c_j z_i - 1 over all pairs."""
    vi, fj = _incidence_indices(poly)
    return _dot(real.planes[fj], real.vertices[vi]) - 1.0


def d_phi(poly: AbstractPolyhedron, real: Realization) -> np.ndarray:
    """Exact Jacobian of phi, shape (2E, 3V + 3F).

    The row for pair (v_i, f_j) carries (a_j, b_j, c_j) in vertex block i
    and (x_i, y_i, z_i) in plane block j.
    """
    vi, fj = _incidence_indices(poly)
    out = np.zeros((len(vi), 3 * real.vertex_count + 3 * real.face_count))
    k = np.arange(len(vi))[:, None]
    xyz = np.arange(3)
    out[k, 3 * vi[:, None] + xyz] = real.planes[fj]
    out[k, 3 * real.vertex_count + 3 * fj[:, None] + xyz] = real.vertices[vi]
    return out


# --- measurement evaluation ---------------------------------------------------


# the point measurement each mesh measurement is, and the fields that give
# its point ids (a dihedral's are shifted past the vertices, see below)
_ON_POINTS = {
    FaceDistance: (Distance, ("v", "w")),
    FaceAngle: (Angle, ("end1", "apex", "end2")),
    DihedralAngle: (DiagonalAngle, ("f", "g")),
}


class MeshMeasurements:
    """Mesh measurements compiled once onto the points of a realization.

    A face distance is a point distance and a face angle a point angle of
    the vertices. A dihedral is the angle between P_f - O and O - P_g on the
    stacked points [vertices; planes; origin], so a set holding one is
    compiled onto that stack, and any other onto the vertices alone; the
    one point-set kernel serves meshes too. The index arrays are built by
    measurement type, not measurement by measurement.
    """

    def __init__(
        self, measurements: Sequence[Measurement3D], vertex_count: int, face_count: int
    ):
        rows: dict[type, list[int]] = {}
        for r, m in enumerate(measurements):
            if type(m) not in _ON_POINTS:
                raise TypeError(f"not a mesh measurement: {m!r}")
            rows.setdefault(type(m), []).append(r)
        #: whether the plane coefficients enter: only dihedrals use them
        self.uses_planes = DihedralAngle in rows
        ids = {}
        for cls, r in rows.items():
            kind, names = _ON_POINTS[cls]
            items = measurements if len(r) == len(measurements) else [measurements[i] for i in r]
            f = _field_ids(items, names)
            if cls is DihedralAngle:
                # pi minus the angle between P_f and P_g: the angle of P_f - O, O - P_g
                o = np.full((len(r), 1), vertex_count + face_count)
                f = np.hstack([o, f + vertex_count, o])
            ids[kind] = (r, f)
        self.kernel = MeasurementList.from_ids(len(measurements), ids)
        self._width = 3 * (vertex_count + face_count if self.uses_planes else vertex_count)

    def _points(self, real: Realization) -> np.ndarray:
        if not self.uses_planes:
            return real.vertices
        return np.vstack([real.vertices, real.planes, np.zeros((1, 3))])

    def values(self, real: Realization) -> np.ndarray:
        return self.kernel.values(self._points(real))

    def jacobian(self, real: Realization) -> np.ndarray:
        """Gradient rows wrt the coordinates the set uses: the vertex
        coordinates (m, 3V), followed by the plane coefficients (m, 3V + 3F)
        when uses_planes."""
        return self.kernel.jacobian(self._points(real))[:, : self._width]

    def rows(self, real: Realization) -> np.ndarray:
        """Gradient rows wrt the full coordinate vector, shape (m, 3V + 3F)."""
        J = self.jacobian(real)
        if self.uses_planes:
            return J
        rows = np.zeros((len(J), 3 * (real.vertex_count + real.face_count)))
        rows[:, : J.shape[1]] = J
        return rows


def evaluate_all(measurements: Sequence[Measurement3D], real: Realization) -> np.ndarray:
    return MeshMeasurements(measurements, real.vertex_count, real.face_count).values(real)


def gradient_rows(measurements: Sequence[Measurement3D], real: Realization) -> np.ndarray:
    return MeshMeasurements(measurements, real.vertex_count, real.face_count).rows(real)


# --- canonical frame ----------------------------------------------------------


def _canonical_rotation(vertices: np.ndarray) -> np.ndarray:
    """Proper rotation M (rows = new axes) aligning v_2 - v_1 with +x and
    putting v_3 - v_1 into the xy-plane with positive y."""
    d1 = vertices[1] - vertices[0]
    d2 = vertices[2] - vertices[0]
    n1 = np.linalg.norm(d1)
    if n1 < 1e-300:
        raise CollinearFrame("first two vertices coincide")
    ex = d1 / n1
    zraw = np.cross(ex, d2)
    nz = np.linalg.norm(zraw)
    if nz < 1e-12 * max(np.linalg.norm(d2), 1.0):
        raise CollinearFrame("first three vertices are collinear")
    ez = zraw / nz
    ey = np.cross(ez, ex)
    return np.vstack([ex, ey, ez])


def normalize(poly: AbstractPolyhedron, real: Realization) -> Realization:
    """Move a realization to its canonical frame.

    The canonical frame puts the vertex centroid at the origin, v_2 - v_1
    along the positive x-axis, and v_3 - v_1 into the xy-plane with positive
    y-component. This is a complete invariant for proper congruence of
    labeled realizations: two realizations are properly congruent exactly
    when their canonical frames carry identical coordinates. The centroid
    (not v_1) anchors the translation so that no face plane passes through
    the origin and the plane chart stays valid; in the canonical frame
    y_1 = y_2, z_1 = z_2 = z_3, x_1 < x_2 and y_1 < y_3 all hold.
    """
    center = real.vertices.mean(axis=0)
    M = _canonical_rotation(real.vertices)
    verts = (real.vertices - center) @ M.T
    denom = 1.0 - real.planes @ center
    if np.any(np.abs(denom) < 1e-12):
        raise DegenerateFace("a face plane passes through the vertex centroid")
    planes = (real.planes @ M.T) / denom[:, None]
    return Realization(verts, planes)


def normalized_distance(poly: AbstractPolyhedron, r1: Realization, r2: Realization) -> float:
    """Max vertex distance between the canonical frames of two realizations."""
    a = normalize(poly, r1).vertices
    b = normalize(poly, r2).vertices
    return float(np.linalg.norm(a - b, axis=1).max())


def congruent(
    poly: AbstractPolyhedron,
    r1: Realization,
    r2: Realization,
    tol: float = 1e-8,
    allow_reflection: bool = False,
) -> bool:
    """Whether two labeled realizations differ by a proper rigid motion.

    Both are moved to the canonical frame and vertex coordinates compared;
    max vertex distance <= tol means congruent. With allow_reflection a
    mirror image of r2 is tried as well.
    """
    if normalized_distance(poly, r1, r2) <= tol:
        return True
    if allow_reflection:
        mirrored = Realization(r2.vertices * np.array([1.0, 1.0, -1.0]),
                               r2.planes * np.array([1.0, 1.0, -1.0]))
        return normalized_distance(poly, r1, mirrored) <= tol
    return False
