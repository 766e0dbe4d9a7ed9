"""Geometric layer: realizations of a polyhedron and 3D measurements.

A realization assigns coordinates to every vertex and a coefficient
vector (a, b, c) to every face, where the face plane is a x + b y + c z = 1.
That chart requires no face plane through the origin, which is arranged by
recentering vertex coordinates at their centroid (interior for a convex
solid, so every plane offset is nonzero).

The incidence constraint map phi sends a realization to the stacked values
a_j x_i + b_j y_i + c_j z_i - 1 over all incident (vertex, face) pairs; its
zero set is the manifold of planar-faced realizations, and d_phi is the
exact Jacobian of that map. The rank engine of rigidity works on the
vertices alone; phi and d_phi are the full-coordinate reference it is
checked against.

Measurements on a realization come in three kinds: distances between
vertices sharing a face, angles at a face corner, and interior dihedral
angles along an edge. All three are functions of the vertices alone; the
plane coefficients are a chart for the incidences, not data. mesh_kernel
compiles a list onto the point-set kernel of pointsets over the vertices, a
dihedral as the angle between two cross products of edge vectors at the
shared edge. evaluate_all/gradient_rows give the values and the exact
gradient rows with respect to the full coordinate vector
(x_1, y_1, z_1, ..., x_V, y_V, z_V, a_1, b_1, c_1, ..., a_F, b_F, c_F),
whose plane columns are zero.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DegenerateFace, NonPlanarFace
from .incidence import AbstractPolyhedron
from .pointsets import (
    Coplanar,
    Distance,
    MeasurementIds,
    MeasurementList,
    _Corner,
    _Hinge,
    _dot,
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


def _pool(kind: type, ids) -> MeasurementIds:
    """The measurements kind(*row) of the id rows `ids`, in their order."""
    f = np.asarray(ids, dtype=np.intp).reshape(-1, len(fields(kind)))
    return MeasurementIds(len(f), {kind: (np.arange(len(f)), f)})


def face_distance_pool(poly: AbstractPolyhedron) -> MeasurementIds:
    """All distances between vertex pairs sharing a face, sorted by ids."""
    return _pool(FaceDistance, poly.face_vertex_pairs())


def edge_pool(poly: AbstractPolyhedron) -> MeasurementIds:
    return _pool(FaceDistance, poly.edges())


def face_diagonal_pool(poly: AbstractPolyhedron) -> MeasurementIds:
    return _pool(FaceDistance, poly.face_diagonals())


def face_angle_pool(poly: AbstractPolyhedron) -> MeasurementIds:
    """Every angle formed at a vertex by rays to two other vertices of a
    common face, cycle-adjacent or not; ordered by (apex, end1, end2).

    The faces of each size k take one template of positions (apex p, then
    two others q < r), each row's two ends go in id order, and one sort of
    the rows' keys (apex V + end1) V + end2 orders them and drops a triple
    that two faces share.
    """
    by_size: dict[int, list] = {}
    for cycle in poly.faces:
        by_size.setdefault(len(cycle), []).append(cycle)
    V = poly.vertex_count
    keys = []
    for k, cycles in by_size.items():
        q, r = np.triu_indices(k, 1)
        p = np.repeat(np.arange(k), len(q))
        q, r = np.tile(q, k), np.tile(r, k)
        apex_first = (p != q) & (p != r)
        ids = np.array(cycles, dtype=np.intp)
        a, b, c = (ids[:, t[apex_first]] for t in (p, q, r))
        keys.append(((a * V + np.minimum(b, c)) * V + np.maximum(b, c)).ravel())
    apex, ends = np.divmod(np.unique(np.concatenate(keys)), V * V)
    rows = np.column_stack([apex, *np.divmod(ends, V)])
    return _pool(FaceAngle, rows)


def dihedral_pool(poly: AbstractPolyhedron) -> MeasurementIds:
    return _pool(DihedralAngle, poly.adjacent_faces())


MEASUREMENT_POOLS = {
    "face-distances": face_distance_pool,
    "face-angles": face_angle_pool,
    "dihedrals": dihedral_pool,
    "edges-only": edge_pool,
    "face-diagonals": face_diagonal_pool,
    "all": lambda poly: face_distance_pool(poly) + face_angle_pool(poly) + dihedral_pool(poly),
}


def build_pool(poly: AbstractPolyhedron, name: str) -> MeasurementIds:
    """The pool `name` of MEASUREMENT_POOLS, as index arrays (MeasurementIds)."""
    if name not in MEASUREMENT_POOLS:
        raise ValueError(f"unknown pool {name!r}; choose from {sorted(MEASUREMENT_POOLS)}")
    return MEASUREMENT_POOLS[name](poly)


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


# the point measurement each vertex measurement is on its ids as they are
_ON_POINTS = {FaceDistance: Distance, FaceAngle: _Corner, Coplanar: Coplanar}


def _hinges(poly: AbstractPolyhedron, faces: np.ndarray) -> np.ndarray:
    """The _Hinge ids (u, v, w_f, w_g) of each DihedralAngle(f, g), given
    as the rows (f, g) of `faces`: u -> v the edge f shares with g in f's
    cycle, w_f the vertex after v in f and w_g the vertex after u in g. The
    cycles are consistently oriented, so the hinge's angle is pi minus the
    angle between the face normals; a global flip of the orientation leaves
    it unchanged. Two faces that share no edge raise ValueError."""
    after = poly._after()
    hinge = {}
    for (u, v), (f, w) in after.items():
        g, x = after[v, u]
        hinge.setdefault((f, g), (u, v, w, x))
    pairs = list(map(tuple, faces.tolist()))
    for f, g in pairs:
        if (f, g) not in hinge:
            raise ValueError(f"dihedral faces {f} and {g} share no edge")
    return np.array([hinge[p] for p in pairs], dtype=np.intp).reshape(-1, 4)


def _mesh_ids(measurements: Sequence[Measurement3D | Coplanar]) -> MeasurementIds:
    """`measurements` as MeasurementIds, checked to be mesh measurements or
    Coplanar rows on vertex ids; another type raises TypeError."""
    return MeasurementIds.of(measurements, (*_ON_POINTS, DihedralAngle), "mesh")


def mesh_kernel(
    poly: AbstractPolyhedron, measurements: Sequence[Measurement3D | Coplanar]
) -> MeasurementList:
    """Mesh measurements of a polyhedron compiled once onto its vertices.

    A face distance is a point distance of the vertices and a face angle a
    point angle, read as a _Corner from its ids (apex, end1, end2) in their
    order; a dihedral is the angle of a _Hinge at the edge the two
    faces share (_hinges), and a Coplanar row on vertex ids stays as it is.
    The one point-set kernel serves meshes too. The index arrays of a
    MeasurementIds (a pool) are taken as they are, with no copy but the
    hinges, and any other sequence is read into them once, by measurement
    type. A measurement of another type raises TypeError, and one with a
    vertex or face id outside the polyhedron's ValueError that names it as
    it was passed.
    """
    ms = _mesh_ids(measurements)
    bounds = dict.fromkeys(_ON_POINTS, ("vertex", poly.vertex_count))
    bad = ms._out_of_range({**bounds, DihedralAngle: ("face", poly.face_count)})
    if bad is not None:
        raise ValueError(f"{ms[bad[0]]!r} has {bad[1]}")
    ids = {}
    for cls, (rows, f) in ms.ids.items():
        if cls is DihedralAngle:
            ids[_Hinge] = (rows, _hinges(poly, f))
        else:
            ids[_ON_POINTS[cls]] = (rows, f)
    return MeasurementList(MeasurementIds(len(ms), ids))


def _vertices_of(poly: AbstractPolyhedron, real: Realization) -> np.ndarray:
    """The vertices of `real`, a realization of `poly`: a realization with
    another vertex count raises ValueError naming both counts."""
    if real.vertex_count != poly.vertex_count:
        raise ValueError(f"the realization has {real.vertex_count} vertices, "
                         f"the polyhedron {poly.vertex_count}")
    return real.vertices


def evaluate_all(
    poly: AbstractPolyhedron, measurements: Sequence[Measurement3D], real: Realization
) -> np.ndarray:
    return mesh_kernel(poly, measurements).values(_vertices_of(poly, real))


def gradient_rows(
    poly: AbstractPolyhedron, measurements: Sequence[Measurement3D], real: Realization
) -> np.ndarray:
    """Gradient rows wrt the full coordinate vector, shape (m, 3V + 3F);
    the plane columns are zero."""
    J = mesh_kernel(poly, measurements).jacobian(_vertices_of(poly, real))
    return np.hstack([J, np.zeros((len(J), 3 * real.face_count))])
