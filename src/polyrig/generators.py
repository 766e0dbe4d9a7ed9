"""Constructors for concrete test solids.

Platonic solids come from their standard coordinate sets, with faces read
from qhull's facet adjacency: neighbouring facets on one plane form a face,
whose boundary is walked counterclockwise seen from outside. The two
hexahedron families produce combinatorial cubes whose twelve face diagonals
all have the same length: a base tetrahedron a_0..a_3 with edge sqrt(2) and
an opposite tetrahedron b_i = b_0 - L a_i, where L is a rotation
constrained so that all six quadrilateral faces are planar. Family a
rotates about the (1,1,1) axis (one parameter), family b about an axis in
the xy-plane (two parameters); each is valid on an explicit parameter
region and degenerates on its boundary.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import OutOfValidityRegion, UnknownName
from .geometry import Realization, fit_realization
from .incidence import AbstractPolyhedron, build_incidence
from .pointsets import _unit_hull

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


# --- generic convex-vertex face extraction -----------------------------------


def faces_from_convex_vertices(coords: np.ndarray) -> list[list[int]]:
    """Face cycles of the convex hull of `coords` (all points extreme).

    Neighbouring hull facets whose planes agree to 1e-8 form one face; each
    cycle runs counterclockwise seen from outside, from its smallest vertex
    id, and faces are sorted by their vertex id sets. The hull is
    pointsets._unit_hull, taken of the points centred and scaled to unit
    size, so no unit changes a face. Flat input (_unit_hull's "flat or
    degenerate points") and points that are not hull vertices raise
    ValueError.
    """
    hull = _unit_hull(np.asarray(coords, dtype=float))
    inner = np.setdiff1d(np.arange(len(hull.points)), hull.vertices)
    if inner.size:
        raise ValueError(f"points {inner.tolist()} are not hull vertices")

    # orient each triangle counterclockwise from outside: its edge j runs
    # from vertex j to vertex j + 1, across from neighbour j + 2
    x, eq, s = hull.points, hull.equations, hull.simplices
    normal = np.cross(x[s[:, 1]] - x[s[:, 0]], x[s[:, 2]] - x[s[:, 0]])
    flip = np.einsum("ij,ij->i", normal, eq[:, :3]) < 0
    order = np.where(flip[:, None], [0, 2, 1], [0, 1, 2])
    s = np.take_along_axis(s, order, 1)
    across = np.roll(np.take_along_axis(hull.neighbors, order, 1), 1, axis=1)

    # neighbours on one plane share a label: their face's smallest facet id
    same = np.abs(eq[:, None, :] - eq[across]).max(axis=2) < 1e-8
    link = np.where(same, across, np.arange(len(s))[:, None])
    label, prev = np.arange(len(s)), None
    while prev is None or (label != prev).any():
        prev, label = label, np.minimum(label, label[link].min(axis=1))

    # an edge to another face bounds its own; sorted by (face, tail), each
    # face's edges start at its smallest id and `nxt` follows the cycle
    n, edge = len(x), ~same
    face = np.broadcast_to(label[:, None], s.shape)[edge]
    by_key = np.argsort(face * n + s[edge])
    tail, head, face = s[edge][by_key], np.roll(s, -1, axis=1)[edge][by_key], face[by_key]
    nxt = np.searchsorted(face * n + tail, face * n + head)
    _, start, count = np.unique(face, return_index=True, return_counts=True)
    walk = itertools.accumulate(range(count.max() - 1), lambda e, _: nxt[e], initial=start)
    cycles = tail[np.column_stack(list(walk))]
    inside = np.arange(cycles.shape[1]) < count[:, None]

    # faces ordered by sorted vertex ids; no two share three, so padding never decides
    rank = np.lexsort(np.sort(np.where(inside, cycles, n), axis=1).T[::-1])
    flat, count = cycles[rank][inside[rank]].tolist(), count[rank].tolist()
    return [flat[e - k : e] for e, k in zip(itertools.accumulate(count), count)]


# --- Platonic solids -----------------------------------------------------------


def _tetrahedron_coords():
    c = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    return c, 2.0 * np.sqrt(2.0)


def _cube_coords():
    c = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    return c, 2.0


def _octahedron_coords():
    c = np.vstack([np.eye(3), -np.eye(3)])
    return c, np.sqrt(2.0)


def _cyclic(a: float, b: float) -> list[np.ndarray]:
    """The cyclic permutations of (0, +-a, +-b): signs of a, then of b,
    then the three shifts."""
    return [np.roll((0.0, s1 * a, s2 * b), shift)
            for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0) for shift in range(3)]


def _icosahedron_coords():
    return np.array(_cyclic(1.0, GOLDEN)), 2.0


def _dodecahedron_coords():
    cube = list(itertools.product((-1.0, 1.0), repeat=3))
    return np.array(cube + _cyclic(1.0 / GOLDEN, GOLDEN)), 2.0 / GOLDEN


_PLATONIC = {
    "tetrahedron": _tetrahedron_coords,
    "cube": _cube_coords,
    "octahedron": _octahedron_coords,
    "dodecahedron": _dodecahedron_coords,
    "icosahedron": _icosahedron_coords,
}
PLATONIC_NAMES = tuple(_PLATONIC)


def platonic(name: str, scale: float = 1.0) -> tuple[AbstractPolyhedron, Realization]:
    """A Platonic solid with edge length `scale`."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    try:
        builder = _PLATONIC[name]
    except KeyError:
        raise UnknownName(
            f"unknown solid {name!r}; choose from {sorted(_PLATONIC)}"
        ) from None
    coords, natural_edge = builder()
    coords = coords * (scale / natural_edge)
    poly = build_incidence(faces_from_convex_vertices(coords))
    return poly, fit_realization(poly, coords)


# --- equal-face-diagonal hexahedra ---------------------------------------------

# Base tetrahedron: a_0 at the origin, a_1..a_3 with pairwise distance sqrt(2).
TETRA_BASE = np.array(
    [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
)

# Combinatorial cube on vertex ids (a_0..a_3, b_0..b_3) = (0..3, 4..7) with
# alternating a/b cycles, consistently oriented (outward for the cube):
HEX_FACES = (
    (0, 7, 1, 6),
    (0, 5, 2, 7),
    (0, 6, 3, 5),
    (4, 2, 5, 3),
    (4, 3, 6, 1),
    (4, 1, 7, 2),
)


def _hexahedron(
    q0: float, q1: float, q2: float, q3: float, b0: np.ndarray
) -> tuple[AbstractPolyhedron, Realization]:
    """The hexahedron on TETRA_BASE and b_i = b0 - L a_i, L the rotation of
    the unit quaternion (q0, q1, q2, q3)."""
    L = np.array(
        [
            [1 - 2 * (q2 * q2 + q3 * q3), 2 * (q1 * q2 - q0 * q3), 2 * (q1 * q3 + q0 * q2)],
            [2 * (q1 * q2 + q0 * q3), 1 - 2 * (q1 * q1 + q3 * q3), 2 * (q2 * q3 - q0 * q1)],
            [2 * (q1 * q3 - q0 * q2), 2 * (q2 * q3 + q0 * q1), 1 - 2 * (q1 * q1 + q2 * q2)],
        ]
    )
    verts = np.vstack([TETRA_BASE, [b0 - L @ a for a in TETRA_BASE]])
    poly = build_incidence(HEX_FACES)
    return poly, fit_realization(poly, verts, planarity_tol=1e-10)


def _q0(q1: float, q2: float, q3: float) -> float:
    """The root q0 >= 0 that makes (q0, q1, q2, q3) a unit quaternion."""
    return float(np.sqrt(max(1.0 - (q1 ** 2 + q2 ** 2 + q3 ** 2), 0.0)))


def hexahedron_family_a(q1: float) -> tuple[AbstractPolyhedron, Realization]:
    """One-parameter family with 3-fold symmetry about the (1,1,1) axis:
    rotation quaternion (q0, q1, q1, q1), valid for |q1| < 1/sqrt(12)."""
    if not abs(q1) < 1.0 / np.sqrt(12.0):
        raise OutOfValidityRegion(f"family a needs |q1| < 1/sqrt(12) ~ 0.2887, got {q1}")
    b = (1.0 - 4.0 * q1 * q1) / (1.0 - 6.0 * q1 * q1)
    return _hexahedron(_q0(q1, q1, q1), q1, q1, q1, np.array([b, b, b]))


def hexahedron_family_b(q1: float, q2: float) -> tuple[AbstractPolyhedron, Realization]:
    """Two-parameter family with a plane of symmetry (rotation axis in the
    xy-plane): rotation quaternion (q0, q1, q2, 0), valid where
    s = |q1| + |q2| < 1/sqrt(2) and (1 - s^2)(1 - 2 s^2) > 2 |q1 q2| s^2."""
    s = abs(q1) + abs(q2)
    if not s < 1.0 / np.sqrt(2.0):
        raise OutOfValidityRegion(f"family b needs |q1| + |q2| < 1/sqrt(2), got {s:.4f}")
    if not (1.0 - s * s) * (1.0 - 2.0 * s * s) > 2.0 * abs(q1 * q2) * s * s:
        raise OutOfValidityRegion(f"family b region inequality fails at q1={q1}, q2={q2}")
    q0 = _q0(q1, q2, 0.0)
    b0 = np.array(
        [
            1.0 + q0 * q2 + q1 * q2 - q2 * q2 + 2.0 * q1 * q2 * q2 / q0,
            q0 * q0 - q0 * q1 + q1 * q2 + q2 * q2 - 2.0 * q1 * q1 * q2 / q0,
            q0 * q0 + q0 * q1 - q0 * q2 + 2.0 * q1 * q2,
        ]
    )
    return _hexahedron(q0, q1, q2, 0.0, b0)
