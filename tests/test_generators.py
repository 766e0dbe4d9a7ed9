"""Platonic constructors, hull face extraction, hexahedron families."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from polyrig.errors import OutOfValidityRegion, UnknownName
from polyrig.generators import (
    HEX_FACES,
    TETRA_BASE,
    faces_from_convex_vertices,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.geometry import FaceDistance, evaluate_all, fit_realization
from polyrig.incidence import build_incidence
from polyrig.pointsets import align_distance
from solid_checks import NonQuadFace, mesh_volume, verify_equal_face_diagonals

COUNTS = {
    "tetrahedron": (4, 4, 6),
    "cube": (8, 6, 12),
    "octahedron": (6, 8, 12),
    "dodecahedron": (20, 12, 30),
    "icosahedron": (12, 20, 30),
}

UNIT_VOLUMES = {
    "tetrahedron": 1.0 / (6.0 * np.sqrt(2.0)),
    "cube": 1.0,
    "octahedron": np.sqrt(2.0) / 3.0,
    "dodecahedron": (15.0 + 7.0 * np.sqrt(5.0)) / 4.0,
    "icosahedron": 5.0 * (3.0 + np.sqrt(5.0)) / 12.0,
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_platonic_counts_and_edges(name):
    poly, real = platonic(name)
    v, f, e = COUNTS[name]
    assert poly.vertex_count == v
    assert poly.face_count == f
    assert poly.edge_count == e
    for cycle in poly.faces:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            d = np.linalg.norm(real.vertices[a] - real.vertices[b])
            assert d == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(UNIT_VOLUMES))
def test_platonic_volumes(name):
    poly, real = platonic(name)
    assert mesh_volume(poly, real) == pytest.approx(UNIT_VOLUMES[name], rel=1e-12)
    poly2, real2 = platonic(name, scale=2.5)
    assert mesh_volume(poly2, real2) == pytest.approx(
        2.5**3 * UNIT_VOLUMES[name], rel=1e-12
    )


def test_platonic_rejects_unknown_and_bad_scale():
    with pytest.raises(UnknownName):
        platonic("rhombicuboctahedron")
    with pytest.raises(ValueError):
        platonic("cube", scale=0.0)


def test_faces_from_convex_vertices_cube():
    coords = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    faces = faces_from_convex_vertices(coords)
    assert len(faces) == 6
    assert all(len(c) == 4 for c in faces)
    assert all(c[0] == min(c) for c in faces)
    assert faces == sorted(faces, key=lambda c: sorted(c))
    center = coords.mean(axis=0)
    for cycle in faces:
        pts = coords[cycle]
        n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        assert n @ (pts.mean(axis=0) - center) > 0  # outward orientation


def test_faces_from_convex_vertices_merges_coplanar_triangles():
    # a point on a cube face's interior would break extremeness, but a
    # hull whose facets triangulate (octahedron jittered? no: use a
    # prism) must still come out with whole polygonal faces
    theta = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    coords = np.vstack([np.c_[ring, np.zeros(6)], np.c_[ring, np.ones(6)]])
    faces = faces_from_convex_vertices(coords)
    sizes = sorted(len(c) for c in faces)
    assert sizes == [4] * 6 + [6, 6]


def _cross(a, b):
    # np.cross, without its per-call axis handling
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _faces_by_pairwise_merge(coords):
    # each facet joins the first face whose first facet's plane agrees to
    # 1e-8; each face is ordered by angle about its centre and oriented by
    # Newell's formula
    hull = ConvexHull(coords)
    reps, groups = np.empty_like(hull.equations), []
    for simplex, eq in zip(hull.simplices, hull.equations):
        hit = np.flatnonzero(np.abs(reps[: len(groups)] - eq).max(axis=1) < 1e-8)
        if hit.size:
            groups[hit[0]].update(simplex)
        else:
            reps[len(groups)] = eq
            groups.append(set(simplex))
    faces = []
    for eq, members in zip(reps, groups):
        ids = sorted(members)
        n = eq[:3] / np.linalg.norm(eq[:3])
        u = _cross(n, np.eye(3)[np.argmin(np.abs(n))])
        u /= np.linalg.norm(u)
        w = _cross(n, u)
        pts = coords[ids] - coords[ids].mean(axis=0)
        cycle = [ids[k] for k in np.argsort(np.arctan2(pts @ w, pts @ u))]
        newell = _cross(coords[cycle], coords[cycle[1:] + cycle[:1]]).sum(axis=0)
        if newell @ eq[:3] < 0:
            cycle.reverse()
        start = cycle.index(min(cycle))
        faces.append(cycle[start:] + cycle[:start])
    faces.sort(key=lambda c: sorted(c))
    return faces


def _prism(n):
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(t), np.sin(t)])
    return np.vstack([np.c_[ring, np.zeros(n)], np.c_[ring, np.ones(n)]])


def _sphere_hulls(V):
    rng = np.random.default_rng(V)
    for _ in range(4):
        p = rng.standard_normal((V, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        yield rng.uniform(0.5, 2.0) * p + rng.uniform(-1.0, 1.0, size=3)


SIZING_INPUTS = {
    **{str(V): lambda V=V: _sphere_hulls(V) for V in (50, 100, 200, 400, 800, 1600)},
    "platonic": lambda: (
        platonic(name)[1].vertices * scale
        for name in sorted(COUNTS)
        for scale in (1e-4, 1.0, 1e4)
    ),
    "prisms": lambda: (_prism(n) for n in (3, 6, 24)),
    "hexahedra": lambda: (
        real.vertices
        for _, real in [hexahedron_family_a(q) for q in (0.0, 0.1, -0.15, 0.28)]
        + [hexahedron_family_b(*q) for q in ((0.1, 0.0), (0.15, 0.1), (0.3, -0.2))]
    ),
}


@pytest.mark.parametrize("inputs", sorted(SIZING_INPUTS))
def test_faces_from_convex_vertices_matches_pairwise_merge(inputs):
    for coords in SIZING_INPUTS[inputs]():
        faces = faces_from_convex_vertices(coords)
        assert faces == _faces_by_pairwise_merge(coords)
        assert all(type(i) is int for cycle in faces for i in cycle)


def test_faces_from_convex_vertices_prism_matches_pairwise_merge():
    coords = _prism(24)
    faces = faces_from_convex_vertices(coords)
    assert sorted(len(c) for c in faces) == [4] * 24 + [24, 24]
    assert faces == _faces_by_pairwise_merge(coords)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_faces_from_convex_vertices_do_not_depend_on_scale(name):
    coords = platonic(name)[1].vertices
    faces = faces_from_convex_vertices(coords)
    for k in range(-300, 301, 20):
        assert faces_from_convex_vertices(coords * 10.0**k) == faces, k


def test_faces_from_convex_vertices_rejects_flat_input():
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]])
    for coords in (square, square[:3] + 1e300, np.zeros((5, 3))):
        with pytest.raises(ValueError, match="flat or degenerate"):
            faces_from_convex_vertices(coords)


def test_faces_from_convex_vertices_names_points_off_the_hull():
    coords = platonic("cube")[1].vertices
    inside = np.vstack([coords[:3], [[0.0, 0.0, 0.0]], coords[3:], [[0.1, 0.0, 0.0]]])
    with pytest.raises(ValueError, match=r"points \[3, 9\] are not hull vertices"):
        faces_from_convex_vertices(inside)


# hexahedron families --------------------------------------------------------


def _unit_cube_reference():
    verts = np.vstack([TETRA_BASE, 1.0 - TETRA_BASE])
    poly = build_incidence(HEX_FACES)
    return poly, fit_realization(poly, verts)


FAMILY_A_GRID = [0.0, 0.1, -0.15, 0.2, 0.28]
FAMILY_B_GRID = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.2), (0.15, 0.1), (-0.2, 0.1), (0.3, -0.2)]


@pytest.mark.parametrize("q1", FAMILY_A_GRID)
def test_family_a_all_diagonals_sqrt_two(q1):
    poly, real = hexahedron_family_a(q1)
    assert verify_equal_face_diagonals(poly, real) < 1e-10
    d = evaluate_all(poly, [FaceDistance(*poly.faces[0][:3:2])], real)[0]
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_family_a_zero_is_the_unit_cube():
    poly, real = hexahedron_family_a(0.0)
    ref_poly, ref_real = _unit_cube_reference()
    assert align_distance(real.vertices, ref_real.vertices) <= 1e-10
    assert mesh_volume(poly, real) == pytest.approx(1.0, abs=1e-12)


def test_family_a_nonzero_is_not_a_cube():
    poly, real = hexahedron_family_a(0.2)
    _, ref_real = _unit_cube_reference()
    assert align_distance(real.vertices, ref_real.vertices) > 1e-8
    assert align_distance(real.vertices, ref_real.vertices, allow_reflection=True) > 1e-8


def test_family_a_b_scalar_formula():
    q1 = 0.17
    _, real = hexahedron_family_a(q1)
    b = (1.0 - 4.0 * q1 * q1) / (1.0 - 6.0 * q1 * q1)
    # vertices are centered after fitting; recover b_0 = a_0 + (b,b,b)
    got = real.vertices[4] - real.vertices[0]
    assert np.abs(got - b).max() < 1e-12


@pytest.mark.parametrize("q1,q2", FAMILY_B_GRID)
def test_family_b_all_diagonals_sqrt_two(q1, q2):
    poly, real = hexahedron_family_b(q1, q2)
    assert verify_equal_face_diagonals(poly, real) < 1e-10


def test_family_b_zero_is_the_unit_cube():
    poly, real = hexahedron_family_b(0.0, 0.0)
    _, ref_real = _unit_cube_reference()
    assert align_distance(real.vertices, ref_real.vertices) <= 1e-10


@pytest.mark.parametrize("q1", [1.0 / np.sqrt(12.0), 0.29, -0.3, 0.5])
def test_family_a_validity_region(q1):
    with pytest.raises(OutOfValidityRegion):
        hexahedron_family_a(q1)


@pytest.mark.parametrize("q1,q2", [(0.5, 0.3), (0.71, 0.0), (0.35, 0.35)])
def test_family_b_validity_region(q1, q2):
    with pytest.raises(OutOfValidityRegion):
        hexahedron_family_b(q1, q2)


def _signed_volume(p: np.ndarray) -> float:
    return float(np.linalg.det(p[1:] - p[0]))


@pytest.mark.parametrize(
    "build,params",
    [(hexahedron_family_a, (q1,)) for q1 in FAMILY_A_GRID]
    + [(hexahedron_family_b, q) for q in FAMILY_B_GRID],
    ids=[f"a{q1}" for q1 in FAMILY_A_GRID] + [f"b{q1},{q2}" for q1, q2 in FAMILY_B_GRID],
)
def test_hexahedron_rotation_is_proper(build, params):
    """b_i - b_0 = -L (a_i - a_0), so the tetrahedron b_0..b_3 has the
    signed volume of a_0..a_3 times -det L: negated exactly when L is a
    rotation, det L = +1, not a reflection."""
    _, real = build(*params)
    a, b = real.vertices[:4], real.vertices[4:]
    assert _signed_volume(b) == pytest.approx(-_signed_volume(a), rel=1e-12)


def test_verify_equal_face_diagonals_needs_quads():
    poly, real = platonic("tetrahedron")
    with pytest.raises(NonQuadFace):
        verify_equal_face_diagonals(poly, real)


def test_hexahedron_volume_shrinks_as_it_flattens():
    vols = [mesh_volume(*hexahedron_family_a(q)) for q in (0.0, 0.1, 0.2, 0.28)]
    assert all(v > 0 for v in vols)
    assert vols == sorted(vols, reverse=True)
