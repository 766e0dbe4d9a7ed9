"""Incidence structure construction, validation, and elimination orders."""

import numpy as np
import pytest

from polyrig.errors import DanglingEdge, DegenerateFace, EulerViolation
from polyrig.generators import (
    faces_from_convex_vertices,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.incidence import build_incidence

from full_coordinates import (
    FACE,
    VERTEX,
    NotReducible,
    earlier_incidence_counts,
    elimination_order,
)

CUBE_FACES = [
    (0, 1, 2, 3),
    (7, 6, 5, 4),
    (0, 4, 5, 1),
    (1, 5, 6, 2),
    (2, 6, 7, 3),
    (3, 7, 4, 0),
]

TETRA_FACES = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]


def test_cube_counts():
    poly = build_incidence(CUBE_FACES)
    assert poly.vertex_count == 8
    assert poly.face_count == 6
    assert poly.edge_count == 12
    assert len(poly.incidence) == 24
    assert len(poly.edges()) == 12
    assert len(poly.face_vertex_pairs()) == 24  # 12 edges + 12 face diagonals
    assert len(poly.face_diagonals()) == 12
    assert len(poly.adjacent_faces()) == 12


def test_tetra_counts():
    poly = build_incidence(TETRA_FACES)
    assert (poly.vertex_count, poly.face_count, poly.edge_count) == (4, 4, 6)
    # every vertex pair of a tetrahedron shares a face; no diagonals
    assert poly.face_diagonals() == []
    assert len(poly.face_vertex_pairs()) == 6


def test_incidence_ordering_follows_face_cycles():
    poly = build_incidence(TETRA_FACES)
    flat = [(v, f) for f, cycle in enumerate(TETRA_FACES) for v in cycle]
    assert list(poly.incidence) == flat


def test_short_face_rejected():
    with pytest.raises(DegenerateFace):
        build_incidence([(0, 1), (1, 0, 2)])


def test_repeated_vertex_in_cycle_rejected():
    with pytest.raises(DegenerateFace):
        build_incidence([(0, 1, 1), (0, 1, 2), (1, 2, 0)])


def test_open_surface_rejected():
    # single triangle: every edge is used once, not twice
    with pytest.raises(DanglingEdge):
        build_incidence([(0, 1, 2)])


def test_consistent_orientation_required():
    bad = [list(f) for f in TETRA_FACES]
    bad[0] = list(reversed(bad[0]))  # edge now traversed twice the same way
    with pytest.raises(DanglingEdge):
        build_incidence(bad)


def test_degree_two_vertices_rejected():
    # two triangles glued along all three edges: V=3, F=2, E=3, V+F-E = 2
    # passes Euler but vertex degree is 2 < 3
    with pytest.raises(DanglingEdge):
        build_incidence([(0, 1, 2), (0, 2, 1)])


def test_euler_violation():
    # two disjoint tetrahedra: edges pair up, degrees are 3, but
    # V + F - E = 8 + 8 - 12 = 4
    disjoint = TETRA_FACES + [tuple(v + 4 for v in f) for f in TETRA_FACES]
    with pytest.raises(EulerViolation):
        build_incidence(disjoint)


def test_noncontiguous_ids_rejected():
    with pytest.raises(ValueError):
        build_incidence([(0, 1, 5), (0, 5, 1)])


def test_elimination_order_cube():
    poly = build_incidence(CUBE_FACES)
    order = elimination_order(poly)
    assert len(order) == poly.vertex_count + poly.face_count
    assert set(order) == {(VERTEX, v) for v in range(8)} | {
        (FACE, f) for f in range(6)
    }
    counts = earlier_incidence_counts(poly, order)
    assert max(counts) <= 3
    # the first element has nothing before it
    assert counts[0] == 0
    # every incidence pair is charged to exactly one element
    assert sum(counts) == len(poly.incidence)


def _sphere_hull_faces(V, seed=0):
    p = np.random.default_rng(seed).standard_normal((V, 3))
    return faces_from_convex_vertices(p / np.linalg.norm(p, axis=1, keepdims=True))


# the paper's counting step on every kind of solid the program generates
GENERATED_SOLIDS = [
    *(pytest.param(platonic(name)[0].faces, id=name)
      for name in ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")),
    pytest.param(hexahedron_family_a(0.2)[0].faces, id="hexa-a"),
    pytest.param(hexahedron_family_b(0.15, 0.1)[0].faces, id="hexa-b"),
    pytest.param(_sphere_hull_faces(100), id="sphere-100"),
]


@pytest.mark.parametrize("faces", [CUBE_FACES, TETRA_FACES, *GENERATED_SOLIDS])
def test_elimination_order_bound(faces):
    poly = build_incidence(faces)
    counts = earlier_incidence_counts(poly, elimination_order(poly))
    assert max(counts) <= 3
    assert sum(counts) == len(poly.incidence)


def test_not_reducible():
    # Complete bipartite incidence K_{4,4} disguised as four quads on four
    # vertices: every face cycle visits every vertex, so each node of the
    # Levi graph has degree 4 and no elimination step is available. The
    # construction is rejected earlier as a surface, so bypass the builder.
    from polyrig.incidence import AbstractPolyhedron

    cycles = (
        (0, 1, 2, 3),
        (0, 2, 1, 3),
        (0, 1, 3, 2),
        (0, 3, 1, 2),
    )
    incidence = tuple((v, f) for f, cycle in enumerate(cycles) for v in cycle)
    poly = AbstractPolyhedron(vertex_count=4, faces=cycles, incidence=incidence)
    with pytest.raises(NotReducible):
        elimination_order(poly)


def test_no_faces_and_negative_ids_rejected():
    with pytest.raises(DegenerateFace, match="no faces given"):
        build_incidence([])
    with pytest.raises(ValueError, match="face 1 contains a negative vertex id"):
        build_incidence([(0, 1, 2), (0, -1, 1)])
