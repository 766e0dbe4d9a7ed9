"""The vertex chart behind every mesh verdict.

`rigidity._chart` takes one SVD of [C; G_x^T] (C the coplanarity rows of the
faces with more than three vertices, G_x the vertex rows of the motion
generators) and returns the rank of d_phi, an orthonormal basis Z of the
nontrivial first-order deformations in vertex coordinates, and the plane
map D. The lifted basis [Z; D Z] with the motions must span ker d_phi, the
subspace an SVD reference gives, and no verdict may factor a matrix over
all 3V + 3F coordinates.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrig import rigidity
from polyrig.errors import DegenerateFace
from polyrig.generators import (
    faces_from_convex_vertices,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.geometry import (
    FaceAngle,
    FaceDistance,
    MeshMeasurements,
    Realization,
    build_pool,
    d_phi,
    fit_realization,
    normalized_distance,
)
from polyrig.incidence import build_incidence
from polyrig.pointsets import Angle, DiagonalAngle, Distance, MeasurementList
from polyrig.rigidity import (
    CONGRUENCE,
    SIMILARITY,
    _chart,
    _count_above,
    _unit_diameter,
    flex_witness,
    greedy_minimal_subset,
    is_sufficient,
    motion_generators,
)

TOL = 1e-9


def _hull(points):
    poly = build_incidence(faces_from_convex_vertices(points))
    return poly, fit_realization(poly, points)


def sphere_hull(V, seed):
    rng = np.random.default_rng([seed, V])
    p = rng.standard_normal((V, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return _hull(rng.uniform(0.5, 2.0) * p + rng.uniform(-1.0, 1.0, 3))


def prism(n=24):
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(t), np.sin(t)])
    lid = np.column_stack([ring, np.zeros(n)])
    return _hull(np.vstack([lid, lid + [0.0, 0.0, 0.7]]) + 0.2)


solids = st.one_of(
    st.builds(
        platonic,
        st.sampled_from(["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"]),
        st.sampled_from([1e-4, 1.0, 1e4]),
    ),
    st.builds(hexahedron_family_a, st.floats(-0.25, 0.25)),
    st.builds(hexahedron_family_b, st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
    st.builds(sphere_hull, st.integers(8, 60), st.integers(0, 2**32 - 1)),
    st.builds(prism),
)


def _svd_reference(poly, scaled, g):
    """The basis an SVD gives: the kernel N of d_phi from its full SVD, then
    the complement of the motions in N coordinates from a QR of N G."""
    _, s, Vt = np.linalg.svd(d_phi(poly, scaled), full_matrices=True)
    N = Vt[_count_above(s, TOL):]
    Q, _ = np.linalg.qr(N @ motion_generators(scaled, g), mode="complete")
    return Q[:, g:].T @ N


@pytest.mark.parametrize("g", [6, 7])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(solid=solids)
@example(solid=prism(100))
@example(solid=sphere_hull(200, 0))
def test_tangent_basis_is_the_nontrivial_kernel(g, solid):
    """Z is orthonormal and orthogonal to G_x, the lift [Z; D Z] is
    annihilated by d_phi, and with the motions G it spans ker d_phi."""
    poly, real = solid
    scaled = _unit_diameter(real)
    rank, Z, D = _chart(poly, scaled, g, TOL)
    n = 3 * real.vertex_count
    assert rank == 2 * poly.edge_count
    assert Z.shape == (n, poly.edge_count + 6 - g)
    assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() <= 1e-12
    G = motion_generators(scaled, g)
    assert np.linalg.norm(G[:n].T @ Z, 2) <= 1e-12
    lifted = np.vstack([Z, D @ Z])
    assert np.linalg.norm(d_phi(poly, scaled) @ lifted, 2) <= 1e-12 * np.linalg.norm(lifted, 2)
    assert np.linalg.norm(D @ G[:n] - G[n:], 2) <= 1e-12 * np.linalg.norm(D @ G[:n], 2)
    chart = np.linalg.qr(np.hstack([lifted, G]))[0]
    reference = np.linalg.qr(np.hstack([_svd_reference(poly, scaled, g).T, G]))[0]
    cosines = np.linalg.svd(chart.T @ reference, compute_uv=False)
    assert cosines.min() >= 1.0 - 1e-12


def test_mesh_verdicts_take_no_svd_of_d_phi(monkeypatch):
    poly, real = sphere_hull(50, 0)
    shape = (2 * poly.edge_count, 3 * real.vertex_count + 3 * real.face_count)
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    pool = build_pool(poly, "face-distances")
    assert is_sufficient(poly, real, pool).sufficient
    assert greedy_minimal_subset(poly, real, pool).sufficient
    assert shapes and shape not in shapes


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(
    solid=solids,
    tol=st.sampled_from([1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-2, 3e-2, 0.1, 0.3]),
    g=st.sampled_from([6, 7]),
)
def test_chart_claims_rank_2e_only_when_the_svd_counts_it(solid, tol, g):
    """At every tolerance the motions stay out of the chart's cutoff: Z is
    orthonormal and orthogonal to G_x, and its width is 3V minus r, the
    rank 3F + r - g being at most 2E. At the verdict tolerances (to 1e-6)
    that rank is the SVD count of d_phi, 2E. At loose ones C is cut at its
    own sigma_1, so the rank stays 2E on solids whose faces have at most
    five vertices; a 24-gon's coplanarity rows fall below 3e-2 sigma_1(C).
    """
    poly, real = solid
    scaled = _unit_diameter(real)
    rank, Z, _ = _chart(poly, scaled, g, tol)
    n = 3 * real.vertex_count
    assert Z.shape == (n, n - (rank - 3 * real.face_count + g))
    assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() <= 1e-12
    assert np.linalg.norm(motion_generators(scaled, g)[:n].T @ Z, 2) <= 1e-12
    if tol <= 1e-6:
        count = _count_above(np.linalg.svd(d_phi(poly, scaled), compute_uv=False), tol)
        assert rank == count == 2 * poly.edge_count
    elif max(map(len, poly.faces)) <= 5:
        assert rank == 2 * poly.edge_count
    else:
        assert rank <= 2 * poly.edge_count


def test_mesh_verdicts_factor_nothing_with_plane_rows(monkeypatch):
    """No factorization of a rank verdict sees a matrix with 3V + 3F rows
    or columns: the chart's SVD has 3V columns and the reduced rows
    E + 6 - g, also for a set holding a dihedral, whose rows enter through
    the plane map D."""
    poly, real = sphere_hull(50, 0)
    full = 3 * real.vertex_count + 3 * real.face_count
    shapes = {}

    def spy(name):
        fn = getattr(np.linalg, name)

        def spied(a, *args, **kwargs):
            shapes.setdefault(name, []).append(np.shape(a))
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spied)

    spy("svd")
    spy("qr")
    for pool_name in ("face-distances", "all"):
        pool = build_pool(poly, pool_name)
        assert is_sufficient(poly, real, pool).sufficient
        assert greedy_minimal_subset(poly, real, pool).sufficient
    assert (6, 3 * real.vertex_count) in shapes["svd"]
    # the only QR orthonormalizes the motions' vertex rows G_x
    assert set(shapes["qr"]) == {(3 * real.vertex_count, 6)}
    assert all(full not in shape for seen in shapes.values() for shape in seen)


def test_triangulated_hulls_and_the_cube_are_rigid_at_loose_tolerance():
    """Dehn's theorem: a triangulated convex polyhedron is infinitesimally
    rigid on its edges, so its face distances are sufficient, at any
    tolerance the chart and the rows clear on their own. The cube's face
    distances pin it too, and its 12 edges leave 3 flexes, none of them a
    rotation: the cube's rotations have smaller singular values than its
    coplanarity rows, and no cutoff may reach them."""
    poly, real = sphere_hull(100, 0)
    assert is_sufficient(poly, real, build_pool(poly, "face-distances"), tol_rel=1e-2).sufficient
    poly, real = platonic("cube")
    scaled = _unit_diameter(real)
    for tol in (0.1, 0.2, 0.3):
        assert is_sufficient(poly, real, build_pool(poly, "face-distances"), tol_rel=tol).sufficient
        edges = is_sufficient(poly, real, build_pool(poly, "edges-only"), tol_rel=tol)
        assert edges.flex_dimension == 3
        for g in (6, 7):
            rank, Z, _ = _chart(poly, scaled, g, tol)
            assert rank == 2 * poly.edge_count
            assert np.linalg.norm(motion_generators(scaled, g)[:24].T @ Z, 2) <= 1e-12


def test_a_face_without_an_anchor_frame_is_named():
    """A face whose anchors lie on a plane through the origin has no X_f^-1;
    a Realization given directly can have one (here the unit cube with a
    corner at the origin), and the verdict names the face."""
    poly, real = platonic("cube")
    corner = Realization(real.vertices - real.vertices.min(axis=0), real.planes)
    # the faces whose vertices share a zero coordinate
    through_origin = [
        f for f, cycle in enumerate(poly.faces)
        if (corner.vertices[list(cycle)] == 0.0).all(axis=0).any()
    ]
    assert len(through_origin) == 3
    with pytest.raises(DegenerateFace, match=rf"^face {through_origin[0]}: its anchors"):
        is_sufficient(poly, corner, build_pool(poly, "edges-only"))


def test_vertex_compile_is_the_stacked_one():
    """A set without dihedrals is compiled onto the vertices alone; its
    values and Jacobian equal, bit for bit, those of the stacked points
    [vertices; planes; origin] on the vertex columns."""
    poly, real = prism(24)
    pool = build_pool(poly, "face-distances") + build_pool(poly, "face-angles")
    pool = pool[::2] + pool[1::2]
    stacked = MeasurementList([
        Distance(m.v, m.w) if isinstance(m, FaceDistance) else Angle(m.end1, m.apex, m.end2)
        for m in pool
    ])
    points = np.vstack([real.vertices, real.planes, np.zeros((1, 3))])
    psi = MeshMeasurements(pool, real.vertex_count, real.face_count)
    assert not psi.uses_planes
    assert np.array_equal(psi.values(real), stacked.values(points))
    J = psi.jacobian(real)
    assert J.shape == (len(pool), 3 * real.vertex_count)
    assert np.array_equal(J, stacked.jacobian(points)[:, : J.shape[1]])
    assert np.array_equal(psi.rows(real)[:, : J.shape[1]], J)
    assert not psi.rows(real)[:, J.shape[1] :].any()


def test_dihedral_sets_keep_the_plane_columns():
    poly, real = platonic("dodecahedron")
    pool = build_pool(poly, "all")
    psi = MeshMeasurements(pool, real.vertex_count, real.face_count)
    assert psi.uses_planes
    stacked = MeasurementList([
        Distance(m.v, m.w) if isinstance(m, FaceDistance)
        else Angle(m.end1, m.apex, m.end2) if isinstance(m, FaceAngle)
        else DiagonalAngle(
            real.vertex_count + real.face_count, real.vertex_count + m.f,
            real.vertex_count + m.g, real.vertex_count + real.face_count,
        )
        for m in pool
    ])
    points = np.vstack([real.vertices, real.planes, np.zeros((1, 3))])
    assert np.array_equal(psi.rows(real), stacked.jacobian(points)[:, :-3])


def _svd_route(monkeypatch):
    """Run the verdicts on the SVD reference instead of the chart basis: the
    rank of d_phi from its SVD, and as Z the vertex rows of the reference
    basis, which is orthonormal on all 3V + 3F coordinates, not on the
    vertices; the chart's D lifts it, as ker d_phi = {(dx, D dx)}. This is
    the SVD fallback of the earlier engine, kept as a reference."""
    chart = rigidity._chart

    def svd_chart(poly, scaled, g, tol_rel):
        D = chart(poly, scaled, g, tol_rel)[2]
        base = _count_above(np.linalg.svd(d_phi(poly, scaled), compute_uv=False), tol_rel)
        return base, _svd_reference(poly, scaled, g)[:, : 3 * scaled.vertex_count].T, D

    monkeypatch.setattr(rigidity, "_chart", svd_chart)


CASES = [
    (lambda: platonic("cube"), "edges-only", CONGRUENCE),
    (lambda: platonic("dodecahedron"), "face-distances", CONGRUENCE),
    (lambda: platonic("icosahedron"), "face-angles", SIMILARITY),
    (lambda: hexahedron_family_b(0.1, 0.15), "face-diagonals", CONGRUENCE),
    (lambda: sphere_hull(30, 1), "face-distances", CONGRUENCE),
    (lambda: sphere_hull(30, 2), "face-angles", SIMILARITY),
    (prism, "face-distances", CONGRUENCE),
]


@pytest.mark.parametrize("build,pool_name,mode", CASES)
def test_svd_fallback_gives_the_same_verdicts(monkeypatch, build, pool_name, mode):
    """The verdicts do not depend on the basis of the nontrivial
    deformations: the chart's and the SVD reference's agree."""
    poly, real = build()
    pool = build_pool(poly, pool_name)
    chart_path = (
        is_sufficient(poly, real, pool, mode),
        greedy_minimal_subset(poly, real, pool, mode),
    )
    _svd_route(monkeypatch)
    assert (
        is_sufficient(poly, real, pool, mode),
        greedy_minimal_subset(poly, real, pool, mode),
    ) == chart_path


def test_svd_fallback_flex_witness(monkeypatch):
    poly, real = platonic("cube")
    edges = build_pool(poly, "edges-only")
    _svd_route(monkeypatch)
    assert flex_witness(poly, real, edges) is not None


def test_multi_flex_direction_does_not_depend_on_the_kernel_basis(monkeypatch):
    """Above one flex the witness steps along the kernel direction whose
    lift moves the vertices most for its length, not along whichever
    kernel vector the SVD lists first: mixing the SVD's kernel vectors by a
    rotation gives the same witness."""
    poly, real = sphere_hull(50, 0)
    edges = build_pool(poly, "edges-only")
    kept = edges[:10] + edges[11:40] + edges[41:70] + edges[71:]
    assert is_sufficient(poly, real, kept).flex_dimension == 3
    first = flex_witness(poly, real, kept)
    assert first is not None
    assert normalized_distance(poly, real, first) > 1e-4 * real.diameter()

    svd = np.linalg.svd
    mix = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]

    def mixed(a, *args, **kwargs):
        U, s, Vt = svd(a, *args, **kwargs)
        if np.shape(a)[1] == poly.edge_count:  # the rows on Z: E + 6 - g columns
            Vt = np.vstack([Vt[:-3], mix @ Vt[-3:]])
        return U, s, Vt

    monkeypatch.setattr(np.linalg, "svd", mixed)
    second = flex_witness(poly, real, kept)
    assert normalized_distance(poly, first, second) <= 1e-9 * real.diameter()
