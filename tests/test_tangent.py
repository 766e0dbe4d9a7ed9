"""The vertex chart behind every mesh verdict.

`rigidity._chart` takes one complete QR of [C; G_x^T]^T (C the Jacobian of
the Coplanar side rows of the faces with more than three vertices, G_x the
vertex rows of the motion generators), or an SVD when the QR's triangular
factor is not proved nonsingular, and returns the rank of d_phi and an
orthonormal basis Z of the nontrivial first-order deformations in vertex
coordinates. Z lifted to the planes, with the motions, must span ker d_phi,
the subspace an SVD reference gives, and no verdict may factor a matrix
over all 3V + 3F coordinates. Every mesh measurement is compiled onto the
vertices, a dihedral as the angle of its hinge's two cross products.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polyrig import rigidity
from polyrig._nlsq import _triangular_full_rank
from polyrig.generators import (
    faces_from_convex_vertices,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.geometry import (
    DihedralAngle,
    FaceDistance,
    Realization,
    build_pool,
    d_phi,
    dihedral_pool,
    evaluate_all,
    fit_realization,
    gradient_rows,
    mesh_kernel,
    phi,
)
from polyrig.incidence import build_incidence
from polyrig.pointsets import Angle, DiagonalAngle, Distance, MeasurementList, align_distance
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

from full_coordinates import full_motion_generators
from test_sketch import lattice_hulls

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
    Q, _ = np.linalg.qr(N @ full_motion_generators(scaled, g), mode="complete")
    return Q[:, g:].T @ N


@pytest.mark.parametrize("g", [6, 7])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(solid=solids)
@example(solid=prism(100))
@example(solid=sphere_hull(200, 0))
def test_tangent_basis_is_the_nontrivial_kernel(g, solid):
    """Z is orthonormal and orthogonal to G_x, the planes follow it: the
    lift [Z; dn] with dn the least-squares plane velocity is annihilated by
    d_phi, and with the motions G it spans ker d_phi."""
    poly, real = solid
    scaled = _unit_diameter(real)
    rank, Z = _chart(poly, scaled, g, TOL)[:2]
    n = 3 * real.vertex_count
    assert rank == 2 * poly.edge_count
    assert Z.shape == (n, poly.edge_count + 6 - g)
    assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() <= 1e-12
    G = full_motion_generators(scaled, g)
    assert np.linalg.norm(G[:n].T @ Z, 2) <= 1e-12
    J = d_phi(poly, scaled)
    lifted = np.vstack([Z, np.linalg.lstsq(J[:, n:], -J[:, :n] @ Z, rcond=None)[0]])
    assert np.linalg.norm(J @ lifted, 2) <= 1e-12 * np.linalg.norm(lifted, 2)
    chart = np.linalg.qr(np.hstack([lifted, G]))[0]
    reference = np.linalg.qr(np.hstack([_svd_reference(poly, scaled, g).T, G]))[0]
    cosines = np.linalg.svd(chart.T @ reference, compute_uv=False)
    assert cosines.min() >= 1.0 - 1e-12


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _chart_side_rows(poly, real, g=6):
    """The C that _chart stacks over the motions (None when it stacks
    none), and the CSR Jacobian of its side rows at the same vertices."""
    scaled = _unit_diameter(real)
    stacked = []
    kernel = rigidity._kernel

    def spy(A, tol_rel, keep=0):
        stacked.append(A)
        return kernel(A, tol_rel, keep=keep)

    with mock.patch.object(rigidity, "_kernel", spy):
        side = _chart(poly, scaled, g, TOL)[3]
    C = stacked[0][: len(side)] if stacked else None
    return C, MeasurementList(side).sparse_jacobian(scaled.vertices).toarray()


CHART_SOLIDS = {
    **{name: (lambda name=name: platonic(name)) for name in
       ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")},
    "hexa-a": lambda: hexahedron_family_a(0.13),
    "hexa-b": lambda: hexahedron_family_b(0.1, -0.15),
    **{f"prism{k}": (lambda k=k: prism(k)) for k in range(3, 25)},
}


@pytest.mark.parametrize("solid", list(CHART_SOLIDS))
def test_chart_side_rows_are_the_csr_rows_bit_for_bit(solid):
    """_chart takes C from the dense Jacobian of the side rows; it is their
    CSR matrix entry for entry, bit for bit, signs of zeros included. A
    triangulated solid has no side rows and stacks an empty C."""
    poly, real = CHART_SOLIDS[solid]()
    C, csr = _chart_side_rows(poly, real)
    if all(len(face) == 3 for face in poly.faces):
        assert C.shape == csr.shape == (0, 3 * real.vertex_count)
    else:
        assert C.shape == csr.shape and np.array_equal(_bits(C), _bits(csr))


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(lattice_hulls())
def test_chart_side_rows_on_lattice_hulls_are_the_csr_rows_bit_for_bit(hull):
    C, csr = _chart_side_rows(*hull)
    assert C is None and not len(csr) or np.array_equal(_bits(C), _bits(csr))


def triangulated_chart(poly, scaled, g):
    """The chart of a mesh with no side rows as _chart took it before it
    went through _kernel: (3F, the complement of G_x from one complete QR
    of G_x)."""
    G = motion_generators(scaled, g)
    return 3 * poly.face_count, np.linalg.qr(G, mode="complete")[0][:, g:]


@pytest.mark.parametrize("g", [6, 7])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(solid=st.one_of(
    st.builds(platonic, st.sampled_from(["tetrahedron", "octahedron", "icosahedron"]),
              st.sampled_from([1e-4, 1.0, 1e4])),
    st.builds(sphere_hull, st.integers(8, 60), st.integers(0, 2**32 - 1)),
))
def test_a_triangulated_chart_is_the_complete_qr_of_the_motions_bit_for_bit(g, solid):
    """A triangulated mesh's chart goes through _kernel with all g rows
    kept: its rank is 3F and its Z the complement of G_x that one complete
    QR gives, bit for bit, and no certificate is taken."""
    poly, real = solid
    assert all(len(face) == 3 for face in poly.faces)
    scaled = _unit_diameter(real)
    with mock.patch.object(
        rigidity, "_triangular_full_rank", wraps=rigidity._triangular_full_rank
    ) as certificate:
        rank, Z = _chart(poly, scaled, g, TOL)[:2]
    assert not certificate.called
    ref_rank, ref_Z = triangulated_chart(poly, scaled, g)
    assert rank == ref_rank == 3 * poly.face_count
    assert Z.shape == ref_Z.shape and np.array_equal(_bits(Z), _bits(ref_Z))


def _spy_shapes(monkeypatch, names):
    """{name: the shapes of the matrices np.linalg.<name> is called on}."""
    shapes = {}

    def spy(name, fn):
        def spied(a, *args, **kwargs):
            shapes.setdefault(name, []).append(np.shape(a))
            return fn(a, *args, **kwargs)

        return spied

    for name in names:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return shapes


def test_mesh_verdicts_take_no_svd_of_d_phi(monkeypatch):
    """No verdict factors a matrix of d_phi's shape. On a triangulated
    hull's face distances the chart is a QR of the 3V x 6 motions, and the
    rank test and greedy prove their factors nonsingular, so no SVD is
    taken at all."""
    poly, real = sphere_hull(50, 0)
    shape = (2 * poly.edge_count, 3 * real.vertex_count + 3 * real.face_count)
    shapes = _spy_shapes(monkeypatch, ("svd", "qr"))
    pool = build_pool(poly, "face-distances")
    assert is_sufficient(poly, real, pool).sufficient
    assert greedy_minimal_subset(poly, real, pool).sufficient
    assert (3 * real.vertex_count, 6) in shapes["qr"]
    assert shape not in shapes["qr"] and "svd" not in shapes


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
    rank, Z = _chart(poly, scaled, g, tol)[:2]
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
    """No factorization of a rank verdict or a flex witness sees a matrix
    with 3V + 3F rows or columns: the chart's QR has 3V rows, the reduced
    rows E + 6 - g columns, also for a set holding a dihedral, and the
    witness's kernel, direction and projection work on the vertices. The
    rank test and greedy never form a dense measurement Jacobian."""
    poly, real = sphere_hull(50, 0)
    full = 3 * real.vertex_count + 3 * real.face_count
    shapes = _spy_shapes(monkeypatch, ("svd", "qr", "eigh", "lstsq", "solve"))

    def dense(*args, **kwargs):
        raise AssertionError("a dense measurement Jacobian was formed")

    with monkeypatch.context() as patch:
        patch.setattr(MeasurementList, "jacobian", dense)
        for pool_name in ("face-distances", "all"):
            pool = build_pool(poly, pool_name)
            assert is_sufficient(poly, real, pool).sufficient
            assert greedy_minimal_subset(poly, real, pool).sufficient
    edges = build_pool(poly, "edges-only")
    assert flex_witness(poly, real, edges[:10] + edges[11:]) is not None
    assert flex_witness(poly, real, dihedral_pool(poly)) is not None
    assert shapes["eigh"]
    # one QR per verdict completes the motions' vertex rows G_x to the chart;
    # the witness one edge short has a wide J Z, whose kernel comes from a QR
    # of (J Z)^T, E + 6 - g rows; the others are the rank test's streamed QR
    # of the rows on Z, with E + 6 - g columns
    motions = (3 * real.vertex_count, 6)
    kernel = (poly.edge_count, poly.edge_count - 1)
    streamed = set(shapes["qr"]) - {motions, kernel}
    assert motions in shapes["qr"] and kernel in shapes["qr"]
    assert streamed and {cols for _, cols in streamed} == {poly.edge_count}
    # the dihedral witness's square J Z, whose kernel only an SVD holds, and
    # the 3 x 3 of the witnesses' Kabsch alignment
    assert set(shapes["svd"]) == {(poly.edge_count, poly.edge_count), (3, 3)}
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
            rank, Z = _chart(poly, scaled, g, tol)[:2]
            assert rank == 2 * poly.edge_count
            assert np.linalg.norm(motion_generators(scaled, g)[:24].T @ Z, 2) <= 1e-12


def test_a_corner_anchored_cube_gets_the_centred_verdicts():
    """The verdicts read the vertices alone, so a Realization given directly
    with face planes through the origin (here the unit cube with a corner
    there, which the plane chart a.x = 1 cannot hold) gets the centred
    cube's verdicts: its edges leave 3 flexes, its face distances pin it."""
    poly, real = platonic("cube")
    corner = Realization(real.vertices - real.vertices.min(axis=0), real.planes)
    edges = is_sufficient(poly, corner, build_pool(poly, "edges-only"))
    assert (edges.achieved_rank, edges.flex_dimension) == (33, 3)
    assert edges == is_sufficient(poly, real, build_pool(poly, "edges-only"))
    distances = is_sufficient(poly, corner, build_pool(poly, "face-distances"))
    assert distances.achieved_rank == 36 and distances.sufficient
    assert distances == is_sufficient(poly, real, build_pool(poly, "face-distances"))


def test_vertex_compile_is_the_stacked_one():
    """A set without dihedrals is compiled onto the vertices; its values and
    Jacobian equal, bit for bit, those of the stacked points
    [vertices; planes; origin] on the vertex columns."""
    poly, real = prism(24)
    pool = build_pool(poly, "face-distances") + build_pool(poly, "face-angles")
    pool = pool[::2] + pool[1::2]
    stacked = MeasurementList([
        Distance(m.v, m.w) if isinstance(m, FaceDistance) else Angle(m.end1, m.apex, m.end2)
        for m in pool
    ])
    points = np.vstack([real.vertices, real.planes, np.zeros((1, 3))])
    psi = mesh_kernel(poly, pool)
    assert np.array_equal(psi.values(real.vertices), stacked.values(points))
    J = psi.jacobian(real.vertices)
    assert J.shape == (len(pool), 3 * real.vertex_count)
    assert np.array_equal(J, stacked.jacobian(points)[:, : J.shape[1]])
    rows = gradient_rows(poly, pool, real)
    assert np.array_equal(rows[:, : J.shape[1]], J)
    assert not rows[:, J.shape[1] :].any()


@pytest.mark.parametrize(
    "name", ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron", "hull", "prism"]
)
def test_vertex_dihedral_is_the_plane_formula(name):
    """A dihedral on the vertices, the angle between the cross products of
    its hinge, is the plane formula: pi minus the angle between the face
    plane vectors P_f and P_g, i.e. the angle of P_f - O and O - P_g on the
    stacked points [vertices; planes; origin]. Its value agrees to 1e-15 on
    the Platonic solids; on a hull, whose nearly flat hinges magnify the
    rounding of the fitted planes, to 1e-14. Its rows, which have no plane
    columns, agree with the plane formula's on every planar-faced
    deformation (ker d_phi)."""
    poly, real = {"hull": lambda: sphere_hull(30, 0), "prism": prism}.get(name, lambda: platonic(name))()
    agree = 1e-14 if name in ("hull", "prism") else 1e-15
    scaled = _unit_diameter(real)
    V, F = real.vertex_count, real.face_count
    pool = dihedral_pool(poly)
    planes = MeasurementList([DiagonalAngle(V + F, V + m.f, V + m.g, V + F) for m in pool])
    points = np.vstack([scaled.vertices, scaled.planes, np.zeros((1, 3))])
    psi = mesh_kernel(poly, pool)
    assert np.abs(psi.values(scaled.vertices) - planes.values(points)).max() <= agree
    _, s, Vt = np.linalg.svd(d_phi(poly, scaled))
    N = Vt[_count_above(s, TOL):].T
    on_planes = planes.jacobian(points)[:, :-3] @ N
    assert np.abs(gradient_rows(poly, pool, scaled) @ N - on_planes).max() <= 1e-12
    # either order of the faces, and a global flip of the orientation
    flipped = build_incidence([cycle[::-1] for cycle in poly.faces])
    swapped = [DihedralAngle(m.g, m.f) for m in pool]
    flipped_values = mesh_kernel(flipped, swapped).values(scaled.vertices)
    assert np.abs(flipped_values - psi.values(scaled.vertices)).max() <= agree


def test_a_dihedral_of_faces_without_a_common_edge_is_rejected():
    poly, real = platonic("cube")
    with pytest.raises(ValueError, match="faces 0 and 5 share no edge"):
        mesh_kernel(poly, [DihedralAngle(0, 1), DihedralAngle(0, 5)])


def test_a_point_measurement_is_not_a_mesh_measurement():
    poly, _ = platonic("cube")
    with pytest.raises(TypeError, match="not a mesh measurement"):
        mesh_kernel(poly, [FaceDistance(0, 1), Distance(0, 1)])


def _svd_route(monkeypatch):
    """Run the verdicts on the SVD reference instead of the chart basis: the
    rank of d_phi from its SVD, and as Z the vertex rows of the reference
    basis, which is orthonormal on all 3V + 3F coordinates, not on the
    vertices; the measurement rows have no plane columns, so J Z is their
    restriction to the reference basis. This is the SVD fallback of the
    earlier engine, kept as a reference."""

    def svd_chart(poly, scaled, g, tol_rel):
        base = _count_above(np.linalg.svd(d_phi(poly, scaled), compute_uv=False), tol_rel)
        Z = _svd_reference(poly, scaled, g)[:, : 3 * scaled.vertex_count].T
        return base, Z, *rigidity._face_anchors(poly, scaled.vertices)

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


def _certificate(monkeypatch, answer=None):
    """Record every answer of the triangular certificate in the mesh
    verdicts, or replace it by `answer`."""
    answers = []

    def recorded(R, tol, *threshold):
        answers.append(_triangular_full_rank(R, tol, *threshold) if answer is None else answer)
        return answers[-1]

    monkeypatch.setattr(rigidity, "_triangular_full_rank", recorded)
    return answers


CERTIFIED_SOLIDS = {
    **{name: (lambda name=name: platonic(name)) for name in
       ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")},
    "hexa-a": lambda: hexahedron_family_a(0.13),
    "hexa-b": lambda: hexahedron_family_b(0.1, -0.15),
    "prism24": prism,
    **{f"sphere{V}": (lambda V=V: sphere_hull(V, 7)) for V in (8, 30, 75)},
}


@pytest.mark.parametrize("solid", sorted(CERTIFIED_SOLIDS))
def test_verdicts_without_the_certificate_are_the_same(monkeypatch, solid):
    """The chart, the rank test and greedy read their counts off proved
    triangular factors; with the certificate always refusing, the SVD
    counts give the same ranks, verdicts and selections on every pool and
    in both modes."""
    poly, real = CERTIFIED_SOLIDS[solid]()
    pools = [
        build_pool(poly, name)
        for name in ("face-distances", "face-angles", "dihedrals", "edges-only", "face-diagonals")
    ]
    cases = [(pool, mode) for pool in pools if pool for mode in (CONGRUENCE, SIMILARITY)]

    def verdicts():
        return [
            (
                is_sufficient(poly, real, pool, mode, allow_scale_variant=True),
                greedy_minimal_subset(poly, real, pool, mode, allow_scale_variant=True),
            )
            for pool, mode in cases
        ]

    with monkeypatch.context() as patch:
        proved = _certificate(patch)
        certified = verdicts()
    assert any(proved)
    refused = _certificate(monkeypatch, False)
    assert verdicts() == certified
    assert refused and not any(refused)


@pytest.mark.parametrize(
    "solid,pool_name",
    [("cube", "edges-only"), ("cube", "face-diagonals"), ("hexa-a", "face-diagonals"),
     ("hexa-b", "face-diagonals"), ("sphere30", "edges-only"), ("sphere75", "edges-only")],
)
def test_flex_witnesses_without_the_certificate_are_valid(monkeypatch, solid, pool_name):
    """A witness with the certificate on and one with it off both keep the
    measurements and the planes and move the solid. A hull three edges
    short has a wide J Z, proved of full row rank, and both witnesses step
    the same way."""
    poly, real = CERTIFIED_SOLIDS[solid]()
    kept = build_pool(poly, pool_name)
    if solid.startswith("sphere"):
        kept = kept[:5] + kept[6:17] + kept[18:40] + kept[41:]
    witnesses = []
    for answer in (None, False):
        with monkeypatch.context() as patch:
            proved = _certificate(patch, answer)
            w = flex_witness(poly, real, kept)
        assert w is not None
        assert np.abs(phi(poly, w)).max() < 1e-8
        err = np.abs(evaluate_all(poly, kept, w) - evaluate_all(poly, kept, real)).max()
        assert err < 1e-8 * real.diameter()
        assert align_distance(real.vertices, w.vertices) > 1e-5 * real.diameter()
        witnesses.append((w, proved))
    (on, proved), (off, _) = witnesses
    if solid.startswith("sphere"):
        assert proved[-1]
        assert align_distance(on.vertices, off.vertices) <= 1e-9 * real.diameter()


def _kernel_mixing_moves_no_witness(monkeypatch, route):
    poly, real = sphere_hull(50, 0)
    edges = build_pool(poly, "edges-only")
    kept = edges[:10] + edges[11:40] + edges[41:70] + edges[71:]
    assert is_sufficient(poly, real, kept).flex_dimension == 3
    if route == "svd":
        monkeypatch.setattr(rigidity, "_triangular_full_rank", lambda R, tol: False)
    first = flex_witness(poly, real, kept)
    assert first is not None
    assert align_distance(real.vertices, first.vertices) >= 1e-3 * real.diameter()

    factor = getattr(np.linalg, route)
    mix = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    mixed = []

    def mixing(a, *args, **kwargs):
        out = factor(a, *args, **kwargs)
        if route == "qr" and np.shape(a) == (poly.edge_count, len(kept)):
            # (J Z)^T: its kernel is the last three columns of Q
            Q, R = out
            mixed.append(a)
            return np.hstack([Q[:, :-3], Q[:, -3:] @ mix.T]), R
        if route == "svd" and np.shape(a)[1] == poly.edge_count:  # the rows on Z
            U, s, Vt = out
            mixed.append(a)
            return U, s, np.vstack([Vt[:-3], mix @ Vt[-3:]])
        return out

    monkeypatch.setattr(np.linalg, route, mixing)
    second = flex_witness(poly, real, kept)
    assert mixed
    assert align_distance(first.vertices, second.vertices) <= 1e-9 * real.diameter()


def test_multi_flex_direction_does_not_depend_on_the_kernel_basis(monkeypatch):
    """Above one flex the witness steps along the kernel direction whose
    lift moves the vertices most for its length, not along whichever
    kernel vector its factorization lists first: mixing the kernel vectors
    of the complete QR of (J Z)^T by a rotation gives the same witness."""
    _kernel_mixing_moves_no_witness(monkeypatch, "qr")


def test_multi_flex_direction_on_the_svd_kernel_does_not_depend_on_its_basis(monkeypatch):
    """The same with the certificate off, when the kernel comes from the SVD."""
    _kernel_mixing_moves_no_witness(monkeypatch, "svd")


def _dense_verdicts(poly, real, pool, mode, tol):
    """The rank and the greedy selection from the dense m x 3V rows: the
    singular values of J Z counted above tol sigma_1, and a scan of J's
    rows that keeps one when its residual against the rows kept so far,
    reduced to Z, exceeds tol times its full norm."""
    g = rigidity._motion_dim(mode, pool, True)
    scaled = _unit_diameter(real)
    base, Z = _chart(poly, scaled, g, tol)[:2]
    J = mesh_kernel(poly, pool).jacobian(scaled.vertices)
    rank = base + _count_above(np.linalg.svd(J @ Z, compute_uv=False), tol)
    target = 3 * poly.edge_count + 6 - g
    greedy_rank, selected = base, []
    basis = np.empty((Z.shape[1], Z.shape[1]))
    for m, row, red in zip(pool, J, J @ Z):
        if greedy_rank >= target:
            break
        row_norm = np.linalg.norm(row)
        if row_norm == 0.0:
            continue
        kept = basis[: len(selected)]
        res = red - kept.T @ (kept @ red)
        res -= kept.T @ (kept @ res)
        res_norm = np.linalg.norm(res)
        if res_norm > tol * row_norm:
            basis[len(selected)] = res / res_norm
            selected.append(m)
            greedy_rank += 1
    return rank, greedy_rank, tuple(selected)


STREAMED_SOLIDS = {
    **{name: (lambda name=name: platonic(name)) for name in
       ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")},
    "hexa-a": lambda: hexahedron_family_a(0.13),
    "hexa-b": lambda: hexahedron_family_b(0.1, -0.15),
    "prism24": prism,
    "sphere40": lambda: sphere_hull(40, 3),
}


@pytest.mark.parametrize(
    "pool_name",
    ["face-distances", "face-angles", "dihedrals", "edges-only", "face-diagonals", "all"],
)
@pytest.mark.parametrize("solid", sorted(STREAMED_SOLIDS))
def test_streamed_verdicts_are_the_dense_ones(monkeypatch, solid, pool_name):
    """The rank from the streamed QR of the CSR rows and the greedy scan
    of blocks reduced as it goes agree with the dense reference on the
    rank, the verdict and the selection, at the module's block size and at
    blocks of 13 rows, which stream every pool here through many blocks,
    most of them narrower than the E + 6 - g columns of Z."""
    poly, real = STREAMED_SOLIDS[solid]()
    pool = build_pool(poly, pool_name)
    blocks = (13, rigidity._ROW_BLOCK)
    for mode, tol in itertools.product((CONGRUENCE, SIMILARITY), (1e-10, 1e-3)):
        rank, greedy_rank, selected = _dense_verdicts(poly, real, pool, mode, tol)
        for block in blocks:
            monkeypatch.setattr(rigidity, "_ROW_BLOCK", block)
            report = is_sufficient(poly, real, pool, mode, tol, allow_scale_variant=True)
            assert report.achieved_rank == rank
            assert report.sufficient == (rank >= report.target_rank)
            if not pool:
                with pytest.raises(ValueError, match="pool is empty"):
                    greedy_minimal_subset(poly, real, pool, mode, tol, allow_scale_variant=True)
                continue
            greedy = greedy_minimal_subset(poly, real, pool, mode, tol, allow_scale_variant=True)
            assert greedy.achieved_rank == greedy_rank
            assert greedy.sufficient == (greedy_rank == greedy.target_rank)
            assert greedy.selected == selected


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    V=st.integers(8, 90),
    seed=st.integers(0, 2**32 - 1),
    sub=st.sampled_from([1, 5, rigidity._SUB_BLOCK]),
    tol=st.sampled_from([1e-10, 1e-9, 1e-3]),
)
def test_greedy_by_sub_blocks_keeps_the_rows_of_the_per_row_scan(V, seed, sub, tol):
    """Greedy projects a sub-block of rows off the rows kept before it at
    once; on sampled hulls, over four pools and both modes, it keeps the
    rows of the per-row scan of _dense_verdicts, at sub-blocks of 1, 5 and
    the module's 64 rows, the pool streamed in blocks of 37 rows."""
    poly, real = sphere_hull(V, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rigidity, "_SUB_BLOCK", sub)
        patch.setattr(rigidity, "_ROW_BLOCK", 37)
        for name, mode in itertools.product(
            ("face-distances", "face-angles", "dihedrals", "edges-only"), (CONGRUENCE, SIMILARITY)
        ):
            pool = build_pool(poly, name)
            report = greedy_minimal_subset(poly, real, pool, mode, tol, allow_scale_variant=True)
            _, rank, selected = _dense_verdicts(poly, real, pool, mode, tol)
            assert (report.achieved_rank, report.selected) == (rank, selected)


def test_rank_verdicts_on_a_large_pool_stay_small():
    """The 24-prism's 12 432 face angles: a dense Jacobian alone would take
    14 MB; the rank test and greedy each peak under 10 MB."""
    poly, real = prism(24)
    pool = build_pool(poly, "face-angles")
    assert len(pool) == 12432
    for verdict in (is_sufficient, greedy_minimal_subset):
        tracemalloc.start()
        try:
            verdict(poly, real, pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6, (verdict.__name__, peak)
