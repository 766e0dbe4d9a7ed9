"""The vertex chart behind every mesh verdict.

`rigidity._chart` takes one SVD of [C; G_x^T] (C the Jacobian of the
Coplanar side rows of the faces with more than three vertices, G_x the
vertex rows of the motion generators) and returns the rank of d_phi and an
orthonormal basis Z of the nontrivial first-order deformations in vertex
coordinates. Z lifted to the planes, with the motions, must span ker d_phi,
the subspace an SVD reference gives, and no verdict may factor a matrix
over all 3V + 3F coordinates. Every mesh measurement is compiled onto the
vertices, a dihedral as the angle of its hinge's two cross products.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrig import rigidity
from polyrig.generators import (
    faces_from_convex_vertices,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.geometry import (
    DihedralAngle,
    FaceDistance,
    MeshMeasurements,
    Realization,
    build_pool,
    d_phi,
    dihedral_pool,
    fit_realization,
    gradient_rows,
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
    """Z is orthonormal and orthogonal to G_x, the planes follow it: the
    lift [Z; dn] with dn the least-squares plane velocity is annihilated by
    d_phi, and with the motions G it spans ker d_phi."""
    poly, real = solid
    scaled = _unit_diameter(real)
    rank, Z = _chart(poly, scaled, g, TOL)
    n = 3 * real.vertex_count
    assert rank == 2 * poly.edge_count
    assert Z.shape == (n, poly.edge_count + 6 - g)
    assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() <= 1e-12
    G = motion_generators(scaled, g)
    assert np.linalg.norm(G[:n].T @ Z, 2) <= 1e-12
    J = d_phi(poly, scaled)
    lifted = np.vstack([Z, np.linalg.lstsq(J[:, n:], -J[:, :n] @ Z, rcond=None)[0]])
    assert np.linalg.norm(J @ lifted, 2) <= 1e-12 * np.linalg.norm(lifted, 2)
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
    rank, Z = _chart(poly, scaled, g, tol)
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
    with 3V + 3F rows or columns: the chart's SVD has 3V columns, the
    reduced rows E + 6 - g, also for a set holding a dihedral, and the
    witness's kernel, direction and projection work on the vertices. The
    rank test and greedy never form a dense measurement Jacobian."""
    poly, real = sphere_hull(50, 0)
    full = 3 * real.vertex_count + 3 * real.face_count
    shapes = {}

    def spy(name):
        fn = getattr(np.linalg, name)

        def spied(a, *args, **kwargs):
            shapes.setdefault(name, []).append(np.shape(a))
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spied)

    def dense(*args, **kwargs):
        raise AssertionError("a dense measurement Jacobian was formed")

    for name in ("svd", "qr", "eigh", "lstsq", "solve"):
        spy(name)
    with monkeypatch.context() as patch:
        patch.setattr(MeasurementList, "jacobian", dense)
        for pool_name in ("face-distances", "all"):
            pool = build_pool(poly, pool_name)
            assert is_sufficient(poly, real, pool).sufficient
            assert greedy_minimal_subset(poly, real, pool).sufficient
    edges = build_pool(poly, "edges-only")
    assert flex_witness(poly, real, edges[:10] + edges[11:]) is not None
    assert flex_witness(poly, real, dihedral_pool(poly)) is not None
    assert (6, 3 * real.vertex_count) in shapes["svd"]
    assert shapes["eigh"]
    # one QR orthonormalizes the motions' vertex rows G_x; the others are
    # the rank test's streamed QR of the rows on Z, with E + 6 - g columns
    motions = (3 * real.vertex_count, 6)
    streamed = set(shapes["qr"]) - {motions}
    assert motions in shapes["qr"]
    assert streamed and {cols for _, cols in streamed} == {poly.edge_count}
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
            rank, Z = _chart(poly, scaled, g, tol)
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
    psi = MeshMeasurements(poly, pool)
    assert np.array_equal(psi.values(real), stacked.values(points))
    J = psi.jacobian(real)
    assert J.shape == (len(pool), 3 * real.vertex_count)
    assert np.array_equal(J, stacked.jacobian(points)[:, : J.shape[1]])
    assert np.array_equal(psi.rows(real)[:, : J.shape[1]], J)
    assert not psi.rows(real)[:, J.shape[1] :].any()


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
    psi = MeshMeasurements(poly, pool)
    assert np.abs(psi.values(scaled) - planes.values(points)).max() <= agree
    _, s, Vt = np.linalg.svd(d_phi(poly, scaled))
    N = Vt[_count_above(s, TOL):].T
    on_planes = planes.jacobian(points)[:, :-3] @ N
    assert np.abs(gradient_rows(poly, pool, scaled) @ N - on_planes).max() <= 1e-12
    # either order of the faces, and a global flip of the orientation
    flipped = build_incidence([cycle[::-1] for cycle in poly.faces])
    swapped = [DihedralAngle(m.g, m.f) for m in pool]
    assert np.abs(MeshMeasurements(flipped, swapped).values(scaled) - psi.values(scaled)).max() <= agree


def test_a_dihedral_of_faces_without_a_common_edge_is_rejected():
    poly, real = platonic("cube")
    with pytest.raises(ValueError, match="faces 0 and 5 share no edge"):
        MeshMeasurements(poly, [DihedralAngle(0, 1), DihedralAngle(0, 5)])


def _svd_route(monkeypatch):
    """Run the verdicts on the SVD reference instead of the chart basis: the
    rank of d_phi from its SVD, and as Z the vertex rows of the reference
    basis, which is orthonormal on all 3V + 3F coordinates, not on the
    vertices; the measurement rows have no plane columns, so J Z is their
    restriction to the reference basis. This is the SVD fallback of the
    earlier engine, kept as a reference."""

    def svd_chart(poly, scaled, g, tol_rel):
        base = _count_above(np.linalg.svd(d_phi(poly, scaled), compute_uv=False), tol_rel)
        return base, _svd_reference(poly, scaled, g)[:, : 3 * scaled.vertex_count].T

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
    assert normalized_distance(poly, real, first) >= 1e-3 * real.diameter()

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


def _dense_verdicts(poly, real, pool, mode, tol):
    """The rank and the greedy selection from the dense m x 3V rows: the
    singular values of J Z counted above tol sigma_1, and a scan of J's
    rows that keeps one when its residual against the rows kept so far,
    reduced to Z, exceeds tol times its full norm."""
    g = rigidity._motion_dim(mode, pool, True)
    scaled = _unit_diameter(real)
    base, Z = _chart(poly, scaled, g, tol)
    J = MeshMeasurements(poly, pool).jacobian(scaled)
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
