"""The nontrivial tangent basis behind every mesh verdict.

`rigidity._nontrivial_tangent` takes the E + 6 - g nontrivial first-order
deformations from the vertex chart (Householder QRs of B = [I; D] and of
[R^-T C^T, R G_x]) when the chart proves that d_phi has rank 2E, and from
an SVD of d_phi otherwise. Both must give an orthonormal basis of
ker d_phi orthogonal to the motions, the subspace an SVD reference gives,
and the same verdicts.
"""

import dataclasses

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
    FaceAngle,
    FaceDistance,
    MeshMeasurements,
    build_pool,
    d_phi,
    fit_realization,
)
from polyrig.incidence import build_incidence
from polyrig.pointsets import Angle, DiagonalAngle, Distance, MeasurementList
from polyrig.rigidity import (
    CONGRUENCE,
    SIMILARITY,
    _count_above,
    _nontrivial_tangent,
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
    poly, real = solid
    scaled = _unit_diameter(real)
    tangent = _nontrivial_tangent(poly, scaled, g, TOL)
    T = tangent.T
    assert tangent.rank == 2 * poly.edge_count
    assert T.shape == (poly.edge_count + 6 - g, 3 * real.vertex_count + 3 * real.face_count)
    assert np.abs(T @ T.T - np.eye(len(T))).max() <= 1e-12
    assert np.linalg.norm(d_phi(poly, scaled) @ T.T, 2) <= 1e-12
    assert np.linalg.norm(motion_generators(scaled, g).T @ T.T, 2) <= 1e-12
    cosines = np.linalg.svd(T @ _svd_reference(poly, scaled, g).T, compute_uv=False)
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(solid=solids, tol=st.sampled_from([1e-9, 1e-4, 1e-2, 3e-2, 0.1, 0.3]))
def test_chart_claims_rank_2e_only_when_the_svd_counts_it(solid, tol):
    """At any tolerance the rank of d_phi the tangent reports is the SVD
    count: the chart's certificate fails, and the SVD fallback counts,
    whenever a singular value lies at or below tol sigma_1."""
    poly, real = solid
    scaled = _unit_diameter(real)
    count = _count_above(np.linalg.svd(d_phi(poly, scaled), compute_uv=False), tol)
    assert _nontrivial_tangent(poly, scaled, 6, tol).rank == count


def test_mesh_verdicts_factor_nothing_with_plane_rows(monkeypatch):
    """No factorization of a verdict sees a matrix with 3V + 3F rows: B =
    [I; D] goes to dtpqrt as its two blocks, and the rank proof and every
    SVD work on 3V rows or fewer."""
    poly, real = sphere_hull(50, 0)
    full = 3 * real.vertex_count + 3 * real.face_count
    shapes = {}

    def spy(owner, name):
        fn = getattr(owner, name)

        def spied(*args, **kwargs):
            arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
            shapes.setdefault(name, []).extend(a.shape for a in arrays)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, spied)

    for name in ("dgeqrf", "dtpqrt", "dgesdd", "dgesvd"):
        spy(rigidity.lapack, name)
    spy(np.linalg, "svd")
    spy(np.linalg, "qr")
    spy(rigidity, "_qr_full_rank")
    pool = build_pool(poly, "face-distances")
    assert is_sufficient(poly, real, pool).sufficient
    assert greedy_minimal_subset(poly, real, pool).sufficient
    assert {"dtpqrt", "_qr_full_rank", "svd"} <= set(shapes)
    assert all(shape[0] != full for seen in shapes.values() for shape in seen)


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


def _no_certificate(monkeypatch):
    qr_full_rank = rigidity._qr_full_rank

    def refuse(A, tol):
        return (*qr_full_rank(A, tol)[:3], False)

    monkeypatch.setattr(rigidity, "_qr_full_rank", refuse)


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
    poly, real = build()
    pool = build_pool(poly, pool_name)
    qr_path = (
        is_sufficient(poly, real, pool, mode),
        greedy_minimal_subset(poly, real, pool, mode),
    )
    _no_certificate(monkeypatch)
    assert (
        is_sufficient(poly, real, pool, mode),
        greedy_minimal_subset(poly, real, pool, mode),
    ) == qr_path


def test_svd_fallback_flex_witness(monkeypatch):
    poly, real = platonic("cube")
    edges = build_pool(poly, "edges-only")
    _no_certificate(monkeypatch)
    tangent = _nontrivial_tangent(poly, _unit_diameter(real), 6, TOL)
    assert tangent.lo == tangent.hi
    assert flex_witness(poly, real, edges) is not None


def test_count_between_the_bracket_takes_the_exact_sigma_1():
    poly, real = sphere_hull(40, 3)
    scaled = _unit_diameter(real)
    tangent = _nontrivial_tangent(poly, scaled, 6, TOL)
    sigma_1 = np.linalg.svd(d_phi(poly, scaled), compute_uv=False)[0]
    lo, hi = tangent.lo, tangent.hi
    assert lo < sigma_1 < hi
    assert tangent.sigma_1() == pytest.approx(sigma_1, rel=1e-13)

    calls = []

    def exact():
        calls.append(1)
        return tangent.sigma_1()

    spied = dataclasses.replace(tangent, sigma_1=exact)
    # one singular value either side of tol * sigma_1, both inside the bracket
    s = TOL * np.array([(sigma_1 + hi) / 2, (lo + sigma_1) / 2])
    assert spied.count_above(s, TOL) == _count_above(s, TOL, sigma_1) == 1
    assert calls == [1]
    # a bracket that settles the count does not compute sigma_1
    s = TOL * np.array([2.0 * hi, lo / 2.0])
    assert spied.count_above(s, TOL) == _count_above(s, TOL, sigma_1) == 1
    assert calls == [1]
