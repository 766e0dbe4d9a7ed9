"""The full-rank certificates behind numeric_rank and the flex projection.

`numeric_rank` counts singular values above tol_rel * sigma_1; when a
sparse LU of the shifted Gram matrix of its input, dense or sparse, proves
that all of them clear that cutoff it returns min(m, n) without an SVD.
`gauss_newton_project` takes its minimum-norm step from a QR of J^T when
that proves full row rank, and from lstsq otherwise. Both must give what
the SVD-based computation gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from polyrig import rigidity
from polyrig._nlsq import _gram_full_rank, _min_norm_step, _qr_full_rank, gauss_newton_project
from polyrig.generators import faces_from_convex_vertices, platonic
from polyrig.geometry import (
    MeshMeasurements,
    build_pool,
    d_phi,
    fit_realization,
    phi,
)
from polyrig.incidence import build_incidence
from polyrig.pointsets import Angle, Distance, MeasurementList, diameter
from polyrig.polygon import (
    PointConfig2D,
    _free_columns,
    staircase_measurements,
    sufficiency2d,
)
from polyrig.rigidity import _count_above, numeric_rank

from full_coordinates import coordinate_vector, from_coordinate_vector

TOL = 1e-9
entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
dims = st.integers(1, 9)


def _svd_count(M, tol=TOL):
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0])) if s[0] > 0 else 0


@st.composite
def matrices(draw):
    """Tall, wide or square; dense or a product of thin factors; rows scaled
    by 10^u with u in [-4, 4]; C- or Fortran-ordered."""
    m, n = draw(dims), draw(dims)
    if draw(st.booleans()):
        M = draw(arrays(np.float64, (m, n), elements=entries))
    else:
        k = draw(st.integers(1, max(1, min(m, n) - 1)))
        M = draw(arrays(np.float64, (m, k), elements=entries)) @ draw(
            arrays(np.float64, (k, n), elements=entries)
        )
    M = M * 10.0 ** draw(arrays(np.float64, (m, 1), elements=st.floats(-4.0, 4.0)))
    return np.asfortranarray(M) if draw(st.booleans()) else M


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_numeric_rank_is_the_svd_count(M):
    before = M.copy()
    assert numeric_rank(M, TOL) == _svd_count(M)
    assert np.array_equal(M, before)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 8),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
    arrays(np.float64, (12, 1), elements=st.floats(-4.0, 4.0)),
)
def test_certificate_holds_for_full_rank_and_never_for_thin_products(n, extra, seed, u):
    rng = np.random.default_rng(seed)
    m = n + extra
    # orthonormal factors around singular values spread over two decades
    U, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    assert _qr_full_rank(np.array(U * np.logspace(0, -2, n) @ V, order="F"), TOL)[3]
    thin = rng.standard_normal((m, n - 1)) @ rng.standard_normal((n - 1, n))
    assert not _qr_full_rank(np.array(thin * 10.0 ** u[:m], order="F"), TOL)[3]


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refuse


def _no_svd(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _refuse("numpy.linalg.svd"))


def test_full_rank_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(3)
    tall, wide = rng.standard_normal((60, 40)), rng.standard_normal((40, 60))
    _no_svd(monkeypatch)
    assert numeric_rank(tall) == 40
    assert numeric_rank(wide) == 40
    assert numeric_rank(rng.standard_normal((50, 50))) == 50


def test_trilateration_rank_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(4)
    n = 40
    pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(0.2, 1, n)])
    pts[0], pts[1] = (-1.5, 0.0), (1.5, 0.0)
    ms = [Distance(0, 1)] + [m for j in range(2, n) for m in (Distance(0, j), Distance(1, j))]
    config = PointConfig2D.from_points(pts)
    _no_svd(monkeypatch)
    report = sufficiency2d(config, ms)
    assert report.achieved_rank == report.target_rank == 2 * n - 3


# the sparse Gram certificate -----------------------------------------------------


def _rows(points, ms):
    """sufficiency2d's rows: the sparse Jacobian at unit diameter, on the
    free chart columns."""
    config = PointConfig2D.from_points(points)
    scaled = config.points / diameter(config.points)
    return MeasurementList(ms).sparse_jacobian(scaled)[:, _free_columns(config.n)]


def _base_config(n, seed=4):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(0.2, 1, n)])
    pts[:, 1] *= rng.choice([-1.0, 1.0], n)
    pts[0], pts[1] = (-1.5, 0.0), (1.5, 0.0)
    return pts


def _trilateration(n):
    return [Distance(0, 1)] + [m for j in range(2, n) for m in (Distance(0, j), Distance(1, j))]


def _three_counts(M):
    """numeric_rank on sparse and on dense input, and the SVD count."""
    dense = M.toarray()
    svd = _count_above(np.linalg.svd(dense, compute_uv=False), TOL) if dense.size else 0
    return numeric_rank(M, TOL), numeric_rank(dense, TOL), svd


SQUARE_FOUR = (
    np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float),
    [Distance(0, 1), Distance(0, 2), Distance(0, 3), Angle(1, 2, 3)],
)


def _grey_trilateration(n=12):
    # one point 1e-7 off the base line: its two distance rows are nearly
    # parallel, sigma_min / sigma_1 ~ 3e-8, full rank at tol 1e-9 but too
    # near the shift for the Gram proof
    pts = _base_config(n)
    pts[5] = (0.3, 1e-7)
    return _rows(pts, _trilateration(n))


@pytest.mark.parametrize(
    "rows, proved, rank",
    [
        (lambda: _rows(_base_config(40), _trilateration(40)), True, 77),
        (lambda: _rows(_base_config(40), staircase_measurements(40)), True, 40),
        (lambda: _rows(*SQUARE_FOUR), False, 3),
        (_grey_trilateration, False, 21),
        (lambda: sparse.csr_matrix(np.eye(6, 4)[:, [0, 1, 3, 3]] * [1.0, 2.0, 0.0, 3.0]), False, 3),
        (lambda: sparse.csr_matrix((0, 5)), False, 0),
        (lambda: sparse.csr_matrix((5, 0)), False, 0),
    ],
    ids=["trilateration", "staircase-set", "square-four", "grey-zone", "zero-column",
         "empty-rows", "empty-columns"],
)
def test_sparse_and_dense_ranks_are_the_svd_count(rows, proved, rank):
    M = rows()
    if min(M.shape):
        assert _gram_full_rank(M, TOL) is proved
    assert _three_counts(M) == (rank, rank, rank)


def test_proved_sparse_rank_takes_no_qr_and_no_svd(monkeypatch):
    wide = _rows(_base_config(40), staircase_measurements(40))
    square = _rows(_base_config(40), _trilateration(40))
    _no_svd(monkeypatch)
    assert numeric_rank(wide) == 40
    assert numeric_rank(square) == 77


@st.composite
def near_dependent(draw):
    """A random sparse k x l matrix (k <= l), rows scaled by 10^u with u in
    [-2, 2], whose last row is a combination of two others plus noise of
    relative size 10^e, e in [-15, -1], on their pattern; transposed or
    not, CSR or CSC."""
    k, l = draw(st.integers(2, 10)), draw(st.integers(2, 14))
    k, l = min(k, l), max(k, l)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = sparse.random(k, l, density=draw(st.floats(0.3, 0.9)), random_state=rng).toarray()
    a, b = rng.standard_normal(2)
    i, j = rng.choice(k - 1, 2) if k > 2 else (0, 0)
    combo = a * M[i] + b * M[j]
    noise = 10.0 ** draw(st.floats(-15.0, -1.0)) * rng.standard_normal(l) * (combo != 0)
    M[-1] = combo + noise * np.abs(combo).max(initial=0.0)
    M = M * 10.0 ** rng.uniform(-2.0, 2.0, (k, 1))
    if draw(st.booleans()):
        M = M.T
    return sparse.csr_matrix(M) if draw(st.booleans()) else sparse.csc_matrix(M)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_dependent())
def test_gram_proof_never_claims_more_than_the_svd(M):
    before = M.copy()
    svd = _count_above(np.linalg.svd(M.toarray(), compute_uv=False), TOL)
    if _gram_full_rank(M, TOL):
        assert svd == min(M.shape)
    assert _three_counts(M) == (svd, svd, svd)
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(M, field), getattr(before, field))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_numeric_rank_rejects_non_finite_before_factoring(monkeypatch, bad):
    M = np.eye(4)
    M[2, 1] = bad
    monkeypatch.setattr(rigidity, "_gram_full_rank", _refuse("_gram_full_rank"))
    _no_svd(monkeypatch)
    for arg in (M, sparse.csr_matrix(M)):
        with pytest.raises(ValueError, match="finite"):
            numeric_rank(arg)


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


def test_deficient_rank_falls_back_to_the_svd(monkeypatch):
    rng = np.random.default_rng(5)
    M = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 20))
    calls = _count_svd(monkeypatch)
    assert numeric_rank(M) == 4
    assert calls == [1]


def test_deficient_sparse_rank_takes_one_svd_and_no_qr(monkeypatch):
    # the square's four measurements: rank 3 of 4 rows on 5 free columns
    M = _rows(*SQUARE_FOUR)
    calls = _count_svd(monkeypatch)
    assert numeric_rank(M) == 3
    assert calls == [1]


# the minimum-norm projection step ----------------------------------------------


def _projection(poly, real, pool, seed):
    """flex_witness's residual and Jacobian at unit diameter, with the
    measurement targets perturbed, and the realization as the start."""
    scaled = real.rescaled(1.0 / real.diameter())
    psi = MeshMeasurements(poly, pool)
    targets = psi.values(scaled) + 1e-3 * np.random.default_rng(seed).standard_normal(len(pool))
    nv, nf = real.vertex_count, real.face_count

    def resid(x):
        r = from_coordinate_vector(x, nv, nf)
        return np.concatenate([phi(poly, r), psi.values(r) - targets])

    def jac(x):
        r = from_coordinate_vector(x, nv, nf)
        return np.vstack([d_phi(poly, r), psi.rows(r)])

    return resid, jac, coordinate_vector(scaled)


def _count_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_projection_step_matches_lstsq_on_full_row_rank(monkeypatch):
    p = np.random.default_rng(6).standard_normal((30, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    poly = build_incidence(faces_from_convex_vertices(p))
    real = fit_realization(poly, p)
    edges = build_pool(poly, "edges-only")
    resid, jac, x0 = _projection(poly, real, edges[:-3], 7)
    J = jac(x0)
    assert J.shape[0] < J.shape[1] and numeric_rank(J, 1e-12) == J.shape[0]
    r = resid(x0)
    reference = np.linalg.lstsq(J, r, rcond=None)[0]
    calls = _count_lstsq(monkeypatch)
    x1, _ = gauss_newton_project(resid, jac, x0, max_iter=1, target=0.0)
    assert calls == []
    assert np.abs((x0 - x1) - reference).max() <= 1e-12 * np.abs(reference).max()


def test_projection_falls_back_to_lstsq_on_the_cube_edges(monkeypatch):
    poly, real = platonic("cube")
    resid, jac, x0 = _projection(poly, real, build_pool(poly, "edges-only"), 8)
    J = jac(x0)
    assert J.shape == (36, 42) and numeric_rank(J) == 33
    r = resid(x0)
    reference = np.linalg.lstsq(J, r, rcond=None)[0]
    calls = _count_lstsq(monkeypatch)
    x1, _ = gauss_newton_project(resid, jac, x0, max_iter=1, target=0.0)
    # the QR attempt factored J in place; lstsq gets a freshly built one
    assert calls == [(36, 42)]
    assert np.array_equal(x1, x0 - reference)


@pytest.mark.parametrize("shape", [(5, 8), (8, 8)])
def test_min_norm_step_matches_lstsq_wide_and_square(shape):
    # a square J^T is inverted in place, in the array that holds Q
    rng = np.random.default_rng(9)
    J, r = rng.standard_normal(shape), rng.standard_normal(shape[0])
    step = _min_norm_step(lambda x: J.copy(), np.zeros(shape[1]), r)
    assert np.allclose(step, np.linalg.lstsq(J, r, rcond=None)[0], rtol=0, atol=1e-13)
