"""The full-rank certificates behind numeric_rank and the mesh verdicts,
and the flex projection.

`numeric_rank` counts singular values above tol_rel * sigma_1; when a
sparse LU of the shifted Gram matrix of its input, dense or sparse, proves
that all of them clear that cutoff it returns min(m, n) without an SVD.
It must give what the SVD-based computation gives. `_gram_full_rank` reads
its proof from the factors' arrays, and must prove whatever its operator
form (reference_gram.py) proves, on the same factors. `_triangular_full_rank`
proves the same of a square triangular factor from its inverse, and must
never claim more than the SVD count. `gauss_newton_project`
is one damped lm_solve from one start: its steps stay in the row space of
J, so on a consistent linear system it ends at lstsq's solution.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from polyrig import _nlsq, rigidity
from polyrig._nlsq import _gram_full_rank, _triangular_full_rank, gauss_newton_project
from polyrig.generators import faces_from_convex_vertices, platonic
from polyrig.cli import main
from polyrig.errors import ProjectionDiverged
from polyrig.geometry import build_pool, fit_realization, mesh_kernel
from polyrig.incidence import build_incidence
from polyrig.pointsets import Angle, Distance, MeasurementList, diameter
from polyrig.polygon import (
    PointConfig2D,
    _free_columns,
    staircase_measurements,
    sufficiency2d,
)
from polyrig.rigidity import _count_above, numeric_rank

from measurement_json import measurements_to_json
import reference_gram
from reference_gram import reference_gram_full_rank

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


def test_a_failed_sparse_lu_claims_nothing(monkeypatch):
    """An LU that raises (as splu does on an exactly singular factor)
    proves nothing: numeric_rank takes the SVD count instead."""
    square = _rows(_base_config(40), _trilateration(40))
    assert _gram_full_rank(square, TOL)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(_nlsq, "splu", singular)
    svd = np.linalg.svd
    taken = []

    def recorded(a, *args, **kwargs):
        taken.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    assert not _gram_full_rank(square, TOL)
    count = _count_above(svd(square.toarray(), compute_uv=False), TOL)
    assert numeric_rank(square) == count == 77
    assert taken == [square.shape]


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
    proved, reference = _gram_full_rank(M, TOL), reference_gram_full_rank(M, TOL)
    assert proved or not reference
    if proved or reference:
        assert svd == min(M.shape)
    assert _three_counts(M) == (svd, svd, svd)
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(M, field), getattr(before, field))


@st.composite
def scaled_sparse(draw):
    """A random sparse m x n matrix, m and n up to 40, rows scaled by 10^u
    with u in [-4, 4]; CSR or CSC."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = sparse.random(m, n, density=draw(st.floats(0.05, 0.9)), random_state=rng)
    M = sparse.diags(10.0 ** rng.uniform(-4.0, 4.0, m)) @ M
    return sparse.csr_matrix(M) if draw(st.booleans()) else sparse.csc_matrix(M)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(scaled_sparse())
def test_gram_proof_proves_what_the_operator_form_proves(M):
    proved = _gram_full_rank(M, TOL)
    assert proved or not reference_gram_full_rank(M, TOL)
    if proved:
        assert _count_above(np.linalg.svd(M.toarray(), compute_uv=False), TOL) == min(M.shape)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 30), st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_thin_sparse_products_prove_nothing(m, n, seed):
    # B C with B m x k and C k x n sparse, k < min(m, n): rank k at most,
    # so neither form may prove full rank
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(m, n)))
    B = sparse.random(m, k, density=0.6, random_state=rng)
    C = sparse.random(k, n, density=0.6, random_state=rng)
    M = sparse.csr_matrix(sparse.diags(10.0 ** rng.uniform(-4.0, 4.0, m)) @ B @ C)
    assert not _gram_full_rank(M, TOL)
    assert not reference_gram_full_rank(M, TOL)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 400), st.booleans(), st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
def test_gram_proof_on_2d_sets_proves_what_the_operator_form_proves(n, trilateration, seed, u):
    """sufficiency2d's rows of a trilateration or staircase set on n random
    points (scattered off the base line A_1A_2, as planar-oracles places
    them), moved by a random rigid motion and scaled by 10^u. A
    trilateration set is well conditioned there and always proved."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(0.2, 1, n)])
    pts[:, 1] *= rng.choice([-1.0, 1.0], n)
    pts[0], pts[1] = (-1.5, 0.0), (1.5, 0.0)
    turn = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    pts = 10.0**u * (pts @ R.T + rng.uniform(-1.0, 1.0, 2))
    M = _rows(pts, _trilateration(n) if trilateration else staircase_measurements(n))
    proved = _gram_full_rank(M, TOL)
    assert proved or not reference_gram_full_rank(M, TOL)
    assert proved or not trilateration


# hand-made factors: the certificate's arithmetic on factors it is given


def _given_factors(monkeypatch, L, U):
    """Both forms of the certificate take L and U (dense; their nonzeros
    are the pattern) as their SuperLU factors, with no permutation."""
    n = len(L)
    lu = SimpleNamespace(
        L=sparse.csc_matrix(L), U=sparse.csc_matrix(U), perm_r=np.arange(n), perm_c=np.arange(n)
    )
    for module in (_nlsq, reference_gram):
        monkeypatch.setattr(module, "splu", lambda *args, **kwargs: lu)


def _unit_lower(x):
    """3 x 3 unit lower triangular with every entry below the diagonal x."""
    return np.eye(3) + np.tril(np.full((3, 3), x), -1)


def test_the_margin_test_flips_where_the_operator_form_does(monkeypatch):
    """On factors L and U = D L^T that agree to the bit, W is u |U| alone,
    and as L grows t and lam outgrow the margin; on L fixed and one entry
    of U off D L^T by a relative delta, lam does. Both forms must decide
    each case alike, and each sweep must cross from proved to refused."""
    M = sparse.identity(3, format="csr")
    for x in np.geomspace(0.5, 5.0, 500):
        L = _unit_lower(x)
        _given_factors(monkeypatch, L, L.T.copy())
        verdicts = [_gram_full_rank(M, TOL), reference_gram_full_rank(M, TOL)]
        assert verdicts[0] == verdicts[1], x
    sweep = []
    for delta in np.geomspace(1e-17, 1e-12, 500):
        L = _unit_lower(0.25)
        U = L.T.copy()
        U[0, 2] *= 1.0 + delta
        _given_factors(monkeypatch, L, U)
        proved = _gram_full_rank(M, TOL)
        assert proved == reference_gram_full_rank(M, TOL), delta
        sweep.append(proved)
    assert sweep[0] and not sweep[-1]
    growth = []
    for x in (0.5, 5.0):
        L = _unit_lower(x)
        _given_factors(monkeypatch, L, L.T.copy())
        growth.append(_gram_full_rank(M, TOL))
    assert growth == [True, False]


def test_factors_off_the_shared_pattern_prove_nothing(monkeypatch):
    """U's rows must hold L's pattern, and each column of L must start at
    its diagonal, where U's rows give d; else nothing is claimed."""
    M = sparse.identity(2, format="csr")
    L = np.array([[1.0, 0.0], [0.5, 1.0]])
    _given_factors(monkeypatch, L, L.T.copy())
    assert _gram_full_rank(M, TOL)
    _given_factors(monkeypatch, L, np.eye(2))  # U lacks l_21's place
    assert not _gram_full_rank(M, TOL)
    gap = np.array([[1.0, 0.0], [0.5, 0.0]])  # no second pivot
    _given_factors(monkeypatch, gap, gap.T.copy())
    assert not _gram_full_rank(M, TOL)


def test_a_missing_diagonal_of_the_gram_matrix_proves_nothing(monkeypatch):
    # a zero column of A leaves fl(A^T A) without that diagonal entry; the
    # certificate gives up before it factors
    M = sparse.csr_matrix(np.eye(6, 4)[:, [0, 1, 3, 3]] * [1.0, 2.0, 0.0, 3.0])
    monkeypatch.setattr(_nlsq, "splu", _refuse("splu"))
    assert not _gram_full_rank(M, TOL)


@st.composite
def near_cutoff(draw):
    """(R, tol): an n x n upper-triangular R, n <= 40, from a QR of
    U diag(s) V^T with random orthogonal U and V, sigma_1 = 1 and its
    `near` smallest values at 2 tol 10^e, e in [-2, 1] (jittered by up to
    a factor 10^0.1), the others log-uniform between those and 1; scaled by
    10^u, u in [-4, 4]. Sometimes a diagonal entry is zeroed, which makes R
    exactly singular."""
    n = draw(st.integers(1, 40))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.05]))
    near = draw(st.integers(1, n))
    e = draw(st.floats(-2.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = min(1.0, 2.0 * tol * 10.0**e)
    s = 10.0 ** rng.uniform(np.log10(low), 0.0, n)
    s[n - near :] = np.minimum(1.0, low * 10.0 ** rng.uniform(-0.1, 0.1, near))
    s[0] = 1.0
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    R = np.linalg.qr((U * s) @ V.T, mode="r") * 10.0 ** draw(st.floats(-4.0, 4.0))
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, n - 1))
        R[i, i] = 0.0
    return R, tol


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_cutoff())
def test_triangular_proof_never_claims_more_than_the_svd(case):
    R, tol = case
    before = R.copy()
    if _triangular_full_rank(R, tol):
        assert _count_above(np.linalg.svd(R, compute_uv=False), tol) == len(R)
    assert np.array_equal(R, before)


def test_triangular_proof_holds_with_room_and_refuses_the_rest():
    rng = np.random.default_rng(3)
    R = np.linalg.qr(rng.standard_normal((60, 60)), mode="r")
    assert _triangular_full_rank(R, 1e-9)
    # sigma_min = 1e-3 sigma_1: a proof at 1e-9, none at 1e-3
    U, _, Vt = np.linalg.svd(rng.standard_normal((20, 20)))
    R = np.linalg.qr((U * np.geomspace(1.0, 1e-3, 20)) @ Vt, mode="r")
    assert _triangular_full_rank(R, 1e-9) and not _triangular_full_rank(R, 1e-3)
    singular = R.copy()
    singular[7, 7] = 0.0
    assert not _triangular_full_rank(singular, 1e-9)
    for bad in (np.nan, np.inf):
        broken = R.copy()
        broken[0, 5] = bad
        assert not _triangular_full_rank(broken, 1e-9)
    assert not _triangular_full_rank(R[:10], 1e-9)  # not square
    assert not _triangular_full_rank(np.zeros((4, 4)), 1e-9)
    assert not _triangular_full_rank(np.zeros((0, 0)), 1e-9)


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


def _linear(J, b):
    """The residual J x - b, as gauss_newton_project's evaluate, and its
    constant Jacobian, on a batch of x."""
    return (lambda x: (x @ J.T - b, x)), (lambda x: np.broadcast_to(J, (len(x), *J.shape)))


def test_projection_step_matches_lstsq_on_full_row_rank():
    # the flex projection's Jacobian on a 30-vertex hull with three edges
    # dropped: 81 edge rows on 90 vertex coordinates, full row rank
    p = np.random.default_rng(6).standard_normal((30, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    poly = build_incidence(faces_from_convex_vertices(p))
    real = fit_realization(poly, p)
    X = real.rescaled(1.0 / real.diameter()).vertices
    J = mesh_kernel(poly, build_pool(poly, "edges-only")[:-3]).jacobian(X)
    assert J.shape == (81, 90) and numeric_rank(J, 1e-12) == 81
    b = 1e-3 * np.random.default_rng(7).standard_normal(81)
    x0 = X.ravel()
    resid, jac = _linear(J, J @ x0 + b)
    x, ok = gauss_newton_project(resid, jac, x0)
    assert ok and np.abs(resid(x)[0]).max() <= 1e-10
    # damped steps J^T (J J^T + lam I)^-1 r stay in the row space of J
    dx = x - x0
    in_rows = J.T @ np.linalg.lstsq(J.T, dx, rcond=None)[0]
    assert np.linalg.norm(dx - in_rows) <= 1e-10 * np.linalg.norm(dx)
    reference = np.linalg.lstsq(J, b, rcond=None)[0]
    assert np.linalg.norm(dx - reference) <= 1e-8 * np.linalg.norm(reference)


@pytest.mark.parametrize("shape", [(5, 8), (8, 8), (11, 8)], ids=["wide", "square", "tall"])
def test_projection_step_matches_lstsq(shape):
    # on a consistent linear system of full rank the projection from 0 ends
    # at the least-squares solution of least norm
    rng = np.random.default_rng(9)
    J = rng.standard_normal(shape)
    b = J @ rng.standard_normal(shape[1])
    x, ok = gauss_newton_project(*_linear(J, b), np.zeros(shape[1]))
    reference = np.linalg.lstsq(J, b, rcond=None)[0]
    assert ok and np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 9),
    st.integers(2, 9),
    st.integers(0, 2**32 - 1),
    arrays(np.float64, (9, 1), elements=st.floats(-2.0, 2.0)),
)
def test_projection_on_thin_products_reaches_its_target(m, n, seed, u):
    # J = A B of rank k < min(m, n), rows scaled by 10^u with u in [-2, 2],
    # and a consistent right-hand side. The damping lam I that keeps the
    # steps finite lets rounding leak into ker J, so the end point is the
    # least-squares solution of least norm only to about 1e-7 relative.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(m, n)))
    J = rng.standard_normal((m, k)) @ rng.standard_normal((k, n)) * 10.0 ** u[:m]
    b = J @ rng.standard_normal(n)
    target = 1e-12 * np.abs(b).max()
    x, ok = gauss_newton_project(*_linear(J, b), np.zeros(n), target=target)
    assert ok and np.abs(J @ x - b).max() <= target
    reference = np.linalg.lstsq(J, b, rcond=None)[0]
    assert np.linalg.norm(x - reference) <= 1e-6 * np.linalg.norm(reference)


def test_projection_reports_travel_beyond_its_bound():
    J = np.eye(3, 4)
    b = np.array([1.0, 0.0, 0.0])
    x, ok = gauss_newton_project(*_linear(J, b), np.zeros(4), max_travel=0.5)
    assert not ok and np.abs(J @ x - b).max() <= 1e-10
    assert gauss_newton_project(*_linear(J, b), np.zeros(4), max_travel=2.0)[1]


def test_projection_rejects_a_non_finite_jacobian(monkeypatch, capsys, tmp_path):
    # a NaN Jacobian takes no step: one Jacobian, one sweep of damping values
    J = np.eye(3, 4)
    J[1, 2] = np.nan
    built = []
    x0 = np.arange(4.0)
    x, ok = gauss_newton_project(
        lambda x: (np.ones((len(x), 3)), x), lambda x: built.append(1) or J[None], x0
    )
    assert not ok and np.array_equal(x, x0) and built == [1]

    # and flex_witness reports it as a diverged projection, exit 2 on the
    # CLI; the NaN Jacobian goes to the projection alone, not to the chart
    poly, real = platonic("cube")
    project = rigidity.gauss_newton_project
    built.clear()

    def nan_projection(evaluate, jacobian, x0, **options):
        def nan_jacobian(data):
            built.append(1)
            return np.full(jacobian(data).shape, np.nan)
        return project(evaluate, nan_jacobian, x0, **options)

    monkeypatch.setattr(rigidity, "gauss_newton_project", nan_projection)
    with pytest.raises(ProjectionDiverged):
        rigidity.flex_witness(poly, real, build_pool(poly, "edges-only"))
    assert built == [1]
    off, ms = tmp_path / "cube.off", tmp_path / "edges.json"
    assert main(["generate", "cube", "--out", str(off)]) == 0
    ms.write_text(measurements_to_json(3, build_pool(poly, "edges-only")))
    assert main(["witness", str(off), "--measurements", str(ms)]) == 2
    assert "ProjectionDiverged" in capsys.readouterr().err
