"""The sketched rank test of long pools against the streamed one.

is_sufficient ranks a pool with more than _SKETCH_ROWS rows per chart
column from one CountSketch of its rows, and takes the count only when it
proves it; anything else streams every row through a QR. The proved count
must be the streamed one, and a singular value at the cutoff, where the
streamed count rests on rounding, must leave the verdict to the stream.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import ConvexHull, QhullError

from polyrig import rigidity
from polyrig._nlsq import _triangular_full_rank
from polyrig.errors import PolyrigError
from polyrig.geometry import build_pool, fit_realization
from polyrig.generators import faces_from_convex_vertices
from polyrig.incidence import build_incidence
from polyrig.rigidity import (
    CONGRUENCE,
    DEFAULT_TOL_REL,
    SIMILARITY,
    _setup,
    _sketched_rank,
    _streamed_rank,
    is_sufficient,
)

TOL = DEFAULT_TOL_REL


def _hull(points):
    poly = build_incidence(faces_from_convex_vertices(points))
    return poly, fit_realization(poly, points)


def _prism(n=24):
    t = 2.0 * np.pi * np.arange(n) / n
    lid = np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
    return _hull(np.vstack([lid, lid + [0.0, 0.0, 0.7]]) + 0.2)


def _rows(poly, real, pool, mode=CONGRUENCE):
    """The rank test's (rank of d_phi, Z, S) for a pool."""
    return _setup(poly, real, build_pool(poly, pool), mode, TOL, True)[:3]


@pytest.mark.parametrize("mode", [CONGRUENCE, SIMILARITY])
@pytest.mark.parametrize("pool", ["face-angles", "all", "face-distances"])
def test_the_sketch_proves_the_streamed_rank_of_a_prism(monkeypatch, pool, mode):
    """The 24-prism's pools have more than four rows per chart column; the
    sketch proves their ranks (71 of 72 for the face angles, a flex), and
    is_sufficient streams no row."""
    poly, real = _prism()
    _, Z, S = _rows(poly, real, pool, mode)
    assert S.shape[0] > rigidity._SKETCH_ROWS * Z.shape[1]
    rank = _sketched_rank(S, Z, TOL)
    assert rank is not None and rank == _streamed_rank(S, Z, TOL)
    streamed = is_sufficient(poly, real, build_pool(poly, pool), mode, allow_scale_variant=True)

    def refuse(*args):
        raise AssertionError("a proved sketch streamed its rows")

    monkeypatch.setattr(rigidity, "_streamed_rank", refuse)
    sketched = is_sufficient(poly, real, build_pool(poly, pool), mode, allow_scale_variant=True)
    assert sketched == streamed


def _synthetic(values, m=200, n=9, seed=3):
    """CSR rows J (m x n) and orthonormal Z (n x N), N = len(values), with
    J Z = U diag(values) W^T: the singular values of J Z are `values`."""
    rng = np.random.default_rng(seed)
    N = len(values)
    U = np.linalg.qr(rng.standard_normal((m, N)))[0]
    W = np.linalg.qr(rng.standard_normal((N, N)))[0]
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Z = Q[:, :N]
    # J Z = U diag(values) W^T, and J is zero on the complement of Z
    J = U @ np.diag(values) @ W.T @ Z.T
    return sparse.csr_matrix(J), Z


def test_a_singular_value_at_the_cutoff_refuses_the_sketch():
    """Clear gaps on either side of the cutoff are proved, a flex of exact
    zeros too; a value at tol_rel times sigma_1 is on neither side, and
    the sketch gives up."""
    assert _sketched_rank(*_synthetic([1.0, 0.8, 0.5, 0.3, 0.2, 0.1]), TOL) == 6
    assert _sketched_rank(*_synthetic([1.0, 0.8, 0.5, 0.3, 0.2, 0.0]), TOL) == 5
    for at in (TOL, 2.0 * TOL, 0.5 * TOL):
        assert _sketched_rank(*_synthetic([1.0, 0.8, 0.5, 0.3, 0.2, at]), TOL) is None


def test_a_verdict_at_the_cutoff_falls_back_to_the_streamed_count(monkeypatch):
    """A rank test whose rows have a singular value at the cutoff consults
    the sketch, which refuses, and reports the streamed count."""
    poly, real = _prism()
    S, Z = _synthetic([1.0, 0.8, 0.5, 0.3, 0.2, TOL])
    base = 3 * poly.edge_count - Z.shape[1]
    monkeypatch.setattr(rigidity, "_setup", lambda *args: (base, Z, S, 3 * poly.edge_count))
    answers = []

    def recorded(S, Z, tol_rel, _sketch=_sketched_rank):
        answers.append(_sketch(S, Z, tol_rel))
        return answers[-1]

    monkeypatch.setattr(rigidity, "_sketched_rank", recorded)
    report = is_sufficient(poly, real, build_pool(poly, "face-angles"))
    assert answers == [None]
    assert report.achieved_rank == base + _streamed_rank(S, Z, TOL)


def test_the_certificate_takes_an_absolute_threshold():
    """_triangular_full_rank with sigma_1 proves sigma_n > 2 tol sigma_1
    against that bound, not R's own largest value."""
    R = np.triu(np.diag([1.0, 0.5, 1e-3]) + 1e-4)
    assert _triangular_full_rank(R, TOL, 1e3)
    assert not _triangular_full_rank(R, TOL, 1e6)
    assert _triangular_full_rank(R, 1e-2, 1.0) == _triangular_full_rank(R, 1e-2) is False
    assert _triangular_full_rank(R, 1e-4, 1.1) and _triangular_full_rank(R, 1e-4)


@st.composite
def lattice_hulls(draw):
    """The hull vertices of a few integer points: exactly planar faces,
    many of them with more than three vertices."""
    side = draw(st.integers(2, 4))
    cube = np.array(list(itertools.product(range(-side, side + 1), repeat=3)), dtype=float)
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(8, 30))
    picked = cube[np.random.default_rng(seed).choice(len(cube), count, replace=False)]
    try:
        return _hull(picked[ConvexHull(picked).vertices] + 0.25)
    except (QhullError, ValueError, PolyrigError):  # flat, or a face too thin to fit
        assume(False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(
    lattice_hulls(),
    st.sampled_from(["face-angles", "all", "face-distances", "dihedrals"]),
    st.sampled_from([CONGRUENCE, SIMILARITY]),
)
def test_sketched_and_streamed_ranks_agree_on_lattice_hulls(hull, pool, mode):
    poly, real = hull
    _, Z, S = _rows(poly, real, pool, mode)
    rank = _sketched_rank(S, Z, TOL)
    assert rank is None or rank == _streamed_rank(S, Z, TOL)
