"""Dimension-agnostic measurement primitives and alignment distance."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from polyrig.errors import DegenerateMeasurement
from polyrig.pointsets import (
    Angle,
    Coplanar,
    DiagonalAngle,
    Distance,
    MeasurementList,
    _cross,
    align_distance,
    diameter,
    measurement_gradient,
    measurement_value,
)

SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)


def test_basic_values():
    assert measurement_value(Distance(0, 2), SQUARE) == pytest.approx(np.sqrt(2))
    assert measurement_value(Angle(0, 1, 2), SQUARE) == pytest.approx(np.pi / 2)
    assert measurement_value(Angle(1, 0, 2), SQUARE) == pytest.approx(np.pi / 4)
    # the two diagonals of a square cross at a right angle
    assert measurement_value(DiagonalAngle(0, 2, 1, 3), SQUARE) == pytest.approx(
        np.pi / 2
    )
    # a side against the parallel opposite side
    assert measurement_value(DiagonalAngle(0, 1, 3, 2), SQUARE) == pytest.approx(0.0)


def test_coplanar_value_is_triple_product():
    pts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 2]],
        dtype=float,
    )
    assert measurement_value(Coplanar(0, 1, 2, 3), pts) == pytest.approx(2.0)
    flat = pts.copy()
    flat[3, 2] = 0.0
    flat[3, :2] = [0.3, 0.4]
    assert measurement_value(Coplanar(0, 1, 2, 3), flat) == pytest.approx(0.0)


def test_degenerate_measurements_raise():
    pts = SQUARE.copy()
    with pytest.raises(DegenerateMeasurement):
        measurement_value(Distance(0, 0), pts)
    collinear = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    # value of a straight angle is fine, its gradient is not
    assert measurement_value(Angle(0, 1, 2), collinear) == pytest.approx(np.pi)
    with pytest.raises(DegenerateMeasurement):
        measurement_gradient(Angle(0, 1, 2), collinear)


@pytest.mark.parametrize("dim", [2, 3])
def test_gradients_match_finite_differences(dim):
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(5, dim))
    # a mixed list with the primitives interleaved; DiagonalAngle(0, 1, 0, 2)
    # puts point 0 on both segments
    ms = [Distance(0, 3), Angle(1, 2, 4), DiagonalAngle(0, 1, 2, 3),
          DiagonalAngle(0, 1, 0, 2), Distance(4, 1)]
    if dim == 3:
        ms.append(Coplanar(0, 1, 2, 3))
    kernel = MeasurementList(ms)
    J = kernel.jacobian(pts)
    flat = pts.ravel()
    fd = np.zeros_like(J)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += 1e-6
        dn[i] -= 1e-6
        fd[:, i] = (
            kernel.values(up.reshape(pts.shape)) - kernel.values(dn.reshape(pts.shape))
        ) / 2e-6
    # the single-measurement views agree with the list
    for m, value, row, fd_row in zip(ms, kernel.values(pts), J, fd):
        assert np.abs(row - fd_row).max() < 1e-7, m
        assert measurement_value(m, pts) == pytest.approx(value)
        np.testing.assert_allclose(measurement_gradient(m, pts), row, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_values_over_batch_dimensions(dim):
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(3, 4, 5, dim))
    ms = [Distance(0, 3), Angle(1, 2, 4), DiagonalAngle(0, 1, 0, 2)]
    if dim == 3:
        ms.append(Coplanar(0, 1, 2, 3))
    kernel = MeasurementList(ms)
    vals = kernel.values(batch)
    assert vals.shape == (3, 4, len(ms))
    jac = kernel.jacobian(batch)
    assert jac.shape == (3, 4, len(ms), 5 * dim)
    for idx in np.ndindex(3, 4):
        np.testing.assert_allclose(vals[idx], kernel.values(batch[idx]), rtol=1e-15)
        # one scatter over (batch, owner, point) sums each entry's terms in
        # the order the unbatched call does
        assert np.array_equal(jac[idx], kernel.jacobian(batch[idx]))


def test_angle_gradient_invariant_to_translation_direction():
    # rows must sum to zero: sliding the whole configuration cannot
    # change any measurement
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 3))
    for m in (Distance(0, 1), Angle(0, 1, 2), DiagonalAngle(0, 1, 2, 3),
              Coplanar(0, 1, 2, 3)):
        g = measurement_gradient(m, pts).reshape(4, 3)
        assert np.abs(g.sum(axis=0)).max() < 1e-12


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


# two terms at one point: an angle's apex, a diagonal angle whose segments
# share an end; three: p of a coplanarity
SPARSE_CASES = [
    (
        2,
        [Distance(0, 3), Angle(1, 2, 4), DiagonalAngle(0, 5, 6, 2),
         DiagonalAngle(1, 3, 3, 6), Distance(6, 1), Angle(4, 0, 3)],
    ),
    (3, [Coplanar(0, 1, 2, 3), Distance(4, 5), Angle(1, 0, 5), Coplanar(5, 2, 3, 4)]),
    (2, []),
]


@pytest.mark.parametrize("dim, ms", SPARSE_CASES)
def test_sparse_jacobian_is_the_dense_one_bit_for_bit(dim, ms):
    P = np.random.default_rng(11).standard_normal((7, dim))
    kernel = MeasurementList(ms)
    S = kernel.sparse_jacobian(P)
    assert S.format == "csr" and S.has_canonical_format
    assert S.shape == (len(ms), 7 * dim)
    assert np.array_equal(_bits(S.toarray()), _bits(kernel.jacobian(P)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([2, 3]),
    st.lists(st.lists(st.integers(0, 5), min_size=4, max_size=4, unique=True), max_size=12),
    st.lists(st.sampled_from([Distance, Angle, DiagonalAngle, Coplanar]), min_size=12, max_size=12),
    st.integers(0, 2**32 - 1),
)
def test_sparse_jacobian_bits_on_random_lists(dim, ids, kinds, seed):
    arity = {Distance: 2, Angle: 3, DiagonalAngle: 4, Coplanar: 4}
    ms = [
        kind(*quad[: arity[kind]])
        for quad, kind in zip(ids, kinds)
        if kind is not Coplanar or dim == 3
    ]
    P = np.random.default_rng(seed).standard_normal((6, dim))
    kernel = MeasurementList(ms)
    assert np.array_equal(_bits(kernel.sparse_jacobian(P).toarray()), _bits(kernel.jacobian(P)))


def test_cross_is_numpys_bit_for_bit():
    rng = np.random.default_rng(3)
    for shape in [(5, 3), (4, 7, 3), (2, 3, 5, 3)]:
        u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)
        v = rng.standard_normal(shape)
        assert np.array_equal(_cross(u, v), np.cross(u, v))
        assert np.array_equal(_cross(u[:1], v), np.cross(u[:1], v))


def test_diameter():
    assert diameter(SQUARE) == pytest.approx(np.sqrt(2))


@pytest.mark.parametrize("dim", [2, 3])
def test_diameter_equals_brute_force(dim):
    rng = np.random.default_rng(dim)
    for n in (1, 2, 5, 300, 1500):
        pts = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-4, 4)
        d = pts[:, None, :] - pts[None, :, :]
        assert diameter(pts) == float(np.sqrt((d**2).sum(axis=2)).max())


def _diameter_sets():
    """Random 2D and 3D sets on both sides of the hull threshold: Gaussian,
    rounded to a coarse grid (ties, points on hull facets), flat (3D points
    on a plane, 2D points on a line, which qhull rejects), duplicated and
    at extreme scales."""
    rng = np.random.default_rng(7)
    for k in range(120):
        dim = 2 + k % 2
        n = int(rng.integers(200, 700))
        pts = rng.standard_normal((n, dim))
        kind = k % 6
        if kind == 1:
            pts = np.round(pts * 2.0) / 2.0
        elif kind == 2:
            pts[:, -1] = 0.5 * pts[:, 0] - 0.25
        elif kind == 3:
            pts = np.vstack([pts, pts[: n // 3]])
        elif kind == 4:
            pts = rng.uniform(-1.0, 1.0, (n, dim)) ** 3
        yield pts * 10.0 ** rng.uniform(-150, 150)


def test_hull_first_diameter_is_the_full_table_bit_for_bit():
    for pts in _diameter_sets():
        d = pts[:, None, :] - pts[None, :, :]
        assert diameter(pts) == float(np.sqrt((d**2).sum(axis=2).max()))


def test_diameter_memory_is_linear():
    pts = np.random.default_rng(0).standard_normal((4000, 3))
    tracemalloc.start()
    try:
        diameter(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_align_distance_rigid_and_mirror():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(6, 2))
    theta = 0.77
    R = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    moved = pts @ R.T + np.array([2.0, -1.0])
    assert align_distance(pts, moved) < 1e-12

    mirrored = pts * np.array([1.0, -1.0])
    assert align_distance(pts, mirrored) > 1e-3
    assert align_distance(pts, mirrored, allow_reflection=True) < 1e-12
