"""Dimension-agnostic measurement primitives and alignment distance."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from polyrig import pointsets
from polyrig.errors import DegenerateMeasurement
from polyrig.generators import platonic
from polyrig.geometry import DihedralAngle, FaceAngle, build_pool, mesh_kernel
from polyrig.pointsets import (
    Angle,
    Coplanar,
    DiagonalAngle,
    Distance,
    MeasurementIds,
    MeasurementList,
    _Corner,
    _cross,
    _dot,
    _Hinge,
    _skew,
    _triple,
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


def _hessian_by_differences(kernel, pts, h=1e-6):
    """Central differences of the Jacobian, (..., size, n * dim, n * dim)."""
    *batch, n, dim = pts.shape
    flat = pts.reshape(*batch, n * dim)
    fd = np.zeros((*batch, kernel.size, n * dim, n * dim))
    for i in range(n * dim):
        up, dn = flat.copy(), flat.copy()
        up[..., i] += h
        dn[..., i] -= h
        up, dn = up.reshape(pts.shape), dn.reshape(pts.shape)
        fd[..., i] = (kernel.jacobian(up) - kernel.jacobian(dn)) / (2 * h)
    return fd


def _row_hessians(kernel, pts):
    """The Hessian of each row, (..., size, n * dim, n * dim): one
    weighted_hessian call over the rows as a batch, with one-hot weights."""
    pts = np.asarray(pts, dtype=float)
    *batch, n, dim = pts.shape
    size = kernel.size
    stack = np.broadcast_to(pts[..., None, :, :], (*batch, size, n, dim))
    return kernel.weighted_hessian(stack, np.broadcast_to(np.eye(size), (*batch, size, size)))


def _mixed_list(dim):
    # every primitive, DiagonalAngle(0, 1, 0, 2) with point 0 on both
    # segments, and in 3D two coplanarity rows, one sharing its p
    ms = [Distance(0, 3), Angle(1, 2, 4), DiagonalAngle(0, 1, 2, 3),
          DiagonalAngle(0, 1, 0, 2), Distance(4, 1), Angle(3, 0, 1)]
    if dim == 3:
        ms += [Coplanar(0, 1, 2, 3), Coplanar(0, 4, 1, 2)]
    return ms


@pytest.mark.parametrize("dim", [2, 3])
def test_hessian_matches_differences_of_the_jacobian(dim):
    pts = np.random.default_rng(23).normal(size=(5, dim))
    ms = _mixed_list(dim)
    kernel = MeasurementList(ms)
    H = _row_hessians(kernel, pts)
    assert H.shape == (len(ms), 5 * dim, 5 * dim)
    fd = _hessian_by_differences(kernel, pts)
    for m, row, fd_row in zip(ms, H, fd):
        assert np.abs(row - fd_row).max() < 1e-7 * max(1.0, np.abs(row).max()), m
        # every row is symmetric to the bit, and its own list agrees with it
        assert np.array_equal(row, row.T), m
        assert np.array_equal(_row_hessians(MeasurementList([m]), pts)[0], row), m


@pytest.mark.parametrize("dim", [2, 3])
def test_hessian_over_batch_dimensions(dim):
    batch = np.random.default_rng(29).normal(size=(2, 3, 5, dim))
    kernel = MeasurementList(_mixed_list(dim))
    H = _row_hessians(kernel, batch)
    assert H.shape == (2, 3, kernel.size, 5 * dim, 5 * dim)
    assert np.array_equal(H, H.swapaxes(-1, -2))
    assert np.abs(H - _hessian_by_differences(kernel, batch)).max() < 1e-7 * np.abs(H).max()
    # each member's terms are summed in the order of the unbatched call
    for idx in np.ndindex(2, 3):
        assert np.array_equal(H[idx], _row_hessians(kernel, batch[idx]))


@pytest.mark.parametrize("dim", [2, 3])
def test_weighted_hessian_is_the_weighted_sum_of_the_hessians(dim):
    rng = np.random.default_rng(37)
    batch = rng.normal(size=(2, 3, 5, dim))
    kernel = MeasurementList(_mixed_list(dim))
    w = rng.normal(size=(2, 3, kernel.size))
    H = kernel.weighted_hessian(batch, w)
    assert H.shape == (2, 3, 5 * dim, 5 * dim)
    assert np.array_equal(H, H.swapaxes(-1, -2))
    # central differences of the gradient w . J of the weighted sum
    flat = batch.reshape(2, 3, 5 * dim)
    fd = np.zeros_like(H)
    for i in range(5 * dim):
        up, dn = flat.copy(), flat.copy()
        up[..., i] += 1e-6
        dn[..., i] -= 1e-6
        wj_up, wj_dn = (
            (w[..., None] * kernel.jacobian(x.reshape(batch.shape))).sum(axis=-2) for x in (up, dn)
        )
        fd[..., i] = (wj_up - wj_dn) / 2e-6
    assert np.abs(H - fd).max() < 1e-7 * np.abs(H).max()
    # and linear in w: the one-hot Hessians, weighted and summed
    want = (w[..., None, None] * _row_hessians(kernel, batch)).sum(axis=-3)
    assert np.abs(H - want).max() <= 1e-14 * np.abs(want).max()
    for idx in np.ndindex(2, 3):
        one = kernel.weighted_hessian(batch[idx], w[idx])
        assert one.shape == (5 * dim, 5 * dim)
        assert np.array_equal(one, H[idx])
    assert MeasurementList([]).weighted_hessian(batch, np.zeros((2, 3, 0))).shape == H.shape


def test_hessian_of_a_dihedral_row():
    from polyrig.generators import platonic
    from polyrig.geometry import DihedralAngle, FaceAngle, FaceDistance, mesh_kernel

    poly, real = platonic("cube", 1.3)
    # off the cube, so that no hinge is square and no face stays planar
    verts = real.vertices + 0.1 * np.random.default_rng(31).normal(size=real.vertices.shape)
    ms = [DihedralAngle(f, g) for f, g in poly.adjacent_faces()[:4]]
    ms += [FaceDistance(0, 2), FaceAngle(1, 0, 2)]
    kernel = mesh_kernel(poly, ms)
    H = _row_hessians(kernel, verts)
    assert np.array_equal(H, H.swapaxes(-1, -2))
    fd = _hessian_by_differences(kernel, verts)
    assert np.abs(H - fd).max() < 1e-7 * np.abs(H).max()
    # a dihedral touches the four points of its hinge only
    touched = np.flatnonzero(np.abs(H[0]).reshape(8, 3, 8, 3).max(axis=(1, 2, 3)))
    assert len(touched) == 4


def test_hessian_raises_where_the_gradient_does():
    collinear = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    for m in (Angle(0, 1, 2), DiagonalAngle(0, 1, 1, 2)):
        with pytest.raises(DegenerateMeasurement, match="parallel rays"):
            MeasurementList([m]).jacobian(collinear)
        with pytest.raises(DegenerateMeasurement, match="parallel rays"):
            MeasurementList([m]).weighted_hessian(collinear, np.ones(1))
    for m in (Distance(0, 0), Angle(0, 0, 2)):
        with pytest.raises(DegenerateMeasurement, match="coincide"):
            MeasurementList([m]).jacobian(collinear)
        with pytest.raises(DegenerateMeasurement, match="coincide"):
            MeasurementList([m]).weighted_hessian(collinear, np.ones(1))


def test_evaluate_defers_parallel_rays_to_assembly():
    # a straight angle in the plane, and a dihedral whose face triangle is
    # flat (its cross product is zero): evaluate gives the values and
    # Gradients without a warning, and only assemble raises, for a batch
    # that holds such a point among others too
    poly, real = platonic("cube")
    flat = real.vertices.copy()
    flat[2] = 2.0 * flat[1] - flat[0]
    collinear = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    cases = [
        (MeasurementList([Angle(0, 1, 2), Distance(0, 2)]), collinear, SQUARE[:3]),
        (mesh_kernel(poly, [DihedralAngle(0, 2)]), flat, real.vertices),
    ]
    for kernel, P, fine in cases:
        batch = np.stack([fine, P])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, grads = kernel.evaluate(batch)
        assert values.tobytes() == kernel.values(batch).tobytes()
        assert grads.parallel.tolist() == [False, True]
        assert np.isfinite(grads.G).all()
        assert kernel.assemble(grads[[0]]).tobytes() == kernel.jacobian(fine[None]).tobytes()
        for call in (lambda: kernel.assemble(grads), lambda: kernel.assemble(grads[1]),
                     lambda: kernel.jacobian(P), lambda: kernel.sparse_jacobian(P)):
            with pytest.raises(DegenerateMeasurement, match="parallel rays"):
                call()


def test_hessian_of_an_empty_list():
    H = _row_hessians(MeasurementList([]), np.zeros((2, 4, 3)))
    assert H.shape == (2, 0, 12, 12)
    H = MeasurementList([]).weighted_hessian(np.zeros((2, 4, 3)), np.zeros((2, 0)))
    assert H.shape == (2, 12, 12) and not H.any()


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


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_sparse_jacobian_in_chunks_is_the_whole(monkeypatch, chunk):
    """sparse_jacobian takes its rows _CSR_CHUNK at a time: any chunk gives
    the CSR arrays of one chunk bit for bit, also where the rows of several
    primitives interleave and where a chunk ends inside a primitive's rows."""
    poly, real = platonic("cube")
    cases = [
        (MeasurementList(ms), np.random.default_rng(11).standard_normal((7, dim)))
        for dim, ms in SPARSE_CASES
    ]
    pool = build_pool(poly, "all") + [Coplanar(0, 1, 2, 3)] + build_pool(poly, "edges-only")
    cases.append((mesh_kernel(poly, pool), real.vertices))
    whole = [kernel.sparse_jacobian(P) for kernel, P in cases]
    monkeypatch.setattr(pointsets, "_CSR_CHUNK", chunk)
    for (kernel, P), S in zip(cases, whole):
        C = kernel.sparse_jacobian(P)
        assert np.array_equal(_bits(C.data), _bits(S.data))
        assert np.array_equal(C.indices, S.indices) and np.array_equal(C.indptr, S.indptr)
    # two points that coincide in the last chunk still raise
    P = np.random.default_rng(2).standard_normal((4, 3))
    with pytest.raises(DegenerateMeasurement, match="coincide"):
        MeasurementList([Distance(0, 1)] * 5 + [Distance(2, 2)]).sparse_jacobian(P)


def test_a_face_angle_pool_is_its_point_angles_bit_for_bit():
    """mesh_kernel takes a face-angle pool's ids (apex, end1, end2) as they
    are, as the layout _Corner: its CSR rows, values and dense Jacobian are
    those of the point list Angle(end1, apex, end2), bit for bit, and the
    compiled list holds the pool's id array itself."""
    poly, real = platonic("dodecahedron")
    pool = build_pool(poly, "face-angles")
    kernel = mesh_kernel(poly, pool)
    ids = pool.ids[FaceAngle][1]
    point = MeasurementList([Angle(i, j, k) for j, i, k in ids.tolist()])
    P = real.vertices + 0.05 * np.random.default_rng(4).standard_normal(real.vertices.shape)
    S, T = kernel.sparse_jacobian(P), point.sparse_jacobian(P)
    assert np.array_equal(_bits(S.data), _bits(T.data))
    assert np.array_equal(S.indices, T.indices) and np.array_equal(S.indptr, T.indptr)
    assert np.array_equal(_bits(kernel.values(P)), _bits(point.values(P)))
    assert np.array_equal(_bits(kernel.jacobian(P)), _bits(point.jacobian(P)))
    assert kernel.ids.ids[_Corner][1] is ids


def test_a_row_range_of_ids_is_a_view_of_the_slice():
    """MeasurementIds._span(a, b), the ids sparse_jacobian compiles a chunk
    from, holds the items of the slice [a:b], its fields read-only views of
    the parent's arrays: random ranges, and each range around a position
    where the type changes, of the cube's `all` pool, Coplanar rows and its
    edges (face distances again, after the other types)."""
    poly, _ = platonic("cube")
    side = MeasurementIds.of([Coplanar(0, 1, 2, 3), Coplanar(4, 5, 6, 7)], (Coplanar,), "side")
    ids = build_pool(poly, "all") + side + build_pool(poly, "edges-only")
    assert isinstance(ids, MeasurementIds)
    items = list(ids)
    turns = [t for t in range(1, len(items)) if type(items[t]) is not type(items[t - 1])]
    assert len(turns) >= 4
    rng = np.random.default_rng(5)
    spans = [sorted(map(int, ab)) for ab in rng.integers(0, len(items) + 1, (200, 2))]
    spans += [(t - d, t + e) for t in turns for d in (0, 1, 3) for e in (1, 2, 40)]
    for a, b in spans:
        view = ids._span(a, b)
        assert len(view) == min(b, len(items)) - a and list(view) == items[a:b]
        for kind, (rows, f) in view.ids.items():
            assert not rows.flags.writeable and not f.flags.writeable
            assert np.shares_memory(f, ids.ids[kind][1])


@pytest.mark.parametrize("chunk", [None, 1, 4])
def test_a_list_of_ids_is_the_list_of_its_items(monkeypatch, chunk):
    """MeasurementList(ids) and MeasurementList(list(ids)) give the same
    bits of values, jacobian and sparse_jacobian, whole and in chunks; so
    does a mesh kernel compiled again from the ids it keeps."""
    point_types = (Distance, Angle, DiagonalAngle, Coplanar)
    rng = np.random.default_rng(11)
    cases = [
        (MeasurementIds.of(ms, point_types, "point"), rng.standard_normal((7, dim)))
        for dim, ms in SPARSE_CASES
    ]
    if chunk:
        monkeypatch.setattr(pointsets, "_CSR_CHUNK", chunk)
    for ids, P in cases:
        assert isinstance(ids, MeasurementIds)
        a, b = MeasurementList(ids), MeasurementList(list(ids))
        assert a.ids is ids
        for f in (lambda k: k.values(P), lambda k: k.jacobian(P),
                  lambda k: k.sparse_jacobian(P).toarray()):
            assert np.array_equal(_bits(f(a)), _bits(f(b)))
    poly, real = platonic("cube")
    kernel = mesh_kernel(poly, build_pool(poly, "all"))
    again = MeasurementList(kernel.ids)
    X = real.vertices
    for f in (lambda k: k.values(X), lambda k: k.jacobian(X),
              lambda k: k.sparse_jacobian(X).toarray()):
        assert np.array_equal(_bits(f(kernel)), _bits(f(again)))


def _row_blocks(kernel: MeasurementList) -> list:
    """How each block of a compiled list writes its values: True through a
    slice of consecutive rows, False through an index array."""
    return [isinstance(block[-1], slice) for block in kernel._blocks]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([2, 3]),
    st.lists(st.lists(st.integers(0, 5), min_size=4, max_size=4, unique=True), max_size=12),
    st.lists(st.sampled_from([Distance, Angle, DiagonalAngle, Coplanar]), min_size=12, max_size=12),
    st.sampled_from([(), (3,), (2, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_values_are_the_values_of_evaluate_bit_for_bit(dim, ids, kinds, batch, seed):
    """values takes its numbers from the same primitive arithmetic as
    evaluate, in the list's order, on random lists of every point
    measurement type (Coplanar in 3D), on one point array and on batches."""
    arity = {Distance: 2, Angle: 3, DiagonalAngle: 4, Coplanar: 4}
    ms = [
        kind(*quad[: arity[kind]])
        for quad, kind in zip(ids, kinds)
        if kind is not Coplanar or dim == 3
    ]
    P = np.random.default_rng(seed).standard_normal(batch + (6, dim))
    kernel = MeasurementList(ms)
    values = kernel.values(P)
    assert values.shape == batch + (len(ms),)
    assert np.array_equal(_bits(values), _bits(kernel.evaluate(P)[0]))
    if not batch:
        for m, v in zip(ms, values):
            assert _bits(v) == _bits(np.float64(measurement_value(m, P)))


def test_mesh_values_are_the_values_of_evaluate_bit_for_bit():
    """The same on mesh rows: face distances, _Corner face angles and
    _Hinge dihedrals of geometry.mesh_kernel, once in blocks of consecutive
    rows (the `all` pool) and once with the face distances split around
    the other types and Coplanar rows, so that a block writes its values
    through an index array."""
    poly, real = platonic("dodecahedron")
    P = real.vertices + 0.05 * np.random.default_rng(6).standard_normal(real.vertices.shape)
    pool = build_pool(poly, "all")
    split = pool + [Coplanar(0, 1, 2, 3)] + build_pool(poly, "edges-only")
    for ms, slices in ((pool, [True, True, True]), (split, [False, True, True, True])):
        kernel = mesh_kernel(poly, ms)
        assert _row_blocks(kernel) == slices
        values = kernel.values(P)
        assert np.array_equal(_bits(values), _bits(kernel.evaluate(P)[0]))
        assert np.array_equal(_bits(values), _bits(kernel.values(P[None])[0]))


def test_blocks_of_interleaved_rows_keep_the_list_order():
    """An Angle and a DiagonalAngle share one primitive: their rows, mixed
    with Distance rows, make blocks that are not consecutive, and values,
    evaluate and each row's scalar value agree to the bit."""
    ms = [Angle(0, 1, 2), Distance(0, 3), DiagonalAngle(0, 2, 1, 3), Distance(1, 2),
          Angle(3, 0, 1), DiagonalAngle(3, 1, 2, 0)]
    kernel = MeasurementList(ms)
    assert _row_blocks(kernel) == [False, False]
    P = np.random.default_rng(8).standard_normal((5, 4, 2))
    values = kernel.values(P)
    assert np.array_equal(_bits(values), _bits(kernel.evaluate(P)[0]))
    for b in range(len(P)):
        for row, m in enumerate(ms):
            assert _bits(values[b, row]) == _bits(np.float64(measurement_value(m, P[b])))


@pytest.mark.parametrize("dim, ms", SPARSE_CASES[:2])
def test_residual_is_the_sliced_system_bit_for_bit(dim, ms):
    """residual(targets) gives, on the first len(targets) rows, the bits of
    values - targets and of the Jacobian rows that the sliced closures over
    evaluate and assemble gave, on any index of the Gradients, and the
    Jacobian of jacobian(points) on those rows."""
    kernel = MeasurementList(ms)
    P = np.random.default_rng(13).standard_normal((6, 7, dim))
    values, grads = kernel.evaluate(P)
    for m in (kernel.size - 1, kernel.size):
        targets = kernel.values(P[0])[:m] + 0.25
        evaluate, jacobian = kernel.residual(targets)
        r, data = evaluate(P)
        assert np.array_equal(_bits(r), _bits(values[:, :m] - targets))
        at = np.array([4, 1, 3])
        assert np.array_equal(_bits(jacobian(data[at])), _bits(kernel.assemble(grads[at])[:, :m]))
        assert np.array_equal(_bits(jacobian(data)), _bits(kernel.jacobian(P)[:, :m]))


def test_ids_read_every_item_as_take_does():
    """ids[i], ids[-i], slices and iteration read the items that take reads,
    each one the type and fields of its row, on the cube's `all` pool with
    Coplanar rows and its edges after it, where face distances come in two
    runs."""
    poly, _ = platonic("cube")
    side = MeasurementIds.of([Coplanar(0, 1, 2, 3), Coplanar(4, 5, 6, 7)], (Coplanar,), "side")
    ids = build_pool(poly, "all") + side + build_pool(poly, "edges-only")
    expected = [None] * len(ids)
    for kind, (rows, f) in ids.ids.items():
        for r, args in zip(rows.tolist(), f.tolist()):
            expected[r] = kind(*args)
    assert list(ids) == expected == ids.take(range(len(ids)))
    n = len(ids)
    for i in range(n):
        assert ids[i] == expected[i] == ids[i - n]
    assert ids[-1] == expected[-1] and ids[-1] == ids.take([n - 1])[0]
    for a, b, step in ((0, n, 1), (5, 40, 3), (n - 10, n + 5, 1), (30, 2, -4), (7, 7, 1)):
        assert ids[a:b:step] == expected[a:b:step] == ids.take(range(n)[a:b:step])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            ids[i]


def test_take_refuses_a_position_out_of_range():
    """take reads positions in [0, len) only: one outside raises the
    IndexError that indexing raises, where it once read None."""
    poly, _ = platonic("cube")
    pool = build_pool(poly, "face-distances")
    assert len(pool) == 24
    for positions in ([24, -1], [0, 24], [-1], [3, -25]):
        with pytest.raises(IndexError, match="^measurement index out of range$"):
            pool.take(positions)
    with pytest.raises(IndexError, match="^measurement index out of range$"):
        pool[24]
    with pytest.raises(IndexError, match="^measurement index out of range$"):
        MeasurementIds(0, {}).take([0])
    assert pool.take([]) == [] and pool.take([23, 0]) == [pool[-1], pool[-24]]


def test_ids_protocol_with_other_objects():
    """== and + against a non-sequence or a str give NotImplemented, so
    Python falls back to identity and raises TypeError; the repr names the
    count and the types."""
    poly, _ = platonic("tetrahedron")
    ids = build_pool(poly, "all")
    for other in (5, None, "ab"):
        assert ids.__eq__(other) is NotImplemented
        assert ids != other
        assert ids.__add__(other) is NotImplemented
        assert ids.__radd__(other) is NotImplemented
        with pytest.raises(TypeError):
            ids + other
        with pytest.raises(TypeError):
            other + ids
    assert ids == list(ids) and ids == tuple(ids)
    assert repr(ids) == (f"MeasurementIds({len(ids)} measurements: "
                         "FaceDistance, FaceAngle, DihedralAngle)")
    # ids of a type the list does not take are refused by their first item
    with pytest.raises(TypeError, match=r"not a point measurement: FaceDistance\(v=0, w=1\)"):
        MeasurementList(ids)


# A row-by-row scalar reference of the kernel at order 1: the documented
# formula of each primitive, in the kernel's operation order, on one
# measurement of one point array at a time. Inner products of one vector
# pair are np.dot, as the kernel's matmul rounds.


def _ref_cross(u, v):
    return np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _ref_norm(u):
    return np.sqrt(np.dot(u, u))


def _ref_angle(u, v, nu, nv):
    """The angle between u and v (lengths nu, nv), its gradients with
    respect to both, and whether they are parallel: there 1 stands in for s
    and both lengths."""
    s = abs(u[0] * v[1] - u[1] * v[0]) if len(u) == 2 else _ref_norm(_ref_cross(u, v))
    c = np.dot(u, v)
    theta = np.arctan2(s, c)
    parallel = bool(s <= 1e-14 * nu * nv)
    if parallel:
        s = nu = nv = 1.0
    du = (c * u / (nu * nu) - v) / s
    dv = (c * v / (nv * nv) - u) / s
    return theta, [du, dv], parallel


def _ref_row(kind, ids, P):
    """One measurement on one (n, dim) point array: value, the gradients of
    its difference vectors, their heads and tails, and whether rays are
    parallel."""
    if kind is Distance:
        heads, tails = [ids[0]], [ids[1]]
    elif kind is Angle:
        heads, tails = [ids[0], ids[2]], [ids[1], ids[1]]
    elif kind is _Corner:
        heads, tails = [ids[1], ids[2]], [ids[0], ids[0]]
    elif kind is DiagonalAngle:
        heads, tails = [ids[1], ids[3]], [ids[0], ids[2]]
    elif kind is Coplanar:
        heads, tails = list(ids[1:]), [ids[0]] * 3
    else:  # _Hinge (u, v, w, x)
        heads, tails = [ids[1], ids[2], ids[3], ids[0]], [ids[0], ids[0], ids[1], ids[1]]
    vecs = [P[h] - P[t] for h, t in zip(heads, tails)]
    lens = [_ref_norm(d) for d in vecs]
    parallel = False
    if kind is Distance:
        value, grads = lens[0], [vecs[0] / lens[0]]
    elif kind is Coplanar:
        a, b, c = vecs
        value, grads = np.dot(a, _ref_cross(b, c)), [_ref_cross(b, c), _ref_cross(c, a),
                                                    _ref_cross(a, b)]
    elif kind is _Hinge:
        a, b, c, d = vecs
        n, m = _ref_cross(a, b), _ref_cross(c, d)
        value, (gn, gm), parallel = _ref_angle(n, m, _ref_norm(n), _ref_norm(m))
        grads = [_ref_cross(b, gn), _ref_cross(gn, a), _ref_cross(d, gm), _ref_cross(gm, c)]
    else:
        value, grads, parallel = _ref_angle(*vecs, *lens)
    return value, grads, heads, tails, parallel


def _kernel_bit_lists():
    """Lists of every primitive on 7 points, 2D and 3D, with random ids."""
    rng = np.random.default_rng(23)
    lists = []
    for dim in (2, 3):
        ids = {kind: rng.permuted(np.tile(np.arange(7), (6, 1)), axis=1)[:, :width]
               for kind, width in [(Distance, 2), (Angle, 3), (_Corner, 3), (DiagonalAngle, 4),
                                   (Coplanar, 4), (_Hinge, 4)]
               if dim == 3 or kind not in (Coplanar, _Hinge)}
        kinds = rng.permutation([kind for kind in ids for _ in range(6)])
        rows = {kind: np.flatnonzero(kinds == kind) for kind in ids}
        lists.append((dim, MeasurementList(MeasurementIds(len(kinds), {
            kind: (rows[kind], ids[kind]) for kind in ids}))))
    return lists


@pytest.mark.parametrize("dim, kernel", _kernel_bit_lists(), ids=["2d", "3d"])
def test_kernel_is_its_scalar_reference_bit_for_bit(dim, kernel):
    """evaluate's values and gradients, and assemble's Jacobian, equal the
    scalar reference on a random batch, bit for bit. Member 0 has its points
    on a line with integer coordinates, so every angle's rays are parallel
    and evaluate gives the stand-ins; in 3D member 1 has them in a plane,
    so every dihedral's normals are parallel."""
    rng = np.random.default_rng(dim)
    P = rng.standard_normal((9, 7, dim))
    P[0] = np.arange(1, 8)[:, None] * np.arange(1, dim + 1)
    if dim == 3:
        P[1, :, 2] = 0.0
    values, grads = kernel.evaluate(P)
    owners = kernel._owners
    ref_parallel = np.zeros(len(P), dtype=bool)
    keep = []
    for b, pts in enumerate(P):
        J = np.zeros((kernel.size, 7, dim))
        for row in range(kernel.size):
            kind, ids = next((kind, f[rows == row][0]) for kind, (rows, f)
                             in kernel.ids.ids.items() if (rows == row).any())
            value, g, heads, tails, parallel = _ref_row(kind, ids, pts)
            ref_parallel[b] |= parallel
            assert _bits(values[b, row]) == _bits(np.float64(value)), (b, row)
            at = np.flatnonzero(owners == row)
            assert np.array_equal(_bits(grads.G[b, at]), _bits(np.array(g))), (b, row)
            for h, gt in zip(heads, g):
                J[row, h] += gt
            for t, gt in zip(tails, g):
                J[row, t] += -gt
        keep.append(J.reshape(kernel.size, 7 * dim))
    assert ref_parallel[0] and ref_parallel[1] == (dim == 3)
    assert np.array_equal(grads.parallel, ref_parallel)
    ok = np.flatnonzero(~ref_parallel)
    assert np.array_equal(_bits(kernel.assemble(grads[ok])), _bits(np.array(keep)[ok]))


def _signed_zeros(rng, shape):
    """Normal entries of spread magnitudes, a third of them +0 or -0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)
    return np.where(rng.random(shape) < 1 / 3, np.copysign(0.0, x), x)


def test_cross_is_numpys_bit_for_bit():
    """On batched, broadcast and strided inputs; zero entries of either
    sign make products and differences of +0 and -0."""
    rng = np.random.default_rng(3)
    u, v = _signed_zeros(rng, 3), _signed_zeros(rng, 3)
    assert np.array_equal(_bits(_cross(u, v)), _bits(np.cross(u, v)))
    for shape in [(5, 3), (4, 7, 3), (2, 3, 5, 3)]:
        u, v = _signed_zeros(rng, shape), _signed_zeros(rng, shape)
        assert np.array_equal(_bits(_cross(u, v)), _bits(np.cross(u, v)))
        assert np.array_equal(_bits(_cross(u[:1], v)), _bits(np.cross(u[:1], v)))
        assert np.array_equal(_bits(_cross(u[0], v)), _bits(np.cross(u[0], v)))
    # strided: every other row, a transposed block, a reversed axis, every
    # other coordinate
    u, v, w = _signed_zeros(rng, (8, 6, 3)), _signed_zeros(rng, (6, 8, 3)), _signed_zeros(rng, (8, 6, 6))
    for a, b in [(u[::2], v.swapaxes(0, 1)[::2]), (u, v.swapaxes(0, 1)),
                 (u[:, ::-1], v[::-1].swapaxes(0, 1)), (w[..., ::2], u)]:
        assert not a.flags.c_contiguous or not b.flags.c_contiguous
        assert np.array_equal(_bits(_cross(a, b)), _bits(np.cross(a, b)))


def _rolled_triple(V, L, order):
    """The triple-product primitive with its gradients from np.roll of the
    vector axis and np.cross, the formulation _triple reproduces."""
    a, b, c = (V[..., t, :, :] for t in range(3))
    if not order:
        return _dot(a, np.cross(b, c)), None, None, None
    G = np.cross(np.roll(V, -1, axis=-3), np.roll(V, -2, axis=-3))
    value = _dot(a, G[..., 0, :, :])
    if order == 1:
        return value, G, None, None
    ka, kb, kc = _skew(a), _skew(b), _skew(c)
    zero = np.zeros_like(ka)
    hess = np.stack([
        np.stack([zero, -kc, kb], axis=-4),
        np.stack([kc, zero, -ka], axis=-4),
        np.stack([-kb, ka, zero], axis=-4),
    ], axis=-5)
    return value, G, hess, None


@pytest.mark.parametrize("order", [0, 1, 2])
def test_triple_is_its_rolled_formulation_bit_for_bit(order):
    rng = np.random.default_rng(order)
    for V in [_signed_zeros(rng, (3, 6, 3)), _signed_zeros(rng, (10, 3, 6, 3)),
              _signed_zeros(rng, (4, 3, 12, 3))[..., ::2, :]]:
        L = np.sqrt((V ** 2).sum(axis=-1))
        for got, want in zip(_triple(V, L, order), _rolled_triple(V, L, order)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


def test_diameter():
    assert diameter(SQUARE) == pytest.approx(np.sqrt(2))


def test_unit_stops_at_the_largest_power_of_two():
    """The unit is the power of two just above the largest entry, and at
    most 2**1023: from there on the largest entries land in [1, 2), where
    the unit once overflowed to inf and diameter([[0, 0], [1e308, 0]]) was
    nan."""
    assert pointsets._unit(np.array([0.75, -3.0])) == 4.0
    assert pointsets._unit(np.array([2.0**1022])) == 2.0**1023
    for top in (2.0**1023, 1e308, np.finfo(float).max):
        unit = pointsets._unit(np.array([0.0, -top]))
        assert unit == 2.0**1023 and 1.0 <= top / unit < 2.0
    assert diameter(np.array([[0.0, 0.0], [1e308, 0.0]])) == 1e308


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
