"""Planar configurations: charts, first-order tests, maximization oracles,
staircase polygons, the twelve-measurement octagon."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrig import polygon
from polyrig.cli import main
from polyrig.errors import DegenerateMeasurement, InfeasibleRadii, NotConvex, OracleInconclusive
from polyrig.pointsets import (
    Angle,
    Distance,
    MeasurementList,
    _unit,
    align_distance,
    diameter,
    measurement_gradient,
    measurement_value,
)
from polyrig.polygon import (
    GRID,
    PointConfig2D,
    _free_columns,
    _grid_max,
    _sqp_max,
    max_diagonal_oracle,
    octagon_distance_oracle,
    octagon_measurements,
    regular_polygon,
    right_angle_quad_oracle,
    square_angle_oracle,
    staircase_measurements,
    staircase_polygon,
    sufficiency2d,
)

from measurement_json import measurements_to_json
from reference_oracles import reference_search

SQUARE = PointConfig2D(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))


def test_chart_validation():
    with pytest.raises(ValueError):
        PointConfig2D(np.array([[0.5, 0.0], [1.0, 0.0]]))  # A_1 off origin
    with pytest.raises(ValueError):
        PointConfig2D(np.array([[0.0, 0.0], [1.0, 0.5]]))  # A_2 off axis
    with pytest.raises(ValueError):
        PointConfig2D(np.array([[0.0, 0.0], [-1.0, 0.0]]))  # x_2 <= 0
    with pytest.raises(ValueError):
        PointConfig2D(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    for shape in [(1, 2), (4, 3), (8,)]:
        with pytest.raises(ValueError, match=r"points must be \(n >= 2, 2\)"):
            PointConfig2D(np.zeros(shape))


def test_chart_form_slack_is_relative_to_the_size():
    """A_1 and A_2's y coordinate may be off zero by 1e-12 of the largest
    coordinate, and are stored at zero; -0.0 and 0.0 are one coordinate."""
    for scale in (1e-9, 1.0, 1e9):
        config = PointConfig2D(scale * np.array([[1e-13, 0.0], [1.0, -1e-13], [0.5, 1.0]]))
        assert config.points[0].tolist() == [0.0, 0.0] and config.points[1, 1] == 0.0
        with pytest.raises(ValueError, match="A_1 = "):
            PointConfig2D(scale * np.array([[1e-11, 0.0], [1.0, 0.0], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="A_2 = "):
            PointConfig2D(scale * np.array([[0.0, 0.0], [1.0, 1e-11], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="pairwise distinct"):
        PointConfig2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.5, -0.0]]))
    with pytest.raises(ValueError, match="pairwise distinct"):
        PointConfig2D(np.array([[0.0, 0.0], [1.0, 0.0], [-0.0, 0.0]]))
    fortran = np.asfortranarray([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    assert PointConfig2D(fortran).points.tolist() == fortran.tolist()


def test_from_points_accepts_every_scale():
    # random 5-point configurations: at 1e6 most were refused while the
    # chart-form test was absolute, by the rotation's rounding of A_2's y
    rng = np.random.default_rng(1)
    for _ in range(200):
        pts = rng.standard_normal((5, 2))
        for scale in (1e-6, 1e4, 1e6, 1e12):
            config = PointConfig2D.from_points(scale * pts)
            assert config.points[1, 1] == 0.0 and config.points[1, 0] > 0.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
def test_sufficiency2d_does_not_depend_on_the_unit_of_length(n, seed, u):
    """Random points, a random set of distances and angles on them (n - 1
    to all pairs, so both verdicts occur), scaled by 10^u: the report, and
    `polyrig check`'s exit code and stdout, equal those at unit scale."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.permutation(len(pairs))[: rng.integers(n - 1, len(pairs) + 1)]
    ms = [Distance(*pairs[c]) for c in chosen]
    ms += [Angle(*rng.permutation(n)[:3].tolist()) for _ in range(rng.integers(0, 3))]
    scaled = 10.0**u * pts
    unit = sufficiency2d(PointConfig2D.from_points(pts), ms)
    assert sufficiency2d(PointConfig2D.from_points(scaled), ms) == unit
    with tempfile.TemporaryDirectory() as tmp:
        ms_path = Path(tmp, "ms.json")
        ms_path.write_text(measurements_to_json(2, ms))
        outputs = []
        for points in (pts, scaled):
            cfg = Path(tmp, "cfg.json")
            cfg.write_text(json.dumps({"dim": 2, "points": points.tolist()}))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["check", str(cfg), "--measurements", str(ms_path)])
            outputs.append((code, out.getvalue()))
    assert outputs[0] == outputs[1] == ([1, 0][unit.sufficient], outputs[0][1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_are_rejected(bad):
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    square[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        PointConfig2D(square)
    with pytest.raises(ValueError, match="finite"):
        PointConfig2D.from_points(square + 0.5)


def test_from_points_normalizes_any_frame():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 2))
    theta = 1.234
    R = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    moved = pts @ R.T + np.array([3.0, -7.0])
    a = PointConfig2D.from_points(pts)
    b = PointConfig2D.from_points(moved)
    assert np.abs(a.points - b.points).max() < 1e-12


def test_square_measurement_values():
    assert measurement_value(Distance(1, 3), SQUARE.points) == pytest.approx(np.sqrt(2))
    assert measurement_value(Angle(0, 1, 2), SQUARE.points) == pytest.approx(np.pi / 2)
    assert measurement_value(Angle(1, 0, 2), SQUARE.points) == pytest.approx(np.pi / 4)


def test_gradient2d_matches_finite_differences():
    config = PointConfig2D.from_points(
        np.random.default_rng(7).normal(size=(5, 2))
    )
    free = np.flatnonzero(_free_columns(config.n))
    for m in (Distance(0, 3), Distance(2, 4), Angle(1, 2, 3), Angle(4, 0, 2)):
        g = measurement_gradient(m, config.points)[free]
        fd = np.zeros(free.size)
        for i, col in enumerate(free):
            up, dn = config.points.ravel().copy(), config.points.ravel().copy()
            up[col] += 1e-6
            dn[col] -= 1e-6
            fd[i] = (
                measurement_value(m, up.reshape(-1, 2))
                - measurement_value(m, dn.reshape(-1, 2))
            ) / 2e-6
        assert np.abs(g - fd).max() < 1e-7


def test_sufficiency2d_generic_configuration():
    rng = np.random.default_rng(1)
    config = PointConfig2D.from_points(rng.normal(size=(5, 2)))
    all_pairs = [Distance(i, j) for i in range(5) for j in range(i + 1, 5)]
    report = sufficiency2d(config, all_pairs)
    assert report.sufficient
    assert report.achieved_rank == report.target_rank == 7
    assert report.status == "sufficient"


def test_sufficiency2d_square_four_set_is_rank_deficient():
    # at the square the angle sits at its constrained maximum, so its
    # gradient is a combination of the three distance gradients (Lagrange)
    # and the rank drops all the way to 3
    ms = [Distance(0, 1), Distance(0, 2), Distance(0, 3), Angle(1, 2, 3)]
    report = sufficiency2d(SQUARE, ms)
    assert not report.sufficient
    assert report.achieved_rank == 3
    assert report.target_rank == 5
    assert "second-order" in report.status


# maximization oracles -------------------------------------------------------


def test_square_angle_oracle_unit():
    val, argmax = square_angle_oracle(1.0)
    assert val == pytest.approx(np.pi / 2, abs=1e-9)
    assert align_distance(SQUARE.points, argmax, allow_reflection=True) < 1e-6


def test_square_angle_oracle_scales():
    val, argmax = square_angle_oracle(2.5)
    assert val == pytest.approx(np.pi / 2, abs=1e-9)
    side = 2.5 * SQUARE.points
    assert align_distance(side, argmax, allow_reflection=True) < 1e-5
    with pytest.raises(ValueError):
        square_angle_oracle(0.0)


def test_right_angle_quad_oracle_square_case():
    val, argmax = right_angle_quad_oracle(1.0, 1.0, np.sqrt(2.0))
    assert val == pytest.approx(np.pi / 2, abs=1e-8)
    assert align_distance(SQUARE.points, argmax, allow_reflection=True) < 1e-5


@pytest.mark.parametrize("ab,ad,ac", [(1.0, 0.6, 2.0), (0.5, 0.8, 1.1)])
def test_right_angle_quad_oracle_forces_tangency(ab, ad, ac):
    from polyrig.pointsets import measurement_value

    _, argmax = right_angle_quad_oracle(ab, ad, ac)
    abc = measurement_value(Angle(0, 1, 2), argmax)
    adc = measurement_value(Angle(0, 3, 2), argmax)
    assert abc == pytest.approx(np.pi / 2, abs=1e-11)
    assert adc == pytest.approx(np.pi / 2, abs=1e-11)


def _oracle_draws(count=20):
    """Seeded parameters from the ranges of the benchmark's oracle cases,
    with each maximum in closed form: the square's right angle; both rays
    from C tangent to their circles; A and C at the tops of their arcs."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        d = rng.uniform(0.5, 2.0)
        ac = rng.uniform(1.5, 4.0)
        ab, ad = rng.uniform(0.3, 0.95, size=2) * ac
        bd = rng.uniform(0.5, 2.0)
        t1, t2 = rng.uniform(0.3, 1.4, size=2)
        yield (
            (square_angle_oracle, (d,), np.pi / 2),
            (right_angle_quad_oracle, (ab, ad, ac), np.arcsin(ab / ac) + np.arcsin(ad / ac)),
            (max_diagonal_oracle, (bd, t1, t2), bd / 2 * (1 / np.tan(t1 / 2) + 1 / np.tan(t2 / 2))),
        )


def test_grid_oracles_reach_the_closed_form_maxima():
    for draw in _oracle_draws():
        for oracle, args, want in draw:
            value, _ = oracle(*args)
            assert abs(value - want) <= 1e-14 * want, (oracle.__name__, args)


def test_oracles_never_call_scipy_minimize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    for draw in _oracle_draws(3):
        for oracle, args, want in draw:
            value, _ = oracle(*args)
            assert value == pytest.approx(want, rel=1e-14)
    report = octagon_distance_oracle(restarts=4, seed=0)
    assert abs(report.max_value - report.regular_value) < 1e-9


def test_right_angle_quad_oracle_feasibility():
    with pytest.raises(InfeasibleRadii):
        right_angle_quad_oracle(2.0, 1.0, 1.5)
    with pytest.raises(InfeasibleRadii):
        right_angle_quad_oracle(1.0, 1.5, 1.5)
    with pytest.raises(InfeasibleRadii):
        right_angle_quad_oracle(0.0, 1.0, 1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oracles_reject_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="d must be finite"):
        square_angle_oracle(bad)
    with pytest.raises(ValueError, match="ac must be finite"):
        right_angle_quad_oracle(1.0, 1.0, bad)
    with pytest.raises(ValueError, match="bd, theta2 must be finite"):
        max_diagonal_oracle(bad, 0.5, bad)


def test_max_diagonal_oracle_rhombus():
    from polyrig.pointsets import measurement_value

    theta = np.pi / 3
    val, argmax = max_diagonal_oracle(2.0, theta, theta)
    A, B, C, D = argmax
    sides = [
        np.linalg.norm(A - B),
        np.linalg.norm(B - C),
        np.linalg.norm(C - D),
        np.linalg.norm(D - A),
    ]
    assert np.ptp(sides) < 1e-8  # a rhombus
    assert abs((A - C) @ (B - D)) < 1e-8  # perpendicular diagonals
    assert measurement_value(Angle(3, 0, 1), argmax) == pytest.approx(theta)
    assert val == pytest.approx(np.linalg.norm(A - C))


def test_max_diagonal_oracle_asymmetric_tangency():
    _, argmax = max_diagonal_oracle(2.0, 0.6, 1.1)
    A, B, C, D = argmax
    assert np.linalg.norm(A - B) == pytest.approx(np.linalg.norm(A - D), abs=1e-8)
    assert np.linalg.norm(C - B) == pytest.approx(np.linalg.norm(C - D), abs=1e-8)
    assert abs(np.linalg.norm(A - B) - np.linalg.norm(C - B)) > 1e-3


def test_max_diagonal_oracle_scales_linearly():
    v1, _ = max_diagonal_oracle(2.0, 0.7, 0.9)
    v2, _ = max_diagonal_oracle(5.0, 0.7, 0.9)
    assert v2 == pytest.approx(2.5 * v1, rel=1e-9)
    with pytest.raises(ValueError):
        max_diagonal_oracle(-1.0, 0.7, 0.9)
    with pytest.raises(ValueError):
        max_diagonal_oracle(1.0, 1.7, 0.9)  # obtuse


def test_grid_oracles_do_not_depend_on_the_unit_of_length():
    """The grid oracles run at unit size, so that at every d = 10^k from
    1e-300 to 1e308, the last power of ten whose d sqrt(2) is a float, they
    return their d = 1 values (a length's times d) well within a second;
    max|AC| / bd at bd = 1e-20 once stopped 1.7e-4 short, on a gradient
    test that scaled with bd. |BD| is d / 4, so that max|AC|, about 2.4 |BD|,
    is a float too."""
    unit = (square_angle_oracle(1.0), right_angle_quad_oracle(0.6, 0.8, 1.5),
            max_diagonal_oracle(0.25, 0.7, 0.9))
    for k in range(-300, 309):
        d = 10.0 ** k
        scaled = (square_angle_oracle(d), right_angle_quad_oracle(0.6 * d, 0.8 * d, 1.5 * d),
                  max_diagonal_oracle(0.25 * d, 0.7, 0.9))
        for (v1, a1), (v, a), length in zip(unit, scaled, (1.0, 1.0, d)):
            assert v / length == pytest.approx(v1, rel=1e-12), k
            assert np.isfinite(a).all() and a / d == pytest.approx(a1, rel=1e-6, abs=1e-6), k



def test_grid_oracles_reach_the_top_of_the_float_range():
    """From 2**1023 (about 8.99e307) on, the search's unit is 2**1023, the
    largest power of two a float holds; it once overflowed to inf, the
    points divided by it were all 0, and both oracles raised
    DegenerateMeasurement."""
    value, argmax = square_angle_oracle(8e307)
    assert value == pytest.approx(np.pi / 2, abs=1e-15)
    assert np.isfinite(argmax).all()
    value, argmax = right_angle_quad_oracle(1e308, 1e308, 1.7e308)
    assert value == pytest.approx(2.0 * np.arcsin(1e308 / 1.7e308), rel=1e-14)
    assert np.isfinite(argmax).all()


@pytest.mark.parametrize(
    "oracle, args",
    [
        (square_angle_oracle, (1.7e308,)),  # |AC| = d sqrt(2) is inf
        (max_diagonal_oracle, (1.7e308, 0.1, 0.1)),  # both circle radii are inf
        (max_diagonal_oracle, (1e308, 1e-10, 1.0)),  # A's circle is inf
        (max_diagonal_oracle, (1.7e308, 1.0, 1.0)),  # max|AC| is inf
    ],
)
def test_grid_oracles_refuse_an_overflow(oracle, args):
    """A point, center or radius past the float range once sent the Newton
    iteration's step halving round forever on a NaN step; an inf maximum
    was returned, which no JSON can hold. Both raise ValueError."""
    with pytest.raises(ValueError, match="overflows the float range"):
        oracle(*args)


@pytest.mark.parametrize("oracle, args", [
    (square_angle_oracle, (1.3,)),
    (right_angle_quad_oracle, (0.6, 0.8, 1.1)),
    (max_diagonal_oracle, (2.0, 0.7, 1.1)),
], ids=["square", "right-quad", "max-diag"])
def test_the_grid_on_its_difference_vectors_is_the_materialized_grid(monkeypatch, oracle, args):
    """The oracle's grid pass, on difference vectors built by broadcasting,
    gives the bits of values on the (64, 64, n, 2) configurations written
    out point by point, the square's B = D cells (angle 0) among them."""
    calls, passes = [], []

    class Recording(MeasurementList):
        def _pass(self, D, order):
            out = super()._pass(D, order)
            if D.ndim == 4:
                passes.append(out[0])
            return out

    def recorded(*call):
        calls.append(call)
        return _grid_max(*call)

    monkeypatch.setattr(polygon, "_oracle_kernel", lambda measurement: Recording([measurement]))
    monkeypatch.setattr(polygon, "_grid_max", recorded)
    oracle(*args)
    (measurement, fixed, movers, grids), = calls
    rows, centers, radii = (np.array(x) for x in zip(*movers))
    unit = _unit(np.concatenate([fixed.ravel(), centers.ravel(), radii]))
    fixed, centers, radii = fixed / unit, centers / unit, radii / unit
    pts = np.array(np.broadcast_to(fixed, (GRID, GRID) + fixed.shape))
    for k, p in enumerate(grids):
        circle = centers[k] + radii[k] * np.stack([np.cos(p), np.sin(p)], axis=-1)
        pts[:, :, rows[k]] = circle[:, None] if k == 0 else circle[None, :]
    want = MeasurementList([measurement]).values(pts)
    assert want.shape == (GRID, GRID, 1) and passes[0].tobytes() == want.tobytes()
    if oracle is square_angle_oracle:
        assert not np.diagonal(want[..., 0]).any()  # B = D


def _same_bits(oracle, *args):
    with reference_search():
        want_value, want_argmax = oracle(*args)
    value, argmax = oracle(*args)
    assert type(value) is float and argmax.dtype == want_argmax.dtype
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes(), args
    assert argmax.tobytes() == want_argmax.tobytes(), args


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-6.0, 6.0))
def test_square_oracle_is_the_reference_bit_for_bit(u):
    _same_bits(square_angle_oracle, 10.0 ** u)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-6.0, 6.0), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_right_quad_oracle_is_the_reference_bit_for_bit(u, b, d):
    ac = 10.0 ** u
    _same_bits(right_angle_quad_oracle, b * ac, d * ac, ac)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-6.0, 6.0), st.floats(0.02, 1.55), st.floats(0.02, 1.55))
def test_max_diagonal_oracle_is_the_reference_bit_for_bit(u, theta1, theta2):
    _same_bits(max_diagonal_oracle, 10.0 ** u, theta1, theta2)


def test_interleaved_oracles_share_no_state():
    """Each oracle's kernel is compiled once and kept; calls of the three
    oracles in turn, at several sizes, each give the reference's bits, and
    the first call repeated last gives its first bits."""
    calls = [
        (square_angle_oracle, (1.0,)),
        (max_diagonal_oracle, (2.0, 0.7, 0.7)),
        (right_angle_quad_oracle, (1.0, 1.0, np.sqrt(2.0))),
        (square_angle_oracle, (3e-5,)),
        (right_angle_quad_oracle, (0.6e4, 0.8e4, 1.5e4)),
        (max_diagonal_oracle, (1e-3, 0.6, 1.1)),
        (square_angle_oracle, (7.0e5,)),
        (max_diagonal_oracle, (2.0, 0.7, 0.7)),
    ]
    first = square_angle_oracle(1.0)
    for oracle, args in calls:
        _same_bits(oracle, *args)
    again = square_angle_oracle(1.0)
    assert first[0] == again[0] and first[1].tobytes() == again[1].tobytes()


# the grid oracles' Newton derivatives on the movers -------------------------

GRID_KERNELS = {
    # measurement, mover rows: square and right-quad move B and D, max-diag A and C
    "angle": (Angle(1, 2, 3), (1, 3)),
    "distance": (Distance(0, 2), (0, 2)),
}


@pytest.mark.parametrize("measurement, rows", GRID_KERNELS.values(), ids=GRID_KERNELS.keys())
@pytest.mark.parametrize("seed", range(20))
def test_mover_derivatives_are_the_full_scatters_at_the_movers_bit_for_bit(measurement, rows, seed):
    """g and H on the movers' coordinates are the whole Jacobian's rows and
    the whole unit-weight Hessian's rows and columns of the movers, bit for
    bit, at random points of random sizes, and H keeps the strides of the
    fancy index, which einsum's order of summation follows."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((4, 2)) * 10.0 ** rng.uniform(-6, 6)
    kernel = polygon._oracle_kernel(measurement)
    _, G, hess, parallel = kernel._apply(P, 2)
    g, H = polygon._on_movers(polygon._mover_scatter(measurement, rows, 4), G, hess, parallel)
    want_g = kernel.assemble(polygon.Gradients(G, parallel, 4)).reshape(4, 2)[list(rows)]
    full = kernel._weigh(hess, np.ones(1), 4).reshape(4, 2, 4, 2)
    want_H = full[list(rows)][:, :, list(rows)]
    assert g.shape == want_g.shape and g.tobytes() == want_g.tobytes()
    assert H.shape == want_H.shape and H.tobytes() == want_H.tobytes()
    assert H.strides == want_H.strides
    assert np.einsum("ka,kalb,lb->kl", g, H, g).tobytes() == (
        np.einsum("ka,kalb,lb->kl", g, want_H, g).tobytes()
    )


def test_mover_derivatives_refuse_parallel_rays():
    """The movers' derivatives at parallel rays raise, as assemble does."""
    measurement, rows = GRID_KERNELS["angle"]
    P = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    _, G, hess, parallel = polygon._oracle_kernel(measurement)._apply(P, 2)
    with pytest.raises(DegenerateMeasurement, match="parallel rays"):
        polygon._on_movers(polygon._mover_scatter(measurement, rows, 4), G, hess, parallel)


@pytest.mark.parametrize("oracle, args", [
    (right_angle_quad_oracle, (2732.4078115899733, 1027.3924840197947, 3118.255597395882)),
    (max_diagonal_oracle, (2865.5469578386983, 0.8192701795075364, 1.0570007034784208)),
    (right_angle_quad_oracle, (15.873286244553166, 14.256463912363806, 19.98170237431697)),
], ids=["right-quad-2732", "max-diag-2865", "right-quad-15.9"])
def test_draws_that_follow_the_hessians_strides_are_the_reference(oracle, args):
    """Draws whose last bits change when einsum is handed the movers'
    Hessian C-contiguous, not in the fancy index's layout."""
    _same_bits(oracle, *args)


def test_grid_max_ends_on_a_non_finite_newton_step(monkeypatch):
    """A NaN gradient on the movers makes a step that is not finite, and
    the iteration ends there, at the grid's best point, at a size where
    that point is not the maximum."""
    monkeypatch.setattr(polygon, "NEWTON_MAXITER", 0)
    grid_value, grid_argmax = max_diagonal_oracle(2.0, 0.7, 1.1)
    monkeypatch.undo()
    value, _ = max_diagonal_oracle(2.0, 0.7, 1.1)
    assert value > grid_value

    def nan_gradient(*args):
        g, H = on_movers(*args)
        return np.full_like(g, np.nan), H

    on_movers = polygon._on_movers
    monkeypatch.setattr(polygon, "_on_movers", nan_gradient)
    value, argmax = max_diagonal_oracle(2.0, 0.7, 1.1)
    assert value == grid_value and np.array_equal(argmax, grid_argmax)


# staircase polygons ----------------------------------------------------------


def test_staircase_right_angles_quarter_pi():
    config = staircase_polygon(4, 1.0, [np.pi / 4, np.pi / 4])
    pts = config.points
    assert np.linalg.norm(pts[2] - pts[0]) == pytest.approx(np.sqrt(2.0))
    assert np.linalg.norm(pts[3] - pts[0]) == pytest.approx(2.0)
    # right angle at each A_k between A_1 and A_(k+1)
    for k in (1, 2):
        assert measurement_value(Angle(0, k, k + 1), config.points) == pytest.approx(np.pi / 2)
    # the measured apex angles reproduce the inputs
    for k in (2, 3):
        assert measurement_value(Angle(k - 1, k, 0), config.points) == pytest.approx(np.pi / 4)


def test_staircase_measurements_list():
    ms = staircase_measurements(4)
    assert ms == [Distance(0, 1), Distance(0, 3), Angle(1, 2, 0), Angle(2, 3, 0)]
    assert len(staircase_measurements(8)) == 8


def test_staircase_convexity_guard():
    # three shallow angles swing the fan past a straight angle at A_1
    with pytest.raises(NotConvex):
        staircase_polygon(5, 1.0, [0.3, 0.3, 0.3])


@pytest.mark.parametrize("u", range(-12, 13))
def test_staircase_convexity_at_any_base(u):
    """Each cross product is compared with 1e-12 times its two edges'
    lengths: at a fixed tolerance a convex staircase with base 1e-6 was
    refused as NotConvex, its cross products being of order base^2."""
    base = 10.0**u
    for angles in ([0.9, 1.2, 0.7, 1.0], [1.2, 1.3, 1.25, 1.2]):
        config = staircase_polygon(6, base, angles)
        assert np.allclose(config.points / base, staircase_polygon(6, 1.0, angles).points)
    with pytest.raises(NotConvex):
        staircase_polygon(5, base, [0.3, 0.3, 0.3])


def test_staircase_parameter_validation():
    with pytest.raises(ValueError):
        staircase_polygon(2, 1.0, [])
    with pytest.raises(ValueError):
        staircase_polygon(4, 1.0, [np.pi / 4])
    with pytest.raises(ValueError):
        staircase_polygon(4, 1.0, [np.pi / 4, np.pi / 2])
    with pytest.raises(ValueError):
        staircase_polygon(4, 0.0, [np.pi / 4, np.pi / 4])


def test_staircase_growth_law():
    # |A_1 A_(k+1)| = |A_1 A_k| / sin(alpha_k)
    angles = [1.2, 1.0, 1.3, 0.9]
    config = staircase_polygon(6, 2.0, angles)
    pts = config.points
    for k, alpha in enumerate(angles, start=1):
        a = np.linalg.norm(pts[k] - pts[0])
        b = np.linalg.norm(pts[k + 1] - pts[0])
        assert b == pytest.approx(a / np.sin(alpha), rel=1e-12)


# octagon ----------------------------------------------------------------------


def test_regular_polygon_sides_and_chart():
    config = regular_polygon(8, 1.0)
    pts = config.points
    assert pts.shape == (8, 2)
    for i in range(8):
        d = np.linalg.norm(pts[(i + 1) % 8] - pts[i])
        assert d == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pts[0]).max() == 0.0
    assert pts[1, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        regular_polygon(2)


def test_octagon_measurement_list():
    ms = octagon_measurements()
    assert len(ms) == 12
    assert ms[8:] == [Distance(0, 4), Distance(7, 5), Distance(1, 3), Distance(2, 6)]


def test_octagon_oracle_regular_is_maximal():
    report = octagon_distance_oracle(restarts=8, seed=0)
    assert report.constraint_residual < 1e-10
    assert abs(report.max_value - report.regular_value) < 1e-9
    assert report.linkage_angle_a5_a1_a8 == pytest.approx(
        3.0 * np.pi / 8.0, abs=1e-12
    )
    assert report.linkage_angle_a6_a5_a1 == pytest.approx(
        3.0 * np.pi / 8.0, abs=1e-12
    )
    reg = regular_polygon(8, 1.0).points
    assert align_distance(reg, report.maximizer, allow_reflection=True) < 1e-5


def test_octagon_oracle_counts_the_restarts_at_the_maximum():
    report = octagon_distance_oracle(restarts=24, seed=0)
    assert abs(report.max_value - report.regular_value) < 1e-9
    assert 12 <= report.restarts_at_max <= 24


@pytest.mark.parametrize("seed", range(20))
def test_three_restarts_reach_the_regular_octagon(seed):
    report = octagon_distance_oracle(restarts=3, seed=seed)
    assert abs(report.max_value - report.regular_value) < 1e-9


def test_a_dropped_linkage_refinement_is_inconclusive(monkeypatch):
    # the oracle's second SQP refines the linkage scan's best point; one
    # that reports no feasible point leaves the linkage angles unproved
    sqp = polygon._sqp_max
    calls = []

    def second_dropped(*args, **kwargs):
        points, residual = sqp(*args, **kwargs)
        calls.append(len(residual))
        return points, np.full_like(residual, np.inf) if len(calls) == 2 else residual

    monkeypatch.setattr(polygon, "_sqp_max", second_dropped)
    with pytest.raises(OracleInconclusive, match="the linkage scan's best point was dropped"):
        octagon_distance_oracle(restarts=3, seed=0)
    assert calls == [3, 1]


def test_sqp_restarts_do_not_couple():
    # the oracle's 24 starts at seed 0: each one run alone ends where it
    # ends in the batch, bit for bit
    reference = regular_polygon(8, 1.0).points
    kernel = MeasurementList(octagon_measurements())
    targets = kernel.values(reference)[:-1]
    diam = diameter(reference)
    starts = np.array([
        reference + 0.05 * diam * np.random.default_rng([0, i]).standard_normal(reference.shape)
        for i in range(24)
    ])
    points, residual = _sqp_max(kernel, targets, starts, max_step=diam)
    assert (residual <= 1e-10).sum() >= 12
    for i in range(24):
        alone, r = _sqp_max(kernel, targets, starts[i : i + 1], max_step=diam)
        assert np.array_equal(alone[0], points[i]), i
        assert r[0] == residual[i], i


@pytest.mark.parametrize("restarts", [24, 8])
def test_sqp_members_end_on_their_constraints(monkeypatch, restarts):
    # the Newton-KKT steps end on the constraints with no projection after
    # them: every kept member of the oracle's SQP, and its linkage
    # refinement, meets its constraints to 1e-13 at its final point, as
    # read from one values pass there
    sqp = polygon._sqp_max
    ends = []

    def recorded(kernel, targets, starts, max_step):
        points, residual = sqp(kernel, targets, starts, max_step)
        kept = np.isfinite(residual)
        ends.append(np.abs(kernel.values(points[kept])[:, :-1] - targets).max(axis=1))
        assert np.array_equal(ends[-1], residual[kept])
        return points, residual

    monkeypatch.setattr(polygon, "_sqp_max", recorded)
    for seed in range(20):
        ends.clear()
        octagon_distance_oracle(restarts=restarts, seed=seed)
        assert len(ends) == 2 and len(ends[1]) == 1, seed
        assert all(len(r) and r.max() <= 1e-13 for r in ends), (seed, ends)


def test_from_points_rejects_coincident_first_points():
    with pytest.raises(ValueError, match="A_1 and A_2 coincide"):
        PointConfig2D.from_points(np.array([[0.3, 0.4], [0.3, 0.4], [1.0, 1.0]]))


def test_grid_max_climbs_from_a_coarse_grid():
    """The square oracle's problem on a 2 x 2 grid far from the maximum:
    there H is not negative definite, so the iteration takes gradient
    steps, and halves those that overshoot, until Newton steps end at the
    unit square's right angle."""
    A = np.zeros(2)
    fixed = np.array([A, A, [np.sqrt(2.0), 0.0], A])
    grids = [np.array([-2.5, -2.0]), np.array([-1.5, -1.0])]
    value, argmax = _grid_max(Angle(1, 2, 3), fixed, [(1, A, 1.0), (3, A, 1.0)], grids)
    assert value == pytest.approx(np.pi / 2.0, abs=1e-15)
    corner = np.sqrt(0.5)
    expected = [[0.0, 0.0], [corner, corner], [np.sqrt(2.0), 0.0], [corner, -corner]]
    assert np.allclose(argmax, expected, rtol=0.0, atol=1e-7)


def test_sqp_drops_a_member_whose_kkt_system_is_singular():
    """Maximize |CD| with |AB| = |AC| = |AD| = 1. With B straight above A,
    |AB| has no gradient in the free chart coordinates, so that member's
    KKT matrix has a zero row and its solve is singular: it is dropped,
    with residual inf, while the same start turned by 0.3 rad reaches
    C and D opposite on the unit circle."""
    start = np.array(
        [[0.0, 0.0], [0.0, 1.0], [np.cos(0.4), np.sin(0.4)], [np.cos(2.0), np.sin(2.0)]])
    c, s = np.cos(0.3), np.sin(0.3)
    starts = np.array([start, start @ np.array([[c, s], [-s, c]])])
    kernel = MeasurementList([Distance(0, 1), Distance(0, 2), Distance(0, 3), Distance(2, 3)])
    points, residual = _sqp_max(kernel, kernel.values(start)[:-1], starts, max_step=2.0)
    assert residual[0] == np.inf
    assert residual[1] <= 1e-13
    assert kernel.values(points[1])[-1] == pytest.approx(2.0, abs=1e-12)
