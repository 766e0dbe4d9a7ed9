"""Planar configurations: charts, first-order tests, maximization oracles,
staircase polygons, the twelve-measurement octagon."""

import numpy as np
import pytest
import scipy.optimize

from polyrig.errors import InfeasibleRadii, NotConvex
from polyrig.pointsets import (
    Angle,
    Distance,
    MeasurementList,
    align_distance,
    diameter,
    measurement_gradient,
    measurement_value,
)
from polyrig.polygon import (
    PointConfig2D,
    _free_columns,
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
