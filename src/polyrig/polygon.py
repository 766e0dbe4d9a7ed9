"""Planar point configurations: measurements, first-order sufficiency, and
the exceptional-polygon oracles.

A configuration of n labeled points, considered up to rigid motion, is
charted by pinning A_1 at the origin and A_2 on the positive x-axis,
leaving the free coordinates (x_2, x_3, y_3, ..., x_n, y_n) in R^(2n-3).
A measurement set is first-order sufficient when its gradient rows span
that space. Some determining sets are invisible to this rank test because
they pin the configuration only at second order; those are handled by
maximization oracles (a measured value sits at an extremum over the
remaining constraint variety) and by restart-based witness searches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleRadii, NotConvex, OracleInconclusive
from ._nlsq import _solve, lm_solve
from .pointsets import (
    Angle,
    DiagonalAngle,
    Distance,
    Gradients,
    MeasurementList,
    SimpleMeasurement,
    _SIGNS,
    _dot,
    _norm,
    _refuse_parallel,
    _unit,
    diameter,
    measurement_value,
)
from .rigidity import DEFAULT_TOL_REL, RESIDUAL_TOL, _perturbed_starts, numeric_rank

GRID = 64  # grid points per angular parameter when seeding an oracle
NEWTON_GTOL = 1e-13  # |gradient|_inf at which an oracle's Newton iteration stops
NEWTON_MAXITER = 800
FLOOR_ULPS = 4  # a fall of f this many ulp or less is rounding, not a worse point


@dataclass(frozen=True)
class PointConfig2D:
    """n labeled points in chart form: A_1 = (0,0), A_2 = (x_2, 0), x_2 > 0.

    A_1 and A_2's y coordinate may be off zero by 1e-12 times the largest
    absolute coordinate, the rounding that from_points' rotation leaves at
    any scale; the stored points hold them at exactly zero. The points must
    be finite and pairwise distinct, with -0.0 equal to 0.0.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError(f"points must be (n >= 2, 2), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        slack = 1e-12 * np.abs(pts).max()
        if np.abs(pts[0]).max() > slack:
            raise ValueError("chart form requires A_1 = (0, 0)")
        if abs(pts[1, 1]) > slack or pts[1, 0] <= 0:
            raise ValueError("chart form requires A_2 = (x_2, 0) with x_2 > 0")
        # each row as one complex number: a 1-D unique, where -0.0 == 0.0
        if len(np.unique(pts.view(complex))) < len(pts):
            raise ValueError("points must be pairwise distinct")
        pts[0] = 0.0
        pts[1, 1] = 0.0
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @staticmethod
    def from_points(points: np.ndarray) -> "PointConfig2D":
        """Chart-normalize an arbitrary labeled configuration by the proper
        rigid motion taking A_1 to the origin and A_2 onto the +x axis."""
        pts = np.asarray(points, dtype=float)
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        shifted = pts - pts[0]
        r = np.linalg.norm(shifted[1])
        if r <= 0.0:
            raise ValueError("A_1 and A_2 coincide")
        c, s = shifted[1] / r
        rot = np.array([[c, s], [-s, c]])
        return PointConfig2D(shifted @ rot.T)


def _free_columns(n: int) -> np.ndarray:
    """Mask of the columns of an n-point Jacobian that belong to the free
    chart coordinates (x_2, x_3, y_3, ..., x_n, y_n)."""
    mask = np.ones(2 * n, dtype=bool)
    mask[[0, 1, 3]] = False
    return mask


@dataclass(frozen=True)
class Sufficiency2DReport:
    point_count: int
    achieved_rank: int
    target_rank: int
    sufficient: bool
    status: str
    tolerance_used: float


def sufficiency2d(
    config: PointConfig2D,
    measurements: Sequence[SimpleMeasurement],
    tol_rel: float = DEFAULT_TOL_REL,
) -> Sufficiency2DReport:
    """First-order sufficiency: do the gradient rows span R^(2n-3)?

    The gradient rows, at unit diameter on the free chart columns, form one
    sparse matrix, a few nonzeros per row, and numeric_rank proves full
    rank from one sparse factorization of its Gram matrix when it can, so a
    sufficient set takes no SVD. The unit of length enters the verdict only
    through rounding. A point id outside the configuration raises
    ValueError naming its measurement.
    A deficient rank does not refute determination; sets that pin the
    configuration at second order (the square's four measurements, say)
    land here as "candidate for second-order determination" and are
    settled by oracles or witness searches instead.
    """
    scaled = config.points / diameter(config.points)
    rows = MeasurementList(measurements).sparse_jacobian(scaled)[:, _free_columns(config.n)]
    rank = numeric_rank(rows, tol_rel)
    target = 2 * config.n - 3
    sufficient = rank == target
    status = (
        "sufficient"
        if sufficient
        else "not first-order sufficient; candidate for second-order determination"
    )
    return Sufficiency2DReport(
        point_count=config.n,
        achieved_rank=rank,
        target_rank=target,
        sufficient=sufficient,
        status=status,
        tolerance_used=tol_rel,
    )


# --- maximization oracles -------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _oracle_kernel(measurement: SimpleMeasurement) -> MeasurementList:
    """The one-measurement kernel of an oracle, compiled once per
    measurement. A grid oracle never builds its Jacobian cells: its Newton
    derivatives come from _mover_scatter, compiled once per measurement,
    mover rows and point count."""
    return MeasurementList([measurement])


@functools.lru_cache(maxsize=8)
def _mover_scatter(measurement: SimpleMeasurement, rows: tuple[int, ...], n: int) -> tuple:
    """The scatters of _on_movers for the oracle kernel of `measurement` on
    n points, of which those in `rows` move, compiled once per (measurement,
    rows, n); no result is kept. Of the terms that assemble and _weigh
    scatter, only those that land on a coordinate of a mover are kept, in
    their order, each with the cell of the movers' coordinates it enters:
    (movers, (g_terms, g_cells), (h_terms, h_signs, h_cells)), g_terms
    indexing assemble's terms, h_terms the Hessian blocks' entries one
    after another, and h_signs the sign _weigh gives each."""
    kernel = _oracle_kernel(measurement)
    M = 2 * len(rows)
    local = np.full(2 * n, -1)
    local[(2 * np.array(rows))[:, None] + [0, 1]] = np.arange(M).reshape(-1, 2)
    cells = local[(2 * kernel._cells(n))[:, None] + [0, 1]].ravel()
    g_terms = np.flatnonzero(cells >= 0)
    _, hess_cells = kernel._hessian_scatter(n, 2)
    left, right = (local[c] for c in np.divmod(hess_cells, 2 * n))
    h_terms = np.flatnonzero((left >= 0) & (right >= 0))
    block, h_at = np.divmod(h_terms, len(hess_cells) // 4)
    h_cells = (M * left + right)[h_terms]
    return len(rows), (g_terms, cells[g_terms]), (h_at, _SIGNS.ravel()[block], h_cells)


def _on_movers(
    scatter: tuple, G: np.ndarray, hess: list, parallel: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The gradient and Hessian of an oracle kernel's measurement with
    respect to the m movers' coordinates, shapes (m, 2) and (m, 2, m, 2),
    from one order-2 pass's G, hess and parallel on an (n, 2) point array
    and the movers' _mover_scatter: assemble's Jacobian reshaped to (n, 2)
    at the movers' rows, and _weigh's unit-weight Hessian reshaped to
    (n, 2, n, 2) at their rows and columns, bit for bit. A bincount sums
    each cell's terms in their order, so leaving out the terms of other
    cells moves no bit; the Hessian also keeps the strides the fancy index
    [rows][:, :, rows] gives, as einsum's order of summation follows them.
    Parallel rays raise DegenerateMeasurement."""
    _refuse_parallel(parallel)
    m, (g_terms, g_cells), (h_terms, h_signs, h_cells) = scatter
    grad = np.bincount(g_cells, np.concatenate([G, -G]).ravel()[g_terms], minlength=2 * m)
    terms = np.concatenate([h.ravel() for h in hess])[h_terms] * h_signs
    H = np.bincount(h_cells, terms, minlength=4 * m * m).reshape(2 * m, 2 * m)
    movers = np.arange(m)
    return grad.reshape(m, 2), ((H + H.T) / 2).reshape(m, 2, m, 2)[movers][:, :, movers]


def _grid_max(
    measurement: SimpleMeasurement,
    fixed: np.ndarray,
    movers: Sequence[tuple[int, np.ndarray, float]],
    grids: Sequence[np.ndarray],
) -> tuple[float, np.ndarray]:
    """Maximize one measurement while two points move on circles.

    `fixed` holds every point (a mover's row is a placeholder); mover k,
    (row, center, radius), puts center + radius (cos p_k, sin p_k) in that
    row. The whole grid over (p_0, p_1) takes one kernel pass on its
    difference vectors, each point(head) - point(tail) with a point fixed
    or its mover's circle along the mover's own axis, broadcast and
    written one coordinate at a time, so no configuration array of the
    grid is formed; its first maximum in row-major order starts a damped
    Newton iteration on p. Each point the iteration evaluates takes one
    order-2 kernel pass, whose value decides the line search. Only at a
    point the iteration accepts are f's gradient and 2 x 2 Hessian
    assembled from that pass, by the chain rule: with x(p) the movers'
    points, g = (dm/dx) x' and H = x'^T (d2m/dx2) x' + diag((dm/dx) x'').
    dm/dx and d2m/dx2 are scattered onto the movers' coordinates alone
    (_on_movers), with the bits of the whole Jacobian's and Hessian's
    entries there; the Hessian keeps the layout that indexing the whole
    one gives, since einsum's order of summation follows its operands'
    strides. Parallel rays at a trial point raise DegenerateMeasurement
    only then. Each step is -H^-1 g where H is negative definite and g
    elsewhere, and is halved until f does not fall. The iteration stops at |g|_inf <= NEWTON_GTOL, when a
    step makes f fall by at most FLOOR_ULPS ulp (f is then at its rounding
    floor, where halving only repeats the fall), when no halving keeps f
    from falling or a step is not finite, or after NEWTON_MAXITER steps. It
    all runs at unit size: the points, centers and radii are divided by the
    power of two just above their largest absolute value, so that the stop
    at NEWTON_GTOL does not depend on the unit of length, and no square
    overflows or underflows. Returns (max value, argmax points), scaled
    back; a point, center or radius, or the result, that overflows the
    float range raises ValueError.
    """
    kernel = _oracle_kernel(measurement)
    rows, centers, radii = zip(*movers)
    n = len(fixed)
    scatter = _mover_scatter(measurement, rows, n)
    rows, centers, radii = np.array(rows), np.array(centers), np.array(radii)
    given = np.concatenate([fixed.ravel(), centers.ravel(), radii])
    if not np.isfinite(given).all():
        raise ValueError("a point, center or radius of the oracle overflows the float range")
    unit = _unit(given)
    fixed, centers, radii = fixed / unit, centers / unit, radii / unit
    scale = unit if isinstance(measurement, Distance) else 1.0  # the value's unit

    def at(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        # the movers' arms r (cos p, sin p), the points, and the order-2 pass there
        arm = radii[:, None] * np.stack([np.cos(p), np.sin(p)], axis=-1)
        pts = fixed.copy()
        pts[rows] = centers + arm
        return arm, pts, kernel._apply(pts, 2)

    def derivatives(
        arm: np.ndarray, G: np.ndarray, hess: list, parallel: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        # g and H from an order-2 pass's G, hess and parallel where the movers'
        # arms are arm: x' = r (-sin p, cos p) and x'' = -r (cos p, sin p)
        tangent = arm[:, ::-1] * [-1.0, 1.0]
        grad, hess = _on_movers(scatter, G, hess, parallel)
        H = np.einsum("ka,kalb,lb->kl", tangent, hess, tangent)
        H -= np.diag((grad * arm).sum(axis=1))
        return (grad * tangent).sum(axis=1), H

    def result(f: float, pts: np.ndarray) -> tuple[float, np.ndarray]:
        with np.errstate(over="ignore"):
            value, argmax = float(f) * scale, pts * unit
        if not (np.isfinite(value) and np.isfinite(argmax).all()):
            raise ValueError("the oracle's maximum or its argmax overflows the float range")
        return value, argmax

    # the grid's difference vectors point(head) - point(tail), a point fixed
    # or its mover's circle along the mover's own axis, broadcast
    p0, p1 = grids
    point = list(fixed)
    for k, axis in enumerate(grids):
        circle = centers[k] + radii[k] * np.stack([np.cos(axis), np.sin(axis)], axis=-1)
        point[rows[k]] = circle[:, None] if k == 0 else circle[None]
    D = np.empty((len(p0), len(p1), len(kernel._heads), 2))
    for v, (head, tail) in enumerate(zip(kernel._heads, kernel._tails)):
        for d in range(2):
            np.subtract(point[head][..., d], point[tail][..., d], out=D[:, :, v, d])
    i, j = divmod(int(np.argmax(kernel._pass(D, 0)[0])), len(p1))
    p = np.array([p0[i], p1[j]])
    arm, pts, (vals, *second) = at(p)
    f = vals[0]
    for _ in range(NEWTON_MAXITER):
        g, H = derivatives(arm, *second)
        if np.abs(g).max() <= NEWTON_GTOL:
            break
        det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
        if H[0, 0] < 0.0 and det > 0.0:
            step = np.array([H[0, 1] * g[1] - H[1, 1] * g[0],
                             H[1, 0] * g[0] - H[0, 0] * g[1]]) / det
        else:
            step = g
        while True:
            q = p + step
            if (q == p).all() or not np.isfinite(q).all():
                return result(f, pts)
            q_arm, q_pts, (q_vals, *q_second) = at(q)
            if q_vals[0] >= f:
                break
            if f - q_vals[0] <= FLOOR_ULPS * np.spacing(f):
                return result(f, pts)  # f is at its rounding floor
            step = step / 2.0
        p, f, arm, pts, second = q, q_vals[0], q_arm, q_pts, q_second
    return result(f, pts)


def _require_finite(**params: float) -> None:
    bad = [name for name, value in params.items() if not np.isfinite(value)]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")


def square_angle_oracle(d: float) -> tuple[float, np.ndarray]:
    """Maximize the angle B'C'D' over all configurations with
    |A'B'| = |A'D'| = d and |A'C'| = d sqrt(2).

    The maximum is the right angle, attained exactly at the side-d square;
    that extremality is what makes the square's four measurements
    determining despite their rank deficiency. Dense grid over the two
    circle parameters, then gradient refinement. Returns (maxAngle, argmax)
    with argmax rows (A, B, C, D).
    """
    _require_finite(d=d)
    if d <= 0:
        raise ValueError("d must be positive")
    A = np.zeros(2)
    with np.errstate(over="ignore"):  # _grid_max refuses a point that overflows
        fixed = np.array([A, A, [d * np.sqrt(2.0), 0.0], A])
    # the grid includes B = D, where the angle is 0 and so never the maximum
    grid = np.linspace(-np.pi, np.pi, GRID, endpoint=False)
    return _grid_max(Angle(1, 2, 3), fixed, [(1, A, d), (3, A, d)], [grid, grid])


def right_angle_quad_oracle(
    ab: float, ad: float, ac: float
) -> tuple[float, np.ndarray]:
    """Maximize angle BCD with |AC| = ac fixed, B on the circle of radius ab
    about A, D on the circle of radius ad, B and D on opposite sides of AC.

    At the maximum both rays CB, CD are tangent to their circles, which
    forces the right angles ABC = ADC = pi/2: the tangency quadrilateral is
    determined by four measurements although its rank test is deficient.
    """
    _require_finite(ab=ab, ad=ad, ac=ac)
    if not (0 < ab < ac) or not (0 < ad < ac):
        raise InfeasibleRadii(
            f"need 0 < |AB| < |AC| and 0 < |AD| < |AC|, got {ab}, {ad}, {ac}"
        )
    A = np.zeros(2)
    fixed = np.array([A, A, [ac, 0.0], A])
    lo = np.linspace(-np.pi, 0.0, GRID + 2)[1:-1]  # B strictly below the axis
    hi = np.linspace(0.0, np.pi, GRID + 2)[1:-1]  # D strictly above
    return _grid_max(Angle(1, 2, 3), fixed, [(1, A, ab), (3, A, ad)], [lo, hi])


def max_diagonal_oracle(
    bd: float, theta1: float, theta2: float
) -> tuple[float, np.ndarray]:
    """Maximize |AC| over quadrilaterals ABCD with |BD| = bd, angle DAB =
    theta1, angle DCB = theta2, A and C on opposite sides of BD.

    A sits on the arc of points seeing BD under theta1 (above), C on the
    theta2 arc below. At the maximum |AB| = |AD| and |CB| = |CD|; with
    theta1 = theta2 the maximizer is a rhombus. Returns (max|AC|, argmax)
    with rows (A, B, C, D).
    """
    _require_finite(bd=bd, theta1=theta1, theta2=theta2)
    if bd <= 0:
        raise ValueError("|BD| must be positive")
    if not (0 < theta1 < np.pi / 2) or not (0 < theta2 < np.pi / 2):
        raise ValueError("theta1 and theta2 must be acute")

    B = np.array([0.0, 0.0])
    D = np.array([bd, 0.0])
    with np.errstate(over="ignore"):  # _grid_max refuses a circle that overflows
        r1 = bd / (2.0 * np.sin(theta1))
        k1 = bd / (2.0 * np.tan(theta1))
        r2 = bd / (2.0 * np.sin(theta2))
        k2 = bd / (2.0 * np.tan(theta2))
    c1 = np.array([bd / 2.0, k1])  # A's circle center (major arc above)
    c2 = np.array([bd / 2.0, -k2])  # C's circle center (major arc below)

    # major-arc parameter windows (through the top, resp. bottom, point)
    tb = np.arctan2(-k1, -bd / 2.0) + 2.0 * np.pi  # B seen from c1
    td = np.arctan2(-k1, bd / 2.0)  # D seen from c1
    ub = np.arctan2(k2, -bd / 2.0)
    ud = np.arctan2(k2, bd / 2.0)

    ts = np.linspace(td, tb, GRID + 2)[1:-1]
    us = np.linspace(-2.0 * np.pi + ub, ud, GRID + 2)[1:-1]
    fixed = np.array([c1, B, c2, D])
    return _grid_max(Distance(0, 2), fixed, [(0, c1, r1), (2, c2, r2)], [ts, us])


# --- staircase polygons ----------------------------------------------------------


def staircase_polygon(n: int, base: float, angles: Sequence[float]) -> PointConfig2D:
    """Fan of right triangles: right angle at A_k between A_1 and A_(k+1),
    angle alpha_k at A_(k+1), so |A_1 A_(k+1)| = |A_1 A_k| / sin(alpha_k).

    The polygon A_1...A_n is validated convex: all cross products of
    consecutive edges must share a sign, each beyond 1e-12 times its two
    edges' lengths, so that the test holds at any base length.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    angles = [float(a) for a in angles]
    if len(angles) != n - 2:
        raise ValueError(f"need {n - 2} angles for n = {n}, got {len(angles)}")
    if not all(0.0 < a < np.pi / 2.0 for a in angles):
        raise ValueError("each angle must lie strictly between 0 and pi/2")
    if base <= 0:
        raise ValueError("base length must be positive")

    pts = [np.array([0.0, 0.0]), np.array([base, 0.0])]
    for alpha in angles:
        prev = pts[-1]
        dist = np.linalg.norm(prev)
        ray = prev / dist
        step = dist / np.tan(alpha)
        pts.append(prev + step * np.array([-ray[1], ray[0]]))
    coords = np.array(pts)

    edges = np.roll(coords, -1, axis=0) - coords
    nxt = np.roll(edges, -1, axis=0)
    crosses = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    lengths = np.linalg.norm(edges, axis=1)
    tol = 1e-12 * lengths * np.roll(lengths, -1)
    if not (np.all(crosses > tol) or np.all(crosses < -tol)):
        raise NotConvex(
            "consecutive-edge cross products change sign; the staircase wraps "
            "past a straight angle at A_1"
        )
    return PointConfig2D(coords)


def staircase_measurements(n: int) -> list[SimpleMeasurement]:
    """The n determining measurements of a staircase polygon:
    |A_1A_2|, |A_1A_n|, and the apex angles A_k A_(k+1) A_1."""
    out: list[SimpleMeasurement] = [Distance(0, 1), Distance(0, n - 1)]
    out += [Angle(k - 1, k, 0) for k in range(2, n)]
    return out


# --- octagon ----------------------------------------------------------------------


def regular_polygon(n: int, side: float = 1.0) -> PointConfig2D:
    """Regular n-gon with given side, chart-normalized."""
    if n < 3:
        raise ValueError("need n >= 3")
    radius = side / (2.0 * np.sin(np.pi / n))
    ang = 2.0 * np.pi * np.arange(n) / n
    pts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return PointConfig2D.from_points(pts)


def octagon_measurements() -> list[SimpleMeasurement]:
    """8 sides plus |A_1A_5|, |A_8A_6|, |A_2A_4|, |A_3A_7| (1-based labels)."""
    sides: list[SimpleMeasurement] = [Distance(i, (i + 1) % 8) for i in range(8)]
    return sides + [Distance(0, 4), Distance(7, 5), Distance(1, 3), Distance(2, 6)]


@dataclass(frozen=True)
class OctagonReport:
    regular_value: float
    max_value: float
    maximizer: np.ndarray
    constraint_residual: float
    linkage_angle_a5_a1_a8: float
    linkage_angle_a6_a5_a1: float
    midpoint_distance: float
    restarts_at_max: int


SQP_MAXITER = 60  # Newton-KKT iterations of a batched SQP
SQP_XTOL = 1e-13  # |dx|_inf at which a member's SQP iteration stops
SQP_CURVATURE = 1e-3  # least eigenvalue of the reduced Hessian a step is taken on


def _sqp_max(
    kernel: MeasurementList, targets: np.ndarray, starts: np.ndarray, max_step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the last measurement of `kernel` subject to the others
    equalling `targets`, from each of a batch of (n, 2) starts.

    Equality-constrained SQP with the exact Hessian of the Lagrangian
    (Nocedal and Wright, Numerical Optimization, ch. 18), all starts as one
    batch: one lm_solve projects them onto the constraints, Newton-KKT
    steps then move the chart coordinates of _free_columns (the other three
    stay put, which fixes the rigid motion). For min phi = -f subject to
    c = 0, each step solves

        [W + sI  C^T] [dx]   [-grad phi]
        [C       0  ] [mu] = [-c       ]

    with W = -Hess f + sum_i lam_i Hess c_i. Each step takes the values,
    C and W from one order-2 kernel pass: the multipliers come from its
    Jacobian, then its Hessian blocks are summed with their weights.
    A complete QR of C^T gives both the least-squares multipliers lam
    (C^T lam = -grad phi) and Z, an orthonormal basis of ker C; the shift
    s = max(0, SQP_CURVATURE - lambda_min(Z^T W Z)) makes the reduced
    Hessian positive definite, so every step climbs. A member stops at
    |dx|_inf <= SQP_XTOL or after SQP_MAXITER steps; a singular system, or
    a step that is not finite or exceeds max_step, drops it. Every stacked
    operation works member by member, so each member's result is that of a
    batch of its start alone, bit for bit.

    Returns (points, residual): the (B, n, 2) final points and each
    member's max |c| there, from one pass of values, inf for a dropped
    member.
    """
    B, n, _ = starts.shape
    free = _free_columns(n)
    N, m = int(free.sum()), kernel.size - 1

    x, _, _ = lm_solve(*kernel.residual(targets), starts, max_iter=120, target=1e-13)
    kept = np.ones(B, dtype=bool)
    active = np.arange(B)
    eye = np.eye(N)
    for _ in range(SQP_MAXITER):
        if not len(active):
            break
        pts = x[active]
        vals, G, hess, parallel = kernel._apply(pts, 2)
        J = kernel.assemble(Gradients(G, parallel, n))[:, :, free]
        C, g = J[:, :-1], -J[:, -1]
        Q, R = np.linalg.qr(C.swapaxes(1, 2), mode="complete")
        lam, _ = _solve(R[:, :m], -(Q[:, :, :m].swapaxes(1, 2) @ g[:, :, None]))
        w = np.concatenate([lam[:, :, 0], np.full((len(active), 1), -1.0)], axis=1)
        W = kernel._weigh(hess, w, n)[:, free][:, :, free]
        Z = Q[:, :, m:]
        least = np.linalg.eigvalsh(Z.swapaxes(1, 2) @ W @ Z)[:, 0]
        K = np.zeros((len(active), N + m, N + m))
        K[:, :N, :N] = W + np.maximum(0.0, SQP_CURVATURE - least)[:, None, None] * eye
        K[:, :N, N:] = C.swapaxes(1, 2)
        K[:, N:, :N] = C
        rhs = np.concatenate([-g, targets - vals[:, :-1]], axis=1)
        sol, solved = _solve(K, rhs[:, :, None])
        dx = sol[:, :N, 0]
        size = np.abs(dx).max(axis=1)
        ok = np.isfinite(sol).all(axis=(1, 2)) & (size <= max_step)
        if solved is not None:
            ok &= solved
        kept[active[~ok]] = False
        step = active[ok]
        moved = x[step].reshape(len(step), 2 * n)
        moved[:, free] += dx[ok]
        x[step] = moved.reshape(-1, n, 2)
        active = step[size[ok] > SQP_XTOL]
    residual = np.full(B, np.inf)
    residual[kept] = np.abs(kernel.values(x[kept])[:, :-1] - targets).max(axis=1)
    return x, residual


def octagon_distance_oracle(
    restarts: int = 24, seed: int = 0
) -> OctagonReport:
    """Corroborate the two maximality facts behind the octagon's
    12-distance determination.

    (i) Over all configurations matching the 8 sides and the diagonals
    |A_1A_5|, |A_8A_6|, |A_2A_4| of the regular side-1 octagon, maximize
    |A_3A_7| from `restarts` seeded starts near the regular octagon by one
    batched SQP (_sqp_max): the maximum is the regular-octagon value. A
    restart counts when its final point meets the 11 constraints to
    RESIDUAL_TOL; the best is the first largest in restart order, and
    restarts_at_max counts the restarts that end within 1e-9 of it.

    (ii) In the four-bar linkage A_1 A_5 A_6 A_8 (base |A_1A_5|, cranks of
    side length, coupler |A_6A_8|), the distance between the midpoints of
    A_1A_5 and A_6A_8 is maximal when both angles A_5 A_1 A_8 and
    A_6 A_5 A_1 equal 3 pi / 8. A closed-form scan of 2048 angles A_5 A_1 A_8
    is the global evidence; one _sqp_max on the linkage's four distances
    refines its best point, and both angles and the midpoint distance are
    read from the refined points. A dropped refinement raises OracleInconclusive.
    A negative `restarts` or `seed` raises ValueError.
    """
    reference = regular_polygon(8, 1.0).points
    kernel = MeasurementList(octagon_measurements())  # |A_3A_7| last
    regular = kernel.values(reference)
    targets, regular_value = regular[:-1], regular[-1]
    diam = diameter(reference)

    starts = _perturbed_starts(reference, 0.05 * diam, restarts, seed)
    points, residual = _sqp_max(kernel, targets, starts, max_step=diam)
    if not (residual <= RESIDUAL_TOL).any():
        raise OracleInconclusive("no SQP restart satisfied the 11 constraints")
    values = np.where(residual <= RESIDUAL_TOL, kernel.values(points)[:, -1], -np.inf)
    best = int(np.argmax(values))  # the first of the largest, in restart order
    best_val, best_x = values[best], points[best]
    at_max = int(np.count_nonzero(values >= best_val - 1e-9))

    # (ii) the four-bar linkage: a closed-form scan over theta = angle
    # A_5 A_1 A_8, the global evidence, then one SQP from its best point
    side = 1.0
    d15, d68 = regular[8], regular[9]  # |A_1A_5|, |A_8A_6|
    a5 = np.array([d15, 0.0])
    theta = np.linspace(1e-3, np.pi - 1e-3, 2048)
    a8 = side * np.stack([np.cos(theta), -np.sin(theta)], axis=-1)
    # a6 where circle(a5, side) meets circle(a8, d68), on the positive-cross
    # branch as in the octagon; closes is false where they do not meet
    delta = a8 - a5
    dist2 = _dot(delta, delta)
    dist = np.sqrt(dist2)
    along = (dist2 + side * side - d68 * d68) / (2.0 * dist)
    h2 = side * side - along * along
    closes = (dist < side + d68) & (dist > abs(side - d68)) & (h2 > 0.0)
    h = np.sqrt(np.where(closes, h2, 0.0))
    perp = np.stack([-delta[:, 1], delta[:, 0]], axis=-1) / dist[:, None]
    a6 = a5 + along[:, None] * delta / dist[:, None] + h[:, None] * perp
    k = int(np.argmax(np.where(closes, _norm((a6 + a8) / 2.0 - a5 / 2.0), -np.inf)))
    # on the rows (A_1, A_5, A_6, A_8), 2 |midpoint gap| = |(A_8 - A_1) +
    # (A_6 - A_5)| = sqrt(2 + 2 cos b), b the angle between A_1->A_8 and
    # A_5->A_6: the widest gap is the largest angle between A_1->A_8 and A_6->A_5
    link = MeasurementList(
        [Distance(0, 1), Distance(1, 2), Distance(2, 3), Distance(3, 0), DiagonalAngle(0, 3, 2, 1)]
    )
    start = np.array([[np.zeros(2), a5, a6[k], a8[k]]])
    (pts,), (res,) = _sqp_max(link, np.array([d15, side, d68, side]), start, max_step=side)
    if not res <= RESIDUAL_TOL:
        raise OracleInconclusive("the SQP from the linkage scan's best point was dropped")

    return OctagonReport(
        regular_value=float(regular_value),
        max_value=float(best_val),
        maximizer=best_x,
        constraint_residual=float(residual[best]),
        linkage_angle_a5_a1_a8=measurement_value(Angle(1, 0, 3), pts),
        linkage_angle_a6_a5_a1=measurement_value(Angle(2, 1, 0), pts),
        midpoint_distance=float(_norm((pts[2] + pts[3]) / 2.0 - (pts[0] + pts[1]) / 2.0)),
        restarts_at_max=at_max,
    )
