"""Rank-based sufficiency analysis of measurement sets.

For a realization of a polyhedron with V vertices, F faces and E edges,
the planarity map phi has a 2E x (3V+3F) Jacobian of rank 2E, and each
measurement contributes one gradient row (dPsi). Every row annihilates
the (3V+3F) x g matrix G whose columns generate the rigid-motion orbit
(g = 6) or the similarity orbit (g = 7), so the stacked matrix has rank
at most 3E = (3V+3F) - 6, respectively 3E - 1. Hitting that ceiling is
equivalent to the measurements locally determining the realization up to
the motion group, which reduces the geometric question to numeric rank.
Every rank computation here runs on the tangent space ker d_phi, of
dimension E + 6, from one SVD of d_phi: there the rows must reach rank E
(E - 1 for similarity).

Beyond the rank tests this module provides the greedy extraction of a
minimal sufficient subset (accept a measurement exactly when its gradient
row leaves the span built so far), a first-order flex witness for
insufficient sets (perturb along a kernel direction orthogonal to G, then
project back onto the constraint set), and a restart-based global witness
search for labeled point configurations, which covers claims that are
invisible to first-order rank analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._nlsq import EXHAUSTED, STALLED, _qr_full_rank, gauss_newton_project, lm_solve
from .errors import (
    NoConvergedRestarts,
    NoKernelDirection,
    ProjectionDiverged,
)
from .geometry import (
    FaceDistance,
    Measurement3D,
    MeshMeasurements,
    Realization,
    d_phi,
    gradient_rows,
    normalized_distance,
    phi,
)
from .incidence import AbstractPolyhedron
from .pointsets import (
    Coplanar,
    MeasurementList,
    SimpleMeasurement,
    align_distance,
    diameter,
)

CONGRUENCE = "congruence"
SIMILARITY = "similarity"

DEFAULT_TOL_REL = 1e-9


def _motion_dim(mode: str) -> int:
    if mode == CONGRUENCE:
        return 6
    if mode == SIMILARITY:
        return 7
    raise ValueError(f"mode must be {CONGRUENCE!r} or {SIMILARITY!r}, got {mode!r}")


def _check_mode_pool(
    measurements: Sequence[Measurement3D], mode: str, allow_scale_variant: bool
) -> None:
    if mode == SIMILARITY and not allow_scale_variant:
        for m in measurements:
            if isinstance(m, FaceDistance):
                raise ValueError(
                    "similarity mode expects scale-invariant (angle) measurements; "
                    "pass allow_scale_variant=True to include distances anyway"
                )


def _unit_diameter(real: Realization) -> Realization:
    return real.rescaled(1.0 / real.diameter())


# --- generator matrices -------------------------------------------------------


def congruence_generators(poly: AbstractPolyhedron, real: Realization) -> np.ndarray:
    """(3V+3F) x 6 matrix whose columns are the infinitesimal rigid motions.

    Translation along axis e moves every vertex by e and every plane
    coefficient vector n by -(n.e) n; rotation with angular velocity w moves
    a vertex p by w x p and a plane vector n by w x n.
    """
    X, P = real.vertices, real.planes
    nv = 3 * real.vertex_count
    G = np.zeros((nv + 3 * real.face_count, 6))
    for axis in range(3):
        G[axis:nv:3, axis] = 1.0
        G[nv:, axis] = (-P[:, axis : axis + 1] * P).ravel()
    for k, omega in enumerate(np.eye(3)):
        G[:nv, 3 + k] = np.cross(np.broadcast_to(omega, X.shape), X).ravel()
        G[nv:, 3 + k] = np.cross(np.broadcast_to(omega, P.shape), P).ravel()
    return G


def similarity_generators(poly: AbstractPolyhedron, real: Realization) -> np.ndarray:
    """The six congruence columns plus uniform scaling: vertices move by
    (x, y, z), plane coefficients by (-a, -b, -c)."""
    scaling = np.concatenate([real.vertices.ravel(), -real.planes.ravel()])
    return np.hstack([congruence_generators(poly, real), scaling[:, None]])


def motion_generators(poly: AbstractPolyhedron, real: Realization, mode: str) -> np.ndarray:
    if _motion_dim(mode) == 6:
        return congruence_generators(poly, real)
    return similarity_generators(poly, real)


def normalization_rows(poly: AbstractPolyhedron, real: Realization) -> np.ndarray:
    """6 x (3V+3F) unit selector rows for x_1, y_1, z_1, y_2, z_2, z_3.

    These are the derivatives of the six pinning functions that kill the
    rigid-motion freedom of a realization in canonical frame; paired with
    the generators G they form a 6x6 block with determinant
    (y_3 - y_1)(x_2 - x_1)^2, nonzero whenever the first three vertices
    are not collinear.
    """
    if real.vertex_count < 3:
        raise ValueError("need at least three vertices")
    rows = np.zeros((6, 3 * real.vertex_count + 3 * real.face_count))
    rows[range(6), (0, 1, 2, 4, 5, 8)] = 1.0
    return rows


# --- rank tests ---------------------------------------------------------------


def numeric_rank(M: np.ndarray, tol_rel: float = DEFAULT_TOL_REL) -> int:
    """Number of singular values above tol_rel times the largest one.

    A Householder QR of a copy of M, or of M^T when M is wide, first tries
    to prove that all min(m, n) of them clear the cutoff, with a factor-2
    margin (see _nlsq._qr_full_rank). When it does, that count is the
    answer and no SVD is taken. A rank-deficient matrix, or one whose
    smallest singular value lies too near the cutoff for the proof, gets
    the count from an SVD.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    wide = M.shape[0] < M.shape[1]
    if _qr_full_rank(np.array(M.T if wide else M, order="F"), tol_rel)[3]:
        return min(M.shape)
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol_rel * s[0]))


class _TangentRank(NamedTuple):
    base: int  # rank of d_phi
    basis: np.ndarray  # rows: an orthonormal basis N of ker d_phi
    rank: int  # rank of [d_phi; rows], equal to base when no rows are given
    flex: np.ndarray | None  # rows: ker [d_phi; rows] in N coordinates, when asked


def _tangent_rank(
    poly: AbstractPolyhedron,
    scaled: Realization,
    rows: np.ndarray | None,
    tol_rel: float,
    kernel: bool = False,
) -> _TangentRank:
    """Rank of the stack [d_phi; rows] at a unit-diameter realization,
    computed on the tangent space ker d_phi.

    One SVD of d_phi gives its rank `base` and an orthonormal basis N of its
    kernel (the last 3V+3F - base rows of Vt), of dimension E + 6 for a
    polyhedron. The stack's rank is base plus the numeric rank of the
    reduced rows M = rows @ N.T, with singular values counted above tol_rel
    times max(sigma_1(d_phi), sigma_1(M)). With kernel=True the right
    singular vectors of M past its rank are returned too: N.T @ flex.T spans
    the kernel of the stack.
    """
    _, s, Vt = np.linalg.svd(d_phi(poly, scaled), full_matrices=True)
    base = int(np.count_nonzero(s > tol_rel * s[0]))
    N = Vt[base:]
    if rows is None:
        return _TangentRank(base, N, base, None)
    M = rows @ N.T
    if kernel:
        # Vt of M must be square to hold the kernel; with more rows than
        # columns the thin SVD already gives that, and U stays m x k
        _, sm, VtM = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    else:
        sm = np.linalg.svd(M, compute_uv=False)
    top = max(s[0], sm[0]) if sm.size else s[0]
    extra = int(np.count_nonzero(sm > tol_rel * top))
    return _TangentRank(base, N, base + extra, VtM[extra:] if kernel else None)


def _target_rank(poly: AbstractPolyhedron, g: int) -> int:
    return 3 * poly.edge_count - (0 if g == 6 else 1)


@dataclass(frozen=True)
class SufficiencyReport:
    mode: str
    edge_count: int
    achieved_rank: int
    target_rank: int
    sufficient: bool
    flex_dimension: int
    selected: tuple[Measurement3D, ...] | None
    tolerance_used: float


def is_sufficient(
    poly: AbstractPolyhedron,
    real: Realization,
    measurements: Sequence[Measurement3D],
    mode: str = CONGRUENCE,
    tol_rel: float = DEFAULT_TOL_REL,
    allow_scale_variant: bool = False,
) -> SufficiencyReport:
    """Rank test: the rank of d_phi stacked with the measurement gradient
    rows, compared against 3E (congruence) or 3E - 1 (similarity).

    The model is rescaled to unit diameter, so tol_rel acts on a
    well-conditioned matrix regardless of input units. The rank is taken on
    the tangent space ker d_phi: the rank of d_phi (2E) plus the numeric
    rank of the rows reduced to it, with the cutoff tol_rel times the larger
    of the top singular values of d_phi and of the reduced rows.
    """
    g = _motion_dim(mode)
    _check_mode_pool(measurements, mode, allow_scale_variant)
    scaled = _unit_diameter(real)
    rows = gradient_rows(measurements, scaled)
    rank = _tangent_rank(poly, scaled, rows, tol_rel).rank
    target = _target_rank(poly, g)
    # rank > target happens only in similarity mode with scale-variant
    # measurements admitted: scale is then pinned too, which determines the
    # shape a fortiori, so the flex count is clamped rather than negative
    return SufficiencyReport(
        mode=mode,
        edge_count=poly.edge_count,
        achieved_rank=rank,
        target_rank=target,
        sufficient=rank >= target,
        flex_dimension=max(0, rows.shape[1] - rank - g),
        selected=None,
        tolerance_used=tol_rel,
    )


def greedy_minimal_subset(
    poly: AbstractPolyhedron,
    real: Realization,
    pool: Sequence[Measurement3D],
    mode: str = CONGRUENCE,
    tol_rel: float = DEFAULT_TOL_REL,
    allow_scale_variant: bool = False,
) -> SufficiencyReport:
    """Scan the pool once, keeping a measurement exactly when its gradient
    row is independent of the span of d_phi plus rows kept so far.

    The scan runs on the tangent space ker d_phi, where the span of d_phi is
    zero: each row is reduced to it once, and the row is accepted when its
    component orthogonal to the reduced rows kept so far exceeds tol_rel
    times the full row norm (with one reorthogonalization pass for
    stability). When the pool is sufficient, the selection has exactly
    targetRank - 2E elements: E measurements for congruence, E - 1 for
    similarity.
    """
    g = _motion_dim(mode)
    _check_mode_pool(pool, mode, allow_scale_variant)
    if not pool:
        raise ValueError("pool is empty")
    scaled = _unit_diameter(real)
    rows = gradient_rows(pool, scaled)
    tangent = _tangent_rank(poly, scaled, None, tol_rel)
    reduced = rows @ tangent.basis.T
    # accepted residuals are orthonormal in E + 6 coordinates, and fewer
    # than that many are needed to reach the target
    basis = np.empty((reduced.shape[1], reduced.shape[1]))

    target = _target_rank(poly, g)
    rank = tangent.base
    selected: list[Measurement3D] = []
    for m, row, red in zip(pool, rows, reduced):
        if rank >= target:
            break
        row_norm = np.linalg.norm(row)
        if row_norm == 0.0:
            continue
        kept = basis[: len(selected)]
        res = red - kept.T @ (kept @ red)
        res -= kept.T @ (kept @ res)
        res_norm = np.linalg.norm(res)
        if res_norm > tol_rel * row_norm:
            basis[len(selected)] = res / res_norm
            selected.append(m)
            rank += 1

    return SufficiencyReport(
        mode=mode,
        edge_count=poly.edge_count,
        achieved_rank=rank,
        target_rank=target,
        sufficient=rank == target,
        flex_dimension=rows.shape[1] - rank - g,
        selected=tuple(selected),
        tolerance_used=tol_rel,
    )


# --- witnesses ----------------------------------------------------------------


def flex_witness(
    poly: AbstractPolyhedron,
    real: Realization,
    measurements: Sequence[Measurement3D],
    mode: str = CONGRUENCE,
    step: float = 1e-2,
    max_iter: int = 100,
    tol_rel: float = DEFAULT_TOL_REL,
    allow_scale_variant: bool = False,
) -> Realization | None:
    """Construct a nearby non-congruent realization with identical measurements.

    Requires the set to be insufficient. Works at unit diameter: picks a
    unit kernel direction of stack(d_phi, d_psi) orthogonal to the motion
    generators, steps away by `step` (a fraction of the diameter), and
    Gauss-Newton-projects back onto {phi = 0, psi = psi(R)} to residual
    1e-10. The kernel and the generators are handled in the coordinates of
    ker d_phi, from the same rank computation as is_sufficient. Returns the
    projected realization, scaled back to the input's units, when it is
    genuinely non-congruent to the input (normalized vertex distance > 10 *
    tol_rel diameters), or None when the projection slides back to the
    start, the signature of a flex that exists to first order only.
    """
    g = _motion_dim(mode)
    _check_mode_pool(measurements, mode, allow_scale_variant)
    scaled = _unit_diameter(real)
    psi = MeshMeasurements(measurements, real.vertex_count, real.face_count)
    tangent = _tangent_rank(poly, scaled, psi.rows(scaled), tol_rel, kernel=True)
    if tangent.rank >= _target_rank(poly, g):
        raise NoKernelDirection("measurement set is sufficient; nothing to flex")

    N = tangent.basis
    QG, _ = np.linalg.qr(N @ motion_generators(poly, scaled, mode))
    K = tangent.flex.T - QG @ (QG.T @ tangent.flex.T)
    Uk, sk, _ = np.linalg.svd(K, full_matrices=False)
    if sk.size == 0 or sk[0] < 0.5:
        raise NoKernelDirection("kernel contains only trivial motions")
    u = N.T @ Uk[:, 0]
    pivot = int(np.argmax(np.abs(u)))
    if u[pivot] < 0:
        u = -u

    targets = psi.values(scaled)
    nv, nf = real.vertex_count, real.face_count

    def resid(x: np.ndarray) -> np.ndarray:
        r = Realization.from_coordinate_vector(x, nv, nf)
        return np.concatenate([phi(poly, r), psi.values(r) - targets])

    def jac(x: np.ndarray) -> np.ndarray:
        r = Realization.from_coordinate_vector(x, nv, nf)
        return np.vstack([d_phi(poly, r), psi.rows(r)])

    x0 = scaled.coordinate_vector() + step * u
    x, ok = gauss_newton_project(
        resid, jac, x0, max_iter=max_iter, target=1e-10,
        max_travel=100.0 * (step + 1.0),
    )
    if not ok:
        raise ProjectionDiverged(
            f"projection did not reach residual 1e-10 in {max_iter} iterations"
        )
    result = Realization.from_coordinate_vector(x, nv, nf)
    if normalized_distance(poly, scaled, result) > 10.0 * tol_rel:
        return result.rescaled(real.diameter())
    return None


@dataclass(frozen=True)
class PointCluster:
    representative: np.ndarray
    count: int
    distance_to_reference: float


@dataclass(frozen=True)
class PointWitnessReport:
    """The outcome of a restart search. Every restart is counted once:
    `converged` (residual <= residual_tol, kept), `escaped` (converged
    outside the locality radius), `stalled` (no damping value improved, the
    residual above residual_tol) or `exhausted` (ran out of iterations)."""

    witness: np.ndarray | None
    clusters: tuple[PointCluster, ...]
    converged: int
    escaped: int
    stalled: int
    exhausted: int
    restarts: int
    residual_tol: float
    cluster_tol: float
    witness_tol: float

    @property
    def determined(self) -> bool:
        return self.witness is None


def point_set_witness(
    dim: int,
    points: np.ndarray,
    measurements: Sequence[SimpleMeasurement],
    restarts: int = 200,
    seed: int = 0,
    noise: float = 0.5,
    coplanar: Sequence[tuple[int, int, int, int]] = (),
    allow_reflection: bool | None = None,
    residual_tol: float = 1e-10,
    cluster_tol: float = 1e-6,
    witness_tol: float = 1e-4,
    locality: float | None = None,
    max_iter: int = 250,
) -> PointWitnessReport:
    """Uniqueness oracle for a labeled point configuration.

    Solves {measurement residuals = 0} by Levenberg-Marquardt from `restarts`
    perturbed copies of the reference (Gaussian noise of scale noise *
    diameter, per-restart generator seeded by (seed, restart index)), all
    restarts as one batch, keeps solutions with residual <= residual_tol,
    and clusters them in restart order modulo rigid motions (reflections allowed by default in 2D only, where unsigned
    measurements cannot tell mirror images apart). The witness is a
    representative of any cluster farther than witness_tol * scale from the
    reference; None means every converged restart came back to the
    reference, i.e. the set is determined at oracle scale.

    witness_tol is deliberately coarser than cluster_tol: near a
    second-order-determined configuration the residual grows only
    quadratically with shape distance, so solutions at residual_tol can
    scatter up to sqrt(residual_tol) from the true point without being
    different shapes in any meaningful sense.

    `locality`, when given, bounds the search to a neighborhood: converged
    solutions farther than locality * scale from the reference are counted
    in `escaped` and ignored. This is the oracle for claims that are local
    by definition, where distant discrete solutions (a reflected tail of a
    staircase polygon, say) do not refute anything.

    `coplanar` quadruples add side constraints [q-p, r-p, s-p] = 0 for 3D
    searches whose claims presume planar faces.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    ref = np.asarray(points, dtype=float)
    if ref.ndim != 2 or ref.shape[1] != dim:
        raise ValueError(f"points must be (n, {dim}), got {ref.shape}")
    if coplanar and dim != 3:
        raise ValueError("coplanarity constraints need dim = 3")
    if allow_reflection is None:
        allow_reflection = dim == 2

    side = [Coplanar(*q) for q in coplanar]
    kernel = MeasurementList(list(measurements) + side)
    targets = kernel.values(ref)
    for c, value in zip(side, targets[len(measurements):]):
        if abs(value) > 1e-8:
            raise ValueError(f"reference violates coplanarity constraint {c}")
    targets[len(measurements):] = 0.0

    n = ref.shape[0]
    diam = diameter(ref)
    scale = max(1.0, diam)

    def resid(x: np.ndarray) -> np.ndarray:
        return kernel.values(x.reshape(len(x), n, dim)) - targets

    def jac(x: np.ndarray) -> np.ndarray:
        return kernel.jacobian(x.reshape(len(x), n, dim))

    def start(i: int) -> np.ndarray:
        rng = np.random.default_rng([seed, i])
        return (ref + noise * diam * rng.standard_normal(ref.shape)).ravel()

    x0 = np.array([start(i) for i in range(restarts)]).reshape(restarts, n * dim)
    x, r, reason = lm_solve(resid, jac, x0, max_iter=max_iter, target=residual_tol * 1e-2)
    ok = np.abs(r).max(axis=1, initial=0.0) <= residual_tol
    stalled = int(np.count_nonzero(~ok & (reason == STALLED)))
    exhausted = int(np.count_nonzero(~ok & (reason == EXHAUSTED)))
    # polish: in a quadratic residual valley, stopping at residual_tol
    # leaves the iterate ~sqrt(residual_tol) off the solution; a second
    # pass with a far tighter target collapses that smear
    sols = lm_solve(resid, jac, x[ok], max_iter=80, target=1e-15)[0].reshape(-1, n, dim)
    to_ref = align_distance(ref, sols, allow_reflection)
    far = np.zeros(len(sols), dtype=bool) if locality is None else to_ref > locality * scale
    escaped = int(np.count_nonzero(far))
    converged = len(sols) - escaped

    reps: list[np.ndarray] = [ref]
    counts: list[int] = [0]
    dists: list[float] = [0.0]
    for sol, d in zip(sols[~far], to_ref[~far]):
        # the first representative within cluster_tol takes the solution
        hits = np.flatnonzero(
            align_distance(np.array(reps), sol, allow_reflection) <= cluster_tol * scale
        )
        if len(hits):
            counts[hits[0]] += 1
        else:
            reps.append(sol)
            counts.append(1)
            dists.append(float(d))

    if converged == 0:
        raise NoConvergedRestarts(
            f"no restart reached residual {residual_tol:g} in {restarts} tries"
        )

    witness = None
    for rep, d in zip(reps, dists):
        if d > witness_tol * scale:
            witness = rep
            break
    clusters = tuple(
        PointCluster(representative=rep, count=c, distance_to_reference=d)
        for rep, c, d in zip(reps, counts, dists)
    )
    return PointWitnessReport(
        witness=witness,
        clusters=clusters,
        converged=converged,
        escaped=escaped,
        stalled=stalled,
        exhausted=exhausted,
        restarts=restarts,
        residual_tol=residual_tol,
        cluster_tol=cluster_tol,
        witness_tol=witness_tol,
    )
