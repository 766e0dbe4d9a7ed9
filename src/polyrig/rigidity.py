"""Rank-based sufficiency analysis of measurement sets.

For a realization of a polyhedron with V vertices, F faces and E edges,
the planarity map phi has a 2E x (3V+3F) Jacobian of rank 2E, so its
kernel, the tangent space of planar-faced realizations, has dimension
E + 6. Each measurement contributes one gradient row (dPsi), and every row
annihilates the g motion generators: the rigid motions (g = 6) for
congruence, plus uniform scaling (g = 7) for similarity. A distance pins
the scale, so a similarity set that admits one is judged by the congruence
test, with g = 6.

The motions are deflated once per verdict, on the vertex chart: three
anchor vertices of each face give its plane velocity from the vertex
velocities (dn = D dx), and each further vertex of a face adds one
first-order coplanarity row to C. One Householder QR of B = [I; D]
(B = Q_B R) and one of [R^-T C^T, R G_x], G_x the vertex rows of the
motion generators, give an orthonormal basis T of the nontrivial
first-order deformations, T^T = B R^-1 W, and a proof that d_phi has rank
2E; no factorization sees the 3V + 3F coordinates at once. A d_phi the
chart cannot prove full rank takes an SVD instead, and a QR of its kernel
basis against G. The measurements locally determine the realization up to
the motion group exactly when their rows reach rank E + 6 - g on T, i.e.
when the stack [d_phi; rows] reaches 3E + 6 - g; the shortfall is the
flex dimension. Rows of sets without dihedrals have no plane columns and
are reduced from the vertex coordinates alone. This reduces the geometric
question to numeric rank.

Beyond the rank tests this module provides the greedy extraction of a
minimal sufficient subset (accept a measurement exactly when its gradient
row leaves the span built so far), a first-order flex witness for
insufficient sets (step along a kernel direction of the rows on T, then
project back onto the constraint set), and a restart-based global witness
search for labeled point configurations, which covers claims that are
invisible to first-order rank analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import lapack

from ._nlsq import (
    EXHAUSTED,
    STALLED,
    _gram_full_rank,
    _qr_full_rank,
    gauss_newton_project,
    lm_solve,
)
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
    _incidence_indices,
    d_phi,
    normalized_distance,
    phi,
)
from .incidence import AbstractPolyhedron
from .pointsets import (
    Coplanar,
    MeasurementList,
    SimpleMeasurement,
    _cross,
    _dot,
    align_distance,
    diameter,
)

CONGRUENCE = "congruence"
SIMILARITY = "similarity"

DEFAULT_TOL_REL = 1e-9


def _motion_dim(
    mode: str, measurements: Sequence[Measurement3D], allow_scale_variant: bool
) -> int:
    """The dimension g of the motion group a verdict on `measurements` is
    taken modulo: 6 for congruence, 7 for similarity, and 6 for a
    similarity set holding a distance, which pins the scale."""
    if mode == CONGRUENCE:
        return 6
    if mode != SIMILARITY:
        raise ValueError(f"mode must be {CONGRUENCE!r} or {SIMILARITY!r}, got {mode!r}")
    if not any(isinstance(m, FaceDistance) for m in measurements):
        return 7
    if not allow_scale_variant:
        raise ValueError(
            "similarity mode expects scale-invariant (angle) measurements; "
            "pass allow_scale_variant=True (--allow-scale-variant on the command "
            "line) to include distances anyway"
        )
    return 6


def _unit_diameter(real: Realization) -> Realization:
    return real.rescaled(1.0 / real.diameter())


# --- generator matrices -------------------------------------------------------


def motion_generators(real: Realization, g: int) -> np.ndarray:
    """(3V+3F) x g matrix whose columns are the infinitesimal motions: the
    six rigid motions, then uniform scaling when g = 7.

    Translation along axis e moves every vertex by e and every plane
    coefficient vector n by -(n.e) n; rotation with angular velocity w moves
    a vertex p by w x p and a plane vector n by w x n; scaling moves a
    vertex by p and a plane vector by -n.
    """
    V = real.vertex_count
    X, P = real.vertices, real.planes
    G = np.zeros((V + real.face_count, 3, g))
    G[:V, range(3), range(3)] = 1.0
    G[V:, :, :3] = -P[:, :, None] * P[:, None, :]
    # the rotation about axis a moves a point y by e_a x y
    G[:, [0, 0, 1, 1, 2, 2], [4, 5, 3, 5, 3, 4]] = (
        np.vstack([X, P])[:, [2, 1, 2, 0, 1, 0]] * [1.0, -1.0, -1.0, 1.0, 1.0, -1.0]
    )
    if g == 7:
        G[:V, :, 6], G[V:, :, 6] = X, -P
    return G.reshape(-1, g)


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


def _count_above(s: np.ndarray, tol_rel: float, top: float = 0.0) -> int:
    """How many of s exceed tol_rel times the larger of top and max(s)."""
    return int(np.count_nonzero(s > tol_rel * s.max(initial=top)))


def numeric_rank(M: np.ndarray | sparse.spmatrix, tol_rel: float = DEFAULT_TOL_REL) -> int:
    """Number of singular values above tol_rel times the largest one.

    A sparse M first goes to _nlsq._gram_full_rank: one sparse LU of the
    shifted Gram matrix of M, or of M^T when M is wide, tries to prove that
    all min(m, n) singular values clear the cutoff with a factor-2 margin.
    When that fails, M is made dense. A dense M gets the same proof from a
    Householder QR of a copy of M, or of M^T (see _nlsq._qr_full_rank). A
    proof makes min(m, n) the answer, with no SVD taken; a rank-deficient
    matrix, or one whose smallest singular value lies too near the cutoff
    for the proofs, gets the count from an SVD. M must be finite.
    """
    if sparse.issparse(M):
        if not np.isfinite(M.data).all():
            raise ValueError("numeric_rank needs a finite matrix")
        if _gram_full_rank(M, tol_rel):
            return min(M.shape)
        M = M.toarray()
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("numeric_rank needs a finite matrix")
    if M.size == 0:
        return 0
    wide = M.shape[0] < M.shape[1]
    if _qr_full_rank(np.array(M.T if wide else M, order="F"), tol_rel)[3]:
        return min(M.shape)
    return _count_above(np.linalg.svd(M, compute_uv=False), tol_rel)


@dataclass(frozen=True)
class _Tangent:
    """rank(d_phi), the orthonormal rows T of _nontrivial_tangent, a bracket
    lo <= sigma_1(d_phi) <= hi, and sigma_1() to compute it exactly."""

    rank: int
    T: np.ndarray
    lo: float
    hi: float
    sigma_1: Callable[[], float]

    def reduce(self, J: np.ndarray) -> np.ndarray:
        """Gradient rows J on T: J @ T^T. J may stop after the 3V vertex
        columns (a set with no dihedral), whose plane columns are zero."""
        return J @ self.T[:, : J.shape[1]].T

    def count_above(self, s: np.ndarray, tol_rel: float) -> int:
        """_count_above(s, tol_rel, sigma_1(d_phi)). The count is monotone
        in the cutoff, so when lo and hi give the same count, so does
        sigma_1, which is then not computed."""
        count = _count_above(s, tol_rel, self.lo)
        if count == _count_above(s, tol_rel, self.hi):
            return count
        return _count_above(s, tol_rel, self.sigma_1())


def _segment_argmax(values: np.ndarray, starts: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """The index of the first largest value of each segment: values[i]
    lies in segment[i], and segment s starts at starts[s]."""
    top = np.maximum.reduceat(values, starts)
    hit = np.flatnonzero(values == top[segment])
    return hit[np.searchsorted(hit, starts)]


def _sigma_1_bracket(
    vi: np.ndarray, fj: np.ndarray, starts: np.ndarray, X: np.ndarray, P: np.ndarray
) -> tuple[float, float]:
    """lo <= sigma_1(d_phi) <= hi from the incidence pairs (vi, fj): lo is
    the largest column norm of d_phi, hi = sqrt(||d_phi||_1 ||d_phi||_inf).
    A vertex column sums over the faces at the vertex, a plane column over
    the vertices of the face, and the row of a pair holds n_f and x_v."""
    Pf, Xv = np.abs(P)[fj], np.abs(X)[vi]
    # per pair and coordinate: the square, then the absolute value
    n_terms = np.concatenate([Pf * Pf, Pf], axis=1)
    at_vertex = np.zeros((len(X), 6))
    np.add.at(at_vertex, vi, n_terms)
    at_face = np.add.reduceat(np.concatenate([Xv * Xv, Xv], axis=1), starts)
    top = np.maximum(at_vertex.max(axis=0), at_face.max(axis=0))
    row_sum = (Pf.sum(axis=1) + Xv.sum(axis=1)).max()
    return float(np.sqrt(top[:3].max())), float(np.sqrt(top[3:].max() * row_sum))


def _face_anchors(
    vi: np.ndarray, fj: np.ndarray, starts: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Three spread anchors per face, (F, 3): its first vertex a, the vertex
    b farthest from a and the vertex c farthest from the line ab; and the
    mask of the incidence pairs whose vertex is no anchor."""
    d = X[vi] - X[vi[starts]][fj]
    b_row = _segment_argmax(_dot(d, d), starts, fj)
    e = _cross(d, d[b_row][fj])
    rows = np.column_stack([starts, b_row, _segment_argmax(_dot(e, e), starts, fj)])
    other = np.ones(len(vi), dtype=bool)
    other[rows] = False
    return vi[rows], other


def _nontrivial_tangent(
    poly: AbstractPolyhedron, scaled: Realization, g: int, tol_rel: float
) -> _Tangent:
    """The nontrivial tangent space of d_phi at a unit-diameter realization.

    The rows of T are an orthonormal basis of ker d_phi orthogonal to the g
    motion generators G: the E + 6 - g nontrivial first-order deformations.
    They are taken on the vertex chart. Each face f takes three spread
    anchor vertices a, b, c (its first vertex, the one farthest from it,
    the one farthest from their line), and X_f = [x_a; x_b; x_c]. The
    incidence rows of the anchors give the plane velocity,
    dn_f = -X_f^-1 [n_f.dx_a; n_f.dx_b; n_f.dx_c], a sparse map dn = D dx;
    every other vertex v of f adds the coplanarity row
    n_f.(dx_v - sum_j l_j dx_j) = 0 to C, with l = X_f^-T x_v its
    barycentric coordinates over the anchors (a triangulated hull has no
    such row). So ker d_phi = {(dx, D dx): C dx = 0}, and G = B G_x with
    B = [I; D] and G_x the vertex rows of G. One Householder QR
    B = Q_B R (LAPACK dtpqrt, which leaves the identity block unstored)
    and one of A = [R^-T C^T, R G_x] follow; the last 3V - (2E - 3F) - g
    columns W of A's Q are orthogonal to both blocks, and T^T = B R^-1 W,
    orthonormal as Q_B W. With Z = R^-1 W, T holds Z over D Z, so
    measurement rows r = [r_x, r_n] reduce to r T^T = r_x Z + r_n D Z, the
    second term only for sets that hold a dihedral.

    The QR of A goes through _qr_full_rank (of _nlsq), whose proof that A has
    full column rank gives c = 1 / ||R_A^-1||_F <= sigma_min(A), and rank
    2E is claimed only when the SVD of d_phi would count 2E singular values
    above tol_rel sigma_1. Order the rows of d_phi by anchors, then the
    other pairs: d_phi = [[A_a, X], [A_o, N_o]] over (dx, dn), X the
    block-diagonal X_f. With S^-1 = [[I, 0], [A_a, X]], the anchor
    elimination, d_phi = [[0, I], [C, K]] S^-1 with K = N_o X^-1 and
    C = A_o - K A_a. For a unit u = (u_a, u_o) put v = u_a + K^T u_o; then
    d_phi^T u = (A_a^T v + C^T u_o, X^T v), so with
    s = min_f 1 / ||X_f^-1||_F <= sigma_min(X), alpha >= ||A_a||,
    kappa >= ||K|| and sigma = ||d_phi^T u||:
    ||v|| <= sigma / s, ||u_o|| <= (sigma + alpha ||v||) / c' with
    c' = sigma_min(C) >= sigma_min(R^-T C^T) >= c (sigma_min(R) >= 1, as
    B^T B = I + D^T D), and 1 <= (||v|| + kappa ||u_o||)^2 + ||u_o||^2.
    Hence sigma_2E(d_phi) >= L = 1 / sqrt((1/s + kappa beta)^2 + beta^2),
    beta = (1 + alpha / s) / c; on a triangulated hull u_o is empty and
    L = s, every incidence row being an anchor row. alpha^2 is the largest
    sum of |n_f|^2 over the anchor roles of one vertex (A_a^T A_a is
    block-diagonal by vertex), kappa^2 the largest sum of |l|^2 over the
    other vertices of one face (K^T K is block-diagonal by face). The claim
    needs L > 2 tol_rel hi, hi >= sigma_1(d_phi) the bound of
    _sigma_1_bracket; the factor 2 covers the rounding of these bounds, as
    in _qr_full_rank. sigma_1(d_phi) itself, when a count needs it, is
    taken from an SVD of d_phi.

    When the chart fails (a singular X_f, no proof for A, or L too small),
    one SVD of d_phi gives its rank, sigma_1 and an orthonormal basis N of
    its kernel, and the last columns of one complete QR of N G span the
    complement of the motions in N coordinates. Measurement rows annihilate
    G, so rows @ T.T has the rank of rows @ N.T.
    """
    X, P = scaled.vertices, scaled.planes
    V, F = len(X), len(P)
    vi, fj = _incidence_indices(poly)
    starts = np.searchsorted(fj, np.arange(F))
    lo, hi = _sigma_1_bracket(vi, fj, starts, X, P)
    G = motion_generators(scaled, g)

    anchors, other = _face_anchors(vi, fj, starts, X)
    Xa = X[anchors]
    # the rows of adj are b x c, c x a, a x b, so X_f adj_f^T = det(X_f) I
    adj = _cross(Xa[:, [1, 2, 0]], Xa[:, [2, 0, 1]])
    with np.errstate(divide="ignore", invalid="ignore"):
        Xinv = adj.transpose(0, 2, 1) / _dot(Xa[:, 0], adj[:, 0])[:, None, None]
    if not np.isfinite(Xinv).all():
        return _svd_tangent(poly, scaled, G, tol_rel)
    ov, of = vi[other], fj[other]
    lam = (X[ov][:, None, :] @ Xinv[of])[:, 0]
    n, nc, xyz = 3 * V, len(ov), np.arange(3)

    # D[3f + i, 3 a_j + k] = -X_f^-1[i, j] n_f[k], a_j the anchors of f
    D = np.zeros((3 * F, n), order="F")
    face_rows = 3 * np.arange(F)[:, None, None, None] + xyz[:, None, None]
    D[face_rows, 3 * anchors[:, None, :, None] + xyz] = -Xinv[..., None] * P[:, None, None, :]
    # the lower triangle of the identity stays zero, so R is upper triangular
    R = lapack.dtpqrt(0, min(32, n), np.eye(n, order="F"), D, overwrite_a=True, overwrite_b=True)[0]
    # column r of C^T, for pair (v, f): n_f at v and -l_j n_f at anchor j
    Ct = np.zeros((n, nc), order="F")
    Ct[3 * np.column_stack([ov, anchors[of]])[:, :, None] + xyz, np.arange(nc)[:, None, None]] = (
        np.column_stack([np.ones(nc), -lam])[:, :, None] * P[of][:, None, :]
    )
    A = np.empty((n, nc + g), order="F")
    A[:, :nc] = lapack.dtrtrs(R, Ct, trans=1)[0]
    A[:, nc:] = R @ G[:n]
    qr, tau, rinv, full = _qr_full_rank(A, tol_rel)
    bound = s = 1.0 / np.sqrt(np.einsum("fij,fij->f", Xinv, Xinv).max())
    if nc and full:
        alpha = np.sqrt(np.bincount(anchors.ravel(), np.repeat(_dot(P, P), 3), V).max())
        kappa = np.sqrt(np.bincount(of, _dot(lam, lam), F).max())
        beta = (1.0 + alpha / s) * lapack.dlantr("F", rinv)
        bound = 1.0 / np.hypot(1.0 / s + kappa * beta, beta)
    if not (full and bound > 2.0 * tol_rel * hi):
        return _svd_tangent(poly, scaled, G, tol_rel)

    k = nc + g
    W = np.zeros((n, n - k), order="F")
    W[k:] = np.eye(n - k)
    lwork = int(lapack.dormqr("L", "N", qr, tau, W, -1)[1][0])
    W = lapack.dormqr("L", "N", qr, tau, W, lwork, overwrite_c=True)[0]
    Z = lapack.dtrtrs(R, W, overwrite_b=True)[0]
    # D Z face by face: -X_f^-1 [n_f . Z_a; n_f . Z_b; n_f . Z_c]
    Z3 = Z.reshape(V, 3, n - k)
    nz = np.stack([(P[:, None, :] @ Z3[anchors[:, j]])[:, 0] for j in range(3)], axis=1)
    T = np.concatenate([Z, -(Xinv @ nz).reshape(3 * F, n - k)]).T
    return _Tangent(
        2 * poly.edge_count, T, lo, hi,
        lambda: np.linalg.svd(d_phi(poly, scaled), compute_uv=False)[0],
    )


def _svd_tangent(
    poly: AbstractPolyhedron, scaled: Realization, G: np.ndarray, tol_rel: float
) -> _Tangent:
    """The tangent from one SVD of d_phi: its rank, sigma_1 and an
    orthonormal basis N of its kernel, whose motion-free part the last
    columns of one complete QR of N G span in N coordinates."""
    _, sv, Vt = np.linalg.svd(d_phi(poly, scaled), full_matrices=True)
    base = _count_above(sv, tol_rel)
    N = Vt[base:]
    Q, _ = np.linalg.qr(N @ G, mode="complete")
    return _Tangent(base, Q[:, G.shape[1]:].T @ N, sv[0], sv[0], lambda: sv[0])


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
    rows, against the target 3E + 6 - g. That is 3E for congruence and
    3E - 1 for similarity; a similarity set holding a distance (admitted
    only with allow_scale_variant) is judged by the congruence test.

    The model is rescaled to unit diameter, so tol_rel acts on a
    well-conditioned matrix regardless of input units. The rank is the rank
    of d_phi (2E) plus the numeric rank of the rows on the E + 6 - g
    nontrivial tangent directions T, counted above tol_rel times the larger
    of sigma_1(d_phi) and their own sigma_1; flex_dimension = target - rank.
    """
    g = _motion_dim(mode, measurements, allow_scale_variant)
    scaled = _unit_diameter(real)
    tangent = _nontrivial_tangent(poly, scaled, g, tol_rel)
    J = MeshMeasurements(measurements, real.vertex_count, real.face_count).jacobian(scaled)
    rank = tangent.rank + tangent.count_above(
        np.linalg.svd(tangent.reduce(J), compute_uv=False), tol_rel
    )
    target = 3 * poly.edge_count + 6 - g
    return SufficiencyReport(
        mode=mode,
        edge_count=poly.edge_count,
        achieved_rank=rank,
        target_rank=target,
        sufficient=rank >= target,
        flex_dimension=target - rank,
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

    The scan runs on the nontrivial tangent directions T, where the span of
    d_phi and the motions are zero: each row is reduced to them once, and
    the row is accepted when its component orthogonal to the reduced rows
    kept so far exceeds tol_rel times the full row norm (with one
    reorthogonalization pass for stability). The motion group is decided
    by the whole pool. When the pool is sufficient, the selection has
    exactly targetRank - 2E elements: E measurements for congruence, E - 1
    for similarity by angles.
    """
    g = _motion_dim(mode, pool, allow_scale_variant)
    if not pool:
        raise ValueError("pool is empty")
    scaled = _unit_diameter(real)
    rows = MeshMeasurements(pool, real.vertex_count, real.face_count).jacobian(scaled)
    tangent = _nontrivial_tangent(poly, scaled, g, tol_rel)
    rank, reduced = tangent.rank, tangent.reduce(rows)
    # accepted residuals are orthonormal in the E + 6 - g coordinates of T
    basis = np.empty((len(tangent.T), len(tangent.T)))

    target = 3 * poly.edge_count + 6 - g
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
        flex_dimension=target - rank,
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
    tol_rel: float = DEFAULT_TOL_REL,
    allow_scale_variant: bool = False,
) -> Realization | None:
    """Construct a nearby non-congruent realization with identical measurements.

    Requires the set to be insufficient. Works at unit diameter: takes a
    unit kernel vector of the measurement rows on the nontrivial tangent
    directions T of is_sufficient, which no motion of the group spans,
    steps away along it by `step` (a fraction of the diameter), and
    Gauss-Newton-projects back onto {phi = 0, psi = psi(R)} to residual
    1e-10. Returns the projected realization, scaled back to the input's
    units, when it is genuinely non-congruent to the input (normalized
    vertex distance > 10 * tol_rel diameters), or None when the projection
    slides back to the start, the signature of a flex that exists to first
    order only.
    """
    g = _motion_dim(mode, measurements, allow_scale_variant)
    scaled = _unit_diameter(real)
    psi = MeshMeasurements(measurements, real.vertex_count, real.face_count)
    tangent = _nontrivial_tangent(poly, scaled, g, tol_rel)
    T = tangent.T
    M = tangent.reduce(psi.jacobian(scaled))
    # Vt must be square to hold the kernel; with more rows than columns the
    # thin SVD already gives that, and U stays m x k
    _, sm, Vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    extra = tangent.count_above(sm, tol_rel)
    if tangent.rank + extra >= 3 * poly.edge_count + 6 - g:
        raise NoKernelDirection("measurement set is sufficient; nothing to flex")

    u = T.T @ Vt[extra]
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
        resid, jac, x0, target=1e-10, max_travel=100.0 * (step + 1.0)
    )
    if not ok:
        raise ProjectionDiverged("projection did not reach residual 1e-10")
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
