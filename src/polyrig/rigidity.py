"""Rank-based sufficiency analysis of measurement sets.

A planar-faced realization of a polyhedron with V vertices, F faces and E
edges is fixed by its vertices: every measurement (face distance, face
angle, dihedral) is a function of them, and the face planes follow. Its
planar-faced first-order deformations form a space of dimension E + 6, the
kernel of the 2E x (3V + 3F) incidence Jacobian d_phi of geometry. Each
measurement contributes one gradient row J over the 3V vertex coordinates,
and every row annihilates the g motion generators: the rigid motions
(g = 6) for congruence, plus uniform scaling (g = 7) for similarity. A
distance pins the scale, so a similarity set that admits one is judged by
the congruence test, with g = 6.

The motions are deflated once per verdict, on the vertex chart (_chart):
three anchor vertices of each face span its plane, and each further vertex
of a face adds one Coplanar side row to C, so the planar-faced deformations
are ker C. One SVD of C stacked with the motions' vertex rows,
orthonormalized and scaled past sigma_1(C), gives the rank of d_phi and an
orthonormal basis Z of the nontrivial first-order deformations; no
computation sees the plane coefficients. The measurements locally
determine the realization up to the motion group exactly when J Z reaches
rank E + 6 - g, i.e. when the stack [d_phi; rows] reaches 3E + 6 - g; the
shortfall is the flex dimension. This reduces the geometric question to
numeric rank.

The measurement rows never exist as a dense m x 3V matrix: they are taken
as CSR (MeasurementList.sparse_jacobian, at most twelve nonzeros a row) and
reduced onto Z _ROW_BLOCK rows at a time (_reduced_blocks). The rank test
streams the blocks through a Householder QR that keeps only its triangular
factor R; R is an orthogonal transform of J Z, so sigma(R) = sigma(J Z).
Besides the CSR rows, a verdict holds O(_ROW_BLOCK (E + 6 - g)) numbers
whatever the pool's length.

Beyond the rank tests this module provides the greedy extraction of a
minimal sufficient subset (accept a measurement exactly when its gradient
row leaves the span built so far), a flex witness for insufficient sets
(step along a kernel direction of J Z, then project back onto the
measurements and the Coplanar rows over the vertices), and a restart-based
global witness search for labeled point configurations, which covers
claims that are invisible to first-order rank analysis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from ._nlsq import EXHAUSTED, STALLED, _gram_full_rank, gauss_newton_project, lm_solve
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
    face_distance_pool,
    normalized_distance,
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

# how many measurement rows the mesh verdicts reduce onto the chart basis at a time
_ROW_BLOCK = 2048

# point_set_witness's cluster radius and witness distance, times its scale
CLUSTER_TOL = 1e-6
WITNESS_TOL = 1e-4


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


# --- rank tests ---------------------------------------------------------------


def _count_above(s: np.ndarray, tol_rel: float) -> int:
    """How many of s exceed tol_rel times max(s)."""
    return int(np.count_nonzero(s > tol_rel * s.max(initial=0.0)))


def numeric_rank(M: np.ndarray | sparse.spmatrix, tol_rel: float = DEFAULT_TOL_REL) -> int:
    """Number of singular values above tol_rel times the largest one.

    M, dense or sparse, goes to _nlsq._gram_full_rank as a CSR matrix: one
    sparse LU of the shifted Gram matrix of M, or of M^T when M is wide,
    tries to prove that all min(m, n) singular values clear the cutoff
    with a factor-2 margin. A proof makes min(m, n) the answer, with no SVD
    taken; a rank-deficient matrix, or one whose smallest singular value
    lies too near the cutoff for the proof, gets the count from an SVD. M
    must be finite.
    """
    M = sparse.csr_matrix(M, dtype=float)
    if not np.isfinite(M.data).all():
        raise ValueError("numeric_rank needs a finite matrix")
    if not min(M.shape):
        return 0
    if _gram_full_rank(M, tol_rel):
        return min(M.shape)
    return _count_above(np.linalg.svd(M.toarray(), compute_uv=False), tol_rel)


def _segment_argmax(values: np.ndarray, starts: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """The index of the first largest value of each segment: values[i]
    lies in segment[i], and segment s starts at starts[s]."""
    top = np.maximum.reduceat(values, starts)
    hit = np.flatnonzero(values == top[segment])
    return hit[np.searchsorted(hit, starts)]


def _face_anchors(poly: AbstractPolyhedron, X: np.ndarray) -> tuple[np.ndarray, MeasurementList]:
    """Three spread anchors per face of a realization with vertices X, (F, 3):
    its first vertex a, the vertex b farthest from a and the vertex c
    farthest from the line ab; and the side rows Coplanar(a, b, c, v), one
    per face and vertex v of it other than its anchors (none on a
    triangulated mesh)."""
    vi, fj = _incidence_indices(poly)
    starts = np.searchsorted(fj, np.arange(poly.face_count))
    d = X[vi] - X[vi[starts]][fj]
    b_row = _segment_argmax(_dot(d, d), starts, fj)
    e = _cross(d, d[b_row][fj])
    rows = np.column_stack([starts, b_row, _segment_argmax(_dot(e, e), starts, fj)])
    other = np.ones(len(vi), dtype=bool)
    other[rows] = False
    anchors = vi[rows]
    ids = np.column_stack([anchors[fj[other]], vi[other]])
    return anchors, MeasurementList.from_ids(len(ids), {Coplanar: (np.arange(len(ids)), ids)})


def _chart(
    poly: AbstractPolyhedron, scaled: Realization, g: int, tol_rel: float
) -> tuple[int, np.ndarray]:
    """The planar-faced first-order deformations modulo the g motions at a
    unit-diameter realization, in vertex coordinates; (rank of d_phi, Z).

    C is the Jacobian over the 3V vertex coordinates of the Coplanar side
    rows of _face_anchors. A vertex velocity dx keeps every face planar to
    first order exactly when C dx = 0, and the planes follow the vertices,
    so rank(d_phi) = 3F + rank(C); C G_x = 0 for the vertex rows G_x of
    motion_generators.

    One SVD of A = [C; c Q^T], Q an orthonormal basis of G_x and
    c = ||C||_F >= sigma_1(C): its values are the g motion values c, the
    largest, and those of C. With r = g plus the count of C's values above
    tol_rel times C's own sigma_1, Z (the last 3V - r right singular
    vectors) is an orthonormal basis of ker C orthogonal to G_x at every
    tolerance, the E + 6 - g nontrivial deformations, and rank(d_phi) =
    3F + r - g. Measurement rows annihilate the motions, so their rank
    there is that of J Z, which the verdicts cut at its own sigma_1.
    """
    X = scaled.vertices
    n = 3 * len(X)
    C = _face_anchors(poly, X)[1].sparse_jacobian(X).toarray()
    # orthonormal motion rows scaled to ||C||_F >= sigma_1(C): no cutoff reaches them
    Q = np.linalg.qr(motion_generators(scaled, g)[:n])[0]
    A = np.vstack([C, max(np.linalg.norm(C), 1.0) * Q.T])
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    r = g + _count_above(s[g:], tol_rel)
    return 3 * poly.face_count + r - g, Vt[r:].T


def _reduced_blocks(S: sparse.csr_matrix, Z: np.ndarray):
    """The rows of S Z, _ROW_BLOCK of them at a time, as dense blocks."""
    for start in range(0, S.shape[0], _ROW_BLOCK):
        yield S[start : start + _ROW_BLOCK] @ Z


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
    of d_phi (2E) plus the numeric rank of the rows on the chart basis Z of
    the E + 6 - g nontrivial deformations (_chart), counted above tol_rel
    times their own sigma_1; flex_dimension = target - rank.

    The rows are CSR, reduced onto Z in blocks of _ROW_BLOCK rows; each
    block is stacked under the triangular factor so far and factored again
    (R = qr([R; S_block Z], mode="r")). R is Q^T J Z for an orthogonal Q,
    so the singular values of R, counted above tol_rel sigma_1(R), are
    those of J Z, and no dense m x 3V Jacobian is formed.
    """
    g = _motion_dim(mode, measurements, allow_scale_variant)
    scaled = _unit_diameter(real)
    base, Z = _chart(poly, scaled, g, tol_rel)
    S = MeshMeasurements(poly, measurements).kernel.sparse_jacobian(scaled.vertices)
    R = np.empty((0, Z.shape[1]))
    for block in _reduced_blocks(S, Z):
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    rank = base + _count_above(np.linalg.svd(R, compute_uv=False), tol_rel)
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

    The scan runs on the chart basis Z of the nontrivial deformations
    (_chart), where the span of d_phi and the motions are zero: each row is
    reduced to Z once, and the row is accepted when its component
    orthogonal to the reduced rows kept so far exceeds tol_rel times the
    full row norm (with one reorthogonalization pass for stability). The
    rows are CSR: every full row norm comes from its nonzeros, and the
    reduced rows are formed _ROW_BLOCK at a time as the scan reaches them,
    so a scan that meets the target early reduces no further block. The
    motion group is decided by the whole pool. When the pool is sufficient,
    the selection has exactly targetRank - 2E elements: E measurements for
    congruence, E - 1 for similarity by angles.
    """
    g = _motion_dim(mode, pool, allow_scale_variant)
    if not pool:
        raise ValueError("pool is empty")
    scaled = _unit_diameter(real)
    S = MeshMeasurements(poly, pool).kernel.sparse_jacobian(scaled.vertices)
    # every row holds the entries of the points it touches, so no segment is empty
    row_norms = np.sqrt(np.add.reduceat(np.square(S.data), S.indptr[:-1]))
    rank, Z = _chart(poly, scaled, g, tol_rel)
    reduced = itertools.chain.from_iterable(_reduced_blocks(S, Z))
    # accepted residuals are orthonormal in the E + 6 - g coordinates of Z
    basis = np.empty((Z.shape[1], Z.shape[1]))

    target = 3 * poly.edge_count + 6 - g
    selected: list[Measurement3D] = []
    # Z has target - rank columns: a scan that starts at the target accepts nothing
    for m, row_norm, red in zip(pool, row_norms, reduced):
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
            if rank >= target:
                break

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

    Requires the set to be insufficient. Works at unit diameter on the
    vertices alone: picks a unit vertex velocity u = Z K c in the kernel of
    the measurement rows on the chart basis Z of is_sufficient (_chart),
    K an orthonormal basis of ker J Z (J Z taken from the CSR rows, as in
    is_sufficient; only the projection forms the dense Jacobian of the
    measurements and the Coplanar rows), steps away along u by `step` (a
    fraction of the diameter), and Gauss-Newton-projects back onto
    {psi = psi(R), Coplanar rows = 0} over the 3V vertex coordinates, the
    system point_set_witness solves, to residual 1e-10. The witness planes
    come from each face's anchor triple. Returns the projected realization,
    scaled back to the input's units, when it lies more than sqrt(1e-10) =
    1e-5 diameters from the input (normalized vertex distance), or None
    when the projection slides back to the start, the signature of a flex
    that exists to first order only: near a second-order-rigid point a
    residual of 1e-10 admits a drift of about 1e-5. So a step below about
    1e-4 cannot be certified.

    c is the top eigenvector of (H Z K)^T (H Z K), H the Jacobian of the
    face distances: u changes the face distances most for its length. By
    Dehn's theorem H is injective on Z, so no kernel basis decides u; only
    a tie (a symmetry of the solid) leaves the choice to rounding. The sign
    of u makes its largest entry positive.
    """
    g = _motion_dim(mode, measurements, allow_scale_variant)
    scaled = _unit_diameter(real)
    X = scaled.vertices
    psi = MeshMeasurements(poly, measurements).kernel
    base, Z = _chart(poly, scaled, g, tol_rel)
    M = psi.sparse_jacobian(X) @ Z
    # Vt must be square to hold the kernel; a tall M's thin SVD has that
    _, sm, Vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    extra = _count_above(sm, tol_rel)
    if base + extra >= 3 * poly.edge_count + 6 - g:
        raise NoKernelDirection("measurement set is sufficient; nothing to flex")

    ZK = Z @ Vt[extra:].T
    HZK = MeshMeasurements(poly, face_distance_pool(poly)).kernel.sparse_jacobian(X) @ ZK
    u = ZK @ np.linalg.eigh(HZK.T @ HZK)[1][:, -1]
    u *= np.sign(u[np.argmax(np.abs(u))]) / np.linalg.norm(u)

    anchors, side = _face_anchors(poly, X)
    targets = psi.values(X)

    def resid(x: np.ndarray) -> np.ndarray:
        P = x.reshape(-1, 3)
        return np.concatenate([psi.values(P) - targets, side.values(P)])

    def jac(x: np.ndarray) -> np.ndarray:
        P = x.reshape(-1, 3)
        return np.vstack([psi.jacobian(P), side.jacobian(P)])

    target = 1e-10
    x, ok = gauss_newton_project(
        resid, jac, X.ravel() + step * u, target=target, max_travel=100.0 * (step + 1.0)
    )
    if not ok:
        raise ProjectionDiverged(f"projection did not reach residual {target:g}")
    W = x.reshape(-1, 3)
    # each face's plane a.x = 1 through its anchor triple
    planes = np.linalg.solve(W[anchors], np.ones((poly.face_count, 3, 1)))[..., 0]
    result = Realization(W, planes)
    if normalized_distance(poly, scaled, result) > np.sqrt(target):
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
    locality: float | None = None,
    max_iter: int = 250,
) -> PointWitnessReport:
    """Uniqueness oracle for a labeled point configuration.

    Solves {measurement residuals = 0} by Levenberg-Marquardt from `restarts`
    perturbed copies of the reference (Gaussian noise of scale noise *
    diameter, per-restart generator seeded by (seed, restart index)), all
    restarts as one batch, keeps solutions with residual <= residual_tol,
    and clusters them in restart order modulo rigid motions (reflections allowed by default in 2D only, where unsigned
    measurements cannot tell mirror images apart), within CLUSTER_TOL *
    scale. The witness is a representative of any cluster farther than
    WITNESS_TOL * scale from the reference; None means every converged
    restart came back to the reference, i.e. the set is determined at
    oracle scale.

    WITNESS_TOL is deliberately coarser than CLUSTER_TOL: near a
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
    # pass with a far tighter target collapses that smear. 1e-15 is below
    # the rounding floor of most members (a residual of 1e-13 to 1e-14), so
    # they end by a stall, after a full sweep of damping values
    sols = lm_solve(resid, jac, x[ok], max_iter=80, target=1e-15)[0].reshape(-1, n, dim)
    to_ref = align_distance(ref, sols, allow_reflection)
    far = np.zeros(len(sols), dtype=bool) if locality is None else to_ref > locality * scale
    escaped = int(np.count_nonzero(far))
    converged = len(sols) - escaped

    reps: list[np.ndarray] = [ref]
    counts: list[int] = [0]
    dists: list[float] = [0.0]
    for sol, d in zip(sols[~far], to_ref[~far]):
        # the first representative within CLUSTER_TOL takes the solution
        hits = np.flatnonzero(
            align_distance(np.array(reps), sol, allow_reflection) <= CLUSTER_TOL * scale
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
        if d > WITNESS_TOL * scale:
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
        cluster_tol=CLUSTER_TOL,
        witness_tol=WITNESS_TOL,
    )
