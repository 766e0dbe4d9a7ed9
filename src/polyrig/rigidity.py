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
are ker C. One complete QR of C stacked with the motions' vertex rows,
orthonormalized and scaled past sigma_1(C), gives the rank of d_phi and an
orthonormal basis Z of the nontrivial first-order deformations (of the
motions' rows alone, as they are, on a triangulated mesh, which has no
side rows); no computation sees the plane coefficients. The measurements locally
determine the realization up to the motion group exactly when J Z reaches
rank E + 6 - g, i.e. when the stack [d_phi; rows] reaches 3E + 6 - g; the
shortfall is the flex dimension. This reduces the geometric question to
numeric rank.

Every count is taken from a triangular factor when it can be proved:
_nlsq._triangular_full_rank shows from R^-1 that a square R has sigma_min
> 2 tol_rel sigma_1, so all its values clear the cutoff and no SVD is
needed. The rank test's R takes that proof first, and so does _kernel, the
one rank-and-kernel step of the chart and of the flex witness's J Z (from a
complete QR of the wide matrix's transpose), unless every row is a kept
motion; each takes an SVD only when it fails: a rank-deficient factor, or
one too near the cutoff. The three mesh
verdicts take their unit-diameter vertices, chart, CSR rows and target rank
from one setup, _setup.

The measurement rows never exist as a dense m x 3V matrix: they are taken
as CSR (MeasurementList.sparse_jacobian, at most twelve nonzeros a row) and
reduced onto Z _ROW_BLOCK rows at a time (_reduced_blocks). The rank test
streams the blocks through a Householder QR that keeps only its triangular
factor R; R is an orthogonal transform of J Z, so sigma(R) = sigma(J Z).
Besides the CSR rows, a verdict holds O(_ROW_BLOCK (E + 6 - g)) numbers
whatever the pool's length. A pool of more than _SKETCH_ROWS rows per
column of Z is first ranked from one CountSketch of J Z, whose count is
kept only when it is proved (_sketched_rank).

Beyond the rank tests this module provides the greedy extraction of a
minimal sufficient subset (accept a measurement exactly when its gradient
row leaves the span built so far), a flex witness for insufficient sets
(step along a kernel direction of J Z, then project back onto the
measurements and the Coplanar rows over the vertices), and a restart-based
global witness search for labeled point configurations, which covers
claims that are invisible to first-order rank analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from ._nlsq import (
    EXHAUSTED,
    STALLED,
    _gamma,
    _gram_full_rank,
    _triangular_full_rank,
    gauss_newton_project,
    lm_solve,
)
from .errors import NoConvergedRestarts, NoKernelDirection, ProjectionDiverged
from .geometry import (
    FaceDistance,
    Measurement3D,
    Realization,
    _incidence_indices,
    _mesh_ids,
    _vertices_of,
    face_distance_pool,
    mesh_kernel,
)
from .incidence import AbstractPolyhedron
from .pointsets import (
    Coplanar,
    MeasurementIds,
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

# how many measurement rows the mesh verdicts reduce onto the chart basis at a
# time, and how many of them the greedy scan projects off its basis at once
_ROW_BLOCK = 2048
_SUB_BLOCK = 64

# a rank test on more rows than _SKETCH_ROWS per column of its chart first
# ranks a CountSketch of them with that many rows per column, drawn from a
# generator of this fixed seed (_sketched_rank)
_SKETCH_ROWS = 4
_SKETCH_SEED = 0

# the residual at which a witness search, a flex projection or an octagon
# SQP member counts as on its constraints; point_set_witness's witness
# distance, times its scale, and its iteration budget per restart
RESIDUAL_TOL = 1e-10
WITNESS_TOL = 1e-4
MAX_ITER = 250


def _motion_dim(mode: str, measurements: MeasurementIds, allow_scale_variant: bool) -> int:
    """The dimension g of the motion group a verdict on `measurements` is
    taken modulo: 6 for congruence, 7 for similarity, and 6 for a
    similarity set holding a distance, which pins the scale."""
    if mode == CONGRUENCE:
        return 6
    if mode != SIMILARITY:
        raise ValueError(f"mode must be {CONGRUENCE!r} or {SIMILARITY!r}, got {mode!r}")
    if FaceDistance not in measurements.ids:
        return 7
    if not allow_scale_variant:
        raise ValueError(
            "similarity mode expects scale-invariant (angle) measurements; "
            "pass allow_scale_variant=True (--allow-scale-variant on the command "
            "line) to include distances anyway"
        )
    return 6


# --- generator matrices -------------------------------------------------------


def motion_generators(real: Realization, g: int) -> np.ndarray:
    """3V x g matrix whose columns are the infinitesimal motions of the
    vertices: the six rigid motions, then uniform scaling when g = 7.

    Translation along axis e moves every vertex by e, rotation with angular
    velocity w moves a vertex p by w x p, and scaling moves it by p.
    """
    X = real.vertices
    G = np.zeros((len(X), 3, g))
    G[:, range(3), range(3)] = 1.0
    # the rotation about axis a moves a point y by e_a x y
    G[:, [0, 0, 1, 1, 2, 2], [4, 5, 3, 5, 3, 4]] = X[:, [2, 1, 2, 0, 1, 0]] * [
        1.0, -1.0, -1.0, 1.0, 1.0, -1.0
    ]
    if g == 7:
        G[:, :, 6] = X
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
    with a factor-2 margin, its rounding bound read from the arrays of the
    Gram matrix and its factors. A proof makes min(m, n) the answer, with
    no SVD taken; a rank-deficient matrix, or one whose smallest singular
    value lies too near the cutoff for the proof, gets the count from an
    SVD. M must be finite.
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


def _face_anchors(
    poly: AbstractPolyhedron, X: np.ndarray
) -> tuple[np.ndarray, MeasurementIds]:
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
    return anchors, MeasurementIds(len(ids), {Coplanar: (np.arange(len(ids)), ids)})


def _kernel(M: np.ndarray, tol_rel: float, keep: int = 0) -> tuple[int, np.ndarray]:
    """The rank of M and an orthonormal basis of its kernel, as columns:
    its first `keep` singular values count, and the rest count above
    tol_rel times the largest of them.

    A wide M has full row rank, and its kernel is Q_2, in a complete QR
    M^T = [Q_1 Q_2] [R; 0] when every row's value counts: when keep == m,
    with no certificate taken, or when _triangular_full_rank proves R
    nonsingular with a margin. Any other M takes both from an SVD, a full
    one for a wide M, whose kernel a thin Vt does not hold.
    """
    m, n = M.shape
    if m < n:
        Q, R = np.linalg.qr(M.T, mode="complete")
        if keep == m or _triangular_full_rank(R[:m], tol_rel):
            return m, Q[:, m:]
    _, s, Vt = np.linalg.svd(M, full_matrices=m < n)
    rank = keep + _count_above(s[keep:], tol_rel)
    return rank, Vt[rank:].T


def _chart(
    poly: AbstractPolyhedron, scaled: Realization, g: int, tol_rel: float
) -> tuple[int, np.ndarray, np.ndarray, MeasurementIds]:
    """The planar-faced first-order deformations modulo the g motions at a
    unit-diameter realization, in vertex coordinates; (rank of d_phi, Z,
    anchors, side), the last two those of _face_anchors.

    C is the Jacobian over the 3V vertex coordinates of the Coplanar side
    rows of _face_anchors. A vertex velocity dx keeps every face planar to
    first order exactly when C dx = 0, and the planes follow the vertices,
    so rank(d_phi) = 3F + rank(C); C G_x = 0 for the motions G_x of
    motion_generators.

    A = [C; c Q^T], Q an orthonormal basis of G_x and c = ||C||_F >=
    sigma_1(C): its singular values are the g motion values c, the
    largest, and those of C. With r = g plus the count of C's values above
    tol_rel times C's own sigma_1, Z, an orthonormal basis of the
    complement of A's first r right singular vectors, is one of ker C
    orthogonal to G_x at every tolerance, the E + 6 - g nontrivial
    deformations, and rank(d_phi) = 3F + r - g. Measurement rows annihilate
    the motions, so their rank there is that of J Z, which the verdicts cut
    at its own sigma_1. A triangulated mesh has no side rows, and A is
    G_x^T itself: its g rows are all kept motions.

    A has 2E - 3F + g = 3V - (E + 6 - g) rows (Euler), fewer than its 3V
    columns, so _kernel(A, tol_rel, keep=g) gives r and Z: from a complete
    QR of A^T once the square R is proved nonsingular with a margin (then
    sigma_min(A) > 2 tol_rel c >= 2 tol_rel sigma_1(C), every value of C
    counts, and r is A's row count), else from an SVD. With no side rows
    every row is kept, and Z completes G_x from one complete QR of G_x
    with no certificate.
    """
    X = scaled.vertices
    anchors, side = _face_anchors(poly, X)
    G = motion_generators(scaled, g)
    A = G.T
    if len(side):
        C = MeasurementList(side).jacobian(X)
        # orthonormal motion rows scaled to ||C||_F >= sigma_1(C): no cutoff reaches them
        A = np.vstack([C, max(np.linalg.norm(C), 1.0) * np.linalg.qr(G)[0].T])
    r, Z = _kernel(A, tol_rel, keep=g)
    return 3 * poly.face_count + r - g, Z, anchors, side


def _reduced_blocks(S: sparse.csr_matrix, Z: np.ndarray):
    """The rows of S Z, _ROW_BLOCK of them at a time, as dense blocks; each
    block's rows are views of the arrays of S, which a slice would copy."""
    for start in range(0, S.shape[0], _ROW_BLOCK):
        p = S.indptr[start : start + _ROW_BLOCK + 1]
        rows = (S.data[p[0] : p[-1]], S.indices[p[0] : p[-1]], p - p[0])
        yield sparse.csr_matrix(rows, shape=(len(p) - 1, S.shape[1])) @ Z


def _greedy_scan(S: sparse.csr_matrix, Z: np.ndarray, tol_rel: float, room: int) -> list[int]:
    """The rows of S that greedy_minimal_subset keeps, in order, at most room
    of them: a row is kept when its reduced row S_i Z, less its projection
    on the reduced rows kept before it (twice, the second pass a
    reorthogonalization), exceeds tol_rel times its full norm.

    The kept residuals form an orthonormal basis. Each _SUB_BLOCK rows of
    a reduced block are projected off the basis kept before them in two
    BLAS-3 passes, and then each row, in order, off the rows kept within
    its sub-block, also twice; the two bases are orthogonal, so this is
    the per-row projection on every row kept so far.
    """
    # every row holds the entries of the points it touches, so no segment is empty
    row_norms = np.sqrt(np.add.reduceat(np.square(S.data), S.indptr[:-1])).tolist()
    # accepted residuals are orthonormal in the columns of Z
    basis = np.empty((Z.shape[1], Z.shape[1]))
    kept: list[int] = []
    for offset, block in zip(range(0, S.shape[0], _ROW_BLOCK), _reduced_blocks(S, Z)):
        for sub in range(0, len(block), _SUB_BLOCK):
            old = basis[: len(kept)]
            P = block[sub : sub + _SUB_BLOCK]
            P = P - (P @ old.T) @ old
            P -= (P @ old.T) @ old
            first = len(kept)
            for i, res in enumerate(P, offset + sub):
                # projecting off no kept rows would subtract exact zeros
                if len(kept) > first:
                    new = basis[first : len(kept)]
                    res = res - new.T @ (new @ res)
                    res -= new.T @ (new @ res)
                # np.linalg.norm's own formula for a vector
                res_norm = math.sqrt(res @ res)
                if res_norm > tol_rel * row_norms[i]:
                    basis[len(kept)] = res / res_norm
                    kept.append(i)
                    if len(kept) >= room:
                        return kept
    return kept


def _streamed_rank(S: sparse.csr_matrix, Z: np.ndarray, tol_rel: float) -> int:
    """The numeric rank of J Z, J the rows S: its singular values above
    tol_rel times its largest.

    The rows are reduced onto Z in blocks of _ROW_BLOCK rows; each block is
    stacked under the triangular factor so far and factored again (R =
    qr([R; S_block Z], mode="r")). R is Q^T J Z for an orthogonal Q, so the
    singular values of R are those of J Z, and no dense m x 3V Jacobian is
    formed. A square R that _triangular_full_rank proves nonsingular with a
    margin counts all its values with no SVD; any other R takes its count
    from one.
    """
    R = np.empty((0, Z.shape[1]))
    for block in _reduced_blocks(S, Z):
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    if _triangular_full_rank(R, tol_rel):
        return len(R)
    return _count_above(np.linalg.svd(R, compute_uv=False), tol_rel)


def _sketched_rank(S: sparse.csr_matrix, Z: np.ndarray, tol_rel: float) -> int | None:
    """The numeric rank of M = J Z, J the m rows S and Z the N orthonormal
    columns of the chart, proved from one CountSketch, or None.

    The sketch C (k x m, k = _SKETCH_ROWS N) sends each row of J to one
    of k buckets with a sign +-1, both from one generator of seed
    _SKETCH_SEED (Clarkson & Woodruff, STOC 2013; Woodruff, Sketching as a
    Tool for Numerical Linear Algebra, 2014). B = C J Z is k x N, and one
    QR gives its triangular factor R. The proof needs no property of the
    draw:

    * C C^T is diagonal, the bucket counts, so ||C||_2 = c = sqrt(max
      count) exactly, and sigma_min(M W) >= sigma_min(B W) / c for any W.
    * sigma_1(M) <= ||J||_F ||Z||_2 = ||J||_F <= f, f = fl(||J||_F)
      rounded up.
    * Forming B and its QR moves its singular values by at most
      e = 2 sqrt(N) gamma_w c f, w = max count + 3V + N + 16 N (k + N):
      the bucket sums (a count's terms each), the products with Z (3V) and
      with W (N), and the backward error of Householder QR (Higham,
      Accuracy and Stability, Thm 19.4, taking its constant as 16) on B
      and on R W.

    Full rank: _triangular_full_rank(R, tol_rel, sigma_1=c f + e / (2
    tol_rel)) proves sigma_N(B) > 2 tol_rel c f, so sigma_N(M) > 2 tol_rel
    sigma_1(M). Otherwise an SVD of R guesses the flex dimension d, the
    values of R not above tol_rel times its largest, with right singular
    vectors x (the largest), K (the last d) and W (the other N - d):

    * J Z x is taken on all m rows, and sigma_1(M) >= ||J Z x||; J Z K too,
      and by Courant-Fischer d singular values of M are at most ||J Z K||_F.
      Both are taken less or more their rounding: of the products, 2
      gamma_{3V + N + r} f sqrt(N d) with r the longest row of S, and of
      the norms, a factor 1 -+ gamma_{m + d + 2}. The bound must lie below
      tol_rel sigma_1(M) / 2.
    * The factor of R W, certified as in the full-rank case, proves the
      other N - d values above 2 tol_rel sigma_1(M).

    A rank of N - d then counts the values of M above tol_rel sigma_1(M)
    with a factor 2 on either side of the cutoff. Z, K and W are
    orthonormal up to rounding far inside these margins. A guess of 0 or N,
    or a proof that fails, gives None, and the caller streams the rows.
    """
    m, (n, N) = S.shape[0], Z.shape
    k = _SKETCH_ROWS * N
    # row i of J goes to bucket draw_i // 2 with sign (-1)^draw_i: column i of C
    draw = np.random.default_rng(_SKETCH_SEED).integers(2 * k, size=m)
    C = sparse.csr_matrix((1.0 - 2.0 * (draw & 1), (draw >> 1, np.arange(m))), shape=(k, m))
    R = np.linalg.qr((C @ S).toarray() @ Z, mode="r")
    counts = np.diff(C.indptr)
    c = math.sqrt(counts.max())
    f = math.sqrt(S.data @ S.data) * (1.0 + _gamma(S.nnz + 2))
    e = 2.0 * math.sqrt(N) * _gamma(int(counts.max()) + n + N + 16 * N * (k + N)) * c * f
    threshold = c * f + e / (2.0 * tol_rel)
    if _triangular_full_rank(R, tol_rel, threshold):
        return N
    _, s, Vt = np.linalg.svd(R)
    rank = _count_above(s, tol_rel)
    d = N - rank
    if not 0 < rank < N:
        return None
    # the columns J Z x and J Z K, squared and summed _ROW_BLOCK rows at a time
    blocks = _reduced_blocks(S, Z @ np.vstack([Vt[:1], Vt[rank:]]).T)
    norms = np.sqrt(sum(np.einsum("ij,ij->j", B, B) for B in blocks))
    r = int(np.diff(S.indptr).max())
    slack, rounding = 2.0 * _gamma(n + N + r) * f * math.sqrt(N * d), _gamma(m + d + 2)
    sigma_1 = norms[0] * (1.0 - rounding) - slack
    flex = math.hypot(*norms[1:]) * (1.0 + rounding) + slack
    if not flex <= tol_rel * sigma_1 / 2.0:
        return None
    W = np.linalg.qr(R @ Vt[:rank].T, mode="r")
    return rank if _triangular_full_rank(W, tol_rel, threshold) else None


def _setup(
    poly: AbstractPolyhedron, real: Realization, measurements: Sequence[Measurement3D],
    mode: str, tol_rel: float, allow_scale_variant: bool,
) -> tuple[int, np.ndarray, sparse.csr_matrix, int, np.ndarray, np.ndarray, MeasurementIds, float]:
    """The setup the three mesh verdicts share: (rank of d_phi, Z, S,
    target, X, anchors, side, diam). X are the vertices of the realization
    scaled to unit diameter, diam its diameter, S the CSR measurement rows
    over X, target = 3E + 6 - g for the motion group of _motion_dim, and
    the rest _chart's at X. A realization with another vertex count than
    poly's raises ValueError."""
    _vertices_of(poly, real)
    measurements = _mesh_ids(measurements)
    g = _motion_dim(mode, measurements, allow_scale_variant)
    diam = real.diameter()
    scaled = real.rescaled(1.0 / diam)
    base, Z, anchors, side = _chart(poly, scaled, g, tol_rel)
    S = mesh_kernel(poly, measurements).sparse_jacobian(scaled.vertices)
    return base, Z, S, 3 * poly.edge_count + 6 - g, scaled.vertices, anchors, side, diam


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


def _report(
    poly: AbstractPolyhedron, mode: str, rank: int, target: int,
    selected: tuple[Measurement3D, ...] | None, tol_rel: float,
) -> SufficiencyReport:
    """The report of a verdict that reached `rank` of `target`, which no
    verdict exceeds."""
    return SufficiencyReport(
        mode=mode, edge_count=poly.edge_count, achieved_rank=rank, target_rank=target,
        sufficient=rank >= target, flex_dimension=target - rank, selected=selected,
        tolerance_used=tol_rel,
    )


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

    The rows are CSR. A pool with more than _SKETCH_ROWS rows per column of
    Z first takes _sketched_rank, which ranks one CountSketch of J Z and
    proves its count or gives up. Any other pool, and any count the sketch
    does not prove, takes _streamed_rank; both count J Z above tol_rel
    times its own sigma_1, so a proved count is the streamed one wherever
    that count does not rest on rounding at the cutoff.
    """
    base, Z, S, target = _setup(poly, real, measurements, mode, tol_rel, allow_scale_variant)[:4]
    rank = None
    if 0 < _SKETCH_ROWS * Z.shape[1] < S.shape[0]:
        rank = _sketched_rank(S, Z, tol_rel)
    if rank is None:
        rank = _streamed_rank(S, Z, tol_rel)
    return _report(poly, mode, base + rank, target, None, tol_rel)


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
    full row norm (with one reorthogonalization pass for stability;
    _greedy_scan projects _SUB_BLOCK rows at a time off the rows kept
    before them). The rows are CSR: every full row norm comes from its
    nonzeros, and the reduced rows are formed _ROW_BLOCK at a time as the
    scan reaches them, so a scan that meets the target early reduces no
    further block. The motion group is decided by the whole pool. When the
    pool is sufficient, the selection has exactly targetRank - 2E elements:
    E measurements for congruence, E - 1 for similarity by angles.
    """
    if not len(pool):
        raise ValueError("pool is empty")
    pool = _mesh_ids(pool)
    rank, Z, S, target = _setup(poly, real, pool, mode, tol_rel, allow_scale_variant)[:4]
    # Z has target - rank columns: a scan that starts at the target accepts nothing
    selected = tuple(pool.take(_greedy_scan(S, Z, tol_rel, target - rank)))
    return _report(poly, mode, rank + len(selected), target, selected, tol_rel)


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
    K an orthonormal basis of ker J Z (_kernel; J Z taken from the CSR
    rows, as in is_sufficient; only the projection forms the dense Jacobian
    of the measurements and the Coplanar rows), steps away along u by
    `step` (a fraction of the diameter), and projects back onto {psi = psi(R),
    Coplanar rows = 0} over the 3V vertex coordinates, one list of the
    measurements then the side rows of _face_anchors, as point_set_witness
    solves it, with its solver (gauss_newton_project, one lm_solve) to
    residual RESIDUAL_TOL = 1e-10. The witness planes come from each face's
    anchor triple. Returns the projected realization, scaled back to the
    input's units, when it lies more than sqrt(1e-10) = 1e-5 diameters from
    the input after the best proper rigid placement (align_distance, which
    no vertex numbering enters), or None when the projection slides back to
    the start, the signature of a flex that exists to first order only:
    near a second-order-rigid point a residual of 1e-10 admits a drift of
    about 1e-5. u is a unit vector and the projection adds O(step^2), so
    no vertex moves much farther than |step|: a step with |step| <= 1e-5
    cannot clear that radius and raises ValueError.

    c is the top eigenvector of (H Z K)^T (H Z K), H the Jacobian of the
    face distances: u changes the face distances most for its length. By
    Dehn's theorem H is injective on Z, so no kernel basis decides u; only
    a tie (a symmetry of the solid) leaves the choice to rounding. The sign
    of u makes its largest entry positive.
    """
    if not abs(step) > 1e-5:
        raise ValueError(f"|step| must exceed 1e-5, the witness radius; got {step:g}")
    ms = _mesh_ids(measurements)
    base, Z, S, target, X, anchors, side, diam = _setup(
        poly, real, ms, mode, tol_rel, allow_scale_variant
    )
    extra, K = _kernel(S @ Z, tol_rel)
    if base + extra >= target:
        raise NoKernelDirection("measurement set is sufficient; nothing to flex")

    ZK = Z @ K
    HZK = mesh_kernel(poly, face_distance_pool(poly)).sparse_jacobian(X) @ ZK
    u = ZK @ np.linalg.eigh(HZK.T @ HZK)[1][:, -1]
    u *= np.sign(u[np.argmax(np.abs(u))]) / np.linalg.norm(u)

    # one list: the measurements, then the side rows, whose target is 0
    kernel = mesh_kernel(poly, ms + side)
    targets = kernel.values(X)
    targets[len(ms):] = 0.0
    W, ok = gauss_newton_project(
        *kernel.residual(targets), X + step * u.reshape(-1, 3),
        target=RESIDUAL_TOL, max_travel=100.0 * (abs(step) + 1.0),
    )
    if not ok:
        raise ProjectionDiverged(f"projection did not reach residual {RESIDUAL_TOL:g}")
    if align_distance(X, W) <= np.sqrt(RESIDUAL_TOL):
        return None
    # each face's plane a.x = 1 through its anchor triple
    planes = np.linalg.solve(W[anchors], np.ones((poly.face_count, 3, 1)))[..., 0]
    return Realization(W, planes).rescaled(diam)


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
    residual above residual_tol) or `exhausted` (ran out of iterations).
    `residual_tol` is the search's RESIDUAL_TOL, `cluster_tol` the cluster
    radius, sqrt(residual_tol), and `witness_tol` the distance a witness
    lies beyond, WITNESS_TOL; the search takes both times its scale,
    max(1, diameter)."""

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


def _perturbed_starts(ref: np.ndarray, spread: float, restarts: int, seed: int) -> np.ndarray:
    """The starts of a restart search, one (restarts, *ref.shape) batch:
    restart i is ref plus Gaussian noise of scale `spread` from the
    generator seeded by (seed, i). A negative `restarts` or `seed` raises
    ValueError that names it."""
    for name, value in (("restarts", restarts), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    return np.array([
        ref + spread * np.random.default_rng([seed, i]).standard_normal(ref.shape)
        for i in range(restarts)
    ]).reshape(restarts, *ref.shape)


def point_set_witness(
    dim: int,
    points: np.ndarray,
    measurements: Sequence[SimpleMeasurement],
    restarts: int = 200,
    seed: int = 0,
    noise: float = 0.5,
    coplanar: Sequence[tuple[int, int, int, int]] = (),
    allow_reflection: bool | None = None,
    locality: float | None = None,
) -> PointWitnessReport:
    """Uniqueness oracle for a labeled point configuration.

    Solves {measurement residuals = 0} by Levenberg-Marquardt from `restarts`
    perturbed copies of the reference (Gaussian noise of scale noise *
    diameter, per-restart generator seeded by (seed, restart index)), all
    restarts as one batch, keeps solutions with residual <= RESIDUAL_TOL
    (1e-10), and clusters them in restart order modulo rigid motions
    (reflections allowed by default in 2D only, where unsigned measurements
    cannot tell mirror images apart), within sqrt(RESIDUAL_TOL) * scale,
    the report's cluster_tol times the scale. The witness is a
    representative of any cluster farther than WITNESS_TOL * scale from the
    reference; None means every converged restart came back to the
    reference, i.e. the set is determined at oracle scale.

    The cluster radius is what a residual of RESIDUAL_TOL resolves. The
    sets this search settles are first-order deficient, so at a solution
    the Jacobian loses rank and the residual grows only quadratically with
    the distance along the flex: solutions at RESIDUAL_TOL scatter up to
    about sqrt(RESIDUAL_TOL) from the true point without being different
    shapes, and a second solver pass to a tighter target does not close
    that gap, since rounding holds the residual near 1e-13. The radius is
    1e-5, below WITNESS_TOL (1e-4).

    `locality`, when given, bounds the search to a neighborhood: converged
    solutions farther than locality * scale from the reference are counted
    in `escaped` and ignored. This is the oracle for claims that are local
    by definition, where distant discrete solutions (a reflected tail of a
    staircase polygon, say) do not refute anything.

    `coplanar` quadruples add side constraints [q-p, r-p, s-p] = 0 for 3D
    searches whose claims presume planar faces. A negative `restarts` or
    `seed` raises ValueError; no restarts at all raise NoConvergedRestarts.
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

    diam = diameter(ref)
    scale = max(1.0, diam)

    x0 = _perturbed_starts(ref, noise * diam, restarts, seed)
    x, r, reason = lm_solve(*kernel.residual(targets), x0, max_iter=MAX_ITER,
                            target=RESIDUAL_TOL * 1e-2)
    ok = np.abs(r).max(axis=1, initial=0.0) <= RESIDUAL_TOL
    stalled = int(np.count_nonzero(~ok & (reason == STALLED)))
    exhausted = int(np.count_nonzero(~ok & (reason == EXHAUSTED)))
    sols = x[ok]
    to_ref = align_distance(ref, sols, allow_reflection)
    far = np.zeros(len(sols), dtype=bool) if locality is None else to_ref > locality * scale
    escaped = int(np.count_nonzero(far))
    converged = len(sols) - escaped

    if converged == 0:
        raise NoConvergedRestarts(
            f"no restart reached residual {RESIDUAL_TOL:g} in {restarts} tries")

    # the first representative within the cluster radius takes a solution.
    # The reference is the first, and to_ref is already each solution's
    # distance to it, so a restart that came back joins its cluster with no
    # further alignment; the others are aligned against the representatives
    # after it
    cluster_tol = float(np.sqrt(RESIDUAL_TOL))
    radius = cluster_tol * scale
    back = to_ref <= radius
    reps, counts, dists = [ref], [int(np.count_nonzero(back & ~far))], [0.0]
    rest = ~back & ~far
    for sol, d in zip(sols[rest], to_ref[rest]):
        hits = []
        if len(reps) > 1:
            to_reps = align_distance(np.array(reps[1:]), sol, allow_reflection)
            hits = np.flatnonzero(to_reps <= radius)
        if len(hits):
            counts[1 + hits[0]] += 1
        else:
            reps.append(sol)
            counts.append(1)
            dists.append(float(d))

    witness = next((rep for rep, d in zip(reps, dists) if d > WITNESS_TOL * scale), None)
    clusters = tuple(map(PointCluster, reps, counts, dists))
    return PointWitnessReport(
        witness=witness,
        clusters=clusters,
        converged=converged,
        escaped=escaped,
        stalled=stalled,
        exhausted=exhausted,
        restarts=restarts,
        residual_tol=RESIDUAL_TOL,
        cluster_tol=cluster_tol,
        witness_tol=WITNESS_TOL,
    )
