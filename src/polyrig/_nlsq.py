"""Internal nonlinear least-squares helpers.

One solver, deterministic, and two rank certificates:

* lm_solve: Levenberg-Marquardt for square-to-overdetermined *or*
  underdetermined zero-residual systems, run from a batch of starts at
  once. Used by restart-based witness searches, where targets sit on
  rank-deficient constraint varieties and convergence near them is linear
  rather than quadratic, hence the generous default iteration budget. Its
  damping sweep runs as a ladder of 1, 2, 4, 8, 16 and 9 damping values
  per round, and from the fourth round on it stops below lam*, the damping
  value past which a trial provably gives back the iterate to the bit
  (_stall_floor): a member parked at its rounding floor stalls once its
  trials below lam* have failed, without solving or evaluating the rest of
  its forty. Each member runs on its own schedule:
  a step gives every member its next round, the first of a new iteration
  for one whose last trial won, so no member waits for another's ladder,
  and all of them share one stacked solve and one call of `evaluate`,
  which returns the residuals with data that `jacobian` turns into the
  Jacobians of the members that took a step (a plain residual f passes
  `lambda x: (f(x), x)`). gauss_newton_project, the flex witness's
  projection back onto a constraint manifold, is one lm_solve from one
  start.
* _gram_full_rank: the certificate, a proof that a matrix has full rank
  with a margin from one sparse LU (SuperLU, no row interchanges) of a
  shifted Gram matrix; numeric_rank tries it on every input and, when it
  fails, takes an SVD.
* _triangular_full_rank: the dense one, a proof that a square triangular
  factor R is nonsingular with a margin from its inverse (LAPACK dtrtri):
  the mesh verdicts try it on the QR factors of their chart, rank test and
  flex kernel, and take an SVD only when it fails.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dtrtri
from scipy.sparse.linalg import splu

from .pointsets import _dot

# a batch of points -> (residuals, data by member); data[idx] -> Jacobians
Evaluate = Callable[[np.ndarray], tuple[np.ndarray, Any]]
Jacobian = Callable[[Any], np.ndarray]


# why a member of a batched lm_solve stopped
CONVERGED, STALLED, EXHAUSTED = "converged", "stalled", "exhausted"


def _solve(M: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Stacked solve of M x = b; (x, solved), solved None when every member
    solved. A singular member gets solved False without failing the others."""
    try:
        return np.linalg.solve(M, b), None
    except np.linalg.LinAlgError:
        solved = np.ones(len(M), dtype=bool)
        x = np.zeros_like(b)
        for i in range(len(M)):
            try:
                x[i] = np.linalg.solve(M[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return x, solved


def _stall_floor(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """lam* of each member of an lm_solve iteration: from J^T J = A (m, N,
    N), -J^T r = b (m, N, 1) and the iterate x (m, N), a damping value past
    which every trial of the iteration is proved to fail; inf where the
    premises fail, and nothing is claimed.

    lam* = 8 max(||A||_1, ||A||_inf, ||b||_inf / q), q = min_j spacing(|x_j|)
    / 4, whose rounding (at most gamma_{N+2} relative) the margins below
    absorb. Let lam >= lam* and M = fl(A + lam I): its off-diagonal entries
    are those of A and its diagonal is at least lam (A's is a sum of
    squares), so every row and column of M has off-diagonal absolute sum at
    most lam / 8, a diagonal margin of 7 lam / 8 and absolute sum at most
    R = 1.13 lam.

    * No row interchange. The computed factors of k steps of any LU
      variant, blocked or recursive, are exact factors of M + E_k with
      |E_k| <= gamma_N (|L||U| + |S_k|), S_k the computed active matrix
      (Higham, Accuracy and Stability, Thm 9.3, whose sums may run in any
      order). Schur complements of a matrix diagonally dominant by rows and
      by columns stay so, with no smaller margin and no larger row sum (the
      growth bound behind Higham's Thm 9.9). So by induction |l_ij| < 1,
      every row of U sums to at most R + lam / 25, the rows of E_k sum to
      at most gamma_N (N + 1) 1.2 lam and its columns to gamma_N (2 N + 1)
      1.2 lam, both below lam / 25 when N gamma_{3N} <= 2^-5, and S_k keeps
      a diagonal margin above lam / 2: each pivot search of dgetrf finds
      the diagonal, and no pivot is zero, so the solve raises no
      LinAlgError.
    * A small step. The computed dx solves (M + dM) dx = b with |dM| <=
      gamma_{3N} |L||U| (Higham, Thm 9.4), so every row of dM sums to at
      most gamma_{3N} N 1.2 lam <= lam / 16. M + dM is then strictly
      diagonally dominant by rows with margin at least 13 lam / 16, hence
      ||dx||_inf <= ||b||_inf / (13 lam / 16) < q / 6 (Varah's bound).
    * A trial that fails. |dx_j| < spacing(|x_j|) / 4, less than half the
      gap between x_j and either neighbour, so x + dx rounds to x bit for
      bit, its residual and cost are the iterate's and the trial fails.
      Inside an iteration lam only grows, so every later trial fails too.

    The premises: every x_j a normal number (a zero coordinate moves by any
    step at all) with q > 0, A, b and x finite, and N gamma_{3N} <= 2^-5;
    lam* is inf where one fails.
    """
    N = A.shape[-1]
    floor = np.full(len(A), np.inf)
    if N * _gamma(3 * N) > 2.0**-5:
        return floor
    ax = np.abs(x)
    q = np.spacing(ax).min(axis=-1, initial=np.inf) / 4
    ok = (ax >= np.finfo(float).tiny).all(axis=-1) & (q > 0) & np.isfinite(ax).all(axis=-1)
    abs_A = np.abs(A)
    norm_A = np.maximum(abs_A.sum(axis=-1).max(axis=-1), abs_A.sum(axis=-2).max(axis=-1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = 8.0 * np.maximum(norm_A, np.abs(b).max(axis=(-2, -1)) / q)
    ok &= np.isfinite(bound)
    floor[ok] = bound[ok]
    return floor


# 2 j for the damping values lam 4^j of one iteration's 40 trials
_RUNGS = 2 * np.arange(40)


def _trials_below(lam: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """How many of the damping values lam 4^j, j = 0, 1, ..., 39, lie below
    floor, per member; 40 where floor is inf."""
    with np.errstate(over="ignore"):
        below = np.count_nonzero(np.ldexp(lam[:, None], _RUNGS) < floor[:, None], axis=1)
    return np.where(floor < np.inf, below, 40)


def lm_solve(
    evaluate: Evaluate,
    jacobian: Jacobian,
    x0: np.ndarray,
    max_iter: int = 250,
    target: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drive max|residual| below `target` from each of a batch of starts.

    x0 is a batch of B starts of any shape (B, ...), such as (B, n, dim)
    points, with N = prod(...) coordinates each. `evaluate` maps a (b, ...)
    batch to (r, data): the (b, m) residuals and data on those b points that
    can be indexed by member, and `jacobian(data[idx])` gives the (len(idx),
    m, N) Jacobian, over the flattened coordinates, at the points idx. A
    plain residual f with a Jacobian jac on points passes
    `lambda x: (f(x), x)` and jac; MeasurementList.evaluate and assemble
    split one kernel pass that way, so a Jacobian costs only a scatter at a
    point already evaluated. A point's residual must not depend on the
    other points of its batch. Returns (x, r, reason), x in x0's shape and r
    its residual, where reason[i] is CONVERGED (max|r_i| <= target),
    STALLED (no damping value in a sweep improved the cost) or EXHAUSTED
    (max_iter iterations).

    Classic multiplicative damping on J^T J + lam I: a step that lowers the
    cost is taken and lam *= 0.25 (floor 1e-14), one that does not gives
    lam *= 4, a singular solve gives lam *= 10, and 40 trials without a
    step stall the member. Each member keeps its own lam, trial and
    iteration counts, J^T J and J^T r, and runs on its own schedule: in an
    iteration it tries its damping values in rounds of 1, 2, 4, 8, 16, then
    up to 9 values lam 4^j at once and keeps the first rung that lowers the
    cost or is singular. Multiplying by 4 is exact, so lam, the iterates and
    the reason are those of one trial at a time from its start alone, bit
    for bit. In each step, every member whose last trial won starts its next
    iteration, with the Jacobian at the point it took, and every member
    still in its ladder takes its next round: the rows of all of them go
    through one stacked solve and one `evaluate` call, and the new
    iterations' Jacobians through one `jacobian` call. So a member that
    converges in few rounds never waits for another's ladder, and the steps
    number the most rounds any one member takes. A step where every member
    tries one value takes its rows as they are, with no ladder to lay out.

    A member at its rounding floor would sweep all 40 values for nothing.
    When it enters the fourth round of an iteration, _stall_floor gives the
    damping value lam* from which on a trial provably returns the iterate
    to the bit and fails: rungs at or past lam* are neither solved nor
    evaluated, and a member whose next lam reaches lam* stalls at once, as
    its remaining trials would have. The caller decides whether a final
    residual is acceptable.
    """
    shape = np.shape(x0)
    B, N = shape[0], math.prod(shape[1:])
    x = np.array(x0, dtype=float).reshape(B, N)
    r, data = evaluate(x.reshape(shape))
    cost = _dot(r, r)
    lam = np.full(B, 1e-3)
    # J^T J and -J^T r of each member's iteration, and per member the
    # iterations it started, the trials left in the current one, the size
    # of its next round and, from its fourth round on, the iteration's lam*
    A, b = np.empty((B, N, N)), np.empty((B, N, 1))
    iters, left, size = np.zeros(B, int), np.full(B, 40), np.zeros(B, int)
    floor = np.empty(B)
    # members that start an iteration, with their rows of `data` and their
    # residuals, and those inside a ladder
    start, at, rs, looking = np.arange(B), np.arange(B), r, np.zeros(0, int)
    while True:
        # a member inside its ladder takes a round of rungs; a step where
        # none is takes one rung a member, its rows as they are
        ladder = len(looking) > 0
        if len(start):
            go = (np.abs(rs).max(axis=1, initial=0.0) > target) & (iters[start] < max_iter)
            start, at = start[go], at[go]
        if len(start):
            J = jacobian(data[at])
            Jt = J.swapaxes(1, 2)
            A[start] = Jt @ J
            b[start] = -(Jt @ rs[go][:, :, None])
            iters[start] += 1
            left[start] = 40
            size[start] = 1
            looking = np.concatenate([looking, start])
        if not len(looking):
            break
        lam_l = lam[looking]
        if ladder:
            # k rungs lam 4^j, j < k, per member
            k = np.minimum(size[looking], left[looking])
            first = np.add.accumulate(k) - k
            own = np.arange(len(looking)).repeat(k)
            rung = np.arange(len(own)) - first[own]
            row, lam_row = looking[own], np.ldexp(lam_l[own], 2 * rung)
        else:
            k, row, lam_row = 1, looking, lam_l
        # J^T J + lam I: matmul sums from +0, so J^T J holds no -0 and adding
        # lam on the diagonal alone rounds as adding lam I
        M = A[row]
        M.reshape(len(row), N * N)[:, :: N + 1] += lam_row[:, None]
        dx, solved = _solve(M, b[row])
        xn = x[row] + dx[:, :, 0]
        rn, data = evaluate(xn.reshape(len(xn), *shape[1:]))
        cn = _dot(rn, rn)
        better = halt = cn < cost[row]
        if solved is not None:
            better = better & solved
            halt = better | ~solved
        # the first rung that lowers the cost or is singular stops the
        # member's round (stop == k: none did); rungs past it are discarded
        if ladder:
            stop = np.minimum.reduceat(np.where(halt, rung, k[own]), first)
            hit = first + np.minimum(stop, k - 1)
            won = (stop < k) & better[hit]
        else:
            stop, hit, won = (~halt).astype(int), np.arange(len(looking)), better
        lam_s = np.ldexp(lam_l, 2 * stop)
        left[looking] -= stop
        if solved is not None:
            # a singular rung counts as a trial and gives lam *= 10; past the
            # fourth round that moves lam off the values lam* was counted on
            singular = (stop < k) & ~won
            lam_s[singular] *= 10.0
            left[looking[singular]] -= 1
            late = singular & (size[looking] >= 8)
            left[looking[late]] = np.minimum(
                left[looking[late]], _trials_below(lam_s[late], floor[looking[late]])
            )
        lam[looking] = np.where(won, np.maximum(lam_s * 0.25, 1e-14), lam_s)
        start, at = looking[won], hit[won]
        rs = rn[at]
        x[start], r[start], cost[start] = xn[at], rs, cn[at]
        size[looking] *= 2
        looking = looking[~won & (left[looking] > 0)]
        # entering its fourth round, a member keeps only its trials below
        # lam*, past which every trial of the iteration is proved to fail;
        # with none below it stalls at once
        if ladder:
            fourth = looking[size[looking] == 8]
            if len(fourth):
                floor[fourth] = _stall_floor(A[fourth], b[fourth], x[fourth])
                left[fourth] = np.minimum(left[fourth], _trials_below(lam[fourth], floor[fourth]))
                looking = looking[left[looking] > 0]
    # a member out of trials stalled: one that took a step has some left
    reason = np.where(left == 0, STALLED, EXHAUSTED)
    reason[np.abs(r).max(axis=1, initial=0.0) <= target] = CONVERGED
    return x.reshape(shape), r, reason


def gauss_newton_project(
    evaluate: Evaluate,
    jacobian: Jacobian,
    x0: np.ndarray,
    target: float = 1e-10,
    max_travel: float | None = None,
) -> tuple[np.ndarray, bool]:
    """Damped Gauss-Newton steps from x0 toward residual = 0; (x, reached).

    One lm_solve of at most 100 iterations from x0 alone, driven to
    target * 1e-2 as point_set_witness drives its restarts, so a point that
    stops short still meets the target. x0 has any shape; `evaluate` takes
    a batch of such points and `jacobian` its data, as lm_solve's do. Every
    step solves (J^T J + lam I) dx = -J^T r, so on an underdetermined
    system x - x0 stays in the row space of J and the iterate does not
    drift along the manifold; the damping bounds the step where J is near
    singular.
    reached is max|r| <= target with x within max_travel of x0. A J or r
    that is not finite takes no step: (x0, False).
    """
    x0 = np.asarray(x0, dtype=float)
    (x,), (r,), _ = lm_solve(evaluate, jacobian, x0[None], 100, target * 1e-2)
    near = max_travel is None or np.linalg.norm(x - x0) <= max_travel
    return x, bool(near and np.abs(r).max(initial=0.0) <= target)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative error of
    k rounded operations in a row (Higham, Accuracy and Stability, 3.1)."""
    u = np.finfo(float).eps / 2
    return k * u / (1.0 - k * u)


def _gram_full_rank(M: sparse.spmatrix, tol: float) -> bool:
    """Whether one sparse LU of a shifted Gram matrix proves that M has full
    rank min(m, n) with a margin, sigma_n > 2 tol sigma_1; M is not changed.

    A is M, or M^T when M is wide, scaled by a power of two so that its
    largest entry lies in [1/2, 1), m x n with m >= n;
    s = 2 fl(||A||_F^2) >= ||A||_F^2, and c is the longest column of A.
    SuperLU factors C = fl(A^T A) - mu I, with
    mu = ((2 tol)^2 + 4 gamma_{n+2} + 4 gamma_{c+2}) s, in symmetric mode
    with the diagonal always taken as pivot. The proof needs no row
    interchange (perm_r == perm_c, so P C P^T = L U for one permutation P)
    and every pivot d_j = u_jj positive. Then, for the computed factors:

    * S = L D L^T, D = diag(d), is positive definite, being congruent to D
      (Sylvester's law of inertia).
    * A^T A - mu I = P^T S P - X with X = E1 + E2 + P^T (dA + L Delta) P,
      symmetric as a difference of symmetric matrices. E1, the rounding of
      fl(A^T A), has |E1| <= gamma_c |A^T| |A|, so ||E1|| <= gamma_c s; E2,
      that of subtracting mu, is diagonal and at most u (2 s + mu).
      dA = L U - P C P^T is the backward error of elimination,
      |dA| <= gamma_{k+1} |L| |U| with k the longest row of L (Higham,
      Thm 9.3, whose n counts the terms of each sum, which structural
      zeros do not add to; the one more covers a division by reciprocal).
      Delta = D L^T - U is what elimination leaves unequal between the two
      triangles.
    * |L| |U| <= |L| D |L^T| + |L| |Delta|. The first term is G G^T with
      G = |L| D^(1/2), so its norm is at most its trace t = sum l_ij^2 d_j
      (the argument of Rump, BIT 2006, for Cholesky). The second bounds
      L Delta too, and its norm is at most lam = sqrt(||V||_1 ||V||_inf),
      V = |L| W, where W = |fl(D L^T - U)| + u |U| is |Delta| up to
      rounding.
    * By Weyl's inequality, lambda_min(A^T A) > mu - eps with
      eps = gamma_c s + u (2 s + mu) + gamma_{k+1} (t + lam) + lam.

    The proof holds when mu >= (2 tol)^2 s + 2 eps, with eps evaluated in
    floating point; the factor 2 covers the rounding of t, lam and the test
    itself. Then sigma_n(A)^2 > (2 tol)^2 s >= (2 tol sigma_1(A))^2. As
    k <= n, mu leaves room for that whenever Delta is at rounding level.
    Underflow, not counted above, adds at most 2^-1074 per operation, far
    below mu >= 2^-50 (s >= 1/2 after the scaling).

    Every quantity is read from the CSC arrays of A, C, L and U. mu is
    subtracted on C's stored diagonal in place; a diagonal entry that
    fl(A^T A) does not store (a zero column of A) returns False. The rows
    of U, as its CSR arrays, must hold L's CSC pattern, so that entry p of
    L's arrays is l_ij and entry p of theirs u_ji, and each column of L
    must start at its diagonal, where U's rows give d; else it returns
    False. Then W_ji = |d_j l_ij - u_ji| + u |u_ji| is one expression on
    that pattern, t = sum_p l_p^2 d_j(p), k the longest column of U, and
    V's norms come from bincount sums: ||V||_inf the largest of
    |L| (W 1) and ||V||_1 the largest of (1^T |L|) W. Each of t, lam and
    their inner sums adds at most n^2 nonnegative terms, so any order of
    summation leaves a relative error below gamma_{n^2}, far inside the
    factor 2 above.
    Any failure (a row interchange, a pivot that is not positive, an
    exactly singular factor, a pattern or diagonal that is not as above, a
    margin too thin) returns False, and nothing is claimed.
    """
    A = sparse.csc_matrix(M.T if M.shape[0] < M.shape[1] else M, dtype=float, copy=True)
    A.sum_duplicates()
    top = np.abs(A.data).max(initial=0.0)
    if not 0.0 < top < np.inf:
        return False
    A.data = np.ldexp(A.data, -np.frexp(top)[1])
    n = A.shape[1]
    s = 2.0 * float(A.data @ A.data)
    c = int(np.diff(A.indptr).max())
    mu = ((2.0 * tol) ** 2 + 4.0 * (_gamma(n + 2) + _gamma(c + 2))) * s
    C = (A.T @ A).tocsc()
    diag = C.indices == np.repeat(np.arange(n), np.diff(C.indptr))
    if np.count_nonzero(diag) < n:
        return False
    C.data[diag] -= mu
    try:
        lu = splu(
            C, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # an exactly singular factor
        return False
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return False
    L, U = lu.L, lu.U
    L.sort_indices()
    Ur = U.tocsr()  # U's rows, sorted: entry p is u_ji where L's is l_ij
    if not (np.array_equal(Ur.indptr, L.indptr) and np.array_equal(Ur.indices, L.indices)):
        return False
    counts, first = np.diff(L.indptr), L.indptr[:-1]
    # each column of L, and so each row of U, starts at its diagonal
    if counts.min() == 0 or not np.array_equal(L.indices[first], np.arange(n)):
        return False
    d = Ur.data[first]
    if not (d > 0.0).all():
        return False
    u = np.finfo(float).eps / 2
    k = int(np.diff(U.indptr).max())
    cols = np.repeat(np.arange(n), counts)
    l, dj = L.data, d[cols]
    t = float(l * l @ dj)
    W = np.abs(dj * l - Ur.data) + u * np.abs(Ur.data)
    aL, rows = np.abs(l), L.indices
    v_inf = np.bincount(rows, aL * np.bincount(cols, W, n)[cols], n).max()
    v_one = np.bincount(rows, np.bincount(cols, aL, n)[cols] * W, n).max()
    lam = np.sqrt(v_one * v_inf)
    eps = _gamma(c) * s + u * (2.0 * s + mu) + _gamma(k + 1) * (t + lam) + lam
    return bool(mu >= (2.0 * tol) ** 2 * s + 2.0 * eps)


def _triangular_full_rank(R: np.ndarray, tol: float, sigma_1: float | None = None) -> bool:
    """Whether the inverse of a square upper-triangular R proves that R is
    nonsingular with a margin, sigma_n > 2 tol sigma_1; R is not changed.
    sigma_1 is R's own largest singular value, or, when given, an absolute
    threshold: a bound, in R's units, on the largest singular value of a
    matrix that R stands for.

    T is R scaled by a power of two so that its largest entry lies in
    [1/2, 1), which changes no ratio of singular values, and X = fl(T^-1)
    from LAPACK dtrtri. Its unblocked kernel forms column j of X from the
    columns before it, X(:j, j) = -x_jj X(:j, :j) T(:j, j), and its blocked
    one the block column X12 = -X11 T12 T22^-1 by a product and a
    triangular solve. Either leaves the left residual at
    |X T - I| <= gamma_{n+1} |X| |T| (Higham, Accuracy and Stability,
    ch. 14; Du Croz and Higham, IMA J. Numer. Anal. 1992), so with
    p >= ||X||_F ||T||_F:

    * X T = I + F with ||F||_2 <= ||F||_F <= delta = gamma_{n+1} p, hence
      T^-1 = (I + F)^-1 X and ||T^-1||_2 <= ||X||_F / (1 - delta) when
      delta < 1; the same bound follows from a right residual T X - I.
    * sigma_n(T) = 1 / ||T^-1||_2 >= (1 - delta) / ||X||_F and
      sigma_1(T) <= ||T||_F, so sigma_n / sigma_1 >= (1 - delta) / p.

    p is fl(||X||_F) fl(||T||_F) times 1 + gamma_{2 n^2 + 3}, which covers
    the rounding of the two sums of n^2 squares, their square roots and
    the product. The proof holds when 1 - 2 delta > 2 tol p; the second
    delta, at least gamma_2 as p >= 1, covers the rounding of the test.
    With a given sigma_1 the test takes p = fl(||X||_F) sigma_1 2^-e (1 +
    gamma_{n^2 + 3}) in its place, 2^e the scaling of T, as sigma_n(R) =
    2^e sigma_n(T) >= 2^e (1 - delta) / ||X||_F.
    Underflow, not counted above, adds at most 2^-1074 per operation, far
    below delta. An exactly singular or non-finite inverse, a matrix that
    is not square, zero or not finite returns False, and nothing is
    claimed. The test asks more than the count does: 1 / ||X||_F is as
    small as sigma_n / sqrt(n), so a matrix near the cutoff goes to an SVD.
    """
    n = len(R)
    if R.shape != (n, n):
        return False
    top = np.abs(R).max(initial=0.0)
    if not 0.0 < top < np.inf:
        return False
    e = np.frexp(top)[1]
    T = np.ldexp(R, -e)
    X, info = dtrtri(T)
    if info != 0 or not np.isfinite(X).all():
        return False
    X = np.triu(X)
    p = np.linalg.norm(X) * np.linalg.norm(T) * (1.0 + _gamma(2 * n * n + 3))
    delta = _gamma(n + 1) * p
    if sigma_1 is not None:
        p = np.linalg.norm(X) * np.ldexp(sigma_1, -e) * (1.0 + _gamma(n * n + 3))
    return bool(1.0 - 2.0 * delta > 2.0 * tol * p)
