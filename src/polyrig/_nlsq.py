"""Internal nonlinear least-squares helpers.

Two solvers, both deterministic:

* lm_solve: Levenberg-Marquardt for square-to-overdetermined *or*
  underdetermined zero-residual systems, run from a batch of starts at
  once. Used by restart-based witness searches, where targets sit on
  rank-deficient constraint varieties and convergence near them is linear
  rather than quadratic, hence the generous default iteration budget.
* gauss_newton_project: minimum-norm Gauss-Newton iteration x -= pinv(J) r,
  used to project a perturbed point back onto a constraint manifold while
  moving as little as possible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Residual = Callable[[np.ndarray], np.ndarray]
Jacobian = Callable[[np.ndarray], np.ndarray]


# why a member of a batched lm_solve stopped
CONVERGED, STALLED, EXHAUSTED = "converged", "stalled", "exhausted"


def _sq(r: np.ndarray) -> np.ndarray:
    # r @ r per row; a (1, m) @ (m, 1) matmul rounds as the 1-D dot does
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _solve(M: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked solve of M x = b; (x, solved). A singular member gets
    solved False without failing the others."""
    solved = np.ones(len(M), dtype=bool)
    try:
        return np.linalg.solve(M, b), solved
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for i in range(len(M)):
            try:
                x[i] = np.linalg.solve(M[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return x, solved


def lm_solve(
    residual: Residual,
    jacobian: Jacobian,
    x0: np.ndarray,
    max_iter: int = 250,
    target: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drive max|residual| below `target` from each of a batch of starts.

    x0 has shape (B, N); `residual` maps (b, N) to (b, m) and `jacobian`
    maps (b, N) to (b, m, N). Returns (x, residual(x), reason), where
    reason[i] is CONVERGED (max|r_i| <= target), STALLED (no damping value
    in a sweep improved the cost) or EXHAUSTED (max_iter iterations).

    Classic multiplicative damping on J^T J + lam I. Each member keeps its
    own lam and stopping rule, so its iterates are those of a run from its
    start alone; the members still active share one Jacobian call per
    iteration, and each damping trial is one stacked solve and one residual
    call over the members still looking for a step. The caller decides
    whether a final residual is acceptable.
    """
    x = np.array(x0, dtype=float)
    r = residual(x)
    cost = _sq(r)
    lam = np.full(len(x), 1e-3)
    reason = np.full(len(x), EXHAUSTED)
    active = np.arange(len(x))
    eye = np.eye(x.shape[1])
    for _ in range(max_iter):
        active = active[np.abs(r[active]).max(axis=1, initial=0.0) > target]
        if not len(active):
            break
        J = jacobian(x[active])
        Jt = J.swapaxes(1, 2)
        A = Jt @ J
        g = Jt @ r[active][:, :, None]
        looking = np.ones(len(active), dtype=bool)
        for _ in range(40):
            idx = np.flatnonzero(looking)
            if not len(idx):
                break
            members = active[idx]
            dx, solved = _solve(A[idx] + lam[members, None, None] * eye, -g[idx])
            lam[members[~solved]] *= 10.0
            idx, members = idx[solved], members[solved]
            if not len(idx):
                continue
            xn = x[members] + dx[solved, :, 0]
            rn = residual(xn)
            cn = _sq(rn)
            better = cn < cost[members]
            won = members[better]
            x[won], r[won], cost[won] = xn[better], rn[better], cn[better]
            lam[won] = np.maximum(lam[won] * 0.25, 1e-14)
            lam[members[~better]] *= 4.0
            looking[idx[better]] = False
        reason[active[looking]] = STALLED
        active = active[~looking]
    reason[np.abs(r).max(axis=1, initial=0.0) <= target] = CONVERGED
    return x, r, reason


def gauss_newton_project(
    residual: Residual,
    jacobian: Jacobian,
    x0: np.ndarray,
    max_iter: int = 100,
    target: float = 1e-10,
    max_travel: float | None = None,
) -> tuple[np.ndarray, bool]:
    """Minimum-norm Newton steps toward residual = 0; (x, reached_target).

    Underdetermined systems get the least-squares min-norm step, so the
    iterate stays close to x0 instead of drifting along the manifold.
    """
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        r = residual(x)
        if np.abs(r).max() <= target:
            return x, True
        J = jacobian(x)
        dx, *_ = np.linalg.lstsq(J, r, rcond=None)
        x = x - dx
        if max_travel is not None and np.linalg.norm(x - x0) > max_travel:
            return x, False
    return x, bool(np.abs(residual(x)).max() <= target)
