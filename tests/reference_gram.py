"""The sparse Gram certificate as it stood before it was computed from its
factors' arrays: the same proof, with every quantity formed through scipy's
sparse operators. The tests hold the array form to it: whatever this proves,
`polyrig._nlsq._gram_full_rank` must prove too.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from polyrig._nlsq import _gamma


def reference_gram_full_rank(M: sparse.spmatrix, tol: float) -> bool:
    """The operator form of `_gram_full_rank`: the same s, c, mu, k, t, lam
    and eps, each formed by sparse matrix operations (mu I subtracted as a
    sparse identity, Delta as diag(d) L^T - U, the norms of V = |L| W as
    products with a vector of ones). See `_gram_full_rank` for the proof."""
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
    C = (A.T @ A - mu * sparse.identity(n, format="csc")).tocsc()
    try:
        lu = splu(
            C, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # an exactly singular factor
        return False
    L, U = lu.L, lu.U
    d = U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or not (d > 0.0).all():
        return False
    u = np.finfo(float).eps / 2
    k = int(np.bincount(L.indices).max())
    t = float((L.multiply(L) @ d).sum())
    W = abs(sparse.diags(d) @ L.T - U) + u * abs(U)
    aL, one = abs(L), np.ones(n)
    lam = np.sqrt((aL @ (W @ one)).max() * ((one @ aL) @ W).max())
    eps = _gamma(c) * s + u * (2.0 * s + mu) + _gamma(k + 1) * (t + lam) + lam
    return bool(mu >= (2.0 * tol) ** 2 * s + 2.0 * eps)
