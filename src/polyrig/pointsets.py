"""Measurements on labeled point configurations in the plane or in space.

This is the one measurement kernel of the package. The polygon module (2D
chart), the witness machinery in rigidity (free points in 2D/3D) and, via
the stacked points [vertices; planes; origin], the mesh measurements of the
geometry module all evaluate through it: distances, angles at an apex,
angles between two segments, plus an optional coplanarity side constraint
for 3D searches. A MeasurementList compiles a list once; values and the
Jacobian are taken with respect to the flattened coordinate array
(n * dim,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DegenerateMeasurement


@dataclass(frozen=True)
class Distance:
    """|A_i A_j|."""

    i: int
    j: int


@dataclass(frozen=True)
class Angle:
    """Angle at apex A_j between rays to A_i and A_k."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class DiagonalAngle:
    """Angle between segment A_i->A_j and segment A_k->A_l."""

    i: int
    j: int
    k: int
    l: int


SimpleMeasurement = Distance | Angle | DiagonalAngle


@dataclass(frozen=True)
class Coplanar:
    """Side constraint: points p, q, r, s lie on one plane (3D only).

    Residual is the scalar triple product [q-p, r-p, s-p]; not a measurement
    in the paper's menu, but the structural planarity its polyhedron claims
    presume.
    """

    p: int
    q: int
    r: int
    s: int


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # matmul rounds as np.dot and np.linalg.norm do on a single vector
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _norm(u: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(u, u))


# Each primitive takes, for its k measurements, the t difference vectors
# vecs[t][..., k, :] and their lengths lens[t][..., k], and returns the k
# values and, when asked, the gradients with respect to each vector.


def _length(vecs, lens, grad: bool):
    (d,), (r,) = vecs, lens
    return r, (d / r[..., None],) if grad else None


def _angle(vecs, lens, grad: bool):
    (u, v), (nu, nv) = vecs, lens
    if u.shape[-1] == 2:
        s = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    else:
        s = _norm(np.cross(u, v))
    c = _dot(u, v)
    theta = np.arctan2(s, c)
    if not grad:
        return theta, None
    if (s < 1e-14 * nu * nv).any():
        raise DegenerateMeasurement("parallel rays; angle gradient undefined")
    c, s = c[..., None], s[..., None]
    du = (c * u / (nu ** 2)[..., None] - v) / s
    dv = (c * v / (nv ** 2)[..., None] - u) / s
    return theta, (du, dv)


def _triple(vecs, lens, grad: bool):
    a, b, c = vecs
    bc = np.cross(b, c)
    return _dot(a, bc), (bc, np.cross(c, a), np.cross(a, b)) if grad else None


# the order of the vector blocks; the triple product comes last because its
# vectors, unlike those of lengths and angles (the first _checked), may be zero
_PRIMITIVES = (_length, _angle, _triple)


def _primitive(m: SimpleMeasurement | Coplanar):
    """(primitive, heads, tails): m is the primitive applied to the
    difference vectors P[head] - P[tail]."""
    if isinstance(m, Distance):
        return _length, (m.i,), (m.j,)
    if isinstance(m, Angle):
        return _angle, (m.i, m.k), (m.j, m.j)
    if isinstance(m, DiagonalAngle):
        return _angle, (m.j, m.l), (m.i, m.k)
    if isinstance(m, Coplanar):
        return _triple, (m.q, m.r, m.s), (m.p, m.p, m.p)
    raise TypeError(f"not a point measurement: {m!r}")


class MeasurementList:
    """A measurement list compiled once into index arrays.

    Every measurement is a segment length, the angle between two
    point-difference vectors or a triple product: Angle(i, j, k) is
    DiagonalAngle(j, i, j, k), the angle between A_i - A_j and A_k - A_j.
    All difference vectors of the list are gathered, and their lengths
    taken, in one step; the measurements of one primitive are then
    evaluated together, so a call costs a few numpy operations whatever the
    length of the list. sparse_jacobian gives the Jacobian of one point
    array as a CSR matrix, for lists too long for the dense one.
    """

    def __init__(self, measurements: Sequence[SimpleMeasurement | Coplanar]):
        self.size = len(measurements)
        compiled = [_primitive(m) for m in measurements]
        heads, tails, owners, order = [], [], [], []
        # (primitive, slices of the vector list: vector t of each of its rows)
        self._blocks = []
        for fn in _PRIMITIVES:
            if fn is _triple:
                self._checked = len(heads)
            rows = [r for r in range(self.size) if compiled[r][0] is fn]
            if not rows:
                continue
            slices = []
            for t in range(len(compiled[rows[0]][1])):
                slices.append(slice(len(heads), len(heads) + len(rows)))
                heads += [compiled[r][1][t] for r in rows]
                tails += [compiled[r][2][t] for r in rows]
                owners += rows
            self._blocks.append((fn, slices))
            order += rows
        self._heads = np.array(heads, dtype=np.intp)
        self._tails = np.array(tails, dtype=np.intp)
        # the blocks' values come out in block order; this puts them back
        self._order = None if order == sorted(order) else np.argsort(order)
        # a vector's gradient enters its row at its head and, negated, at its
        # tail; np.add.at sums the terms of a point that ends two vectors
        self._scatter = (
            np.array(owners + owners, dtype=np.intp),
            np.concatenate([self._heads, self._tails]),
        )

    def _vectors(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        D = P.take(self._heads, axis=-2) - P.take(self._tails, axis=-2)
        lens = _norm(D)
        if self._checked and lens.size and lens[..., : self._checked].min() < 1e-300:
            raise DegenerateMeasurement("two points of a distance or an angle coincide")
        return D, lens

    def values(self, points: np.ndarray) -> np.ndarray:
        """All values on a (..., n, dim) point array, shape (..., size)."""
        P = np.asarray(points, dtype=float)
        if not self._blocks:
            return np.zeros(P.shape[:-2] + (0,))
        D, lens = self._vectors(P)
        vals = [
            fn([D[..., s, :] for s in slices], [lens[..., s] for s in slices], False)[0]
            for fn, slices in self._blocks
        ]
        vals = np.concatenate(vals, axis=-1)
        return vals if self._order is None else vals.take(self._order, axis=-1)

    def _gradients(self, P: np.ndarray) -> np.ndarray:
        """The gradient of each row's value with respect to each of its
        difference vectors, shape (..., len(heads), dim)."""
        D, lens = self._vectors(P)
        G = np.empty_like(D)
        for fn, slices in self._blocks:
            grads = fn([D[..., s, :] for s in slices], [lens[..., s] for s in slices], True)[1]
            for s, g in zip(slices, grads):
                G[..., s, :] = g
        return G

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """Exact Jacobian wrt the flattened (n * dim,) coordinate array, on a
        (..., n, dim) point array; shape (..., size, n * dim)."""
        P = np.asarray(points, dtype=float)
        *batch, n, dim = P.shape
        G = self._gradients(P)
        members = math.prod(batch)
        owners, ends = self._scatter
        J = np.zeros((members, self.size, n, dim))
        np.add.at(
            J,
            (np.arange(members)[:, None], owners, ends),
            np.concatenate([G, -G], axis=-2).reshape(members, len(owners), dim),
        )
        return J.reshape(*batch, self.size, n * dim)

    def sparse_jacobian(self, points: np.ndarray) -> sparse.csr_matrix:
        """The Jacobian on one (n, dim) point array as a CSR matrix, equal to
        jacobian(points) entry for entry.

        Each row stores the dim coordinates of every point it touches. The
        terms that meet at one point of a row (the apex of an angle, p of a
        coplanarity) are summed from zero in _scatter order, as jacobian
        sums them.
        """
        P = np.asarray(points, dtype=float)
        n, dim = P.shape
        G = self._gradients(P)
        owners, ends = self._scatter
        cells, cell = np.unique(owners * n + ends, return_inverse=True)
        data = np.zeros((len(cells), dim))
        np.add.at(data, cell, np.concatenate([G, -G]))
        rows, at = np.divmod(cells, n)
        indptr = dim * np.searchsorted(rows, np.arange(self.size + 1))
        indices = (dim * at[:, None] + np.arange(dim)).ravel()
        return sparse.csr_matrix((data.ravel(), indices, indptr), shape=(self.size, n * dim))


def measurement_value(m: SimpleMeasurement | Coplanar, points: np.ndarray) -> float:
    """Value of one measurement on a (n, dim) point array."""
    return float(MeasurementList([m]).values(points)[0])


def measurement_gradient(m: SimpleMeasurement | Coplanar, points: np.ndarray) -> np.ndarray:
    """Exact gradient wrt the flattened (n * dim,) coordinate array."""
    return MeasurementList([m]).jacobian(points)[0]


def diameter(points: np.ndarray) -> float:
    """Largest distance between two points, in O(n) memory.

    Rows are taken in blocks of about 2**18 / n, each against itself and
    the points after it; the squared distances are those of the full n x n
    table, and sqrt is monotone, so the value is the same to the bit.
    """
    n = len(points)
    block = max(1, 2**18 // max(n, 1))
    best = 0.0
    for start in range(0, n, block):
        d = points[start : start + block, None, :] - points[None, start:, :]
        best = max(best, float((d**2).sum(axis=2).max()))
    return float(np.sqrt(best))


def align_distance(
    reference: np.ndarray, other: np.ndarray, allow_reflection: bool = False
) -> float | np.ndarray:
    """Max point distance between `reference` and the best rigid placement
    of `other` (Kabsch). With allow_reflection the best orthogonal map is
    used; otherwise only proper rotations are admitted.

    Either argument may be a stack (..., n, dim); the stacks broadcast, and
    the result is one distance per pair, a float when both are (n, dim)."""
    X = reference - reference.mean(axis=-2, keepdims=True)
    Y = other - other.mean(axis=-2, keepdims=True)
    H = Y.swapaxes(-1, -2) @ X
    U, _, Vt = np.linalg.svd(H)
    V, Ut = Vt.swapaxes(-1, -2), U.swapaxes(-1, -2)
    R = V @ Ut
    if not allow_reflection:
        D = np.eye(H.shape[-1])
        D[-1, -1] = -1.0
        R = np.where((np.linalg.det(R) < 0)[..., None, None], V @ D @ Ut, R)
    moved = Y @ R.swapaxes(-1, -2)
    dist = np.linalg.norm(X - moved, axis=-1).max(axis=-1)
    return float(dist) if dist.ndim == 0 else dist
