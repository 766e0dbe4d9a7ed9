"""Measurements on labeled point configurations in the plane or in space.

This is the one measurement kernel of the package. The polygon module (2D
chart), the witness machinery in rigidity (free points in 2D/3D) and the
mesh measurements of the geometry module (on the vertices alone, a
dihedral as the angle between two cross products of edge vectors) all
evaluate through it: distances, angles at an apex, angles between two
segments, plus an optional coplanarity side constraint for 3D searches. A
MeasurementList compiles a list once; values and the Jacobian are taken
with respect to the flattened coordinate array (n * dim,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.spatial import ConvexHull, QhullError

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


class _Hinge:
    """The layout of a mesh dihedral, ids (u, v, w, x): the angle between
    (A_v - A_u) x (A_w - A_u) and (A_x - A_v) x (A_u - A_v), the interior
    dihedral angle at edge uv of the consistently oriented triangles
    (u, v, w) and (v, u, x)."""


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


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # the products and differences np.cross takes, without its axis handling
    return np.stack([
        u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
        u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
        u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0],
    ], axis=-1)


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
        s = _norm(_cross(u, v))
    c = _dot(u, v)
    theta = np.arctan2(s, c)
    if not grad:
        return theta, None
    if (s <= 1e-14 * nu * nv).any():
        raise DegenerateMeasurement("parallel rays; angle gradient undefined")
    c, s = c[..., None], s[..., None]
    du = (c * u / (nu ** 2)[..., None] - v) / s
    dv = (c * v / (nv ** 2)[..., None] - u) / s
    return theta, (du, dv)


def _normal_angle(vecs, lens, grad: bool):
    # the angle between a x b and c x d; d theta = g.dn with dn = da x b + a x db
    a, b, c, d = vecs
    n, m = _cross(a, b), _cross(c, d)
    theta, g = _angle([n, m], [_norm(n), _norm(m)], grad)
    if not grad:
        return theta, None
    gn, gm = g
    return theta, (_cross(b, gn), _cross(gn, a), _cross(d, gm), _cross(gm, c))


def _triple(vecs, lens, grad: bool):
    a, b, c = vecs
    bc = _cross(b, c)
    return _dot(a, bc), (bc, _cross(c, a), _cross(a, b)) if grad else None


# the order of the vector blocks; the triple product comes last because its
# vectors, unlike those of lengths and both angles (the first _checked), may be zero
_PRIMITIVES = (_length, _angle, _normal_angle, _triple)

# (primitive, ends) of each measurement type: the measurement is the
# primitive applied to the difference vectors P[head] - P[tail], and ends
# lists the positions in the type's fields of its heads, then its tails
_LAYOUT = {
    Distance: (_length, [0, 1]),
    Angle: (_angle, [0, 2, 1, 1]),
    DiagonalAngle: (_angle, [1, 3, 0, 2]),
    _Hinge: (_normal_angle, [1, 2, 3, 0, 0, 0, 1, 1]),
    Coplanar: (_triple, [1, 2, 3, 0, 0, 0]),
}


def _field_ids(items: Sequence, names: Sequence[str]) -> np.ndarray:
    """The integer fields `names` of each item, shape (len(items), len(names))."""
    return np.column_stack(
        [np.fromiter(map(attrgetter(a), items), np.intp, len(items)) for a in names]
    )


def _join(parts: list) -> np.ndarray:
    # the flattened parts, one after another, as one index array
    return np.concatenate(parts, axis=None, dtype=np.intp) if parts else np.zeros(0, np.intp)


class MeasurementList:
    """A measurement list compiled once into index arrays.

    Every measurement is a segment length, the angle between two
    point-difference vectors, the angle between two of their cross products
    or a triple product: Angle(i, j, k) is DiagonalAngle(j, i, j, k), the
    angle between A_i - A_j and A_k - A_j.
    All difference vectors of the list are gathered, and their lengths
    taken, in one step; the measurements of one primitive are then
    evaluated together, so a call costs a few numpy operations whatever the
    length of the list. sparse_jacobian gives the Jacobian of one point
    array as a CSR matrix, for lists too long for the dense one.
    """

    def __init__(self, measurements: Sequence[SimpleMeasurement | Coplanar]):
        rows: dict[type, list[int]] = {}
        for r, m in enumerate(measurements):
            if type(m) not in _LAYOUT:
                raise TypeError(f"not a point measurement: {m!r}")
            rows.setdefault(type(m), []).append(r)
        self._compile(len(measurements), {
            cls: (r, _field_ids([measurements[i] for i in r], [f.name for f in fields(cls)]))
            for cls, r in rows.items()
        })

    @classmethod
    def from_ids(
        cls, size: int, ids: dict[type, tuple[np.ndarray, np.ndarray]]
    ) -> "MeasurementList":
        """A list of `size` measurements given as index arrays: ids maps a
        measurement type to (rows, fields), and the measurement at position
        rows[i] is type(*fields[i]). Each position appears once."""
        self = cls.__new__(cls)
        self._compile(size, ids)
        return self

    def _compile(self, size: int, ids: dict[type, tuple[np.ndarray, np.ndarray]]) -> None:
        self.size = size
        # (primitive, slices of the vector list: vector t of each of its rows)
        self._blocks = []
        heads, tails, owners, order = [], [], [], []
        start = 0
        for fn in _PRIMITIVES:
            if fn is _triple:
                self._checked = start
            parts = [
                (rows, f[:, ends])
                for kind, (rows, f) in ids.items()
                for prim, ends in [_LAYOUT[kind]]
                if prim is fn and len(rows)
            ]
            if not parts:
                continue
            if len(parts) == 1:
                (rows, e), = parts
            else:
                rows = np.concatenate([r for r, _ in parts])
                by_row = np.argsort(rows, kind="stable")
                rows, e = rows[by_row], np.concatenate([e for _, e in parts])[by_row]
            k, width = len(rows), e.shape[1] // 2
            self._blocks.append(
                (fn, [slice(start + t * k, start + (t + 1) * k) for t in range(width)])
            )
            heads.append(e[:, :width].T)
            tails.append(e[:, width:].T)
            owners += [rows] * width
            order.append(rows)
            start += k * width
        self._heads = _join(heads)
        self._tails = _join(tails)
        # the blocks' values come out in block order; this puts them back
        order = _join(order)
        self._order = None if (np.diff(order) > 0).all() else np.argsort(order)
        # a vector's gradient enters its row at its head and, negated, at its
        # tail; np.add.at sums the terms of a point that ends two vectors
        owners = _join(owners)
        self._scatter = (
            np.concatenate([owners, owners]),
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


def _unit(a: np.ndarray) -> float:
    """The power of two just above the largest absolute entry of a (1 for
    zeros). Dividing by it is exact, and at that size no square overflows
    or underflows."""
    return float(np.ldexp(1.0, int(np.frexp(np.abs(a).max(initial=0.0))[1])))


# below this many points comparing every pair is cheaper than a convex hull
_HULL_MIN = 256


def diameter(points: np.ndarray) -> float:
    """Largest distance between two points, in O(n) memory.

    The farthest pair lies on the convex hull, so from _HULL_MIN points on
    only the hull's vertices and the points qhull finds coplanar with a
    facet (those on the hull to rounding) are compared; flat or degenerate
    sets, and smaller ones, compare every point. Rows are taken in blocks
    of about 2**16 / n, each against itself and the points after it, and
    the squared distances are summed coordinate by coordinate as the full
    n x n table sums them, at unit size: the points are divided by a power
    of two just above their largest absolute value. sqrt is monotone and
    the scaling exact, so the value is that of the full table to the bit
    wherever no square of the table overflows or underflows; where one
    does, as above about 1e154, it is still the diameter.
    """
    points = np.asarray(points, dtype=float)
    if len(points) >= _HULL_MIN:
        x = points - (points.min(axis=0) / 2 + points.max(axis=0) / 2)
        try:
            hull = ConvexHull(x / (np.abs(x).max() or 1.0))
        except (QhullError, ValueError):
            pass
        else:
            points = points[np.union1d(hull.vertices, hull.coplanar[:, 0])]
    n, dim = points.shape
    unit = _unit(points)
    points = points / unit
    block = max(1, 2**16 // max(n, 1))
    best = 0.0
    for start in range(0, n, block):
        chunk, rest = points[start : start + block], points[start:]
        sq = np.zeros((len(chunk), len(rest)))
        for k in range(dim):
            d = chunk[:, None, k] - rest[None, :, k]
            sq += d * d
        best = max(best, float(sq.max()))
    return float(np.sqrt(best) * unit)


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
