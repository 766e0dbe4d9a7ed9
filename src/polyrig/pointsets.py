"""Measurements on labeled point configurations in the plane or in space.

This is the one measurement kernel of the package. The polygon module (2D
chart), the witness machinery in rigidity (free points in 2D/3D) and the
mesh measurements of the geometry module (on the vertices alone, a
dihedral as the angle between two cross products of edge vectors) all
evaluate through it: distances, angles at an apex, angles between two
segments, plus an optional coplanarity side constraint for 3D searches. A
MeasurementList compiles a list once; values, the Jacobian and weighted
sums of the measurements' Hessians are taken with respect to the flattened
coordinate array (n * dim,). Each primitive differentiates itself twice
with respect to its difference vectors, so the second derivatives are
exact, not finite differences; the grid oracles' Newton steps use them.
A MeasurementIds holds a list as those index arrays, type by type, and
builds a measurement object only when one is read; a MeasurementList is
compiled from one, or from a plain list read into one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, fields, is_dataclass
from operator import attrgetter, index

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


class _Hinge:
    """The layout of a mesh dihedral, ids (u, v, w, x): the angle between
    (A_v - A_u) x (A_w - A_u) and (A_x - A_v) x (A_u - A_v), the interior
    dihedral angle at edge uv of the consistently oriented triangles
    (u, v, w) and (v, u, x)."""


class _Corner:
    """The layout of a mesh face angle, ids (apex, end1, end2): the angle at
    A_apex between the rays to A_end1 and A_end2, Angle(end1, apex, end2)
    on a pool's id rows as they are, with no copy in Angle's field order."""


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


# the largest double whose square rounds to 0: a vector's fl(u.u) is 0, and
# so its _norm below 1e-300, exactly when no coordinate exceeds it in size.
# Started at about 2**-537.5, whose square rounds up to the least subnormal
_TINY = math.ldexp(math.sqrt(2.0), -538)
while _TINY * _TINY:
    _TINY = math.nextafter(_TINY, 0.0)


# (1, 2, 0) then (2, 0, 1), and the reverse: gathered by these, component t
# of u x v is the product at t less the product at t + 3
_CROSS_U, _CROSS_V = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # the products and differences np.cross takes, from two gathers
    p = u.take(_CROSS_U, axis=-1) * v.take(_CROSS_V, axis=-1)
    return p[..., :3] - p[..., 3:]


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _skew(a: np.ndarray) -> np.ndarray:
    """The matrices [a]x with [a]x v = a x v, shape a.shape + (3,)."""
    z = np.zeros_like(a[..., 0])
    return np.stack([
        z, -a[..., 2], a[..., 1],
        a[..., 2], z, -a[..., 0],
        -a[..., 1], a[..., 0], z,
    ], axis=-1).reshape(a.shape + (3,))


# Each primitive takes, for its k measurements, its t difference vectors as
# one (..., t, k, dim) array V, vector s of measurement i at V[..., s, i, :],
# and their lengths L, shape (..., t, k), and returns the k values, then (for
# order >= 1) the gradients with respect to each vector in V's shape, then
# (for order 2) the Hessian blocks, shape (..., t, t, k, dim, dim): block
# [s, r] holds the second derivatives with respect to vectors s and r.
# Last comes, for the angles at order >= 1 when some rays are parallel,
# where they are, shape (..., k): there the derivatives are finite
# stand-ins for undefined ones, and the caller refuses them
# (_refuse_parallel); None elsewhere.

_PARALLEL = "parallel rays; angle gradient undefined"


def _refuse_parallel(parallel: np.ndarray | None) -> None:
    if parallel is not None and parallel.any():
        raise DegenerateMeasurement(_PARALLEL)


@functools.lru_cache(maxsize=None)
def _eye(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _length(V, L, order: int):
    r = L[..., 0, :]
    if not order:
        return r, None, None, None
    G = V / L[..., None]
    if order == 1:
        return r, G, None, None
    u = G[..., 0, :, :]
    hess = (_eye(V.shape[-1]) - _outer(u, u)) / r[..., None, None]
    return r, G, hess[..., None, None, :, :, :], None


def _angle(V, L, order: int):
    u, v = V[..., 0, :, :], V[..., 1, :, :]
    if V.shape[-1] == 2:
        s = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    else:
        s = _norm(_cross(u, v))
    c = _dot(u, v)
    theta = np.arctan2(s, c)
    if not order:
        return theta, None, None, None
    parallel = s <= 1e-14 * L[..., 0, :] * L[..., 1, :]
    if not parallel.any():
        parallel = None
    else:
        # 1 stands in for s and both lengths there, so that no division
        # meets a zero (a solver's trial point may be such a point and be
        # rejected); `parallel` marks the result as no derivative
        s = np.where(parallel, 1.0, s)
        L = np.where(parallel[..., None, :], 1.0, L)
    c, s = c[..., None], s[..., None]
    L2 = (L ** 2)[..., None]
    # d theta/du = (c u / |u|^2 - v) / s, and v alike
    G = (c[..., None, :, :] * V / L2 - V[..., ::-1, :, :]) / s[..., None, :, :]
    if order == 1:
        return theta, G, None, parallel
    # In the plane of u and v the angle is a difference of two arguments,
    # so there d2/dudv = 0 and d2/du2 = -(au'^T + u'a^T), a = du and
    # u' = u / |u|^2 (v alike). In space the plane's unit normal e adds
    # cot e e^T / |u|^2 to d2/du2 (|v|^2 to d2/dv2), and d2/dudv = -e e^T / s.
    # Both vectors' blocks are taken at once: blocks (0, 0) and (1, 1) are
    # entries 0 and 3 of the four, and (0, 1) and (1, 0) entries 1 and 2.
    a = _outer(G, V / L2)
    hess = np.zeros(V.shape[:-3] + (4,) + V.shape[-2:] + V.shape[-1:])
    np.negative(a + a.swapaxes(-1, -2), out=hess[..., ::3, :, :, :])
    if u.shape[-1] == 3:
        e = _cross(u, v) / s
        ee = _outer(e, e)
        cot = (c / s)[..., None]
        hess[..., 0, :, :, :] += cot / L2[..., 0, :, :, None] * ee
        hess[..., 3, :, :, :] += cot / L2[..., 1, :, :, None] * ee
        hess[..., 1, :, :, :] = hess[..., 2, :, :, :] = -ee / s[..., None]
    return theta, G, hess.reshape(V.shape[:-3] + (2, 2) + V.shape[-2:] + V.shape[-1:]), parallel


def _normal_angle(V, L, order: int):
    # the angle between n = a x b and m = c x d; d theta = g.dn with
    # dn = da x b + a x db, that is dn/da = -[b]x and dn/db = [a]x
    ac, bd = V[..., 0::2, :, :], V[..., 1::2, :, :]
    nm = _cross(ac, bd)
    theta, g, h, parallel = _angle(nm, _norm(nm), order)
    if not order:
        return theta, None, None, None
    # (b x gn, gn x a, d x gm, gm x c)
    G = np.stack([_cross(bd, g), _cross(g, ac)], axis=-3).reshape(V.shape)
    if order == 1:
        return theta, G, None, parallel
    # the chain rule through dn/da, dn/db, dm/dc, dm/dd, plus the bilinear
    # second derivatives of gn.(a x b) and gm.(c x d)
    a, b, c, d = (V[..., t, :, :] for t in range(4))
    gn, gm = g[..., 0, :, :], g[..., 1, :, :]
    J = np.stack([-_skew(b), _skew(a), -_skew(d), _skew(c)], axis=-4)
    normal = [0, 0, 1, 1]
    h = h[..., normal, :, :, :, :][..., normal, :, :, :]
    hess = J.swapaxes(-1, -2)[..., :, None, :, :, :] @ h @ J[..., None, :, :, :, :]
    kn, km = _skew(gn), _skew(gm)
    hess[..., 0, 1, :, :, :] -= kn
    hess[..., 1, 0, :, :, :] += kn
    hess[..., 2, 3, :, :, :] -= km
    hess[..., 3, 2, :, :, :] += km
    return theta, G, hess, parallel


def _triple(V, L, order: int):
    a, b, c = (V[..., t, :, :] for t in range(3))
    if not order:
        return _dot(a, _cross(b, c)), None, None, None
    # (b x c, c x a, a x b): the block in the orders (b, c, a) and (c, a, b)
    G = _cross(V.take(_CROSS_U[:3], axis=-3), V.take(_CROSS_V[:3], axis=-3))
    value = _dot(a, G[..., 0, :, :])
    if order == 1:
        return value, G, None, None
    # bilinear in each pair of vectors: d2/dadb = -[c]x and so on
    ka, kb, kc = _skew(a), _skew(b), _skew(c)
    zero = np.zeros_like(ka)
    hess = np.stack([
        np.stack([zero, -kc, kb], axis=-4),
        np.stack([kc, zero, -ka], axis=-4),
        np.stack([-kb, ka, zero], axis=-4),
    ], axis=-5)
    return value, G, hess, None


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
    _Corner: (_angle, [1, 2, 0, 0]),
    _Hinge: (_normal_angle, [1, 2, 3, 0, 0, 0, 1, 1]),
    Coplanar: (_triple, [1, 2, 3, 0, 0, 0]),
}


# how many rows MeasurementList.sparse_jacobian compiles at a time
_CSR_CHUNK = 2**15

# the signs of the four point pairs of a Hessian block (MeasurementList.weighted_hessian)
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])[:, None]


def _field_ids(items: Sequence, names: Sequence[str]) -> np.ndarray:
    """The integer fields `names` of each item, shape (len(items), len(names))."""
    return np.column_stack(
        [np.fromiter(map(attrgetter(a), items), np.intp, len(items)) for a in names]
    )


class MeasurementIds(Sequence):
    """A read-only sequence of measurements held as index arrays.

    ids maps each measurement type present to (rows, fields), the form
    MeasurementList compiles: the measurement at position rows[i] is
    type(*fields[i]), each rows array ascending, each position in one of
    them. A measurement object is built only when the sequence is indexed
    or iterated, so a pool of a million face angles is a few arrays, while
    a selection, the JSON and any caller that reads the items still gets
    the dataclasses. A slice is a list of them. Adding two MeasurementIds
    gives their concatenation as MeasurementIds, adding any other sequence
    a list. The arrays are frozen, not copied.
    """

    def __init__(self, size: int, ids: dict[type, tuple[np.ndarray, np.ndarray]]):
        self.size = size
        self.ids = {}
        for kind, (rows, f) in ids.items():
            if len(rows):
                rows, f = np.asarray(rows, dtype=np.intp), np.asarray(f, dtype=np.intp)
                rows.setflags(write=False)
                f.setflags(write=False)
                self.ids[kind] = rows, f

    @classmethod
    def of(
        cls, measurements: Sequence, allowed: Collection[type], what: str
    ) -> "MeasurementIds":
        """`measurements` as MeasurementIds, itself when it is one; an item
        of a type outside `allowed` raises TypeError ("not a {what}
        measurement")."""
        if isinstance(measurements, cls):
            for kind, (rows, _) in measurements.ids.items():
                if kind not in allowed:
                    raise TypeError(f"not a {what} measurement: {measurements[rows[0]]!r}")
            return measurements
        kinds = list(map(type, measurements))
        # each type by its first position, so the first item of a type
        # outside `allowed` is the first such item of the list
        code = {kind: c for c, kind in enumerate(dict.fromkeys(kinds))}
        for kind in code:
            if kind not in allowed:
                raise TypeError(f"not a {what} measurement: {measurements[kinds.index(kind)]!r}")
        codes = np.fromiter(map(code.__getitem__, kinds), np.intp, len(kinds))
        ids = {}
        for kind, c in code.items():
            rows = np.flatnonzero(codes == c)
            items = measurements if len(code) == 1 else [measurements[i] for i in rows.tolist()]
            ids[kind] = rows, _field_ids(items, [f.name for f in fields(kind)])
        return cls(len(measurements), ids)

    def __len__(self) -> int:
        return self.size

    def _span(self, start: int, stop: int) -> "MeasurementIds":
        """Positions start to stop as MeasurementIds, from one searchsorted
        a type: its fields are views of these."""
        stop = min(stop, self.size)
        ids = {}
        for kind, (rows, f) in self.ids.items():
            a, b = np.searchsorted(rows, [start, stop])
            ids[kind] = rows[a:b] - start, f[a:b]
        return MeasurementIds(stop - start, ids)

    def take(self, positions: Sequence[int]) -> list:
        """The measurements at `positions`, in their order, from one
        searchsorted and one read of the fields a type; a position outside
        [0, len) raises IndexError."""
        at = np.asarray(positions, dtype=np.intp)
        if ((at < 0) | (at >= self.size)).any():
            raise IndexError("measurement index out of range")
        items = [None] * len(at)
        for kind, (rows, f) in self.ids.items():
            j = np.minimum(np.searchsorted(rows, at), len(rows) - 1)
            hit = np.flatnonzero(rows[j] == at)
            for p, args in zip(hit.tolist(), f[j[hit]].tolist()):
                items[p] = kind(*args)
        return items

    def _out_of_range(self, bounds: dict[type, tuple[str, int]]) -> tuple[int, str] | None:
        """The first measurement, by position, of a type in `bounds` that has
        an id outside 0..count - 1, where bounds[type] = (kind, count): its
        position and "{kind} id {id} out of range 0..{count - 1}" for the
        first such id of its fields; None when every id of those types is in
        range. Types outside `bounds` are not checked."""
        found = []
        for cls, (rows, f) in self.ids.items():
            kind, count = bounds.get(cls, (None, None))
            if kind is not None and (f.min() < 0 or f.max() >= count):
                out = (f < 0) | (f >= count)
                j = np.flatnonzero(out.any(axis=1))[0]
                found.append((rows[j], f"{kind} id {f[j][out[j]][0]} out of range 0..{count - 1}"))
        return min(found, default=None)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(*i.indices(self.size)))
        i = index(i)
        return self.take([i + self.size if i < 0 else i])[0]

    def __iter__(self):
        return iter(self.take(np.arange(self.size)))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other):
        if isinstance(other, MeasurementIds):
            ids = dict(self.ids)
            for kind, (rows, f) in other.ids.items():
                rows = rows + self.size
                if kind in ids:
                    (r0, f0) = ids[kind]
                    rows, f = np.concatenate([r0, rows]), np.concatenate([f0, f])
                ids[kind] = rows, f
            return MeasurementIds(self.size + other.size, ids)
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(other) + list(self)
        return NotImplemented

    def __repr__(self) -> str:
        kinds = ", ".join(k.__name__ for k in self.ids)
        return f"MeasurementIds({self.size} measurements: {kinds})"


def _join(parts: list) -> np.ndarray:
    # the flattened parts, one after another, as one index array
    return np.concatenate(parts, axis=None, dtype=np.intp) if parts else np.zeros(0, np.intp)


@dataclass(frozen=True)
class Gradients:
    """What MeasurementList.evaluate leaves for MeasurementList.assemble
    on a batch of (n, dim) point arrays: G, shape (..., vectors, dim), the
    gradient of each row's value with respect to each of its difference
    vectors, not yet scattered into the points, and parallel, shape (...,),
    whether a member has an angle whose rays are parallel (its G holds
    stand-ins there), or None when no member has. Indexing takes members,
    as of an array of shape (...,)."""

    G: np.ndarray
    parallel: np.ndarray | None
    n: int

    def __getitem__(self, i) -> Gradients:
        parallel = None if self.parallel is None else self.parallel[i]
        return Gradients(self.G[i], parallel, self.n)


class MeasurementList:
    """A measurement list compiled once into index arrays.

    Every measurement is a segment length, the angle between two
    point-difference vectors, the angle between two of their cross products
    or a triple product: Angle(i, j, k) is DiagonalAngle(j, i, j, k), the
    angle between A_i - A_j and A_k - A_j.
    All difference vectors of the list are gathered, and their lengths
    taken, in one step; the measurements of one primitive are then
    evaluated together, so a call costs a few numpy operations whatever the
    length of the list. evaluate gives the values with the gradients of
    each row with respect to its difference vectors, from one gather, and
    assemble scatters those into the Jacobian of any of the point arrays;
    jacobian is the two in a row, and residual the two as the system
    values - targets = 0 that lm_solve takes. sparse_jacobian gives the
    Jacobian of one point array as a CSR matrix, for lists too long for the
    dense one, and weighted_hessian one weighted sum of the measurements'
    Hessians. All of them take their values and derivatives from one pass
    over the primitives' blocks: _apply gathers the difference vectors
    (_gather) and runs that pass on them (_pass). A caller that builds the
    difference vectors itself, as the grid oracles do, runs _pass alone;
    one order-2 pass gives the values, the gradients and the Hessian
    blocks together, so a caller that holds one assembles its Jacobian
    (assemble) and sums its weighted Hessian (_weigh) without a second.

    A list is compiled from a MeasurementIds, or from any sequence of
    measurements read into one, and keeps it as ids.
    """

    def __init__(self, measurements: Sequence[SimpleMeasurement | Coplanar]):
        self.ids = MeasurementIds.of(measurements, _LAYOUT, "point")
        self.size = len(self.ids)
        # (primitive, its span of the vector list, t, k, rows): vector s of
        # row i of the block at span.start + s k + i, and the block's rows,
        # ascending, as a slice when they are consecutive
        self._blocks = []
        heads, tails, owners = [], [], []
        start = 0
        for fn in _PRIMITIVES:
            if fn is _triple:
                self._checked = start
            parts = [
                (rows, f[:, ends])
                for kind, (rows, f) in self.ids.ids.items()
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
            # a slice write is cheaper than a fancy-index one
            at = slice(rows[0], rows[0] + k) if rows[-1] - rows[0] == k - 1 else rows
            self._blocks.append((fn, slice(start, start + width * k), width, k, at))
            heads.append(e[:, :width].T)
            tails.append(e[:, width:].T)
            owners += [rows] * width
            start += k * width
        self._heads = _join(heads)
        self._tails = _join(tails)
        # a vector's gradient enters its row, its owner, at its head and,
        # negated, at its tail; a scatter sums the terms of a point that ends
        # two vectors, all heads' terms first (_cells)
        self._owners = _join(owners)
        # take would read a negative id from the end of the points
        if len(self._heads) and min(self._heads.min(), self._tails.min()) < 0:
            self._refuse_ids((self._heads < 0) | (self._tails < 0), "a negative point id")
        # built on first use: most lists never take a Hessian, and a long one
        # only a sparse Jacobian
        self._hess_scatter = None
        self._jacobian_cells = None

    def _refuse_ids(self, bad: np.ndarray, what: str) -> None:
        """Raise ValueError naming the first measurement that owns a vector
        flagged in `bad` and saying that it has `what`."""
        row = self._owners[bad].min()
        kind, (rows, f) = next((k, v) for k, v in self.ids.ids.items() if row in v[0])
        ids = tuple(f[np.searchsorted(rows, row)].tolist())
        # a mesh layout (_Corner, _Hinge) is no dataclass: its ids name it
        name = repr(kind(*ids)) if is_dataclass(kind) else f"{kind.__name__[1:]}{ids}"
        raise ValueError(f"{name} has {what}")

    def _cells(self, n: int) -> np.ndarray:
        """owner * n + point of each term of the vectors, for n points:
        every vector at its head, then every vector at its tail."""
        owner = self._owners * n
        return np.concatenate([owner + self._heads, owner + self._tails])

    def _apply(self, P: np.ndarray, order: int):
        """_pass on the difference vectors of a (..., n, dim) point array."""
        return self._pass(self._gather(P), order)

    def _gather(self, P: np.ndarray) -> np.ndarray:
        """The difference vectors P[heads] - P[tails] of a (..., n, dim)
        point array, shape (..., vectors, dim); a point id past the points
        raises ValueError naming its measurement."""
        try:
            return P.take(self._heads, axis=-2) - P.take(self._tails, axis=-2)
        except IndexError:
            n = P.shape[-2]
            past = (self._heads >= n) | (self._tails >= n)
            self._refuse_ids(past, f"a point id past the {n} points")

    def _pass(self, D: np.ndarray, order: int):
        """Every block's primitive at `order` on the (..., vectors, dim)
        difference vectors D, in one pass: the values, shape (..., size), in
        the list's order; at order >= 1 the gradient of each row's value with
        respect to each of its difference vectors, in D's shape; at order 2
        the Hessian blocks, one array a block; and, when some angle's rays
        are parallel, whether they are for each member, else None. The
        first _checked vectors (those of lengths and angles) must not
        vanish: none may have a length below 1e-300.

        At order 0 only the length blocks read lengths, so only their
        vectors' are taken, and a vector counts as vanishing when no
        coordinate exceeds _TINY in size, which holds exactly when its
        length is below 1e-300; a NaN among the checked vectors' largest
        coordinates keeps the check from raising, as it does among their
        lengths at orders 1 and 2."""
        lens = _norm(D) if order else None
        if self._checked and D.size and (
            lens[..., : self._checked].min() < 1e-300 if order
            else functools.reduce(np.maximum, np.abs(D[..., : self._checked, :]).T).min() <= _TINY
        ):
            raise DegenerateMeasurement("two points of a distance or an angle coincide")
        batch, dim = D.shape[:-2], D.shape[-1:]
        vals = np.empty(batch + (self.size,))
        G = np.empty_like(D) if order else None
        hess, parallel = [], None
        for fn, span, width, k, rows in self._blocks:
            shape = batch + (width, k)
            V = D[..., span, :].reshape(shape + dim)
            L = lens[..., span].reshape(shape) if order else _norm(V) if fn is _length else None
            vals[..., rows], g, h, flat = fn(V, L, order)
            if G is not None:
                G[..., span, :] = g.reshape(G[..., span, :].shape)
            hess.append(h)
            if flat is not None:
                flat = flat.any(axis=-1)
                parallel = flat if parallel is None else parallel | flat
        return vals, G, hess, parallel

    def values(self, points: np.ndarray) -> np.ndarray:
        """All values on a (..., n, dim) point array, shape (..., size)."""
        return self._apply(np.asarray(points, dtype=float), 0)[0]

    def evaluate(self, points: np.ndarray) -> tuple[np.ndarray, Gradients]:
        """The values on a (..., n, dim) point array, as values gives them,
        and their Gradients, both from one gather of difference vectors.

        Parallel rays do not raise here, only when assemble is asked for a
        Jacobian at them, so a solver may evaluate a trial point that it
        then rejects. Two points of a distance or an angle that coincide
        raise, as in values.
        """
        P = np.asarray(points, dtype=float)
        vals, G, _, parallel = self._apply(P, 1)
        return vals, Gradients(G, parallel, P.shape[-2])

    def residual(self, targets: np.ndarray) -> tuple[Callable, Callable]:
        """The system values - targets = 0 on the first len(targets) rows, as
        lm_solve takes it: (evaluate, jacobian), evaluate giving a batch of
        points' residuals with their Gradients, and jacobian the Jacobian of
        those rows from any index of them."""
        m = len(targets)

        def evaluate(P: np.ndarray) -> tuple[np.ndarray, Gradients]:
            vals, grads = self.evaluate(P)
            return vals[..., :m] - targets, grads

        return evaluate, lambda grads: self.assemble(grads)[..., :m, :]

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """Exact Jacobian wrt the flattened (n * dim,) coordinate array, on a
        (..., n, dim) point array; shape (..., size, n * dim)."""
        return self.assemble(self.evaluate(points)[1])

    def assemble(self, grads: Gradients) -> np.ndarray:
        """The Jacobian of the members of `grads` (from evaluate, or any
        index of them): shape (..., size, n * dim). A member with parallel
        rays raises DegenerateMeasurement."""
        _refuse_parallel(grads.parallel)
        G, n = grads.G, grads.n
        *batch, _, dim = G.shape
        members = math.prod(batch)
        # one weighted bincount: each cell sums its terms from zero in input
        # order, as np.add.at would, at a fraction of its cost. The cells of
        # one member are kept for the next call, as solvers call again and
        # again on points of one shape
        if self._jacobian_cells is None or self._jacobian_cells[0] != (n, dim):
            self._jacobian_cells = (n, dim), (dim * self._cells(n))[:, None] + np.arange(dim)
        cells = self._jacobian_cells[1]
        if members != 1:
            cells = (np.arange(members) * (self.size * n * dim))[:, None, None] + cells
        J = np.bincount(
            cells.ravel(),
            np.concatenate([G, -G], axis=-2).ravel(),
            minlength=members * self.size * n * dim,
        )
        return J.reshape(*batch, self.size, n * dim)

    def _hessian_scatter(self, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """For each entry of the Hessian blocks, in their (block, s, r, row)
        order: its row, and the cells of one member's (n * dim)^2 Hessian at
        which its (dim, dim) block enters that row, at the points (head s,
        head r), (head s, tail r), (tail s, head r), (tail s, tail r) of
        vectors s and r with the signs +, -, -, + of _SIGNS. Kept for the
        next call on points of the same shape."""
        if self._hess_scatter is None or self._hess_scatter[0] != (n, dim):
            vs, vr = [], []
            for _, span, width, k, _ in self._blocks:
                at = np.arange(span.start, span.stop).reshape(width, k)
                vs.append(np.broadcast_to(at[:, None], (width, width, k)))
                vr.append(np.broadcast_to(at[None, :], (width, width, k)))
            vs, vr = _join(vs), _join(vr)
            ends = np.stack([self._heads, self._tails])
            left, right = dim * ends[[0, 0, 1, 1]][:, vs], dim * ends[[0, 1, 0, 1]][:, vr]
            coord = np.arange(dim)
            cells = ((left[..., None, None] + coord[:, None]) * (n * dim)
                     + right[..., None, None] + coord)
            self._hess_scatter = (n, dim), self._owners[vs], cells.reshape(-1)
        return self._hess_scatter[1:]

    def weighted_hessian(self, points: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_i w_i times the exact Hessian of value i wrt the flattened
        (n * dim,) coordinate array, on a (..., n, dim) point array with
        weights w of shape (..., size); shape (..., n * dim, n * dim),
        symmetric to the bit. One-hot weights give the Hessian of one row.

        Each primitive gives its second derivatives with respect to its
        difference vectors; one signed scatter (+ at a head, - at a tail),
        each row's terms scaled by its weight, sums them into the
        coordinates of the points, so the (..., size, n * dim, n * dim)
        stack is never formed: a Lagrangian's Hessian in one call.
        """
        P, w = np.asarray(points, dtype=float), np.asarray(w, dtype=float)
        *batch, n, dim = P.shape
        if not self._blocks:
            return np.zeros((*batch, n * dim, n * dim))
        _, _, hess, parallel = self._apply(P, 2)
        _refuse_parallel(parallel)
        return self._weigh(hess, w, n)

    def _weigh(self, hess: list, w: np.ndarray, n: int) -> np.ndarray:
        """weighted_hessian's sum from the Hessian blocks `hess` of one
        order-2 _pass on a batch of n-point members, with weights w, an
        array of shape (..., size): a caller that holds the pass sums its
        Lagrangian without a second one."""
        batch, dim = hess[0].shape[:-5], hess[0].shape[-1]
        members, N = math.prod(batch), n * dim
        # each block at its own size: an empty batch leaves no -1 to infer
        weights = np.concatenate(
            [h.reshape(members, 1, math.prod(h.shape[-5:])) for h in hess], axis=-1)
        owner, cells = self._hessian_scatter(n, dim)
        # each (dim, dim) block takes the weight of the row it belongs to
        rows = w.reshape(members, 1, self.size)[..., owner]
        weights = weights * np.repeat(rows, dim * dim, axis=-1)
        cells = np.arange(0, members * N * N, N * N)[:, None] + cells
        H = np.bincount(
            cells.ravel(),
            (weights * _SIGNS).ravel(),
            minlength=members * N * N,
        ).reshape(*batch, N, N)
        return (H + H.swapaxes(-1, -2)) / 2

    def sparse_jacobian(self, points: np.ndarray) -> sparse.csr_matrix:
        """The Jacobian on one (n, dim) point array as a CSR matrix, equal to
        jacobian(points) entry for entry.

        Each row stores the dim coordinates of every point it touches. The
        terms that meet at one point of a row (the apex of an angle, p of a
        coplanarity) are summed from zero in the order of _cells, as
        jacobian sums them. A list of more than _CSR_CHUNK rows compiles the
        ids of each _CSR_CHUNK of them as a list of its own, whose vectors
        and cells come in the order of the whole list's, so that besides the
        matrix only one chunk's vectors, gradients and cells exist at once.
        """
        P = np.asarray(points, dtype=float)
        n, dim = P.shape
        # 32-bit indices when every index fits: scipy then takes them as they
        # are instead of scanning and converting 64-bit ones
        itype = np.int32 if self.size * n * dim <= np.iinfo(np.int32).max else np.int64
        # room for a cell per term; the pages past the cells are never touched
        terms = 2 * len(self._heads)
        data, indices = np.empty((terms, dim)), np.empty((terms, dim), itype)
        counts = np.zeros(self.size, itype)  # cells per row
        nnz = 0
        coord = np.arange(dim, dtype=itype)
        for r0 in range(0, self.size, _CSR_CHUNK):
            chunk = self
            if self.size > _CSR_CHUNK:
                chunk = MeasurementList(self.ids._span(r0, r0 + _CSR_CHUNK))
            _, G, _, parallel = chunk._apply(P, 1)
            _refuse_parallel(parallel)
            cells, cell = np.unique(chunk._cells(n).astype(itype), return_inverse=True)
            rows, ends = np.divmod(cells, n)
            counts[r0 : r0 + chunk.size] = np.bincount(rows, minlength=chunk.size)
            end = nnz + len(cells)
            indices[nnz:end] = dim * ends[:, None] + coord
            # a weighted bincount sums each cell from zero in input order
            data[nnz:end] = np.bincount(
                (dim * cell[:, None] + coord).ravel(), np.concatenate([G, -G]).ravel(),
                minlength=dim * len(cells),
            ).reshape(-1, dim)
            nnz = end
        indptr = np.zeros(self.size + 1, itype)
        np.cumsum(dim * counts, out=indptr[1:])
        return sparse.csr_matrix(
            (data[:nnz].ravel(), indices[:nnz].ravel(), indptr), shape=(self.size, n * dim)
        )


def measurement_value(m: SimpleMeasurement | Coplanar, points: np.ndarray) -> float:
    """Value of one measurement on a (n, dim) point array."""
    return float(MeasurementList([m]).values(points)[0])


def measurement_gradient(m: SimpleMeasurement | Coplanar, points: np.ndarray) -> np.ndarray:
    """Exact gradient wrt the flattened (n * dim,) coordinate array."""
    return MeasurementList([m]).jacobian(points)[0]


def _unit(a: np.ndarray) -> float:
    """The power of two just above the largest absolute entry of a (1 for
    zeros), and at most 2**1023, the largest power of two a float holds, so
    that from 2**1023 on the largest entries land in [1, 2). Dividing by it
    is exact, and at that size no square overflows or underflows."""
    return float(np.ldexp(1.0, min(int(np.frexp(np.abs(a).max(initial=0.0))[1]), 1023)))


def _unit_hull(points: np.ndarray):
    """The convex hull (scipy's ConvexHull) of the (n, dim) float array
    `points` centred on their bounding box and divided by their largest
    coordinate, so that the hull does not depend on the unit of length; its
    `points` are the centred and scaled ones. Flat or degenerate points
    raise ValueError ("flat or degenerate points: ..." with qhull's first
    line)."""
    from scipy.spatial import ConvexHull, QhullError  # qhull loads on the first hull

    x = points - (points.min(axis=0) / 2 + points.max(axis=0) / 2)
    try:
        return ConvexHull(x / (np.abs(x).max() or 1.0))
    except QhullError as exc:
        raise ValueError(f"flat or degenerate points: {str(exc).splitlines()[0]}") from exc


# below this many points comparing every pair is cheaper than a convex hull
_HULL_MIN = 256


def diameter(points: np.ndarray) -> float:
    """Largest distance between two points, in O(n) memory.

    The farthest pair lies on the convex hull, so from _HULL_MIN points on
    only the vertices of their _unit_hull and the points qhull finds
    coplanar with a facet (those on the hull to rounding) are compared;
    flat or degenerate sets, whose hull raises ValueError, and smaller
    ones compare every point. Rows are taken in blocks
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
        try:
            hull = _unit_hull(points)
        except ValueError:
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
