"""Output checks for the benchmark, computed apart from polyrig.

Every function here uses numpy and scipy only. Each takes a polyrig output
plus the inputs the benchmark generated, recomputes what the paper's method
guarantees, and raises CheckFailed when the output does not have that
property. None of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.spatial import ConvexHull


class CheckFailed(AssertionError):
    """An output lacks a property the method guarantees."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- strict JSON ---------------------------------------------------------------


def _reject_constant(name: str):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse CLI stdout as RFC 8259 JSON: no NaN or Infinity, no raw control
    characters inside strings, nothing after the value."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not valid JSON: {exc}") from exc


# --- convex hulls and edge counts ------------------------------------------------


def hull_faces(points: np.ndarray, plane_tol: float = 1e-7) -> set[frozenset[int]]:
    """Vertex sets of the faces of conv(points): scipy's simplicial facets,
    merged when their unit normals and offsets agree within plane_tol."""
    hull = ConvexHull(points)
    groups: list[tuple[np.ndarray, set[int]]] = []
    scale = float(np.abs(points).max())
    for simplex, eq in zip(hull.simplices, hull.equations):
        eq = eq / np.array([1.0, 1.0, 1.0, scale])
        for geq, members in groups:
            if np.abs(geq - eq).max() < plane_tol:
                members.update(int(i) for i in simplex)
                break
        else:
            groups.append((eq, {int(i) for i in simplex}))
    return {frozenset(members) for _, members in groups}


def edge_count(faces) -> int:
    """E from face cycles: every edge borders exactly two faces."""
    edges = {
        frozenset((c[i], c[(i + 1) % len(c)])) for c in faces for i in range(len(c))
    }
    return len(edges)


def check_hull(points: np.ndarray, faces, simplicial: bool) -> int:
    """The faces polyrig extracted are the hull's faces; returns E.

    A hull of points in general position is simplicial, so E = 3V - 6.
    """
    got = {frozenset(int(v) for v in cycle) for cycle in faces}
    want = hull_faces(points)
    require(got == want, f"hull faces differ: {len(got)} faces, expected {len(want)}")
    V, F, E = len(points), len(faces), edge_count(faces)
    require(V - E + F == 2, f"Euler count V - E + F = {V - E + F}")
    if simplicial:
        require(E == 3 * V - 6, f"simplicial hull has E = {E}, expected 3V - 6 = {3 * V - 6}")
    return E


# --- rank verdicts -----------------------------------------------------------------


def check_full_rank(achieved: int, target: int, sufficient: bool, E: int, defect: int = 0) -> None:
    """A sufficient verdict reaches rank 3E - defect (defect 1 in similarity
    mode), where E is counted by the benchmark, not taken from polyrig."""
    want = 3 * E - defect
    require(target == want, f"target rank {target}, expected 3E - {defect} = {want}")
    require(achieved == want, f"achieved rank {achieved}, expected {want}")
    require(sufficient, "sufficient flag is false at full rank")


def check_selection(selected, pool, E: int, defect: int = 0) -> None:
    """Greedy selection picks exactly E - defect distinct pool members."""
    chosen = [tuple(m) for m in selected]
    allowed = {tuple(m) for m in pool}
    require(len(chosen) == E - defect,
            f"selected {len(chosen)}, expected E - {defect} = {E - defect}")
    require(len(set(chosen)) == len(chosen), "selection repeats a measurement")
    require(set(chosen) <= allowed, "selection holds a measurement outside the pool")


def check_insufficient(achieved: int, target: int, sufficient: bool, E: int) -> None:
    """An angle-only pool fixes no length, so it cannot reach rank 3E."""
    require(target == 3 * E, f"target rank {target}, expected 3E = {3 * E}")
    require(achieved < target, f"angle-only pool reached rank {achieved} = 3E")
    require(not sufficient, "angle-only pool reported sufficient for congruence")


def check_rank_2d(achieved: int, target: int, sufficient: bool, n: int, full: bool) -> None:
    """A planar set reaches 2n - 3 exactly when it is first-order sufficient."""
    require(target == 2 * n - 3, f"target rank {target}, expected 2n - 3 = {2 * n - 3}")
    if full:
        require(achieved == target and sufficient, f"rank {achieved} < 2n - 3 = {target}")
    else:
        require(achieved < target and not sufficient, f"rank {achieved} reached 2n - 3")


# --- measurements and rigid alignment ----------------------------------------------


def angle(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.arccos(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0)))


def measure(points: np.ndarray, m) -> float:
    """Value of a measurement written as ('distance', i, j),
    ('angle', i, apex, k) or ('diagonal_angle', i, j, k, l)."""
    kind, *ids = m
    p = points
    if kind == "distance":
        return float(np.linalg.norm(p[ids[0]] - p[ids[1]]))
    if kind == "angle":
        i, j, k = ids
        return angle(p[i] - p[j], p[k] - p[j])
    if kind == "diagonal_angle":
        i, j, k, l = ids
        return angle(p[j] - p[i], p[l] - p[k])
    raise ValueError(f"unknown measurement kind {kind!r}")


def kabsch_distance(reference: np.ndarray, other: np.ndarray, allow_reflection: bool) -> float:
    """Max point distance after the best rigid (or orthogonal) placement."""
    X = reference - reference.mean(axis=0)
    Y = other - other.mean(axis=0)
    U, _, Vt = np.linalg.svd(Y.T @ X)
    best = np.inf
    for flip in ((1.0, -1.0) if allow_reflection else (1.0,)):
        D = np.eye(X.shape[1])
        D[-1, -1] = flip * np.sign(np.linalg.det(U @ Vt))
        R = U @ D @ Vt
        best = min(best, float(np.linalg.norm(Y @ R - X, axis=1).max()))
    return best


def extent(points: np.ndarray) -> float:
    """Largest coordinate range: the length scale tolerances are relative to."""
    return float(np.ptp(points, axis=0).max())


def check_same_measurements(reference: np.ndarray, witness: np.ndarray, measurements,
                            tol: float) -> None:
    scale = extent(reference)
    for m in measurements:
        want, got = measure(reference, m), measure(witness, m)
        tol_m = tol * (scale if m[0] == "distance" else 1.0)
        require(abs(got - want) <= tol_m, f"{m}: witness {got!r}, reference {want!r}")


def check_far(reference: np.ndarray, witness: np.ndarray, far: float) -> None:
    """The witness is a different shape: even mirrored it stays far away."""
    scale = extent(reference)
    d = kabsch_distance(reference, witness, allow_reflection=True)
    require(d > far * scale,
            f"witness lies {d:.3g} from the reference, within {far:g} x {scale:.3g}")


# --- mesh witnesses --------------------------------------------------------------


def check_flex_witness(
    vertices: np.ndarray,
    faces,
    pairs,
    witness_vertices: np.ndarray,
    witness_planes: np.ndarray,
    tol: float = 1e-8,
    far: float = 1e-5,
) -> None:
    """A mesh flex witness keeps every measured distance, keeps every face
    planar (each vertex on its face plane a.x = 1, and the face points
    coplanar in their own right), and is not congruent to the input."""
    W = np.asarray(witness_vertices, dtype=float)
    P = np.asarray(witness_planes, dtype=float)
    require(W.shape == vertices.shape, f"witness has shape {W.shape}, expected {vertices.shape}")
    require(P.shape == (len(faces), 3), f"witness planes have shape {P.shape}")
    require(bool(np.isfinite(W).all() and np.isfinite(P).all()), "witness is not finite")
    check_same_measurements(vertices, W, [("distance", i, j) for i, j in pairs], tol)
    scale = extent(vertices)
    for f, cycle in enumerate(faces):
        pts = W[list(cycle)]
        require(float(np.abs(pts @ P[f] - 1.0).max()) <= tol, f"face {f} leaves its plane")
        spread = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        require(spread[-1] <= tol * scale, f"face {f} is not planar")
    check_far(vertices, W, far)


# --- planar and point-set witnesses ------------------------------------------------


def check_point_witness(
    reference: np.ndarray,
    witness: np.ndarray,
    measurements,
    coplanar=(),
    tol: float = 1e-7,
    far: float = 1e-4,
) -> None:
    W = np.asarray(witness, dtype=float)
    require(W.shape == reference.shape, f"witness has shape {W.shape}, expected {reference.shape}")
    check_same_measurements(reference, W, measurements, tol)
    for p, q, r, s in coplanar:
        triple = float((W[q] - W[p]) @ np.cross(W[r] - W[p], W[s] - W[p]))
        require(abs(triple) <= tol, f"points {p, q, r, s} are not coplanar ({triple:.2e})")
    check_far(reference, W, far)


def check_rectangle(witness: np.ndarray, side: float, tol: float = 1e-5) -> None:
    """The square's five-set witness: four right angles, |AB| = side, and a
    height that is not the side."""
    W = np.asarray(witness, dtype=float)
    corners = [angle(W[(k - 1) % 4] - W[k], W[(k + 1) % 4] - W[k]) for k in range(4)]
    require(max(abs(c - np.pi / 2) for c in corners) <= tol, f"corner angles {corners}")
    width = float(np.linalg.norm(W[1] - W[0]))
    height = float(np.linalg.norm(W[2] - W[1]))
    require(abs(width - side) <= tol * side, f"width {width}, expected {side}")
    require(abs(height - side) > tol * side, f"height {height} equals the side: a square")


def check_staircase_chain(points: np.ndarray, base: float, angles, tol: float = 1e-10) -> None:
    """|A_1 A_n| * prod sin(alpha_k) = |A_1 A_2| = base."""
    chain = float(np.linalg.norm(points[-1] - points[0]) * np.prod(np.sin(angles)))
    require(abs(chain - base) <= tol * base, f"chain identity gives {chain!r}, base {base!r}")


def check_no_witness(witness, converged: int) -> None:
    require(witness is None, "a witness was reported for a determining set")
    require(converged > 0, "no restart converged, so the verdict rests on nothing")


# --- maximization oracles ------------------------------------------------------------


def check_value(name: str, got: float, want: float, tol: float) -> None:
    require(abs(got - want) <= tol, f"{name}: got {got!r}, expected {want!r}")


def square_oracle_max() -> float:
    return np.pi / 2


def right_quad_max(ab: float, ad: float, ac: float) -> float:
    """Both rays from C tangent to their circles about A."""
    return float(np.arcsin(ab / ac) + np.arcsin(ad / ac))


def max_diag_max(bd: float, theta1: float, theta2: float) -> float:
    """A and C at the tops of their arcs, at heights (bd/2) cot(theta/2)."""
    return float(bd / 2.0 * (1.0 / np.tan(theta1 / 2.0) + 1.0 / np.tan(theta2 / 2.0)))


def octagon_max(side: float = 1.0) -> float:
    """|A_3 A_7| of the regular octagon: its circumdiameter."""
    return float(side / np.sin(np.pi / 8.0))
