"""The full-coordinate model that the vertex-chart engine is checked against.

A realization flattens to (x_1, y_1, z_1, ..., x_V, y_V, z_V, a_1, b_1, c_1,
..., a_F, b_F, c_F), the coordinates of geometry.d_phi and
geometry.gradient_rows. The program works on the vertices alone and
compares shapes by Kabsch alignment; these helpers, with the paper's
canonical frame, serve the tests that compare it with that model. The
paper's counting argument adds one more: an elimination order of the
vertex-face incidences, in which each vertex and face meets at most three
earlier ones.
"""

from typing import Sequence

import numpy as np

from polyrig.errors import PolyrigError
from polyrig.geometry import Realization
from polyrig.incidence import AbstractPolyhedron
from polyrig.rigidity import motion_generators

VERTEX = "vertex"
FACE = "face"


class NotReducible(PolyrigError):
    """The vertex-face incidence graph has no node of degree <= 3 left,
    so no elimination order exists."""


def coordinate_vector(real: Realization) -> np.ndarray:
    """Flatten to (3V + 3F,): all vertex coords, then all plane coeffs."""
    return np.concatenate([real.vertices.ravel(), real.planes.ravel()])


def from_coordinate_vector(x: np.ndarray, vertex_count: int, face_count: int) -> Realization:
    x = np.asarray(x, dtype=float)
    nv = 3 * vertex_count
    return Realization(
        vertices=x[:nv].reshape(vertex_count, 3),
        planes=x[nv : nv + 3 * face_count].reshape(face_count, 3),
    )


def normalize(real: Realization) -> Realization:
    """Move a realization, vertices and planes, to its canonical frame.

    The canonical frame puts the vertex centroid at the origin, v_2 - v_1
    along the positive x-axis, and v_3 - v_1 into the xy-plane with positive
    y-component, so that y_1 = y_2, z_1 = z_2 = z_3, x_1 < x_2 and y_1 < y_3.
    It exists when the first three vertices are not collinear. The centroid
    anchors the translation so that no face plane passes through the origin
    and the plane chart stays valid.
    """
    V = real.vertices
    center = V.mean(axis=0)
    ex = V[1] - V[0]
    ez = np.cross(ex, V[2] - V[0])
    if np.linalg.norm(ez) <= 1e-12 * np.linalg.norm(ex) * np.linalg.norm(V[2] - V[0]):
        raise ValueError("the first three vertices are collinear")
    ex, ez = ex / np.linalg.norm(ex), ez / np.linalg.norm(ez)
    M = np.vstack([ex, np.cross(ez, ex), ez])
    return Realization((V - center) @ M.T, (real.planes @ M.T) / (1.0 - real.planes @ center)[:, None])


def normalization_rows(real: Realization) -> np.ndarray:
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


def full_motion_generators(real: Realization, g: int) -> np.ndarray:
    """(3V+3F) x g: the vertex motions of rigidity.motion_generators with the
    motions of the plane coefficient vectors stacked under them.

    Translation along axis e moves a plane coefficient vector n by
    -(n.e) n, rotation with angular velocity w moves it by w x n, and
    scaling moves it by -n.
    """
    P = real.planes
    H = np.zeros((real.face_count, 3, g))
    H[:, :, :3] = -P[:, :, None] * P[:, None, :]
    # the rotation about axis a moves a vector y by e_a x y
    H[:, [0, 0, 1, 1, 2, 2], [4, 5, 3, 5, 3, 4]] = P[:, [2, 1, 2, 0, 1, 0]] * [
        1.0, -1.0, -1.0, 1.0, 1.0, -1.0
    ]
    if g == 7:
        H[:, :, 6] = -P
    return np.vstack([motion_generators(real, g), H.reshape(-1, g)])


def elimination_order(poly: AbstractPolyhedron) -> tuple[tuple[str, int], ...]:
    """Order all vertices and faces so each has <= 3 earlier incidences.

    Works on the bipartite vertex-face incidence graph: repeatedly remove
    a node of minimum current degree (which is <= 3 whenever the graph is
    planar and bipartite) and reverse the removal sequence. Raises
    NotReducible if at some point every remaining node has degree >= 4.
    Deterministic: ties break on (kind, id) with vertices first.
    """
    nodes = [(VERTEX, i) for i in range(poly.vertex_count)] + [
        (FACE, j) for j in range(poly.face_count)
    ]
    neighbors: dict[tuple[str, int], set[tuple[str, int]]] = {n: set() for n in nodes}
    for v, f in poly.incidence:
        neighbors[(VERTEX, v)].add((FACE, f))
        neighbors[(FACE, f)].add((VERTEX, v))

    kind_rank = {VERTEX: 0, FACE: 1}
    removed: list[tuple[str, int]] = []
    alive = set(nodes)
    while alive:
        node = min(alive, key=lambda n: (len(neighbors[n]), kind_rank[n[0]], n[1]))
        if len(neighbors[node]) > 3:
            raise NotReducible(
                f"all remaining nodes have degree >= 4 (stuck at {node})"
            )
        for other in neighbors[node]:
            neighbors[other].discard(node)
        neighbors[node] = set()
        alive.discard(node)
        removed.append(node)

    return tuple(reversed(removed))


def earlier_incidence_counts(
    poly: AbstractPolyhedron, order: Sequence[tuple[str, int]]
) -> list[int]:
    """For each element of the order, how many earlier elements it touches.

    Every incidence pair charges whichever of its two endpoints appears
    later in the order, so counts[k] <= 3 for all k is exactly the defining
    property of a valid elimination order.
    """
    position = {el: k for k, el in enumerate(order)}
    counts = [0] * len(order)
    for v, f in poly.incidence:
        counts[max(position[(VERTEX, v)], position[(FACE, f)])] += 1
    return counts
