"""The full-coordinate model that the vertex-chart engine is checked against.

A realization flattens to (x_1, y_1, z_1, ..., x_V, y_V, z_V, a_1, b_1, c_1,
..., a_F, b_F, c_F), the coordinates of geometry.d_phi and
geometry.gradient_rows. The program works on the vertices alone; these
helpers serve the tests that compare it with that model.
"""

import numpy as np

from polyrig.geometry import Realization


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
