"""The grid oracles' search as it was before the grid was built from its
two axes, kept as the reference that polygon._grid_max is compared with
byte for byte: a new MeasurementList per call, the whole grid as a
meshgrid of (p_0, p_1) pairs, and each configuration a broadcast copy of
the fixed points with the movers written in by a fancy index."""

import contextlib
from typing import Sequence

import numpy as np

from polyrig import polygon
from polyrig.pointsets import Distance, MeasurementList, SimpleMeasurement, _unit
from polyrig.polygon import FLOOR_ULPS, NEWTON_GTOL, NEWTON_MAXITER


def reference_grid_max(
    measurement: SimpleMeasurement,
    fixed: np.ndarray,
    movers: Sequence[tuple[int, np.ndarray, float]],
    grids: Sequence[np.ndarray],
) -> tuple[float, np.ndarray]:
    kernel = MeasurementList([measurement])
    rows, centers, radii = (np.array(x) for x in zip(*movers))
    n = len(fixed)
    unit = _unit(np.concatenate([fixed.ravel(), centers.ravel(), radii]))
    fixed, centers, radii = fixed / unit, centers / unit, radii / unit
    scale = unit if isinstance(measurement, Distance) else 1.0

    def config(p: np.ndarray) -> np.ndarray:
        pts = np.array(np.broadcast_to(fixed, p.shape[:-1] + fixed.shape))
        circle = np.stack([np.cos(p), np.sin(p)], axis=-1)
        pts[..., rows, :] = centers + radii[:, None] * circle
        return pts

    def derivatives(p: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        arm = radii[:, None] * np.stack([np.cos(p), np.sin(p)], axis=-1)
        tangent = arm[:, ::-1] * [-1.0, 1.0]
        grad = kernel.jacobian(pts).reshape(n, 2)[rows]
        hess = kernel.weighted_hessian(pts, np.ones(1)).reshape(n, 2, n, 2)[rows][:, :, rows]
        H = np.einsum("ka,kalb,lb->kl", tangent, hess, tangent)
        H[[0, 1], [0, 1]] -= (grad * arm).sum(axis=1)
        return (grad * tangent).sum(axis=1), H

    grid = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 2)
    p = grid[int(np.argmax(kernel.values(config(grid))[:, 0]))]
    pts = config(p)
    f = kernel.values(pts)[0]
    for _ in range(NEWTON_MAXITER):
        g, H = derivatives(p, pts)
        if np.abs(g).max() <= NEWTON_GTOL:
            break
        det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
        if H[0, 0] < 0.0 and det > 0.0:
            step = np.array([H[0, 1] * g[1] - H[1, 1] * g[0],
                             H[1, 0] * g[0] - H[0, 0] * g[1]]) / det
        else:
            step = g
        while True:
            q = p + step
            if (q == p).all():
                return float(f) * scale, pts * unit
            q_pts = config(q)
            q_f = kernel.values(q_pts)[0]
            if q_f >= f:
                break
            if f - q_f <= FLOOR_ULPS * np.spacing(f):
                return float(f) * scale, pts * unit
            step = step / 2.0
        p, pts, f = q, q_pts, q_f
    return float(f) * scale, pts * unit


@contextlib.contextmanager
def reference_search():
    """Within the block the oracles of polyrig.polygon search with
    reference_grid_max."""
    current = polygon._grid_max
    polygon._grid_max = reference_grid_max
    try:
        yield
    finally:
        polygon._grid_max = current
