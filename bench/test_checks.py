"""Each output check accepts a correct output and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py

The valid outputs are built here from closed forms (a unit-edge
parallelepiped for the cube's edge flex, a 1 x 2 rectangle for the square's
five-set), so all but the last test need numpy and scipy only; the last
feeds a value through polyrig's own JSON emitter.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import checks
from checks import CheckFailed


def parallelepiped(t: float) -> np.ndarray:
    """Vertex i + 2j + 4k at i a + j b + k c, all edges of length 1."""
    a, b, c = np.eye(3)[0], np.array([math.cos(t), math.sin(t), 0.0]), np.eye(3)[2]
    pts = np.array([i * a + j * b + k * c for k, j, i in itertools.product((0, 1), repeat=3)])
    return pts - pts.mean(axis=0)


CUBE_FACES = [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4), (2, 6, 7, 3), (0, 4, 6, 2), (1, 3, 7, 5)]
CUBE_EDGES = sorted({tuple(sorted((f[i], f[(i + 1) % 4]))) for f in CUBE_FACES for i in range(4)})


def planes(pts, faces):
    return np.array([np.linalg.lstsq(pts[list(f)], np.ones(len(f)), rcond=None)[0] for f in faces])


@pytest.fixture
def flex():
    cube, witness = parallelepiped(math.pi / 2), parallelepiped(1.2)
    return cube, witness, planes(witness, CUBE_FACES)


def test_flex_witness_accepted(flex):
    cube, witness, P = flex
    checks.check_flex_witness(cube, CUBE_FACES, CUBE_EDGES, witness, P)


def test_flex_witness_with_one_measurement_perturbed_rejected(flex):
    cube, witness, P = flex
    bent = witness.copy()
    bent[7] += 1e-4 * np.array([1.0, 1.0, 1.0])
    with pytest.raises(CheckFailed, match="witness"):
        checks.check_flex_witness(cube, CUBE_FACES, CUBE_EDGES, bent, planes(bent, CUBE_FACES))


def test_flex_witness_off_its_planes_rejected(flex):
    cube, witness, P = flex
    with pytest.raises(CheckFailed, match="plane"):
        checks.check_flex_witness(cube, CUBE_FACES, CUBE_EDGES, witness, P * (1 + 1e-6))


def test_congruent_copy_is_no_witness(flex):
    cube = flex[0]
    turned = cube @ np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T + 3.0
    with pytest.raises(CheckFailed, match="from the reference"):
        checks.check_flex_witness(cube, CUBE_FACES, CUBE_EDGES, turned, planes(turned, CUBE_FACES))


SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
RECTANGLE = np.array([[0, 0], [1, 0], [1, 2], [0, 2]], dtype=float)
FIVE = [("angle", 1, 0, 3), ("angle", 2, 3, 0), ("distance", 0, 1), ("distance", 2, 3),
        ("angle", 0, 1, 2)]


def test_rectangle_witness_accepted():
    checks.check_point_witness(SQUARE, RECTANGLE, FIVE)
    checks.check_rectangle(RECTANGLE, 1.0)


def test_point_witness_with_one_measurement_perturbed_rejected():
    bent = RECTANGLE.copy()
    bent[2, 0] += 1e-5
    with pytest.raises(CheckFailed):
        checks.check_point_witness(SQUARE, bent, FIVE)


def test_square_is_not_a_rectangle_witness():
    with pytest.raises(CheckFailed, match="a square"):
        checks.check_rectangle(SQUARE, 1.0)


def test_mirror_image_is_no_witness():
    with pytest.raises(CheckFailed, match="from the reference"):
        checks.check_point_witness(SQUARE, SQUARE * np.array([-1.0, 1.0]), FIVE)


def test_coplanarity_violation_rejected():
    cube = parallelepiped(math.pi / 2)
    twisted = cube.copy()
    twisted[7, 0] += 1e-3
    with pytest.raises(CheckFailed, match="coplanar"):
        checks.check_point_witness(cube, twisted, [], coplanar=[(1, 3, 7, 5)])


def test_rank_one_short_of_3e_rejected():
    checks.check_full_rank(36, 36, True, 12)
    with pytest.raises(CheckFailed, match="achieved rank 35"):
        checks.check_full_rank(35, 36, True, 12)
    checks.check_full_rank(35, 35, True, 12, defect=1)
    with pytest.raises(CheckFailed):
        checks.check_full_rank(34, 35, True, 12, defect=1)


def test_selection_size_and_membership():
    checks.check_selection(CUBE_EDGES, CUBE_EDGES, 12)
    with pytest.raises(CheckFailed, match="selected 11"):
        checks.check_selection(CUBE_EDGES[:-1], CUBE_EDGES, 12)
    with pytest.raises(CheckFailed, match="outside the pool"):
        checks.check_selection(CUBE_EDGES[:-1] + [(0, 7)], CUBE_EDGES, 12)
    with pytest.raises(CheckFailed, match="repeats"):
        checks.check_selection(CUBE_EDGES[:-1] + CUBE_EDGES[:1], CUBE_EDGES, 12)


def test_angle_pool_at_full_rank_rejected():
    checks.check_insufficient(70, 72, False, 24)
    with pytest.raises(CheckFailed):
        checks.check_insufficient(72, 72, True, 24)


def test_rank_2d():
    checks.check_rank_2d(9, 9, True, 6, full=True)
    checks.check_rank_2d(6, 9, False, 6, full=False)
    with pytest.raises(CheckFailed):
        checks.check_rank_2d(8, 9, False, 6, full=True)
    with pytest.raises(CheckFailed):
        checks.check_rank_2d(9, 9, True, 6, full=False)


def test_hull_faces_and_edge_count():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((30, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    faces = [tuple(s) for s in ConvexHull(pts).simplices]
    assert checks.check_hull(pts, faces, simplicial=True) == 3 * 30 - 6
    with pytest.raises(CheckFailed, match="hull faces differ"):
        checks.check_hull(pts, faces[:-1], simplicial=True)
    assert checks.check_hull(parallelepiped(math.pi / 2), CUBE_FACES, simplicial=False) == 12


def test_wrong_oracle_maximum_rejected():
    # the unit square is the tangency quadrilateral with ab = ad = 1, ac = sqrt 2
    assert checks.right_quad_max(1.0, 1.0, math.sqrt(2.0)) == pytest.approx(math.pi / 2)
    assert checks.max_diag_max(2.0, math.pi / 3, math.pi / 3) == pytest.approx(2.0 * math.sqrt(3.0))
    assert checks.octagon_max() == pytest.approx(2.0 * (1.0 / (2.0 * math.sin(math.pi / 8))))
    checks.check_value("square", math.pi / 2, checks.square_oracle_max(), 1e-9)
    for want in (checks.square_oracle_max(), checks.right_quad_max(1.0, 1.2, 2.0),
                 checks.max_diag_max(1.0, 0.6, 0.9), checks.octagon_max()):
        with pytest.raises(CheckFailed):
            checks.check_value("oracle", want * (1 + 1e-6), want, 1e-9)


def test_staircase_chain_identity():
    angles = np.array([1.2, 1.3])
    pts = [np.zeros(2), np.array([1.0, 0.0])]
    for a in angles:
        prev = pts[-1]
        r = np.linalg.norm(prev)
        pts.append(prev + r / math.tan(a) * np.array([-prev[1], prev[0]]) / r)
    checks.check_staircase_chain(np.array(pts), 1.0, angles)
    with pytest.raises(CheckFailed):
        checks.check_staircase_chain(np.array(pts), 1.0, angles + 1e-6)


def test_no_witness_needs_a_converged_restart():
    checks.check_no_witness(None, 3)
    with pytest.raises(CheckFailed):
        checks.check_no_witness(None, 0)
    with pytest.raises(CheckFailed):
        checks.check_no_witness(SQUARE, 3)


@pytest.mark.parametrize("text", [
    '{"x": nan}\n', '{"x": NaN}\n', '{"x": Infinity}\n', '{"x": -Infinity}\n',
    '{"s": "a\x01b"}\n', '{"x": 1}\n{"y": 2}\n', '{"x": 1,}\n',
])
def test_cli_output_that_is_not_strict_json_rejected(text):
    with pytest.raises(CheckFailed):
        checks.strict_json(text)


def test_strict_json_accepts_the_cli_format():
    text = '{\n  "E": 12,\n  "note": "a\\u0001b",\n  "x": 1.0000000000000001e-05\n}\n'
    assert checks.strict_json(text) == {"E": 12, "note": "a\x01b", "x": 1e-05}


def test_polyrig_non_finite_output_rejected():
    """polyrig's own emitter writes a NaN as bare `nan`, which is not JSON."""
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    offio = pytest.importorskip("polyrig.offio")
    with pytest.raises(CheckFailed):
        checks.strict_json(offio.json_dumps({"x": float("nan")}))
