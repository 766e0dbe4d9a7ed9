"""Acceptance gate: thirteen end-to-end claims, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every criterion prints exactly one line:

    [criterion NN] short name: PASS|FAIL (detail)

and fails the suite when its claim does not hold at the stated tolerance.
"""

import numpy as np
import pytest

from polyrig.errors import OutOfValidityRegion
from polyrig.generators import (
    HEX_FACES,
    TETRA_BASE,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.geometry import (
    DihedralAngle,
    FaceAngle,
    FaceDistance,
    Realization,
    build_pool,
    d_phi,
    evaluate_all,
    fit_realization,
    gradient_rows,
)
from polyrig.incidence import build_incidence
from polyrig.pointsets import (
    Angle,
    DiagonalAngle,
    Distance,
    align_distance,
    measurement_gradient,
    measurement_value,
)
from polyrig.polygon import (
    PointConfig2D,
    octagon_distance_oracle,
    right_angle_quad_oracle,
    square_angle_oracle,
    staircase_measurements,
    staircase_polygon,
)
from polyrig.rigidity import (
    SIMILARITY,
    flex_witness,
    greedy_minimal_subset,
    is_sufficient,
    numeric_rank,
    point_set_witness,
)

from full_coordinates import (
    coordinate_vector,
    from_coordinate_vector,
    full_motion_generators,
    normalization_rows,
    normalize,
)
from solid_checks import verify_equal_face_diagonals

PLATONIC_NAMES = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")

FAMILY_A_SAMPLES = (-0.25, -0.1, 0.0, 0.1, 0.25)
FAMILY_B_GRID = np.linspace(-0.2, 0.2, 5)


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _test_solids():
    for name in PLATONIC_NAMES:
        yield name, platonic(name)
    yield "hexa-a(0.2)", hexahedron_family_a(0.2)
    yield "hexa-b(0.15,0.1)", hexahedron_family_b(0.15, 0.1)


def test_criterion_01_rank_lemma():
    ok = True
    for name in PLATONIC_NAMES:
        poly, real = platonic(name)
        ok &= numeric_rank(d_phi(poly, real), 1e-9) == 2 * poly.edge_count
    for q1 in FAMILY_A_SAMPLES:
        poly, real = hexahedron_family_a(q1)
        ok &= numeric_rank(d_phi(poly, real), 1e-9) == 24
    for q1 in FAMILY_B_GRID:
        for q2 in FAMILY_B_GRID:
            poly, real = hexahedron_family_b(q1, q2)
            ok &= numeric_rank(d_phi(poly, real), 1e-9) == 24
    _criterion(1, "incidence Jacobian has rank 2E", ok,
               "5 solids + 5 family-a + 25 family-b")


def test_criterion_02_face_distances_sufficient():
    ok = True
    for name in PLATONIC_NAMES:
        poly, real = platonic(name)
        rep = is_sufficient(poly, real, build_pool(poly, "face-distances"))
        ok &= rep.sufficient and rep.flex_dimension == 0
        ok &= rep.achieved_rank == 3 * poly.edge_count
    _criterion(2, "all face distances reach rank 3E", ok)


def test_criterion_03_greedy_counts():
    want = {"tetrahedron": 6, "cube": 12, "octahedron": 12,
            "dodecahedron": 30, "icosahedron": 30}
    ok = True
    counts = []
    for name in PLATONIC_NAMES:
        poly, real = platonic(name)
        rep = greedy_minimal_subset(poly, real, build_pool(poly, "face-distances"))
        counts.append(len(rep.selected))
        ok &= rep.sufficient and len(rep.selected) == want[name]
        again = is_sufficient(poly, real, rep.selected)
        ok &= again.sufficient
    _criterion(3, "greedy selects exactly E face distances", ok,
               "selected " + "/".join(map(str, counts)))


def test_criterion_04_dodecahedron_similarity():
    poly, real = platonic("dodecahedron")
    rep = greedy_minimal_subset(
        poly, real, build_pool(poly, "face-angles"), mode=SIMILARITY
    )
    ok = rep.sufficient and len(rep.selected) == 29 and rep.achieved_rank == 89
    _criterion(4, "29 face angles determine a dodecahedron up to similarity",
               ok, f"selected {len(rep.selected)}, rank {rep.achieved_rank}")


def test_criterion_05_generator_identities():
    worst_prod = 0.0
    worst_det = 0.0
    for name, (poly, real) in _test_solids():
        pool = build_pool(poly, "all")
        stack = np.vstack([d_phi(poly, real), gradient_rows(poly, pool, real)])
        G = full_motion_generators(real, 6)
        worst_prod = max(worst_prod, float(np.abs(stack @ G).max()))
        norm = normalize(real)
        D = normalization_rows(norm) @ full_motion_generators(norm, 6)
        v = norm.vertices
        want = (v[2, 1] - v[0, 1]) * (v[1, 0] - v[0, 0]) ** 2
        worst_det = max(worst_det, abs(np.linalg.det(D) - want) / abs(want))
    ok = worst_prod <= 1e-8 and worst_det <= 1e-8
    _criterion(5, "rows annihilate motions; pinning determinant identity", ok,
               f"max|stack·G|={worst_prod:.2e}, det rel err={worst_det:.2e}")


def test_criterion_06_hexahedron_families():
    ref_poly = build_incidence(HEX_FACES)
    ref_real = fit_realization(ref_poly, np.vstack([TETRA_BASE, 1.0 - TETRA_BASE]))
    ok = True
    worst = 0.0
    for q1 in (0.0, 0.1, -0.1, 0.2, -0.2, 0.28, -0.28):
        poly, real = hexahedron_family_a(q1)
        dev = abs(
            verify_equal_face_diagonals(poly, real)
        )
        diag = evaluate_all(poly, [FaceDistance(poly.faces[0][0], poly.faces[0][2])], real)[0]
        worst = max(worst, dev, abs(diag - np.sqrt(2.0)))
    b_samples = [
        (0.1, 0.0), (0.0, 0.2), (0.15, 0.1), (-0.2, 0.1), (0.3, -0.2),
        (0.25, 0.25), (-0.1, -0.1), (0.05, 0.3), (0.2, -0.3), (-0.3, -0.15),
    ]
    for q1, q2 in b_samples:
        poly, real = hexahedron_family_b(q1, q2)
        dev = verify_equal_face_diagonals(poly, real)
        diag = evaluate_all(poly, [FaceDistance(poly.faces[0][0], poly.faces[0][2])], real)[0]
        worst = max(worst, dev, abs(diag - np.sqrt(2.0)))
    ok &= worst <= 1e-9
    pa, ra = hexahedron_family_a(0.0)
    pb, rb = hexahedron_family_b(0.0, 0.0)
    ok &= align_distance(ra.vertices, ref_real.vertices) <= 1e-10
    ok &= align_distance(rb.vertices, ref_real.vertices) <= 1e-10
    for bad in (lambda: hexahedron_family_a(0.3),
                lambda: hexahedron_family_a(-1.0 / np.sqrt(12.0)),
                lambda: hexahedron_family_b(0.5, 0.3),
                lambda: hexahedron_family_b(0.35, 0.35)):
        try:
            bad()
            ok = False
        except OutOfValidityRegion:
            pass
    _criterion(6, "equal-diagonal hexahedra: √2 diagonals, cube at 0, region guard",
               ok, f"worst diagonal deviation {worst:.2e}")


def test_criterion_07_cube_flex_witnesses():
    poly, real = platonic("cube")
    ok = True
    details = []
    for pool_name in ("edges-only", "face-diagonals"):
        pool = build_pool(poly, pool_name)
        w = flex_witness(poly, real, pool)
        assert w is not None
        err = float(np.abs(evaluate_all(poly, pool, w) - evaluate_all(poly, pool, real)).max())
        dist = align_distance(real.vertices, w.vertices)
        ok &= err <= 1e-8 and dist >= 1e-4
        details.append(f"{pool_name}: err {err:.1e}, dist {dist:.1e}")
    _criterion(7, "12 edges / 12 face diagonals admit cube flexes", ok,
               "; ".join(details))


SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)


def test_criterion_08_square_exceptionality():
    val, argmax = square_angle_oracle(1.0)
    angle_err = abs(val - np.pi / 2)
    arg_dist = align_distance(SQUARE, argmax, allow_reflection=True)
    ok = angle_err <= 1e-9 and arg_dist <= 1e-6

    four = [Distance(0, 1), Distance(0, 2), Distance(0, 3), Angle(1, 2, 3)]
    rep = point_set_witness(2, SQUARE, four, restarts=200, seed=0)
    ok &= rep.witness is None and len(rep.clusters) == 1 and rep.converged > 0

    five = [Angle(1, 0, 3), Angle(2, 3, 0), Distance(0, 1), Distance(2, 3),
            Angle(0, 1, 2)]
    rep5 = point_set_witness(2, SQUARE, five, restarts=200, seed=0)
    ok &= rep5.witness is not None
    if rep5.witness is not None:
        w = rep5.witness
        width = np.linalg.norm(w[1] - w[0])
        height = np.linalg.norm(w[2] - w[1])
        corners = [
            measurement_value(Angle(1, 0, 3), w),
            measurement_value(Angle(0, 1, 2), w),
            measurement_value(Angle(1, 2, 3), w),
            measurement_value(Angle(2, 3, 0), w),
        ]
        ok &= abs(width - 1.0) <= 1e-6
        ok &= max(abs(c - np.pi / 2) for c in corners) <= 1e-5
        ok &= abs(height - 1.0) > 1e-5
    _criterion(8, "squares are exceptional; rectangles defeat the five-set", ok,
               f"oracle err {angle_err:.1e}, argmax dist {arg_dist:.1e}, "
               f"4-set clusters {len(rep.clusters)}, 5-set witness found")


def test_criterion_09_right_angle_quadrilaterals():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        ac = rng.uniform(1.5, 4.0)
        ab = rng.uniform(0.3, 0.95) * ac
        ad = rng.uniform(0.3, 0.95) * ac
        _, argmax = right_angle_quad_oracle(ab, ad, ac)
        abc = measurement_value(Angle(0, 1, 2), argmax)
        adc = measurement_value(Angle(0, 3, 2), argmax)
        worst = max(worst, abs(abc - np.pi / 2), abs(adc - np.pi / 2))
    ok = worst <= 1e-8
    _criterion(9, "tangency maximizers have right angles at B and D", ok,
               f"worst angle error {worst:.2e} over 10 triples")


def test_criterion_10_staircase_polygons():
    ok = True
    details = []
    for n in range(4, 9):
        rng = np.random.default_rng(100 + n)
        angles = rng.uniform(1.15, 1.45, size=n - 2)
        config = staircase_polygon(n, 1.0, angles)
        pts = config.points
        chain = np.linalg.norm(pts[n - 1] - pts[0]) * np.prod(np.sin(angles))
        chain_err = abs(chain - 1.0)
        rep = point_set_witness(
            2, pts, staircase_measurements(n),
            restarts=200, seed=0, noise=0.05, locality=0.1,
        )
        ok &= rep.witness is None and chain_err <= 1e-10
        details.append(f"n={n}: {'none' if rep.witness is None else 'WITNESS'}")
    _criterion(10, "staircase n-gons determined by n measurements", ok,
               "; ".join(details))


CUBE_POINTS = np.array(
    [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ],
    dtype=float,
)

CUBE_TEN = [
    Distance(0, 1), Distance(0, 3), Distance(0, 4),
    Distance(1, 3), Distance(1, 4), Distance(3, 4),
    Distance(0, 6), Distance(5, 6), Distance(7, 6), Distance(2, 6),
]

CUBE_COPLANAR = [
    (0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
    (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
]


def test_criterion_11_cube_ten_distances():
    rep = point_set_witness(
        3, CUBE_POINTS, CUBE_TEN,
        restarts=500, seed=0, coplanar=CUBE_COPLANAR, allow_reflection=True,
    )
    ok = rep.witness is None and rep.converged > 0

    dropped = point_set_witness(
        3, CUBE_POINTS, CUBE_TEN[:-1],
        restarts=200, seed=0, coplanar=CUBE_COPLANAR, allow_reflection=True,
    )
    ok &= dropped.witness is not None
    _criterion(11, "ten distances pin the cube; nine do not", ok,
               f"10-set converged {rep.converged}, "
               f"9-set witness {'found' if dropped.witness is not None else 'missing'}")


def test_criterion_12_octagon():
    rep = octagon_distance_oracle(restarts=24, seed=0)
    diff = abs(rep.max_value - rep.regular_value)
    a_err = abs(rep.linkage_angle_a5_a1_a8 - 3.0 * np.pi / 8.0)
    b_err = abs(rep.linkage_angle_a6_a5_a1 - 3.0 * np.pi / 8.0)
    ok = diff <= 1e-6 and a_err <= 1e-6 and b_err <= 1e-6
    _criterion(12, "regular octagon maximizes the twelfth distance", ok,
               f"max-regular {diff:.1e}, angle errs {a_err:.1e}/{b_err:.1e}")


def _fd_rel_error_2d(m, pts, h=1e-6):
    g = measurement_gradient(m, pts)
    flat = pts.ravel()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (
            measurement_value(m, up.reshape(pts.shape))
            - measurement_value(m, dn.reshape(pts.shape))
        ) / (2 * h)
    scale = max(1.0, float(np.abs(g).max()))
    return float(np.abs(g - fd).max()) / scale


def _fd_rel_error_3d(poly, m, real, h=1e-6):
    g = gradient_rows(poly, [m], real)[0]
    x = coordinate_vector(real)
    nv, nf = real.vertex_count, real.face_count
    fd = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (
            evaluate_all(poly, [m], from_coordinate_vector(up, nv, nf))[0]
            - evaluate_all(poly, [m], from_coordinate_vector(dn, nv, nf))[0]
        ) / (2 * h)
    scale = max(1.0, float(np.abs(g).max()))
    return float(np.abs(g - fd).max()) / scale


def test_criterion_13_gradient_correctness():
    rng = np.random.default_rng(13)
    worst2 = 0.0
    for _ in range(100):
        pts = rng.normal(size=(6, 2)) * rng.uniform(0.5, 3.0)
        i, j, k, l = rng.permutation(6)[:4]
        for m in (Distance(i, j), Angle(i, j, k), DiagonalAngle(i, j, k, l)):
            worst2 = max(worst2, _fd_rel_error_2d(m, pts))

    # cube incidences on random vertices: every mesh measurement is a
    # function of the vertices, a dihedral one of the edge its faces share
    poly = platonic("cube")[0]
    hinges = poly.adjacent_faces()
    worst3 = 0.0
    for _ in range(100):
        verts = rng.normal(size=(8, 3)) * rng.uniform(0.5, 3.0)
        real = Realization(verts, rng.normal(size=(6, 3)))
        i, j, k = rng.permutation(8)[:3]
        f, gg = hinges[rng.integers(len(hinges))]
        for m in (FaceDistance(i, j), FaceAngle(i, j, k), DihedralAngle(f, gg)):
            worst3 = max(worst3, _fd_rel_error_3d(poly, m, real))
    ok = worst2 <= 1e-6 and worst3 <= 1e-6
    _criterion(13, "gradients match finite differences", ok,
               f"worst rel err 2D {worst2:.1e}, 3D {worst3:.1e}")
