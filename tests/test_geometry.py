"""Realization fitting, the incidence map phi, measurements, and shape
comparison by Kabsch alignment against the canonical frame."""

import itertools

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from polyrig.errors import (
    DegenerateFace,
    DegenerateMeasurement,
    NonPlanarFace,
)
from polyrig.generators import faces_from_convex_vertices, platonic
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
    phi,
)
from polyrig.incidence import build_incidence
from polyrig.pointsets import MeasurementIds, align_distance

from full_coordinates import coordinate_vector, from_coordinate_vector, normalize

CUBE_FACES = [
    (0, 1, 2, 3),
    (7, 6, 5, 4),
    (0, 4, 5, 1),
    (1, 5, 6, 2),
    (2, 6, 7, 3),
    (3, 7, 4, 0),
]

CUBE_COORDS = np.array(
    [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ],
    dtype=float,
)


@pytest.fixture
def cube():
    poly = build_incidence(CUBE_FACES)
    return poly, fit_realization(poly, CUBE_COORDS)


def test_fit_realization_centers_and_zeroes_phi(cube):
    poly, real = cube
    assert np.abs(real.vertices.mean(axis=0)).max() < 1e-12
    assert np.abs(phi(poly, real)).max() < 1e-12


def test_fit_rejects_nonplanar_quad():
    coords = CUBE_COORDS.copy()
    coords[6, 2] += 1e-3  # bend the top face
    poly = build_incidence(CUBE_FACES)
    with pytest.raises(NonPlanarFace) as info:
        fit_realization(poly, coords)
    assert 0 <= info.value.face < 6
    assert info.value.residual > 1e-9


def test_fit_tolerance_is_relative_to_diameter(cube):
    poly, _ = cube
    coords = CUBE_COORDS * 1e6
    coords[6, 2] += 1.0  # same relative defect as 1e-6 on a unit cube
    with pytest.raises(NonPlanarFace):
        fit_realization(poly, coords)



def _per_face_fit(poly, coords, planarity_tol=1e-9):
    """One SVD per face: the planes, or the error of the first failing face."""
    centered = coords - coords.mean(axis=0)
    scale = max(np.linalg.norm(centered, axis=1).max(), 1e-300)
    planes = np.empty((poly.face_count, 3))
    for j, cycle in enumerate(poly.faces):
        pts = centered[list(cycle)]
        mid = pts.mean(axis=0)
        _, svals, Vt = np.linalg.svd(pts - mid, full_matrices=False)
        if svals[1] <= 1e-12 * scale:
            return DegenerateFace, j
        offset = Vt[2] @ mid
        if abs(offset) <= 1e-12 * scale:
            return DegenerateFace, j
        planes[j] = Vt[2] / offset
        residual = float(np.abs(pts @ planes[j] - 1.0).max())
        if residual > planarity_tol:
            return NonPlanarFace, j, residual
    return planes


def _batched_fit(poly, coords):
    try:
        return fit_realization(poly, coords).planes
    except NonPlanarFace as exc:
        return NonPlanarFace, exc.face, exc.residual
    except DegenerateFace as exc:
        return DegenerateFace, int(str(exc).split()[1])


def _mixed_hull(seed):
    # an n-gon prism with a pyramid on its top lid: n-gon, quad and triangle
    # faces, moved by a random rotation and offset
    rng = np.random.default_rng(seed)
    n = 5 + seed % 5
    t = 2.0 * np.pi * np.arange(n) / n
    lid = np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
    coords = np.vstack([lid, lid + [0.0, 0.0, 2.0], [[0.0, 0.0, 2.5]]])
    return coords @ Rotation.random(random_state=seed).as_matrix().T + rng.standard_normal(3)


@pytest.mark.parametrize("seed", range(6))
def test_stacked_plane_fit_is_the_per_face_fit(seed):
    coords = _mixed_hull(seed)
    poly = build_incidence(faces_from_convex_vertices(coords))
    assert len({len(f) for f in poly.faces}) > 1
    assert np.array_equal(_batched_fit(poly, coords), _per_face_fit(poly, coords))


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"])
@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-300])
def test_fit_does_not_overflow_at_extreme_scales(name, scale):
    # squared coordinates overflow from about 1e154; the fit runs at unit
    # size, and a power-of-two unit changes no bit of the result
    poly, unit = platonic(name)
    real = fit_realization(poly, unit.vertices * scale)
    assert np.allclose(real.vertices / scale, unit.vertices, rtol=1e-12, atol=1e-12)
    assert np.allclose(real.planes * scale, unit.planes, rtol=1e-12, atol=1e-12)
    base = fit_realization(poly, unit.vertices)
    exact = fit_realization(poly, unit.vertices * 2.0**500)
    assert np.array_equal(exact.vertices, base.vertices * 2.0**500)
    assert np.array_equal(exact.planes, base.planes / 2.0**500)


def test_fit_error_names_the_lowest_failing_face():
    poly = build_incidence(CUBE_FACES)
    rng = np.random.default_rng(2)
    bent = CUBE_COORDS.copy()
    bent[6, 2] += 1e-3  # faces 1, 3 and 4 leave their planes
    collinear = CUBE_COORDS.copy()
    collinear[[2, 3]] = [[2, 0, 0], [3, 0, 0]]  # face 0 on a line; others bend
    cases = [bent, collinear] + [
        CUBE_COORDS + 1e-6 * rng.standard_normal(CUBE_COORDS.shape) for _ in range(5)
    ]
    expected = [(NonPlanarFace, 1), (DegenerateFace, 0)]
    for k, coords in enumerate(cases):
        got, want = _batched_fit(poly, coords), _per_face_fit(poly, coords)
        assert got[:3] == want[:3]
        if k < len(expected):
            assert got[:2] == expected[k]

def test_d_phi_matches_finite_differences(cube):
    poly, real = cube
    x0 = coordinate_vector(real)
    J = d_phi(poly, real)
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = 1e-7
        d = rng.normal(size=x0.size)
        d /= np.linalg.norm(d)
        rp = from_coordinate_vector(x0 + h * d, 8, 6)
        rm = from_coordinate_vector(x0 - h * d, 8, 6)
        fd = (phi(poly, rp) - phi(poly, rm)) / (2 * h)
        assert np.abs(J @ d - fd).max() < 1e-8


def test_phi_and_d_phi_match_the_pairwise_definition():
    poly, real = platonic("dodecahedron")
    rng = np.random.default_rng(1)
    x = coordinate_vector(real) + 1e-3 * rng.normal(size=coordinate_vector(real).size)
    r = from_coordinate_vector(x, poly.vertex_count, poly.face_count)
    off = 3 * poly.vertex_count
    J = np.zeros((len(poly.incidence), x.size))
    for k, (i, j) in enumerate(poly.incidence):
        J[k, 3 * i : 3 * i + 3] = r.planes[j]
        J[k, off + 3 * j : off + 3 * j + 3] = r.vertices[i]
    assert np.array_equal(d_phi(poly, r), J)
    pairwise = [r.planes[j] @ r.vertices[i] - 1.0 for i, j in poly.incidence]
    assert np.abs(phi(poly, r) - pairwise).max() <= 1e-15


def test_cube_measurement_values(cube):
    poly, real = cube
    assert evaluate_all(poly, [FaceDistance(0, 1)], real)[0] == pytest.approx(1.0)
    assert evaluate_all(poly, [FaceDistance(0, 2)], real)[0] == pytest.approx(np.sqrt(2))
    corners = [(c[i], c[i - 1], c[(i + 1) % len(c)]) for c in poly.faces for i in range(len(c))]
    for apex, e1, e2 in corners:
        assert evaluate_all(poly, [FaceAngle(apex, e1, e2)], real)[0] == pytest.approx(np.pi / 2)
    for f, g in poly.adjacent_faces():
        assert evaluate_all(poly, [DihedralAngle(f, g)], real)[0] == pytest.approx(np.pi / 2)


def test_dodecahedron_dihedral(cube):
    poly, real = platonic("dodecahedron")
    want = np.arccos(-1 / np.sqrt(5))  # ~116.57 degrees
    for f, g in poly.adjacent_faces():
        assert evaluate_all(poly, [DihedralAngle(f, g)], real)[0] == pytest.approx(want, abs=1e-12)


def test_degenerate_angle_raises(cube):
    poly, real = cube
    with pytest.raises(DegenerateMeasurement):
        evaluate_all(poly, [FaceAngle(0, 0, 1)], real)[0]
    # the hinge of faces 0 and 2 is (0, 1, 2, 4); vertex 2 on the line 0 1
    # leaves face 0's cross product zero, and no gradient
    verts = real.vertices.copy()
    verts[2] = 2.0 * verts[1] - verts[0]
    with pytest.raises(DegenerateMeasurement):
        gradient_rows(poly, [DihedralAngle(0, 2)], Realization(verts, real.planes))


def test_measurements_invariant_under_rigid_motion(cube):
    poly, real = cube
    pool = build_pool(poly, "all")
    vals = evaluate_all(poly, pool, real)
    rng = np.random.default_rng(3)
    for k in range(5):
        R = Rotation.random(random_state=k).as_matrix()
        t = rng.normal(size=3)
        moved = fit_realization(poly, real.vertices @ R.T + t)
        assert np.abs(evaluate_all(poly, pool, moved) - vals).max() < 1e-10


def test_angles_scale_invariant_distances_linear(cube):
    poly, real = cube
    scaled = real.rescaled(3.7)
    assert np.abs(phi(poly, scaled)).max() < 1e-12
    for m in build_pool(poly, "face-angles")[:10]:
        assert evaluate_all(poly, [m], scaled)[0] == pytest.approx(evaluate_all(poly, [m], real)[0])
    for f, g in poly.adjacent_faces():
        m = DihedralAngle(f, g)
        assert evaluate_all(poly, [m], scaled)[0] == pytest.approx(evaluate_all(poly, [m], real)[0])
    for m in build_pool(poly, "face-distances")[:10]:
        assert evaluate_all(poly, [m], scaled)[0] == pytest.approx(3.7 * evaluate_all(poly, [m], real)[0])


def test_gradient_matches_finite_differences(cube):
    poly, real = cube
    x0 = coordinate_vector(real)
    ms = [FaceDistance(0, 2), FaceAngle(1, 0, 2), DihedralAngle(0, 2)]
    for m in ms:
        g = gradient_rows(poly, [m], real)[0]
        fd = np.zeros_like(x0)
        for i in range(x0.size):
            up, dn = x0.copy(), x0.copy()
            up[i] += 1e-6
            dn[i] -= 1e-6
            fd[i] = (
                evaluate_all(poly, [m], from_coordinate_vector(up, 8, 6))[0]
                - evaluate_all(poly, [m], from_coordinate_vector(dn, 8, 6))[0]
            ) / 2e-6
        assert np.abs(g - fd).max() / max(1.0, np.abs(g).max()) < 1e-8


def test_gradient_touches_expected_blocks(cube):
    """Every mesh measurement is a function of the vertices, so no row
    touches a plane column; a dihedral of adjacent faces touches the four
    vertices of its hinge: faces 0 = (0, 1, 2, 3) and 2 = (0, 4, 5, 1) share
    the edge 0 -> 1 of face 0, after which come 2 in face 0 and 4 in face 2."""
    poly, real = cube
    nv = real.vertex_count
    for m in (FaceDistance(0, 1), FaceAngle(1, 0, 2), DihedralAngle(0, 2)):
        g = gradient_rows(poly, [m], real)[0]
        assert np.abs(g[3 * nv :]).max() == 0.0
    g = gradient_rows(poly, [DihedralAngle(0, 2)], real)[0]
    touched = np.flatnonzero(np.abs(g[: 3 * nv]).reshape(nv, 3).max(axis=1))
    assert touched.tolist() == [0, 1, 2, 4]


def test_normalize_idempotent_and_canonical(cube):
    # the paper's canonical frame, kept as the test reference
    poly, real = cube
    n1 = normalize(real)
    n2 = normalize(n1)
    assert np.abs(n1.vertices - n2.vertices).max() < 1e-12
    assert np.abs(n1.planes - n2.planes).max() < 1e-12
    assert np.abs(phi(poly, n1)).max() < 1e-10
    # canonical frame: centroid at origin, v2-v1 along +x, v3 in upper half
    assert np.abs(n1.vertices.mean(axis=0)).max() < 1e-12
    d21 = n1.vertices[1] - n1.vertices[0]
    assert abs(d21[1]) < 1e-12 and abs(d21[2]) < 1e-12 and d21[0] > 0
    d31 = n1.vertices[2] - n1.vertices[0]
    assert abs(d31[2]) < 1e-12 and d31[1] > 0


def test_normalize_is_congruence_invariant(cube):
    poly, real = cube
    rng = np.random.default_rng(11)
    for k in range(5):
        R = Rotation.random(random_state=100 + k).as_matrix()
        moved = fit_realization(poly, real.vertices @ R.T + rng.normal(size=3))
        a = normalize(real)
        b = normalize(moved)
        assert np.abs(a.vertices - b.vertices).max() < 1e-9
        # Kabsch alignment needs no frame and agrees
        assert align_distance(real.vertices, moved.vertices) < 1e-9


def test_congruent_distinguishes_shapes(cube):
    poly, real = cube
    squashed = fit_realization(poly, CUBE_COORDS * np.array([1.0, 1.0, 1.1]))
    assert align_distance(real.vertices, squashed.vertices) > 1e-2


def test_congruent_mirror_needs_flag(cube):
    poly, real = cube
    mirrored = fit_realization(poly, real.vertices * np.array([1.0, 1.0, -1.0]))
    assert align_distance(real.vertices, mirrored.vertices) > 1e-2
    assert align_distance(real.vertices, mirrored.vertices, allow_reflection=True) < 1e-12


def test_alignment_needs_no_frame_at_collinear_first_vertices():
    # the first three vertices are collinear, so the canonical frame is
    # undefined; Kabsch alignment does not look at the labels
    faces = [(0, 1, 2, 3), (7, 6, 5, 4), (0, 4, 5, 1), (1, 5, 6, 2),
             (2, 6, 7, 3), (3, 7, 4, 0)]
    coords = np.array(
        [
            [0, 0, 0], [1, 0, 0], [2, 0, 0], [0.5, 1, 0],
            [0, 0, 1], [1, 0, 1], [2, 0, 1], [0.5, 1, 1],
        ],
        dtype=float,
    )
    poly = build_incidence(faces)
    real = fit_realization(poly, coords)
    with pytest.raises(ValueError, match="collinear"):
        normalize(real)
    R = Rotation.random(random_state=7).as_matrix()
    moved = fit_realization(poly, coords @ R.T + 3.0)
    assert align_distance(real.vertices, moved.vertices) < 1e-12
    stretched = fit_realization(poly, coords * np.array([1.0, 1.2, 1.0]))
    assert align_distance(real.vertices, stretched.vertices) > 1e-2


def _object_pools(poly):
    """The pools one measurement object at a time, from the incidence
    structure's pair lists and a set of face triples."""
    triples = set()
    for cycle in poly.faces:
        for apex in cycle:
            others = sorted(v for v in cycle if v != apex)
            triples.update((apex, a, b) for a, b in itertools.combinations(others, 2))
    pools = {
        "face-distances": [FaceDistance(*p) for p in poly.face_vertex_pairs()],
        "face-angles": [FaceAngle(*t) for t in sorted(triples)],
        "dihedrals": [DihedralAngle(*p) for p in poly.adjacent_faces()],
        "edges-only": [FaceDistance(*p) for p in poly.edges()],
        "face-diagonals": [FaceDistance(*p) for p in poly.face_diagonals()],
    }
    pools["all"] = pools["face-distances"] + pools["face-angles"] + pools["dihedrals"]
    return pools


@pytest.mark.parametrize("solid", ["tetrahedron", "cube", "dodecahedron", "prism", "hull"])
def test_pools_are_index_arrays_of_the_object_pools(solid):
    """Each pool is a MeasurementIds holding index arrays; read item by
    item it is the pool built one object at a time, in the same order."""
    if solid == "prism":
        t = 2.0 * np.pi * np.arange(9) / 9
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(9)])
        poly = build_incidence(faces_from_convex_vertices(np.vstack([ring, ring + [0, 0, 0.7]])))
    elif solid == "hull":
        pts = np.random.default_rng(5).standard_normal((40, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        poly = build_incidence(faces_from_convex_vertices(pts))
    else:
        poly, _ = platonic(solid)
    for name, expected in _object_pools(poly).items():
        pool = build_pool(poly, name)
        assert isinstance(pool, MeasurementIds)
        assert len(pool) == len(expected) and list(pool) == expected and pool == expected
        assert [pool[i] for i in range(-len(pool), 0)] == expected
        assert pool[2:7] == expected[2:7]


def test_measurement_ids_is_a_read_only_sequence():
    poly, _ = platonic("cube")
    edges, angles = build_pool(poly, "edges-only"), build_pool(poly, "face-angles")
    both = edges + angles
    assert isinstance(both, MeasurementIds) and list(both) == list(edges) + list(angles)
    assert both.ids[FaceAngle][0][0] == len(edges)
    # adding any other sequence gives a list
    extra = [FaceAngle(0, 1, 3)]
    assert edges + extra == list(edges) + extra and extra + edges == extra + list(edges)
    assert type(edges + extra) is list and type(extra + edges) is list
    assert FaceDistance(0, 1) in edges and edges.index(edges[5]) == 5
    with pytest.raises(IndexError):
        edges[len(edges)]
    with pytest.raises(ValueError, match="read-only"):
        edges.ids[FaceDistance][1][0, 0] = 3
    # a list is read type by type, in the form MeasurementList.from_ids takes
    mixed = MeasurementIds.of([FaceAngle(0, 1, 3), FaceDistance(2, 3), FaceAngle(1, 0, 2)],
                              (FaceAngle, FaceDistance), "mesh")
    assert mixed.ids[FaceAngle][0].tolist() == [0, 2]
    assert mixed.ids[FaceAngle][1].tolist() == [[0, 1, 3], [1, 0, 2]]
    assert mixed[1] == FaceDistance(2, 3)
    with pytest.raises(TypeError, match="not a mesh measurement"):
        MeasurementIds.of([FaceDistance(0, 1), "edge"], (FaceDistance,), "mesh")


def test_pool_sizes_cube(cube):
    poly, _ = cube
    assert len(build_pool(poly, "face-distances")) == 24
    assert len(build_pool(poly, "edges-only")) == 12
    assert len(build_pool(poly, "face-diagonals")) == 12
    assert len(build_pool(poly, "face-angles")) == 6 * 4 * 3
    assert len(build_pool(poly, "dihedrals")) == 12
    with pytest.raises(ValueError):
        build_pool(poly, "nonsense")


def test_arrays_of_the_wrong_shape_are_rejected():
    """A Realization takes (V, 3) vertices and (F, 3) planes, and
    fit_realization (V, 3) coordinates for the V vertices of its incidence."""
    poly, real = platonic("cube")
    with pytest.raises(ValueError, match=r"vertices must be \(V, 3\), got \(8, 2\)"):
        Realization(real.vertices[:, :2], real.planes)
    with pytest.raises(ValueError, match=r"planes must be \(F, 3\), got \(18,\)"):
        Realization(real.vertices, real.planes.ravel())
    with pytest.raises(ValueError, match=r"expected coords of shape \(8, 3\), got \(7, 3\)"):
        fit_realization(poly, real.vertices[:7])
