"""Rank computations, greedy selection, flex and point-set witnesses."""

from functools import lru_cache

import numpy as np
import pytest

from polyrig.errors import DegenerateMeasurement, NoKernelDirection
from polyrig.generators import (
    faces_from_convex_vertices,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.geometry import (
    FaceAngle,
    build_pool,
    d_phi,
    evaluate_all,
    fit_realization,
    gradient_rows,
    phi,
)
from polyrig.incidence import build_incidence
from polyrig.pointsets import Angle, Distance, align_distance
from polyrig.rigidity import (
    CONGRUENCE,
    SIMILARITY,
    flex_witness,
    greedy_minimal_subset,
    is_sufficient,
    numeric_rank,
    point_set_witness,
)

from full_coordinates import full_motion_generators

PLATONIC_EDGES = {
    "tetrahedron": 6,
    "cube": 12,
    "octahedron": 12,
    "dodecahedron": 30,
    "icosahedron": 30,
}


@pytest.mark.parametrize("name,edges", sorted(PLATONIC_EDGES.items()))
def test_incidence_jacobian_rank_is_two_e(name, edges):
    poly, real = platonic(name)
    assert numeric_rank(d_phi(poly, real)) == 2 * edges


@pytest.mark.parametrize("name", sorted(PLATONIC_EDGES))
def test_face_distances_suffice_for_congruence(name):
    poly, real = platonic(name)
    report = is_sufficient(poly, real, build_pool(poly, "face-distances"))
    assert report.sufficient
    assert report.flex_dimension == 0
    assert report.achieved_rank == report.target_rank == 3 * poly.edge_count



@pytest.mark.parametrize("scale", [9e307, 1e308])
def test_face_distances_suffice_at_the_top_of_the_float_range(scale):
    """The unit cube [0, 1]^3 scaled past 2**1023 (about 8.99e307): the fit
    once divided by an inf unit, found every face's vertices collinear and
    raised DegenerateFace."""
    poly, real = platonic("cube")
    real = fit_realization(poly, (real.vertices + 0.5) * scale)
    report = is_sufficient(poly, real, build_pool(poly, "face-distances"))
    assert report.sufficient and report.achieved_rank == report.target_rank == 36

def test_stack_annihilates_rigid_motions():
    poly, real = platonic("icosahedron")
    pool = build_pool(poly, "all")
    stack = np.vstack([d_phi(poly, real), gradient_rows(poly, pool, real)])
    G = full_motion_generators(real, 6)
    assert G.shape[1] == 6
    assert np.abs(stack @ G).max() < 1e-8


def test_angle_rows_annihilate_scaling():
    poly, real = platonic("dodecahedron")
    s = full_motion_generators(real, 7)[:, 6]
    pool = build_pool(poly, "face-angles") + build_pool(poly, "dihedrals")
    rows = np.vstack([d_phi(poly, real), gradient_rows(poly, pool, real)])
    assert np.abs(rows @ s).max() < 1e-10


def test_distance_rows_are_degree_one_in_scale():
    # a distance gradient dotted with the scaling direction returns the
    # distance itself (Euler's relation for degree-1 homogeneous functions)
    poly, real = platonic("cube")
    s = full_motion_generators(real, 7)[:, 6]
    pool = build_pool(poly, "face-distances")
    rows = gradient_rows(poly, pool, real)
    vals = evaluate_all(poly, pool, real)
    assert np.abs(rows @ s - vals).max() < 1e-10


@pytest.mark.parametrize("name,count", sorted(PLATONIC_EDGES.items()))
def test_greedy_face_distance_counts(name, count):
    poly, real = platonic(name)
    pool = build_pool(poly, "face-distances")
    report = greedy_minimal_subset(poly, real, pool)
    assert report.sufficient
    assert len(report.selected) == count == poly.edge_count
    # reverification from scratch on just the chosen subset
    again = is_sufficient(poly, real, report.selected)
    assert again.sufficient and again.achieved_rank == report.achieved_rank


def test_greedy_is_tolerance_independent():
    poly, real = platonic("cube")
    pool = build_pool(poly, "face-distances")
    base = greedy_minimal_subset(poly, real, pool, tol_rel=1e-9)
    for tol in (1e-12, 1e-10, 1e-8, 1e-6):
        rep = greedy_minimal_subset(poly, real, pool, tol_rel=tol)
        assert rep.selected == base.selected


def test_greedy_refuses_a_degenerate_pool_measurement():
    # the angle at vertex 0 between two rays to vertex 1 has no gradient;
    # greedy refuses the pool, as is_sufficient does, even where the
    # measurement sits after the point at which the target rank is reached
    poly, real = platonic("cube")
    pool = build_pool(poly, "face-distances") + [FaceAngle(0, 1, 1)]
    with pytest.raises(DegenerateMeasurement):
        is_sufficient(poly, real, pool)
    with pytest.raises(DegenerateMeasurement):
        greedy_minimal_subset(poly, real, pool)


def test_dodecahedron_similarity_by_angles():
    poly, real = platonic("dodecahedron")
    pool = build_pool(poly, "face-angles") + build_pool(poly, "dihedrals")
    report = greedy_minimal_subset(poly, real, pool, mode=SIMILARITY)
    assert report.sufficient
    assert report.achieved_rank == report.target_rank == 89
    assert len(report.selected) == poly.edge_count - 1 == 29


def test_similarity_mode_rejects_distances_by_default():
    poly, real = platonic("cube")
    pool = build_pool(poly, "face-distances")
    with pytest.raises(ValueError):
        is_sufficient(poly, real, pool, mode=SIMILARITY)
    report = is_sufficient(
        poly, real, pool, mode=SIMILARITY, allow_scale_variant=True
    )
    # distances pin the scale, so the set is judged by the congruence test
    assert report.sufficient
    assert report.achieved_rank == report.target_rank == 3 * poly.edge_count
    assert report.flex_dimension == 0


@pytest.mark.parametrize("name", sorted(PLATONIC_EDGES))
def test_similarity_with_distances_is_the_congruence_test(name):
    # E - 1 face distances pin the scale but leave a one-dimensional flex,
    # and a flex that keeps distances cannot be a similarity
    poly, real = platonic(name)
    pool = build_pool(poly, "face-distances")
    kept = greedy_minimal_subset(poly, real, pool).selected[:-1]
    report = is_sufficient(
        poly, real, kept, mode=SIMILARITY, allow_scale_variant=True
    )
    assert not report.sufficient
    assert report.target_rank == 3 * poly.edge_count
    assert report.flex_dimension == 1
    w = flex_witness(poly, real, kept, mode=SIMILARITY, allow_scale_variant=True)
    assert w is not None
    assert np.abs(evaluate_all(poly, kept, w) - evaluate_all(poly, kept, real)).max() < 1e-8
    assert np.abs(phi(poly, w)).max() < 1e-8


def test_empty_set_reports_the_whole_flex_space():
    poly, real = platonic("cube")
    for mode, g in ((CONGRUENCE, 6), (SIMILARITY, 7)):
        report = is_sufficient(poly, real, [], mode=mode)
        assert report.achieved_rank == 2 * poly.edge_count
        assert not report.sufficient
        assert report.flex_dimension == poly.edge_count + 6 - g


def test_angles_never_reach_congruence():
    poly, real = platonic("tetrahedron")
    pool = build_pool(poly, "face-angles") + build_pool(poly, "dihedrals")
    report = is_sufficient(poly, real, pool)
    assert not report.sufficient
    assert report.achieved_rank == report.target_rank - 1
    assert report.flex_dimension == 1  # the scaling direction
    greedy = greedy_minimal_subset(poly, real, pool, mode=CONGRUENCE)
    assert not greedy.sufficient


def test_flex_witness_for_cube_edges():
    # the verdict must not depend on the unit of length
    for edge in (1e-4, 1.0, 1e4):
        poly, real = platonic("cube", edge)
        pool = build_pool(poly, "edges-only")
        w = flex_witness(poly, real, pool)
        assert w is not None, edge
        assert np.abs(phi(poly, w)).max() < 1e-8
        err = np.abs(evaluate_all(poly, pool, w) - evaluate_all(poly, pool, real)).max()
        assert err < 1e-8 * edge
        assert align_distance(real.vertices, w.vertices) >= 1e-3 * real.diameter()


def test_flex_witness_for_cube_diagonals_keeps_diagonals():
    poly, real = platonic("cube")
    pool = build_pool(poly, "face-diagonals")
    w = flex_witness(poly, real, pool)
    assert w is not None
    moved = evaluate_all(poly, pool, w)
    assert np.abs(moved - evaluate_all(poly, pool, real)).max() < 1e-8
    assert np.abs(moved - moved[0]).max() < 1e-8  # still equidiagonal


@pytest.mark.parametrize("step", [0.0, 1e-300, 1e-5, -1e-5, float("nan")])
def test_flex_witness_rejects_a_step_within_the_witness_radius(step):
    # u is a unit vector and the projection adds O(step^2), so a step of at
    # most 1e-5 moves no vertex past the 1e-5 radius a witness must clear
    poly, real = platonic("cube")
    with pytest.raises(ValueError, match="step"):
        flex_witness(poly, real, build_pool(poly, "edges-only"), step=step)


@pytest.mark.parametrize("step", [-0.01, -1.5])
def test_flex_witness_takes_a_negative_step(step):
    # the projection may travel 100 (|step| + 1) diameters, whatever the sign
    poly, real = platonic("cube")
    pool = build_pool(poly, "edges-only")
    w = flex_witness(poly, real, pool, step=step)
    assert w is not None and np.abs(phi(poly, w)).max() < 1e-8
    assert np.abs(evaluate_all(poly, pool, w) - evaluate_all(poly, pool, real)).max() < 1e-8
    assert align_distance(real.vertices, w.vertices) > 1e-5 * real.diameter()


def test_flex_witness_refuses_rigid_pool():
    poly, real = platonic("cube")
    pool = build_pool(poly, "face-distances")
    with pytest.raises(NoKernelDirection):
        flex_witness(poly, real, pool)


# the tangent-space engine against the full stack [d_phi; rows] ------------


def _convex_model(points):
    poly = build_incidence(faces_from_convex_vertices(points))
    return poly, fit_realization(poly, points)


def _sphere_hull(V, seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((V, 3))
    return _convex_model(p / np.linalg.norm(p, axis=1, keepdims=True))


def _prism(n):
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(t), np.sin(t)])
    return _convex_model(
        np.vstack([np.c_[ring, np.zeros(n)], np.c_[ring, np.ones(n)]])
    )


ENGINE_MODELS = sorted(PLATONIC_EDGES) + ["hexa-0.2", "hexb-0.1-0.15", "sphere-50"]
ENGINE_POOLS = [
    ("face-distances", CONGRUENCE),
    ("face-angles", SIMILARITY),
    ("all", CONGRUENCE),
]


@lru_cache(maxsize=None)
def _engine_model(name):
    if name == "hexa-0.2":
        return hexahedron_family_a(0.2)
    if name == "hexb-0.1-0.15":
        return hexahedron_family_b(0.1, 0.15)
    if name == "sphere-50":
        return _sphere_hull(50, 0)
    return platonic(name)


def _unit(real):
    return real.rescaled(1.0 / real.diameter())


def _full_stack(poly, real, pool):
    scaled = _unit(real)
    return np.vstack([d_phi(poly, scaled), gradient_rows(poly, pool, scaled)])


def _full_stack_greedy(poly, real, pool, target, tol_rel=1e-9):
    # the scan on the full coordinates: a basis of the row space of d_phi,
    # grown by each accepted row's residual
    scaled = _unit(real)
    _, s, Vt = np.linalg.svd(d_phi(poly, scaled), full_matrices=False)
    basis = Vt[: np.count_nonzero(s > tol_rel * s[0])]
    selected = []
    for m, row in zip(pool, gradient_rows(poly, pool, scaled)):
        if len(basis) >= target:
            break
        res = row - basis.T @ (basis @ row)
        res -= basis.T @ (basis @ res)
        res_norm = np.linalg.norm(res)
        if res_norm > tol_rel * np.linalg.norm(row):
            basis = np.vstack([basis, res / res_norm])
            selected.append(m)
    return tuple(selected)


@pytest.mark.parametrize("pool_name,mode", ENGINE_POOLS)
@pytest.mark.parametrize("name", ENGINE_MODELS)
def test_greedy_matches_full_stack_scan(name, pool_name, mode):
    poly, real = _engine_model(name)
    pool = build_pool(poly, pool_name)
    report = greedy_minimal_subset(poly, real, pool, mode)
    assert report.sufficient
    assert report.selected == _full_stack_greedy(poly, real, pool, report.target_rank)


@pytest.mark.parametrize("pool_name,mode", ENGINE_POOLS)
@pytest.mark.parametrize("name", ENGINE_MODELS)
def test_rank_matches_full_stack(name, pool_name, mode):
    poly, real = _engine_model(name)
    pool = build_pool(poly, pool_name)
    report = is_sufficient(poly, real, pool, mode)
    assert report.achieved_rank == numeric_rank(_full_stack(poly, real, pool))


def _three_edges_removed(edges):
    return edges[:10] + edges[11:40] + edges[41:70] + edges[71:]


def test_rank_matches_full_stack_on_large_and_flexible_pools():
    poly, real = _prism(24)
    pool = build_pool(poly, "face-angles")
    assert len(pool) == 12432
    report = is_sufficient(poly, real, pool, SIMILARITY)
    assert report.achieved_rank == numeric_rank(_full_stack(poly, real, pool))
    assert report.sufficient

    poly, real = _sphere_hull(50, 0)
    edges = build_pool(poly, "edges-only")
    kept = _three_edges_removed(edges)
    report = is_sufficient(poly, real, kept)
    assert report.achieved_rank == numeric_rank(_full_stack(poly, real, kept))
    assert report.achieved_rank == report.target_rank - 3
    assert report.flex_dimension == 3


def test_flex_witness_on_a_hull_with_three_edges_removed():
    poly, real = _sphere_hull(50, 0)
    edges = build_pool(poly, "edges-only")
    kept = _three_edges_removed(edges)
    w = flex_witness(poly, real, kept)
    assert w is not None
    diam = real.diameter()
    assert np.abs(evaluate_all(poly, kept, w) - evaluate_all(poly, kept, real)).max() < 1e-8 * diam
    assert np.abs(phi(poly, w)).max() < 1e-8
    assert align_distance(real.vertices, w.vertices) >= 1e-3 * diam
    with pytest.raises(NoKernelDirection):
        flex_witness(poly, real, edges)


def test_a_first_order_flex_gives_no_witness():
    """The dodecahedron's 30 edges leave first-order flexes, but the
    projection slides back: its residual target 1e-10 admits a drift of
    sqrt(1e-10) = 1e-5 diameters near a second-order-rigid point, and no
    witness lies within that."""
    poly, real = platonic("dodecahedron")
    edges = build_pool(poly, "edges-only")
    assert not is_sufficient(poly, real, edges).sufficient
    assert flex_witness(poly, real, edges) is None


# point sets ---------------------------------------------------------------

UNIT_SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)

SQUARE_FOUR = [
    Distance(0, 1),
    Distance(1, 2),
    Distance(2, 3),
    Distance(3, 0),
]


def test_square_four_distances_admit_rhombus():
    rep = point_set_witness(2, UNIT_SQUARE, SQUARE_FOUR, restarts=60, seed=0)
    assert rep.witness is not None
    assert not rep.determined
    d = np.linalg.norm(rep.witness[0] - rep.witness[2])
    assert abs(d - np.sqrt(2)) > 1e-3  # genuinely not the square


def test_square_exceptional_four_set():
    # three distances from one corner plus the opposite angle pin the
    # square even though 4 < 2n-3 = 5, the hallmark of an exceptional
    # configuration; determination here is second order, which the
    # restart oracle sees but a rank test cannot
    ms = [Distance(0, 1), Distance(0, 2), Distance(0, 3), Angle(1, 2, 3)]
    rep = point_set_witness(2, UNIT_SQUARE, ms, restarts=200, seed=0)
    assert rep.witness is None
    assert rep.determined
    assert rep.converged > 0
    assert len(rep.clusters) == 1


def test_square_five_measurement_rectangle_witness():
    # two base angles, the two horizontal sides, and one more right angle
    # hold for every rectangle of width 1, so a witness must appear
    ms = [
        Angle(1, 0, 3),
        Angle(2, 3, 0),
        Distance(0, 1),
        Distance(2, 3),
        Angle(0, 1, 2),
    ]
    rep = point_set_witness(2, UNIT_SQUARE, ms, restarts=60, seed=0)
    assert rep.witness is not None
    w = rep.witness
    width = np.linalg.norm(w[1] - w[0])
    height = np.linalg.norm(w[2] - w[1])
    assert width == pytest.approx(1.0, abs=1e-6)
    assert abs(height - 1.0) > 1e-3  # a genuinely non-square rectangle
    corner = (w[0] - w[1]) @ (w[2] - w[1])
    assert abs(corner) < 1e-6


def test_collinear_chain_taut_vs_slack():
    links = [Distance(0, 1), Distance(1, 2), Distance(2, 3)]
    taut_pts = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
    taut = point_set_witness(
        2, taut_pts, links + [Distance(0, 3)], restarts=80, seed=0
    )
    assert taut.witness is None  # |ends| = sum of links: no slack to fold

    # same four measurements on a bent chain with |ends| = 2.5 < 3: one
    # degree of freedom remains, restarts land on visibly different shapes
    y4 = np.sqrt(2.5**2 - 2.3125**2)
    bent_pts = np.array([[0, 0], [1, 0], [2, 0], [2.3125, y4]])
    bent = point_set_witness(
        2, bent_pts, links + [Distance(0, 3)], restarts=80, seed=0
    )
    assert bent.witness is not None


def test_witness_reports_cluster_distances():
    rep = point_set_witness(2, UNIT_SQUARE, SQUARE_FOUR, restarts=60, seed=0)
    assert rep.clusters[0].distance_to_reference < 1e-5
    assert any(c.distance_to_reference > 1e-3 for c in rep.clusters)
    assert sum(c.count for c in rep.clusters) == rep.converged
    assert rep.restarts == 60


def test_coplanar_constraint_validation():
    pts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 0.7]], dtype=float
    )
    with pytest.raises(ValueError):
        point_set_witness(
            2, pts[:, :2], [Distance(0, 1)], coplanar=[(0, 1, 2, 3)]
        )
    with pytest.raises(ValueError):
        # reference violates the stated coplanarity
        point_set_witness(
            3, pts, [Distance(0, 1)], coplanar=[(0, 1, 2, 3)], restarts=2
        )


def test_arguments_out_of_their_domain_raise():
    """A mode other than congruence or similarity, a search dimension other
    than 2 or 3, and points of another shape raise ValueError naming them."""
    poly, real = platonic("cube")
    with pytest.raises(ValueError, match="mode must be 'congruence' or 'similarity', got 'affine'"):
        is_sufficient(poly, real, build_pool(poly, "face-distances"), "affine")
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    sides = [Distance(i, (i + 1) % 4) for i in range(4)]
    with pytest.raises(ValueError, match="dim must be 2 or 3, got 4"):
        point_set_witness(4, square, sides)
    with pytest.raises(ValueError, match=r"points must be \(n, 3\), got \(4, 2\)"):
        point_set_witness(3, square, sides)
    with pytest.raises(ValueError, match=r"points must be \(n, 2\), got \(8,\)"):
        point_set_witness(2, np.ravel(square), sides)


@pytest.mark.parametrize("verdict", [
    lambda cube, tetra: evaluate_all(cube, [FaceAngle(0, 1, 7)], tetra),
    lambda cube, tetra: gradient_rows(cube, [FaceAngle(0, 1, 7)], tetra),
    lambda cube, tetra: is_sufficient(cube, tetra, build_pool(cube, "face-distances")),
    lambda cube, tetra: greedy_minimal_subset(cube, tetra, build_pool(cube, "face-distances")),
    lambda cube, tetra: flex_witness(cube, tetra, build_pool(cube, "face-distances")[:5]),
], ids=["evaluate_all", "gradient_rows", "is_sufficient", "greedy_minimal_subset", "flex_witness"])
def test_a_realization_with_another_vertex_count_is_refused(verdict):
    """The tetrahedron's realization given for the cube raises ValueError
    naming both vertex counts at every entry point, not a point id past
    the realization's points nor a numpy IndexError."""
    cube, _ = platonic("cube")
    _, tetra = platonic("tetrahedron")
    with pytest.raises(ValueError, match="the realization has 4 vertices, the polyhedron 8"):
        verdict(cube, tetra)
