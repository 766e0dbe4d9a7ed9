"""Verdicts do not depend on where the solid sits, its unit of length, or
how its vertices are numbered.

Each example moves a solid by a random rotation and translation, scales it
uniformly by 10^u with u in [-4, 4], and relabels its vertices, then
compares the rank verdicts and the greedy selection size with those of the
solid as generated. Flex witnesses of moved and scaled sphere hulls, and
of the Platonic solids' face-angle and dihedral sets, are checked again
against their measurements and incidences.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import orthogonal_procrustes
from scipy.spatial.transform import Rotation

from polyrig.generators import (
    faces_from_convex_vertices,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.geometry import (
    build_pool,
    evaluate_all,
    fit_realization,
    normalized_distance,
    phi,
)
from polyrig.errors import NoConvergedRestarts, NoKernelDirection
from polyrig.incidence import build_incidence
from polyrig.pointsets import Angle, Distance
from polyrig.rigidity import (
    CONGRUENCE,
    SIMILARITY,
    WITNESS_TOL,
    flex_witness,
    greedy_minimal_subset,
    is_sufficient,
    point_set_witness,
)

SOLIDS = {
    **{name: (platonic, (name,)) for name in (
        "tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")},
    "hexa-a(0.2)": (hexahedron_family_a, (0.2,)),
    "hexa-a(-0.15)": (hexahedron_family_a, (-0.15,)),
    "hexa-b(0.1,0.15)": (hexahedron_family_b, (0.1, 0.15)),
    "hexa-b(-0.1,0.2)": (hexahedron_family_b, (-0.1, 0.2)),
}

POOLS = [
    ("face-distances", CONGRUENCE),
    ("edges-only", CONGRUENCE),
    ("face-angles", SIMILARITY),
]


def _solid(name):
    build, args = SOLIDS[name]
    return build(*args)


def _verdict(poly, real, pool_name, mode):
    pool = build_pool(poly, pool_name)
    report = is_sufficient(poly, real, pool, mode)
    greedy = greedy_minimal_subset(poly, real, pool, mode)
    return (
        report.achieved_rank,
        report.target_rank,
        report.sufficient,
        report.flex_dimension,
        len(greedy.selected),
    )


@lru_cache(maxsize=None)
def _reference(name, pool_name, mode):
    return _verdict(*_solid(name), pool_name, mode)


def _moved(poly, real, seed, scale):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(poly.vertex_count)  # new vertex i is old perm[i]
    label = np.argsort(perm)  # old vertex v is new label[v]
    turn = Rotation.from_rotvec(rng.uniform(-np.pi, np.pi, 3)).as_matrix()
    coords = scale * (real.vertices[perm] @ turn.T + rng.standard_normal(3))
    moved = build_incidence([tuple(int(label[v]) for v in f) for f in poly.faces])
    return moved, fit_realization(moved, coords)


@pytest.mark.parametrize("pool_name,mode", POOLS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(SOLIDS)),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-4.0, 4.0),
)
def test_verdict_is_invariant(pool_name, mode, name, seed, exponent):
    moved = _moved(*_solid(name), seed, 10.0**exponent)
    assert _verdict(*moved, pool_name, mode) == _reference(name, pool_name, mode)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    V=st.integers(8, 40),
    seed=st.integers(0, 2**32 - 1),
    drop=st.integers(1, 3),
    exponent=st.integers(-4, 4),
)
def test_every_flex_witness_satisfies_its_measurements(V, seed, drop, exponent):
    """A sphere hull's edges pin it; with 1 to 3 dropped it flexes, and any
    witness must keep the remaining edge lengths and every incidence to
    1e-8, lengths relative to the diameter, and lie at least 1e-3
    diameters from the input."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((V, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    poly = build_incidence(faces_from_convex_vertices(p))
    poly, real = _moved(poly, fit_realization(poly, p), seed, 10.0**exponent)
    edges = build_pool(poly, "edges-only")
    gone = set(rng.choice(len(edges), drop, replace=False).tolist())
    kept = [m for i, m in enumerate(edges) if i not in gone]
    witness = flex_witness(poly, real, kept)
    if witness is None:
        return
    diameter = real.diameter()
    errors = evaluate_all(poly, kept, witness) - evaluate_all(poly, kept, real)
    assert np.abs(errors).max() <= 1e-8 * diameter
    assert np.abs(phi(poly, witness)).max() <= 1e-8
    assert normalized_distance(poly, real, witness) >= 1e-3 * diameter


PLATONIC = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")


@pytest.mark.parametrize("mode", [CONGRUENCE, SIMILARITY])
@pytest.mark.parametrize("pool_name", ["face-angles", "dihedrals"])
@pytest.mark.parametrize("name", PLATONIC)
def test_flex_witnesses_of_angle_and_dihedral_sets(name, pool_name, mode):
    """Angles pin no scale, so in congruence mode every such set flexes.
    Each witness, of the solid moved and scaled by 10^k, keeps its angles
    and every incidence to 1e-8 and lies at least 1e-3 diameters from the
    input; a sufficient set (every face-angle set in similarity mode, the
    icosahedron's dihedrals) has no kernel direction."""
    for i, exponent in enumerate((-4, 0, 4)):
        poly, real = _moved(*platonic(name), PLATONIC.index(name) + 10 * i, 10.0**exponent)
        pool = build_pool(poly, pool_name)
        if is_sufficient(poly, real, pool, mode).sufficient:
            assert mode == SIMILARITY
            with pytest.raises(NoKernelDirection):
                flex_witness(poly, real, pool, mode)
            continue
        witness = flex_witness(poly, real, pool, mode)
        assert witness is not None
        diameter = real.diameter()
        assert np.abs(evaluate_all(poly, pool, witness) - evaluate_all(poly, pool, real)).max() <= 1e-8
        assert np.abs(phi(poly, witness)).max() <= 1e-8
        assert normalized_distance(poly, real, witness) >= 1e-3 * diameter


def test_icosahedron_dihedrals_pin_it_up_to_similarity():
    poly, real = platonic("icosahedron")
    pool = build_pool(poly, "dihedrals")
    assert is_sufficient(poly, real, pool, SIMILARITY).sufficient
    assert is_sufficient(poly, real, pool, CONGRUENCE).flex_dimension == 1


# the unit cube's faces, as coplanarity side constraints of a point set
CUBE_FACES = [(0, 1, 3, 2), (4, 5, 7, 6), (0, 1, 5, 4), (2, 3, 7, 6), (0, 2, 6, 4), (1, 3, 7, 5)]


def _value(points, m):
    """A measurement computed apart from polyrig."""
    if isinstance(m, Distance):
        return np.linalg.norm(points[m.i] - points[m.j])
    u, v = points[m.i] - points[m.j], points[m.k] - points[m.j]
    return np.arccos(np.clip(u @ v / np.linalg.norm(u) / np.linalg.norm(v), -1.0, 1.0))


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), exponent=st.integers(-2, 2))
def test_every_point_set_witness_satisfies_its_measurements(dim, seed, exponent):
    """A point set held by one measurement too few flexes. In 2D a convex
    n-gon gets 2n - 4 of its distances and angles; in 3D an affine image of
    the cube gets 11 of its face distances and its six faces as coplanarity
    side constraints. Every witness the restart search reports keeps each
    measurement (distances relative to its scale max(1, diameter)) and each
    face planar to 1e-8, and lies more than WITNESS_TOL times that scale
    from the reference after the best rigid placement, reflections allowed
    only in 2D; each is checked here apart from polyrig."""
    rng = np.random.default_rng(seed)
    if dim == 2:
        n = int(rng.integers(4, 7))
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        points = np.column_stack([np.cos(t), np.sin(t)])
        menu = [Distance(i, j) for i, j in itertools.combinations(range(n), 2)]
        menu += [Angle((j - 1) % n, j, (j + 1) % n) for j in range(n)]
        count, coplanar = 2 * n - 4, []
    else:
        cube = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        points = cube @ (np.eye(3) + 0.2 * rng.standard_normal((3, 3))).T
        menu = sorted({Distance(*sorted(p)) for f in CUBE_FACES
                       for p in itertools.combinations(f, 2)}, key=lambda m: (m.i, m.j))
        count, coplanar = 11, CUBE_FACES
    points = 10.0**exponent * (points + rng.standard_normal(dim))
    ms = [menu[k] for k in sorted(rng.choice(len(menu), count, replace=False))]
    try:
        report = point_set_witness(dim, points, ms, restarts=24, seed=seed, coplanar=coplanar)
    except NoConvergedRestarts:
        # no witness reported: below size 1 the search's absolute residual
        # target can leave every 3D restart short of it (ROADMAP item 7)
        return
    if report.witness is None:
        return
    W = report.witness
    scale = max(1.0, max(np.linalg.norm(p - q) for p, q in itertools.combinations(points, 2)))
    for m in ms:
        tol = 1e-8 * (scale if isinstance(m, Distance) else 1.0)
        assert abs(_value(W, m) - _value(points, m)) <= tol, m
    for face in coplanar:
        spread = np.linalg.svd(W[list(face)] - W[list(face)].mean(axis=0), compute_uv=False)
        assert spread[-1] <= 1e-8 * scale, face
    X, Y = points - points.mean(axis=0), W - W.mean(axis=0)
    if dim == 2:
        R = orthogonal_procrustes(Y, X)[0]
        placed = Y @ R
    else:
        placed = Rotation.align_vectors(X, Y)[0].apply(Y)
    assert np.linalg.norm(placed - X, axis=1).max() > WITNESS_TOL * scale
