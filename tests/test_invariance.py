"""Verdicts do not depend on where the solid sits, its unit of length, or
how its vertices are numbered.

Each example moves a solid by a random rotation and translation, scales it
uniformly by 10^u with u in [-4, 4], and relabels its vertices, then
compares the rank verdicts and the greedy selection size with those of the
solid as generated. Flex witnesses of moved and scaled sphere hulls, and
of the Platonic solids' face-angle and dihedral sets, are checked again
against their measurements and incidences.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from polyrig.errors import NoKernelDirection
from polyrig.incidence import build_incidence
from polyrig.rigidity import (
    CONGRUENCE,
    DEFAULT_TOL_REL,
    SIMILARITY,
    flex_witness,
    greedy_minimal_subset,
    is_sufficient,
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
    1e-8, lengths relative to the diameter, and lie more than 10 tol_rel
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
    errors = evaluate_all(kept, witness) - evaluate_all(kept, real)
    assert np.abs(errors).max() <= 1e-8 * diameter
    assert np.abs(phi(poly, witness)).max() <= 1e-8
    assert normalized_distance(poly, real, witness) > 10.0 * DEFAULT_TOL_REL * diameter


PLATONIC = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")


@pytest.mark.parametrize("mode", [CONGRUENCE, SIMILARITY])
@pytest.mark.parametrize("pool_name", ["face-angles", "dihedrals"])
@pytest.mark.parametrize("name", PLATONIC)
def test_flex_witnesses_of_angle_and_dihedral_sets(name, pool_name, mode):
    """Angles pin no scale, so in congruence mode every such set flexes; a
    dihedral set's rows reach the plane columns. Each witness, of the solid
    moved and scaled by 10^k, keeps its angles and every incidence to 1e-8
    and lies more than 10 tol_rel diameters from the input; a sufficient
    set (every face-angle set in similarity mode, the icosahedron's
    dihedrals) has no kernel direction."""
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
        assert np.abs(evaluate_all(pool, witness) - evaluate_all(pool, real)).max() <= 1e-8
        assert np.abs(phi(poly, witness)).max() <= 1e-8
        assert normalized_distance(poly, real, witness) > 10.0 * DEFAULT_TOL_REL * diameter


def test_icosahedron_dihedrals_pin_it_up_to_similarity():
    poly, real = platonic("icosahedron")
    pool = build_pool(poly, "dihedrals")
    assert is_sufficient(poly, real, pool, SIMILARITY).sufficient
    assert is_sufficient(poly, real, pool, CONGRUENCE).flex_dimension == 1
