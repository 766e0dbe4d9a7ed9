"""The edge structure of a polyhedron (edges, face diagonals, adjacent faces,
dihedral hinges) and every measurement pool, checked against a reference
built here face by face from the face cycles alone."""

import itertools

import numpy as np
import pytest

from polyrig.generators import (
    faces_from_convex_vertices,
    hexahedron_family_a,
    hexahedron_family_b,
    platonic,
)
from polyrig.geometry import (
    MEASUREMENT_POOLS,
    DihedralAngle,
    FaceAngle,
    FaceDistance,
    _hinges,
    build_pool,
)
from polyrig.incidence import build_incidence


def _prism_faces(n):
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
    return faces_from_convex_vertices(np.vstack([ring, ring + [0.0, 0.0, 0.7]]) + 0.2)


def _hull_faces(V):
    p = np.random.default_rng(40).standard_normal((V, 3))
    return faces_from_convex_vertices(p / np.linalg.norm(p, axis=1, keepdims=True))


SOLIDS = {
    **{name: lambda name=name: platonic(name)[0].faces
       for name in ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")},
    "hexa-a": lambda: hexahedron_family_a(0.2)[0].faces,
    "hexa-b": lambda: hexahedron_family_b(0.15, 0.1)[0].faces,
    "prism-9": lambda: _prism_faces(9),
    "prism-100": lambda: _prism_faces(100),
    "hull-40": lambda: _hull_faces(40),
}


def _directed(cycle):
    return [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


def _reference(faces):
    """Edges, face diagonals, adjacent faces, the hinge of each adjacent
    pair, and every pool as its runs of one type, (type, id rows), from
    the cycles face by face."""
    edges = sorted({(min(e), max(e)) for cycle in faces for e in _directed(cycle)})
    pairs = sorted({p for cycle in faces for p in itertools.combinations(sorted(cycle), 2)})
    diagonals = sorted(set(pairs) - set(edges))
    adjacent, hinges = [], []
    for f, g in itertools.combinations(range(len(faces)), 2):
        back = {e[::-1] for e in _directed(faces[g])}
        # the first edge u -> v of f's cycle that g runs v -> u
        shared = [i for i, e in enumerate(_directed(faces[f])) if e in back]
        if shared:
            i, cf, cg = shared[0], faces[f], faces[g]
            u, v = cf[i], cf[(i + 1) % len(cf)]
            adjacent.append((f, g))
            hinges.append((u, v, cf[(i + 2) % len(cf)], cg[(cg.index(u) + 1) % len(cg)]))
    angles = sorted({
        (apex, b, c) for cycle in faces for apex in cycle
        for b, c in itertools.combinations(sorted(set(cycle) - {apex}), 2)
    })
    blocks = {
        "face-distances": [(FaceDistance, pairs)],
        "face-angles": [(FaceAngle, angles)],
        "dihedrals": [(DihedralAngle, adjacent)],
        "edges-only": [(FaceDistance, edges)],
        "face-diagonals": [(FaceDistance, diagonals)],
    }
    blocks["all"] = blocks["face-distances"] + blocks["face-angles"] + blocks["dihedrals"]
    return edges, diagonals, adjacent, hinges, blocks


def _blocks(pool):
    """A pool as its runs of one measurement type, in order: (type, id
    rows); each type's rows must be one run."""
    out = []
    for kind, (rows, ids) in sorted(pool.ids.items(), key=lambda item: item[1][0][0]):
        assert np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows)))
        out.append((kind, ids))
    return out


@pytest.mark.parametrize("name", SOLIDS)
def test_edge_structure_and_pools_match_a_face_by_face_reference(name):
    faces = SOLIDS[name]()
    poly = build_incidence(faces)
    cycles = [tuple(c) for c in faces]
    edges, diagonals, adjacent, hinges, blocks = _reference(cycles)
    assert poly.edges() == edges
    assert poly.face_diagonals() == diagonals
    assert poly.adjacent_faces() == adjacent
    assert _hinges(poly, np.array(adjacent)).tolist() == [list(h) for h in hinges]
    arrays = {}  # each reference list of ids as an array, made once
    for pool in MEASUREMENT_POOLS:
        got = _blocks(build_pool(poly, pool))
        expected = [(kind, ref) for kind, ref in blocks[pool] if ref]  # a pool holds no empty type
        assert [kind for kind, _ in got] == [kind for kind, _ in expected], pool
        for (_, ids), (_, ref) in zip(got, expected):
            want = arrays.setdefault(id(ref), np.array(ref, dtype=np.intp).reshape(len(ref), -1))
            assert np.array_equal(ids, want), pool
