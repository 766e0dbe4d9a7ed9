"""Combinatorial layer: vertex-face incidence structures.

A convex polyhedron is described here purely by its face cycles. The
geometric layer attaches coordinates later; this module only validates
the combinatorics (closed surface, Euler count) and derives the pair
lists other modules iterate over: edges, same-face vertex pairs, face
adjacencies, and the incidence pairs themselves.

Vertex and face ids are 0-based and contiguous.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import DanglingEdge, DegenerateFace, EulerViolation


@dataclass(frozen=True)
class AbstractPolyhedron:
    """Immutable incidence structure.

    faces holds one cyclic tuple of vertex ids per face. incidence lists
    every (vertex, face) pair ordered by face and then by position in the
    face cycle; its length is 2E for a closed surface, and that ordering
    fixes the row order of every Jacobian built downstream.
    """

    vertex_count: int
    faces: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[int, int], ...]

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def edge_count(self) -> int:
        return len(self.incidence) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Sorted undirected edges (u, v) with u < v."""
        seen = set()
        for cycle in self.faces:
            for a, b in _cycle_pairs(cycle):
                seen.add((min(a, b), max(a, b)))
        return sorted(seen)

    def face_vertex_pairs(self) -> list[tuple[int, int]]:
        """Sorted pairs of distinct vertices sharing at least one face."""
        seen = set()
        for cycle in self.faces:
            seen.update(itertools.combinations(sorted(cycle), 2))
        return sorted(seen)

    def face_diagonals(self) -> list[tuple[int, int]]:
        """Same-face vertex pairs that are not edges."""
        edge_set = set(self.edges())
        return [p for p in self.face_vertex_pairs() if p not in edge_set]

    def adjacent_faces(self) -> list[tuple[int, int]]:
        """Sorted pairs of face ids sharing an edge."""
        by_edge: dict[tuple[int, int], list[int]] = {}
        for f, cycle in enumerate(self.faces):
            for a, b in _cycle_pairs(cycle):
                by_edge.setdefault((min(a, b), max(a, b)), []).append(f)
        return sorted((min(fs), max(fs)) for fs in by_edge.values())


def _cycle_pairs(cycle: Sequence[int]):
    k = len(cycle)
    for i in range(k):
        yield cycle[i], cycle[(i + 1) % k]


def build_incidence(faces: Sequence[Sequence[int]]) -> AbstractPolyhedron:
    """Validate face cycles and assemble the incidence structure.

    Raises DegenerateFace for a cycle with fewer than three or repeated
    vertices, DanglingEdge when an edge is not shared by exactly two faces
    with opposite orientations (or a vertex lies on fewer than three faces),
    and EulerViolation when V + F != E + 2.
    """
    cycles = tuple(tuple(int(v) for v in cycle) for cycle in faces)
    if not cycles:
        raise DegenerateFace("no faces given")

    for f, cycle in enumerate(cycles):
        if len(cycle) < 3:
            raise DegenerateFace(f"face {f} has only {len(cycle)} vertices")
        if len(set(cycle)) != len(cycle):
            raise DegenerateFace(f"face {f} repeats a vertex: {cycle}")
        if any(v < 0 for v in cycle):
            raise ValueError(f"face {f} contains a negative vertex id")

    used = sorted({v for cycle in cycles for v in cycle})
    vertex_count = used[-1] + 1
    if used != list(range(vertex_count)):
        missing = sorted(set(range(vertex_count)) - set(used))
        raise ValueError(f"vertex ids are not contiguous, missing {missing}")

    directed = Counter(pair for cycle in cycles for pair in _cycle_pairs(cycle))
    for (a, b), n in directed.items():
        if n != 1 or directed[(b, a)] != 1:
            raise DanglingEdge(
                f"edge ({a},{b}) is traversed {n} time(s) forward and "
                f"{directed[(b, a)]} time(s) backward; a closed surface "
                "needs each edge once in each direction"
            )

    edge_count = len(directed) // 2
    if vertex_count + len(cycles) != edge_count + 2:
        raise EulerViolation(
            f"V + F = {vertex_count + len(cycles)} but E + 2 = {edge_count + 2}"
        )

    # a face lists each of its vertices once, so this counts faces per vertex
    face_counts = Counter(v for cycle in cycles for v in cycle)
    for v in used:
        if face_counts[v] < 3:
            raise DanglingEdge(f"vertex {v} lies on only {face_counts[v]} face(s)")

    incidence = tuple(
        (v, f) for f, cycle in enumerate(cycles) for v in cycle
    )
    return AbstractPolyhedron(vertex_count=vertex_count, faces=cycles, incidence=incidence)

