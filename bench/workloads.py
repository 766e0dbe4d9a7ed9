"""The benchmark's three workloads: fixed case lists built from a seed.

A case is one verdict: `run` calls polyrig on inputs made here and returns
its output; `check` tests that output with the functions in checks.py,
which never call polyrig. A run repeats the same list of cases pass after
pass, so the work in a run is fixed by the case list, the seed and the
number of passes, never by a deadline.

Each list is ordered light cases first, and composed so that the median
verdict time of a run falls inside its block of light cases.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# polyrig functions are called through their modules, so that the
# tracer's replacements in those modules take effect
from polyrig import cli, generators, geometry, incidence, polygon, rigidity
from polyrig.pointsets import Angle, Distance

import checks
from checks import require


class OperationFailed(Exception):
    """A verdict that did not produce the answer the method owes."""


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# --- shared input helpers -----------------------------------------------------


def rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A uniformly random proper rotation."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rigid_motion(rng: np.random.Generator, points: np.ndarray) -> np.ndarray:
    dim = points.shape[1]
    return points @ rotation(rng, dim).T + rng.uniform(-1.0, 1.0, size=dim)


def as_tuples(measurements) -> list[tuple]:
    return [dataclasses.astuple(m) for m in measurements]


def face_pairs(faces) -> set[tuple[int, int]]:
    return {(min(a, b), max(a, b)) for c in faces for a in c for b in c if a != b}


def face_triples(faces) -> set[tuple[int, int, int]]:
    return {
        (apex, a, b) for c in faces for apex in c for a in c for b in c
        if len({apex, a, b}) == 3 and a < b
    }


def cycle_edges(faces) -> list[tuple[int, int]]:
    return sorted({(min(c[i], c[(i + 1) % len(c)]), max(c[i], c[(i + 1) % len(c)]))
                   for c in faces for i in range(len(c))})


# --- mesh-rank ------------------------------------------------------------------

SPHERE_SIZES = (50, 70, 100)
PRISM_SIDES = 24
FLEX_REMOVED = 3


def sphere_points(rng: np.random.Generator, V: int) -> np.ndarray:
    p = rng.standard_normal((V, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return rng.uniform(0.5, 2.0) * p + rng.uniform(-1.0, 1.0, size=3)


def prism_points(rng: np.random.Generator, n: int) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(t), np.sin(t)]) * rng.uniform(0.5, 2.0)
    h = rng.uniform(0.5, 2.0)
    p = np.vstack([np.column_stack([ring, np.zeros(n)]), np.column_stack([ring, np.full(n, h)])])
    return rigid_motion(rng, p)


def mesh(points: np.ndarray):
    """Points to a polyrig model: hull faces, incidence, fitted planes."""
    faces = generators.faces_from_convex_vertices(points)
    poly = incidence.build_incidence(faces)
    return faces, poly, geometry.fit_realization(poly, points)


def _analyze_case(tag: str, points: np.ndarray) -> Case:
    def run():
        faces, poly, real = mesh(points)
        pool = geometry.build_pool(poly, "face-distances")
        return faces, rigidity.is_sufficient(poly, real, pool)

    def check(out):
        faces, rep = out
        E = checks.check_hull(points, faces, simplicial=True)
        checks.check_full_rank(rep.achieved_rank, rep.target_rank, rep.sufficient, E)

    return Case(f"analyze-fd-{tag}", run, check)


def _select_case(tag: str, points: np.ndarray, pool: str, mode: str) -> Case:
    defect = 1 if mode == rigidity.SIMILARITY else 0

    def run():
        faces, poly, real = mesh(points)
        measurements = geometry.build_pool(poly, pool)
        return faces, rigidity.greedy_minimal_subset(poly, real, measurements, mode)

    def check(out):
        faces, rep = out
        E = checks.check_hull(points, faces, simplicial=True)
        checks.check_full_rank(rep.achieved_rank, rep.target_rank, rep.sufficient, E, defect)
        allowed = face_pairs(faces) if pool == "face-distances" else face_triples(faces)
        checks.check_selection(as_tuples(rep.selected), allowed, E, defect)

    return Case(f"select-{pool}-{mode}-{tag}", run, check)


def _flex_case(tag: str, points: np.ndarray, rng: np.random.Generator) -> Case:
    # a simplicial hull has 3V - 6 edges; each one left unmeasured adds a flex
    drop = {int(k) for k in rng.choice(3 * len(points) - 6, FLEX_REMOVED, replace=False)}

    def run():
        faces, poly, real = mesh(points)
        kept = [m for k, m in enumerate(geometry.build_pool(poly, "edges-only")) if k not in drop]
        return faces, kept, rigidity.flex_witness(poly, real, kept)

    def check(out):
        faces, kept, witness = out
        checks.check_hull(points, faces, simplicial=True)
        require(len(kept) == len(cycle_edges(faces)) - FLEX_REMOVED, f"{len(kept)} edges kept")
        if witness is None:
            raise OperationFailed("an insufficient edge set gave no flex witness")
        checks.check_flex_witness(points, faces, as_tuples(kept), witness.vertices, witness.planes)

    return Case(f"flex-edges-{tag}", run, check)


def _prism_case(points: np.ndarray) -> Case:
    def run():
        faces, poly, real = mesh(points)
        return faces, rigidity.is_sufficient(poly, real, geometry.build_pool(poly, "face-angles"))

    def check(out):
        faces, rep = out
        E = checks.check_hull(points, faces, simplicial=False)
        require(len(faces) == PRISM_SIDES + 2, f"prism has {len(faces)} faces")
        checks.check_insufficient(rep.achieved_rank, rep.target_rank, rep.sufficient, E)

    return Case(f"analyze-fa-prism{PRISM_SIDES}", run, check)


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_solid(workdir: str, tag: str, coords: np.ndarray, faces, pairs) -> tuple[str, str]:
    """OFF file plus a distance measurement set, as the CLI reads them."""
    off = os.path.join(workdir, f"{tag}.off")
    lines = ["OFF", f"{len(coords)} {len(faces)} {len(cycle_edges(faces))}"]
    lines += [" ".join(repr(float(c)) for c in row) for row in coords]
    lines += [" ".join(str(int(i)) for i in (len(c), *c)) for c in faces]
    with open(off, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    measurements = os.path.join(workdir, f"{tag}-measurements.json")
    with open(measurements, "w") as fh:
        json.dump({"dim": 3, "measurements": [
            {"type": "face_distance", "ids": list(p)} for p in pairs]}, fh)
    return off, measurements


def face_diagonals(faces) -> list[tuple[int, int]]:
    return sorted(face_pairs(faces) - set(cycle_edges(faces)))


# Measurement set for the witness verb, and whether it flexes, each known
# apart from polyrig: edges hold a triangulated convex solid rigid
# (Cauchy); all face distances hold every solid (the paper's theorem);
# a cube on its edges flexes into parallelepipeds; a hexahedron of either
# family on its face diagonals flexes along its own family.
WITNESS_SETS = {
    "tetrahedron": ("edges", False),
    "octahedron": ("edges", False),
    "icosahedron": ("edges", False),
    "dodecahedron": ("face-distances", False),
    "cube": ("edges", True),
    "hexa-a": ("face-diagonals", True),
    "hexa-b": ("face-diagonals", True),
}


def _cli_cases(tag: str, coords: np.ndarray, faces, workdir: str, witness_set: str,
               flexes: bool) -> list[Case]:
    pairs = {"edges": cycle_edges, "face-distances": lambda f: sorted(face_pairs(f)),
             "face-diagonals": face_diagonals}[witness_set](faces)
    off, measurements = _write_solid(workdir, tag, coords, faces, pairs)
    E = checks.edge_count(faces)

    def check_analyze(out):
        code, text = out
        data = checks.strict_json(text)
        require(code == 0, f"analyze exit {code}")
        require(data["E"] == E, f"analyze reports E = {data['E']}, expected {E}")
        checks.check_full_rank(data["achievedRank"], data["targetRank"], data["sufficient"], E)

    def check_select(out):
        code, text = out
        data = checks.strict_json(text)
        require(code == 0, f"select exit {code}")
        require(all(m["type"] == "face_distance" for m in data["selected"]),
                "a selected measurement is not a face distance")
        checks.check_selection([tuple(m["ids"]) for m in data["selected"]], face_pairs(faces), E)

    def check_witness(out):
        code, text = out
        data = checks.strict_json(text)
        if not flexes:
            require(code == 0 and data["witness"] is None and data["sufficient"] is True,
                    f"{witness_set} of {tag} reported flexible")
            return
        if data["witness"] is None:
            raise OperationFailed(
                f"{tag}: flexible {witness_set} gave no witness ({data.get('note')})")
        require(code == 1, f"witness exit {code}")
        w = data["witness"]
        checks.check_flex_witness(coords, faces, pairs,
                                  np.array(w["vertices"]), np.array(w["planes"]))

    return [
        Case(f"cli-analyze-{tag}", lambda: _call_cli(["analyze", off, "--pool", "face-distances"]),
             check_analyze),
        Case(f"cli-select-{tag}", lambda: _call_cli(["select", off, "--pool", "face-distances"]),
             check_select),
        Case(f"cli-witness-{tag}",
             lambda: _call_cli(["witness", off, "--measurements", measurements]), check_witness),
    ]


def mesh_rank(seed: int, workdir: str) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    solids = []
    for name in cli.PLATONIC_NAMES:
        poly, real = generators.platonic(name, rng.uniform(0.5, 2.0))
        solids.append((name, poly, real))
    q1 = rng.uniform(-0.25, 0.25)
    solids.append(("hexa-a", *generators.hexahedron_family_a(q1)))
    q1, q2 = rng.uniform(-0.2, 0.2, size=2)
    solids.append(("hexa-b", *generators.hexahedron_family_b(q1, q2)))

    cases = []
    for name, poly, real in solids:
        cases += _cli_cases(name, rigid_motion(rng, real.vertices), poly.faces, workdir,
                            *WITNESS_SETS[name])

    # The known scale fault: at edge 1e-4 the flex step and the
    # non-congruence threshold are absolute, so no witness comes back.
    # Its input does not depend on the seed, so it fails in every pass.
    poly, real = generators.platonic("cube", 1e-4)
    cases += [c for c in _cli_cases("cube-1e-4", real.vertices, poly.faces, workdir, "edges", True)
              if c.name.startswith("cli-witness")]

    for V in SPHERE_SIZES:
        pts = sphere_points(rng, V)
        tag = f"sphere{V}"
        cases += [
            _analyze_case(tag, pts),
            _select_case(tag, pts, "face-distances", rigidity.CONGRUENCE),
            _select_case(tag, pts, "face-angles", rigidity.SIMILARITY),
            _flex_case(tag, pts, rng),
        ]
    cases.append(_prism_case(prism_points(rng, PRISM_SIDES)))
    return cases


# --- witness-search ---------------------------------------------------------------

RESTARTS = 40
CUBE_TEN_RESTARTS = 20  # most of its restarts run to the iteration limit
LIGHT_RESTARTS = 10
LIGHT_PLACEMENTS = 16

CUBE = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                 [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float)
CUBE_TEN = [Distance(0, 1), Distance(0, 3), Distance(0, 4), Distance(1, 3), Distance(1, 4),
            Distance(3, 4), Distance(0, 6), Distance(5, 6), Distance(7, 6), Distance(2, 6)]
CUBE_COPLANAR = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
                 (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)]
SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
SQUARE_FOUR = [Distance(0, 1), Distance(0, 2), Distance(0, 3), Angle(1, 2, 3)]
SQUARE_FIVE = [Angle(1, 0, 3), Angle(2, 3, 0), Distance(0, 1), Distance(2, 3), Angle(0, 1, 2)]


def staircase_angles(n: int) -> np.ndarray:
    """The angles the acceptance suite uses. A seeded draw from the same
    range can place a second exact solution inside the locality radius
    (n = 8 at 0.154 from the reference), which the search then reports."""
    return np.random.default_rng(100 + n).uniform(1.15, 1.45, size=n - 2)


def _kinds(measurements) -> list[tuple]:
    names = {Distance: "distance", Angle: "angle"}
    return [(names[type(m)], *dataclasses.astuple(m)) for m in measurements]


def _search_case(name, dim, points, measurements, seed, restarts=RESTARTS, witness_shape=None,
                 **kw) -> Case:
    """A restart search. witness_shape is None for a determining set;
    otherwise a witness must be found, and witness_shape checks it further."""
    coplanar = kw.get("coplanar", ())

    def run():
        return rigidity.point_set_witness(dim, points, measurements, restarts=restarts,
                                          seed=seed, **kw)

    def check(rep):
        if witness_shape is None:
            checks.check_no_witness(rep.witness, rep.converged)
            return
        if rep.witness is None:
            raise OperationFailed(f"{name}: no witness in {rep.restarts} restarts")
        checks.check_point_witness(points, rep.witness, _kinds(measurements), coplanar)
        witness_shape(rep.witness)

    return Case(name, run, check)


def _staircase_case(n: int, angles: np.ndarray, seed: int) -> Case:
    ms = polygon.staircase_measurements(n)

    def run():
        config = polygon.staircase_polygon(n, 1.0, angles)
        return config.points, rigidity.point_set_witness(
            2, config.points, ms, restarts=RESTARTS, seed=seed, noise=0.05, locality=0.1)

    def check(out):
        points, rep = out
        checks.check_staircase_chain(points, 1.0, angles)
        checks.check_no_witness(rep.witness, rep.converged)

    return Case(f"staircase{n}", run, check)


def witness_search(seed: int, workdir: str) -> list[Case]:
    rng = np.random.default_rng([seed, 2])
    # light block: small determined searches at seeded placements and
    # restart streams; the median verdict time falls among them
    cases = [
        _search_case(f"square-four{k}", 2, rigid_motion(rng, SQUARE), SQUARE_FOUR,
                     int(rng.integers(2**31)), restarts=LIGHT_RESTARTS)
        for k in range(LIGHT_PLACEMENTS)
    ]
    cases += [_staircase_case(n, staircase_angles(n), int(rng.integers(2**31)))
              for n in range(4, 9)]
    # The square and cube claims run on the acceptance suite's inputs and
    # restart stream 0. Their run time depends on which restarts converge:
    # over ten seeded streams one pass varied by 13 % (IQR over median),
    # which would hide any change smaller than that.
    cube_kw = dict(coplanar=CUBE_COPLANAR, allow_reflection=True)
    cases += [
        _search_case("square-five", 2, SQUARE, SQUARE_FIVE, 0,
                     witness_shape=lambda w: checks.check_rectangle(w, 1.0)),
        _search_case("cube-nine", 3, CUBE, CUBE_TEN[:-1], 0,
                     witness_shape=lambda w: None, **cube_kw),
        _search_case("cube-ten", 3, CUBE, CUBE_TEN, 0, restarts=CUBE_TEN_RESTARTS, **cube_kw),
    ]
    return cases


# --- planar-oracles -----------------------------------------------------------------

ORACLE_PARAMS = 6
LARGE_N = 600
LARGE_CONFIGS = 2
OCTAGON_RESTARTS = 24


def _square_oracle_case(k: int, d: float) -> Case:
    def check(out):
        value, argmax = out
        checks.check_value("square max angle", value, checks.square_oracle_max(), 1e-9)
        sides = [checks.measure(argmax, ("distance", 0, i)) for i in (1, 3)]
        diag = checks.measure(argmax, ("distance", 0, 2))
        require(max(abs(s - d) for s in sides) <= 1e-9 * d, f"sides {sides}, expected {d}")
        require(abs(diag - d * np.sqrt(2.0)) <= 1e-9 * d, f"diagonal {diag}")

    return Case(f"square-oracle{k}", lambda: polygon.square_angle_oracle(d), check)


def _right_quad_case(k: int, ab: float, ad: float, ac: float) -> Case:
    def check(out):
        value, _ = out
        checks.check_value("right-quad max angle", value, checks.right_quad_max(ab, ad, ac), 1e-9)

    return Case(f"right-quad-oracle{k}", lambda: polygon.right_angle_quad_oracle(ab, ad, ac), check)


def _max_diag_case(k: int, bd: float, t1: float, t2: float) -> Case:
    def check(out):
        value, _ = out
        checks.check_value("max diagonal", value, checks.max_diag_max(bd, t1, t2), 1e-9 * bd)

    return Case(f"max-diag-oracle{k}", lambda: polygon.max_diagonal_oracle(bd, t1, t2), check)


def _octagon_case(seed: int) -> Case:
    def check(rep):
        checks.check_value("octagon regular value", rep.regular_value, checks.octagon_max(), 1e-12)
        checks.check_value("octagon max", rep.max_value, checks.octagon_max(), 1e-6)
        for a in (rep.linkage_angle_a5_a1_a8, rep.linkage_angle_a6_a5_a1):
            checks.check_value("linkage angle", a, 3.0 * np.pi / 8.0, 1e-6)

    return Case("octagon-oracle", lambda: polygon.octagon_distance_oracle(OCTAGON_RESTARTS, seed),
                check)


def large_config(rng: np.random.Generator, n: int) -> np.ndarray:
    """A_1, A_2 at the ends of a base, the rest scattered off the base line,
    so that trilateration from the base is well conditioned."""
    pts = np.column_stack([rng.uniform(-1.0, 1.0, n), rng.uniform(0.2, 1.0, n)])
    pts[:, 1] *= rng.choice([-1.0, 1.0], n)
    pts[0], pts[1] = (-1.5, 0.0), (1.5, 0.0)
    return rigid_motion(rng, pts)


def _sufficiency_case(k: int, points: np.ndarray, trilateration: bool) -> Case:
    n = len(points)
    if trilateration:
        ms = [Distance(0, 1)] + [m for j in range(2, n) for m in (Distance(0, j), Distance(1, j))]
    else:
        ms = polygon.staircase_measurements(n)

    def run():
        return polygon.sufficiency2d(polygon.PointConfig2D.from_points(points), ms)

    def check(rep):
        checks.check_rank_2d(rep.achieved_rank, rep.target_rank, rep.sufficient, n, trilateration)

    kind = "trilateration" if trilateration else "staircase-set"
    return Case(f"sufficiency2d-{kind}{k}", run, check)


def planar_oracles(seed: int, workdir: str) -> list[Case]:
    rng = np.random.default_rng([seed, 3])
    cases = []
    for k in range(ORACLE_PARAMS):
        cases.append(_square_oracle_case(k, rng.uniform(0.5, 2.0)))
        ac = rng.uniform(1.5, 4.0)
        ab, ad = rng.uniform(0.3, 0.95, size=2) * ac
        cases.append(_right_quad_case(k, ab, ad, ac))
        cases.append(_max_diag_case(k, rng.uniform(0.5, 2.0), *rng.uniform(0.3, 1.4, size=2)))
    cases.append(_octagon_case(seed))
    for k in range(LARGE_CONFIGS):
        pts = large_config(rng, LARGE_N)
        cases += [_sufficiency_case(k, pts, True), _sufficiency_case(k, pts, False)]
    return cases


WORKLOADS = {
    "mesh-rank": mesh_rank,
    "witness-search": witness_search,
    "planar-oracles": planar_oracles,
}
