"""Command-line surface.

Verbs: analyze, select, check, generate, witness, polygon. Exit codes are a
stable contract: 0 for success or a sufficient/determined verdict, 1 for a
negative verdict (insufficient set, witness found), 2 for input errors.
JSON output is deterministic: sorted keys, floats at 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import Sequence

import numpy as np

from . import generators, polygon
from .errors import NoKernelDirection, ParseError, PolyrigError
from .generators import PLATONIC_NAMES
from .geometry import (
    FaceDistance,
    MEASUREMENT_POOLS,
    Realization,
    build_pool,
    fit_realization,
    mesh_kernel,
    phi,
)
from .incidence import AbstractPolyhedron, build_incidence
from .offio import (
    MEASUREMENT_TYPES,
    json_dumps,
    measurement_to_dict,
    off_text,
    parse_measurement_set,
    parse_point_config,
    read_off,
)
from .pointsets import Angle, Distance, MeasurementIds, MeasurementList, _unit, align_distance
from .rigidity import (
    CONGRUENCE,
    DEFAULT_TOL_REL,
    SIMILARITY,
    flex_witness,
    greedy_minimal_subset,
    is_sufficient,
    point_set_witness,
)

GENERATE_NAMES = PLATONIC_NAMES + ("hexa-a", "hexa-b", "staircase-ngon", "regular-ngon")


def _finite_float(text: str) -> float:
    """argparse type of every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(json_dumps(payload), out)


def _load_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_mesh(path: str) -> tuple[AbstractPolyhedron, Realization]:
    coords, faces = read_off(_load_text(path))
    poly = build_incidence(faces)
    if poly.vertex_count != len(coords):
        raise ParseError(
            f"faces reference {poly.vertex_count} vertices, "
            f"file lists {len(coords)}"
        )
    return poly, fit_realization(poly, coords)


def _load_json(path: str) -> dict:
    try:
        return json.loads(_load_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _is_mesh_path(path: str) -> bool:
    if path.endswith(".off"):
        return True
    if path.endswith(".json"):
        return False
    return not _load_text(path).lstrip().startswith("{")


def _check_ids(ms: MeasurementIds, bounds: dict[str, int], what: str) -> None:
    """Check that each measurement of `ms` has ids of a kind in `bounds`,
    which maps a kind to its count, each id in 0..count - 1; `what` names
    the measurements the input takes, and a measurement of another kind is
    told their MEASUREMENT_TYPES names. The error names the first
    measurement that fails, on its id arrays."""
    counted = {cls: (k, bounds[k]) for cls, (_, k) in MEASUREMENT_TYPES.items() if k in bounds}
    *names, last = (MEASUREMENT_TYPES[cls][0] for cls in counted)
    use = f"use {', '.join(names)}, or {last}"
    errors = [(rows[0], f"{cls.__name__} is not a {what}; {use}")
              for cls, (rows, _) in ms.ids.items() if cls not in counted]
    bad = ms._out_of_range(counted)
    if bad is not None:
        errors.append(bad)
    if errors:
        raise ParseError(min(errors)[1])


def _load_mesh_for(path: str, dim: int, ms: Sequence) -> tuple[AbstractPolyhedron, Realization]:
    """Load a mesh and check that `ms` is a measurement set on it; a
    dihedral of two faces that share no edge is left to the verdict, whose
    mesh_kernel raises ValueError."""
    if dim != 3:
        raise ParseError("a mesh takes a dim-3 measurement set")
    poly, real = _load_mesh(path)
    _check_ids(ms, {"vertex": poly.vertex_count, "face": poly.face_count}, "mesh measurement")
    return poly, real


def _load_points_for(path: str, dim: int, ms: Sequence) -> tuple[np.ndarray, list]:
    """Load a point config and check that `ms` is a measurement set on it;
    returns its points and coplanar constraints."""
    cdim, pts, coplanar = parse_point_config(_load_json(path))
    if cdim != dim:
        raise ParseError(f"config dim {cdim} != measurement-set dim {dim}")
    _check_ids(ms, {"point": len(pts)}, "point measurement")
    return pts, coplanar


def _emit_rank(report, out: str | None, **fields) -> int:
    """Emit the JSON report of a rank test, `fields` and the four keys
    every rank report has, and return its exit code."""
    _emit(
        {
            **fields,
            "achievedRank": report.achieved_rank,
            "targetRank": report.target_rank,
            "sufficient": report.sufficient,
            "tolerance": report.tolerance_used,
        },
        out,
    )
    return 0 if report.sufficient else 1


def _mesh_verdict(args, verdict, poly, real, ms: Sequence) -> int:
    """The end of analyze, select and check on a mesh: `verdict`
    (is_sufficient or greedy_minimal_subset) with the common options, its
    JSON report, and its exit code; a selection is also summed up on stderr."""
    report = verdict(
        poly, real, ms, args.mode, args.tol, allow_scale_variant=args.allow_scale_variant
    )
    selected = report.selected
    code = _emit_rank(
        report,
        args.out,
        mode=report.mode,
        E=report.edge_count,
        flexDimension=report.flex_dimension,
        selected=None if selected is None else [measurement_to_dict(m) for m in selected],
    )
    if selected is not None:
        print(f"selected {len(selected)} measurements", file=sys.stderr)
        if not report.sufficient:
            print(
                f"insufficient: pool '{args.pool}' exhausted at rank "
                f"{report.achieved_rank} < {report.target_rank}",
                file=sys.stderr,
            )
    return code


def _sufficiency2d_verdict(args, dim: int, ms: Sequence) -> int:
    """First-order test of the 2D point config `args.input`; the end of
    `check` on a point config and of `polygon analyze`."""
    if dim != 2:
        raise ParseError("a point config and its measurement set must both have dim 2")
    pts, _ = _load_points_for(args.input, dim, ms)
    report = polygon.sufficiency2d(polygon.PointConfig2D.from_points(pts), ms, args.tol)
    return _emit_rank(report, args.out, pointCount=report.point_count, status=report.status)


# --- verbs -------------------------------------------------------------------


def cmd_pool(args) -> int:
    """analyze (a rank test) or select (a greedy selection) of a pool."""
    poly, real = _load_mesh(args.input)
    # looked up at each call, not bound at parser build: the parser is
    # cached, and a caller may replace the verdict on this module
    verdict = is_sufficient if args.verb == "analyze" else greedy_minimal_subset
    return _mesh_verdict(args, verdict, poly, real, build_pool(poly, args.pool))


def cmd_check(args) -> int:
    dim, ms = parse_measurement_set(_load_json(args.measurements))
    if _is_mesh_path(args.input):
        return _mesh_verdict(args, is_sufficient, *_load_mesh_for(args.input, dim, ms), ms)
    return _sufficiency2d_verdict(args, dim, ms)


def cmd_generate(args) -> int:
    name = args.name
    if name == "hexa-a":
        poly, real = generators.hexahedron_family_a(args.q1)
    elif name == "hexa-b":
        poly, real = generators.hexahedron_family_b(args.q1, args.q2)
    elif name in PLATONIC_NAMES:
        poly, real = generators.platonic(name, args.scale)
    else:
        if name == "staircase-ngon":
            angles = _parse_angles(args.angles, args.n - 2)
            config = polygon.staircase_polygon(args.n, args.base, angles)
        else:
            config = polygon.regular_polygon(args.n, args.side)
        _write(off_text(config.points, [list(range(args.n))]), args.out)
        return 0
    _write(off_text(real.vertices, poly.faces), args.out)
    return 0


def _parse_angles(spec: str | None, needed: int) -> list[float]:
    if not spec:
        raise ParseError(f"--angles is required ({needed} comma-separated radians)")
    try:
        angles = [_finite_float(tok) for tok in spec.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"bad --angles {spec!r}: {exc}") from exc
    return angles


def cmd_witness(args) -> int:
    dim, ms = parse_measurement_set(_load_json(args.measurements))
    if _is_mesh_path(args.input):
        poly, real = _load_mesh_for(args.input, dim, ms)
        try:
            found = flex_witness(
                poly,
                real,
                ms,
                args.mode,
                step=args.step,
                tol_rel=args.tol,
                allow_scale_variant=args.allow_scale_variant,
            )
        except NoKernelDirection:
            _emit({"witness": None, "sufficient": True}, args.out)
            return 0
        if found is None:
            _emit({"witness": None, "sufficient": False, "note": "first-order flex only"}, args.out)
            return 0
        # at unit size no square overflows or underflows; lengths are scaled back
        unit = _unit(real.vertices)
        ref, wit = real.vertices / unit, found.rescaled(1.0 / unit)
        errors = np.subtract(*mesh_kernel(poly, ms).values(np.stack([wit.vertices, ref])))
        if FaceDistance in ms.ids:
            errors[ms.ids[FaceDistance][0]] *= unit
        payload = {
            "witness": {
                "vertices": found.vertices.tolist(),
                "planes": found.planes.tolist(),
            },
            "maxMeasurementError": float(np.abs(errors).max()),
            "maxIncidenceError": float(np.abs(phi(poly, wit)).max()),
            "normalizedDistance": align_distance(ref, wit.vertices) * unit,
        }
        _emit(payload, args.out)
        return 1
    pts, coplanar = _load_points_for(args.input, dim, ms)
    report = point_set_witness(
        dim,
        pts,
        ms,
        restarts=args.restarts,
        seed=args.seed,
        noise=args.noise,
        coplanar=[(c.p, c.q, c.r, c.s) for c in coplanar],
        allow_reflection=True if args.allow_reflection else None,
    )
    counts = ("converged", "escaped", "stalled", "exhausted", "restarts")
    payload = {
        "witness": None if report.witness is None else report.witness.tolist(),
        **{k: getattr(report, k) for k in counts},
        "clusters": [
            {"count": c.count, "distanceToReference": c.distance_to_reference}
            for c in report.clusters
        ],
        "residualTol": report.residual_tol,
        "clusterTol": report.cluster_tol,
    }
    _emit(payload, args.out)
    return 0 if report.determined else 1


def cmd_polygon_analyze(args) -> int:
    dim, ms = parse_measurement_set(_load_json(args.measurements))
    return _sufficiency2d_verdict(args, dim, ms)


def cmd_polygon_oracle(args) -> int:
    which = args.which
    if which == "square":
        value, argmax = polygon.square_angle_oracle(args.d)
        payload = {"maxAngle": value, "argmax": argmax.tolist()}
    elif which == "right-quad":
        value, argmax = polygon.right_angle_quad_oracle(args.ab, args.ad, args.ac)
        # the angles at unit size, where no square overflows
        abc, adc = MeasurementList([Angle(0, 1, 2), Angle(0, 3, 2)]).values(argmax / _unit(argmax))
        payload = {
            "maxAngle": value,
            "argmax": argmax.tolist(),
            "angleABC": float(abc),
            "angleADC": float(adc),
        }
    elif which == "max-diag":
        value, argmax = polygon.max_diagonal_oracle(args.bd, args.theta1, args.theta2)
        unit = _unit(argmax)  # the sides at unit size, where no square overflows; scaled back
        sides = [Distance(0, 1), Distance(0, 3), Distance(2, 1), Distance(2, 3)]
        ab, ad, cb, cd = MeasurementList(sides).values(argmax / unit).tolist()
        payload = {
            "maxDiagonal": value,
            "argmax": argmax.tolist(),
            "ab": ab * unit,
            "ad": ad * unit,
            "cb": cb * unit,
            "cd": cd * unit,
        }
    else:
        report = polygon.octagon_distance_oracle(restarts=args.restarts, seed=args.seed)
        payload = {
            "regularValue": report.regular_value,
            "maxValue": report.max_value,
            "maximizer": report.maximizer.tolist(),
            "constraintResidual": report.constraint_residual,
            "angleA5A1A8": report.linkage_angle_a5_a1_a8,
            "angleA6A5A1": report.linkage_angle_a6_a5_a1,
            "midpointDistance": report.midpoint_distance,
            "restartsAtMax": report.restarts_at_max,
        }
    _emit(payload, args.out)
    return 0


def cmd_polygon_staircase(args) -> int:
    angles = _parse_angles(args.angles, args.n - 2)
    config = polygon.staircase_polygon(args.n, args.base, angles)
    ms = polygon.staircase_measurements(args.n)
    _emit(
        {
            "dim": 2,
            "points": config.points.tolist(),
            "measurements": [measurement_to_dict(m) for m in ms],
        },
        args.out,
    )
    return 0


# --- parser ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, pool: bool = False) -> None:
    p.add_argument("--mode", choices=[CONGRUENCE, SIMILARITY], default=CONGRUENCE)
    if pool:
        p.add_argument("--pool", choices=sorted(MEASUREMENT_POOLS), default="face-distances")
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL_REL)
    p.add_argument("--out", default=None)
    p.add_argument("--allow-scale-variant", action="store_true")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number such as -1e-2 as a
    value (`--step -1e-2`): argparse's own pattern takes only forms like -1
    and -0.01, and reads the rest as an unknown option. Its subparsers are
    of the same class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    """The `polyrig` argument parser.

    The `--seed` default of `witness` and `polygon oracle` is the value of
    POLYRIG_SEED (0 when unset), read at every call; a value that is not an
    integer makes parsing exit 2. The parser is built once per process for
    each value and shared by every caller, `main` included: `parse_args`
    does not change it, and callers must not either.
    """
    return _parser(os.environ.get("POLYRIG_SEED", "0"))


@functools.lru_cache(maxsize=1)
def _parser(seed_default: str) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyrig",
        description="Sufficiency analysis of measurement sets on polyhedra "
        "and planar point configurations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, text in (("analyze", "rank test of a measurement pool on an OFF mesh"),
                       ("select", "greedy minimal sufficient subset from a pool")):
        p = sub.add_parser(verb, help=text)
        p.add_argument("input")
        _add_common(p, pool=True)
        p.set_defaults(func=cmd_pool)

    p = sub.add_parser("check", help="evaluate an explicit measurement set")
    p.add_argument("input", help="OFF mesh or point-config JSON")
    p.add_argument("--measurements", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="write a generated model as OFF")
    p.add_argument("name", choices=GENERATE_NAMES)
    p.add_argument("--q1", type=_finite_float, default=0.0)
    p.add_argument("--q2", type=_finite_float, default=0.0)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--side", type=_finite_float, default=1.0)
    p.add_argument("--base", type=_finite_float, default=1.0)
    p.add_argument("--angles", default=None)
    p.add_argument("--scale", type=_finite_float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("witness", help="search for a non-congruent twin")
    p.add_argument("input", help="OFF mesh or point-config JSON")
    p.add_argument("--measurements", required=True)
    _add_common(p)
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--noise", type=_finite_float, default=0.5)
    p.add_argument(
        "--step", type=_finite_float, default=1e-2,
        help="flex step of a mesh witness, as a fraction of the diameter",
    )
    p.add_argument("--allow-reflection", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("polygon", help="planar configuration tools")
    psub = p.add_subparsers(dest="subverb", required=True)

    q = psub.add_parser("analyze", help="first-order sufficiency of a 2D set")
    q.add_argument("input")
    q.add_argument("--measurements", required=True)
    q.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL_REL)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_polygon_analyze)

    q = psub.add_parser("oracle", help="second-order determination oracles")
    q.add_argument("which", choices=["square", "right-quad", "max-diag", "octagon"])
    q.add_argument("--d", type=_finite_float, default=1.0)
    q.add_argument("--ab", type=_finite_float, default=1.0)
    q.add_argument("--ad", type=_finite_float, default=1.0)
    q.add_argument("--ac", type=_finite_float, default=2.0)
    q.add_argument("--bd", type=_finite_float, default=1.0)
    q.add_argument("--theta1", type=_finite_float, default=np.pi / 4)
    q.add_argument("--theta2", type=_finite_float, default=np.pi / 4)
    q.add_argument("--restarts", type=int, default=24)
    q.add_argument("--seed", type=int, default=seed_default)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_polygon_oracle)

    q = psub.add_parser("staircase", help="build a staircase polygon and its set")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--base", type=_finite_float, default=1.0)
    q.add_argument("--angles", required=True, help="comma-separated radians")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_polygon_staircase)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args and not 0.0 < args.tol < 1.0:
            raise ParseError(f"tolerance must lie in (0, 1), got {args.tol}")
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyrigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
