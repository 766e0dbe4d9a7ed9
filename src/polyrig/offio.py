"""File formats: ASCII OFF meshes, measurement-set JSON, point-config JSON.

All emission is deterministic: object keys are sorted and floats are printed
with 17 significant digits, which round-trips IEEE doubles losslessly.
Strings and keys are escaped by json.dumps. Input coordinates must be finite.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Sequence

import numpy as np

from .errors import ParseError
from .geometry import DihedralAngle, FaceAngle, FaceDistance, Measurement3D
from .pointsets import Angle, Coplanar, DiagonalAngle, Distance, SimpleMeasurement


def format_float(x: float) -> str:
    """17 significant digits; enough to reproduce any double exactly."""
    return format(float(x), ".17g")


def _emit(obj: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(f"{pad}  {json.dumps(k)}: ")
            _emit(obj[k], indent + 1, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(items):
            out.append(pad + "  ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


# --- OFF ---------------------------------------------------------------------


def off_text(vertices: np.ndarray, faces: Sequence[Sequence[int]]) -> str:
    """ASCII OFF. 2D vertex arrays are written with a zero z column."""
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError(f"vertices must be (n, 2) or (n, 3), got {pts.shape}")
    if pts.shape[1] == 2:
        pts = np.column_stack([pts, np.zeros(len(pts))])
    edges = {
        (min(a, b), max(a, b))
        for f in faces
        for a, b in zip(f, tuple(f[1:]) + (f[0],))
    }
    edge_count = len(edges)
    lines = ["OFF", f"{len(pts)} {len(faces)} {edge_count}"]
    for row in pts:
        lines.append(" ".join(format_float(c) for c in row))
    for cycle in faces:
        lines.append(" ".join(str(int(i)) for i in (len(cycle), *cycle)))
    return "\n".join(lines) + "\n"


def read_off(text: str) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Parse ASCII OFF text into raw (coordinates, face cycles).

    Incidence validation and plane fitting are the caller's job; this only
    checks the file's own bookkeeping.
    """
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if not tokens:
        raise ParseError("empty OFF file")
    pos = 0
    if tokens[0].upper() == "OFF":
        pos = 1
    try:
        nv, nf, _ = (int(tokens[pos + i]) for i in range(3))
    except (IndexError, ValueError) as exc:
        raise ParseError("OFF header must be 'OFF' then three counts") from exc
    pos += 3
    if nv < 1 or nf < 0:
        raise ParseError(f"bad counts in OFF header: {nv} vertices, {nf} faces")
    need = 3 * nv
    if len(tokens) < pos + need:
        raise ParseError(f"expected {need} vertex coordinates, file ends early")
    try:
        coords = np.array(
            [float(t) for t in tokens[pos : pos + need]], dtype=float
        ).reshape(nv, 3)
    except ValueError as exc:
        raise ParseError("non-numeric vertex coordinate") from exc
    if not np.isfinite(coords).all():
        raise ParseError("non-finite vertex coordinate")
    pos += need
    faces: list[tuple[int, ...]] = []
    for j in range(nf):
        if pos >= len(tokens):
            raise ParseError(f"face {j}: file ends before face line")
        try:
            k = int(tokens[pos])
        except ValueError as exc:
            raise ParseError(f"face {j}: bad vertex count {tokens[pos]!r}") from exc
        if k < 3:
            raise ParseError(f"face {j}: needs at least 3 vertices, got {k}")
        if pos + 1 + k > len(tokens):
            raise ParseError(f"face {j}: file ends mid-face")
        try:
            ids = tuple(int(t) for t in tokens[pos + 1 : pos + 1 + k])
        except ValueError as exc:
            raise ParseError(f"face {j}: non-integer vertex id") from exc
        for i in ids:
            if not 0 <= i < nv:
                raise ParseError(f"face {j}: vertex id {i} out of range 0..{nv - 1}")
        faces.append(ids)
        pos += 1 + k
    if pos != len(tokens):
        raise ParseError(f"{len(tokens) - pos} trailing tokens after last face")
    return coords, faces


# --- measurement sets ----------------------------------------------------------

# each measurement class: its JSON "type", and what its ids number
MEASUREMENT_TYPES = {
    FaceDistance: ("face_distance", "vertex"),
    FaceAngle: ("face_angle", "vertex"),
    DihedralAngle: ("dihedral", "face"),
    Distance: ("distance", "point"),
    Angle: ("angle", "point"),
    DiagonalAngle: ("diagonal_angle", "point"),
}
_CLASS_BY_TYPE = {name: cls for cls, (name, _) in MEASUREMENT_TYPES.items()}


def measurement_to_dict(m: Measurement3D | SimpleMeasurement) -> dict:
    entry = MEASUREMENT_TYPES.get(type(m))
    if entry is None:
        raise TypeError(f"not a serializable measurement: {type(m).__name__}")
    ids = [getattr(m, f.name) for f in dataclasses.fields(m)]
    return {"type": entry[0], "ids": ids}


def measurement_from_dict(obj: dict) -> Measurement3D | SimpleMeasurement:
    if not isinstance(obj, dict) or "type" not in obj or "ids" not in obj:
        raise ParseError(f"measurement must be {{'type', 'ids'}}, got {obj!r}")
    name = obj["type"]
    if not isinstance(name, str) or name not in _CLASS_BY_TYPE:
        raise ParseError(
            f"unknown measurement type {name!r}; expected one of {sorted(_CLASS_BY_TYPE)}"
        )
    cls = _CLASS_BY_TYPE[name]
    arity = len(dataclasses.fields(cls))
    ids = obj["ids"]
    if (
        not isinstance(ids, (list, tuple))
        or len(ids) != arity
        or not all(isinstance(i, int) and not isinstance(i, bool) for i in ids)
    ):
        raise ParseError(f"{name} needs {arity} integer ids, got {ids!r}")
    return cls(*ids)


def measurements_to_json(
    dim: int, measurements: Sequence[Measurement3D | SimpleMeasurement]
) -> str:
    return json_dumps(
        {"dim": dim, "measurements": [measurement_to_dict(m) for m in measurements]}
    )


def _dim(obj: dict) -> int:
    """The 'dim' of a measurement set or point config: the integer 2 or 3
    (not 2.0, not a bool)."""
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim not in (2, 3):
        raise ParseError(f"'dim' must be 2 or 3, got {dim!r}")
    return dim


def parse_measurement_set(obj: Any) -> tuple[int, list]:
    """Validate {'dim': 2|3, 'measurements': [...]}; returns (dim, list)."""
    if not isinstance(obj, dict):
        raise ParseError("measurement set must be a JSON object")
    dim = _dim(obj)
    raw = obj.get("measurements")
    if not isinstance(raw, list) or not raw:
        raise ParseError("'measurements' must be a nonempty list")
    ms = [measurement_from_dict(o) for o in raw]
    if dim == 2:
        for m in ms:
            name, kind = MEASUREMENT_TYPES[type(m)]
            if kind != "point":
                simple = sorted(n for n, k in MEASUREMENT_TYPES.values() if k == "point")
                raise ParseError(f"{name} is a mesh measurement; dim 2 takes {simple}")
    return dim, ms


def parse_point_config(obj: Any) -> tuple[int, np.ndarray, list[Coplanar]]:
    """Validate {'dim': 2|3, 'points': [[...]], 'coplanar': [[p,q,r,s]...]?}."""
    if not isinstance(obj, dict):
        raise ParseError("point config must be a JSON object")
    dim = _dim(obj)
    raw = obj.get("points")
    if not isinstance(raw, list) or len(raw) < 2:
        raise ParseError("'points' must list at least two points")
    if not all(isinstance(p, list) and len(p) == dim for p in raw):
        raise ParseError(f"each point needs exactly {dim} coordinates")
    # a JSON string or bool is no coordinate, though numpy would read one
    if not all(type(c) in (int, float) for p in raw for c in p):
        raise ParseError("non-numeric point coordinate")
    try:
        pts = np.array(raw, dtype=float)
    except OverflowError as exc:
        raise ParseError("non-finite point coordinate") from exc
    if not np.isfinite(pts).all():
        raise ParseError("non-finite point coordinate")
    quads = obj.get("coplanar", [])
    if not isinstance(quads, list):
        raise ParseError(f"'coplanar' must be a list, got {quads!r}")
    coplanar: list[Coplanar] = []
    for quad in quads:
        if (
            not isinstance(quad, (list, tuple))
            or len(quad) != 4
            or not all(type(i) is int and 0 <= i < len(raw) for i in quad)
        ):
            raise ParseError(f"coplanar entries are 4 point ids, got {quad!r}")
        coplanar.append(Coplanar(*quad))
    if coplanar and dim != 3:
        raise ParseError("coplanar constraints require dim 3")
    return dim, pts, coplanar
