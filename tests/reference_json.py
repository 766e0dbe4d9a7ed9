"""The JSON emitter offio.json_dumps replaced, kept as the reference its
output is compared with byte for byte: one isinstance test after another
on each value, in this order, with json.dumps for keys and strings."""

import json
from typing import Any

import numpy as np

from polyrig.offio import format_float


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


def reference_dumps(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)
