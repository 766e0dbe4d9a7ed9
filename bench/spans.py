"""Per-layer tracing from outside the program.

A Tracer replaces public functions of polyrig (and the numpy and scipy
entry points polyrig calls) with wrappers that time each call. A wrapped
name is replaced in every module that holds it, so a function that one
polyrig module imports from another is timed wherever it is called from.
Self time is a span's duration minus the time its traced children took.

Every call is folded into per-layer totals; spans down to depth 2 (the
verdict and the layer calls it makes directly) are also kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

import numpy.linalg  # noqa: F401  (patched below)
import scipy.optimize  # noqa: F401  (patched below)

# (layer name, module, attribute). The attribute is looked up once; its
# value is then replaced wherever a polyrig module or the named module
# holds that same object.
LAYERS = (
    ("generators.hull", "polyrig.generators", "faces_from_convex_vertices"),
    ("incidence.build", "polyrig.incidence", "build_incidence"),
    ("geometry.fit", "polyrig.geometry", "fit_realization"),
    ("geometry.d_phi", "polyrig.geometry", "d_phi"),
    ("geometry.gradient_rows", "polyrig.geometry", "gradient_rows"),
    ("geometry.evaluate_all", "polyrig.geometry", "evaluate_all"),
    ("rigidity.is_sufficient", "polyrig.rigidity", "is_sufficient"),
    ("rigidity.greedy", "polyrig.rigidity", "greedy_minimal_subset"),
    ("rigidity.flex_witness", "polyrig.rigidity", "flex_witness"),
    ("rigidity.numeric_rank", "polyrig.rigidity", "numeric_rank"),
    ("rigidity.point_set_witness", "polyrig.rigidity", "point_set_witness"),
    ("nlsq.gauss_newton", "polyrig._nlsq", "gauss_newton_project"),
    ("nlsq.lm_solve", "polyrig._nlsq", "lm_solve"),
    ("pointsets.value", "polyrig.pointsets", "measurement_value"),
    ("pointsets.gradient", "polyrig.pointsets", "measurement_gradient"),
    ("pointsets.align", "polyrig.pointsets", "align_distance"),
    ("pointsets.diameter", "polyrig.pointsets", "diameter"),
    ("polygon.square_oracle", "polyrig.polygon", "square_angle_oracle"),
    ("polygon.right_quad_oracle", "polyrig.polygon", "right_angle_quad_oracle"),
    ("polygon.max_diag_oracle", "polyrig.polygon", "max_diagonal_oracle"),
    ("polygon.octagon_oracle", "polyrig.polygon", "octagon_distance_oracle"),
    ("polygon.sufficiency2d", "polyrig.polygon", "sufficiency2d"),
    ("offio.read_off", "polyrig.offio", "read_off"),
    ("offio.json_dumps", "polyrig.offio", "json_dumps"),
    ("cli.main", "polyrig.cli", "main"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.solve", "numpy.linalg", "solve"),
    ("linalg.lstsq", "numpy.linalg", "lstsq"),
    ("scipy.minimize", "scipy.optimize", "minimize"),
)

# PointConfig2D validation is a method, so it is wrapped on the class.
CONFIG_LAYER = "polygon.config"


@dataclass
class Totals:
    self_s: float = 0.0
    calls: int = 0


@dataclass
class Tracer:
    totals: dict[str, Totals] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    restarts: int = 0
    restarts_converged: int = 0
    _stack: list[list] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _verdict: str = ""

    # --- recording -------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else None
        frame = [name, time.perf_counter(), 0.0, len(self.spans), parent]
        if len(self._stack) < 2:
            self.spans.append({})
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id, parent = frame
        duration = end - start
        t = self.totals.setdefault(name, Totals())
        t.self_s += duration - child
        t.calls += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self._stack) < 2:
            self.spans[span_id] = {
                "id": span_id, "parent": parent, "name": name,
                "verdict": self._verdict, "start": start, "end": end,
            }

    def verdict(self, name: str, fn):
        """Run one verdict as the root span."""
        self._verdict = name
        frame = self._enter("verdict")
        try:
            return fn()
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = fn
        return traced

    def _wrap_witness(self, fn):
        traced = self._wrap("rigidity.point_set_witness", fn)

        def counted(*args, **kwargs):
            report = traced(*args, **kwargs)
            self.restarts += report.restarts
            self.restarts_converged += report.converged
            return report

        counted.__wrapped__ = fn
        return counted

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every module that holds it."""
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "polyrig" or name.startswith("polyrig.")]
        for layer, module_name, attr in LAYERS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            if layer == "rigidity.point_set_witness":
                wrapped = self._wrap_witness(original)
            else:
                wrapped = self._wrap(layer, original)
            for holder in holders + [module]:
                if getattr(holder, attr, None) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
        config = sys.modules["polyrig.polygon"].PointConfig2D
        original = config.__post_init__
        self._patches.append((config, "__post_init__", original))
        config.__post_init__ = self._wrap(CONFIG_LAYER, original)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # --- output ----------------------------------------------------------

    def snapshot(self) -> dict[str, tuple[float, int]]:
        return {k: (v.self_s, v.calls) for k, v in self.totals.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_names() -> list[str]:
    return [layer for layer, _, _ in LAYERS] + [CONFIG_LAYER]

