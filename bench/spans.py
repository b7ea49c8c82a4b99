"""Span tracing of soboheat's public functions, installed from outside.

`Tracer.install()` replaces public functions and methods of the layer
modules with wrappers that record one span each (label, start, end,
parent) in memory, plus a work count where the call's arguments or result
give one.  Module functions are replaced in every soboheat module that
holds them, so calls made through another module's globals (for example
`heatflow` calling `sobolev_norm`) are traced too.  Nothing under `src/`
changes.

A layer's self time is its spans' duration minus the time their child
spans cover.  A conformal-factor call made by a distance kernel is not a
span of its own: its time stays with the distance kernel, which is the
cost a faster geodesic would remove.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

# label -> (module, attribute) for module functions, (module, class, method)
# for methods.  One label may cover several functions.
TARGETS = {
    "geometry.make_chart": [("geometry", "make_chart")],
    "geometry.distance": [("geometry", "MetricChart", "distance")],
    "geometry.conformal_factor": [("geometry", "MetricChart", "conformal_factor")],
    "geometry.volume_of_ball": [("geometry", "volume_of_ball")],
    "geometry.ball_bbox": [("geometry", "ball_bbox")],
    "geometry.christoffel": [("geometry", "christoffel"), ("geometry", "christoffel_derivative")],
    "geometry.cmt_bound_check": [("geometry", "cmt_bound_check")],
    "admissible.radius_field": [("admissible", "radius_field")],
    "admissible.is_admissible": [("admissible", "is_admissible")],
    "admissible.domain_cap": [("admissible", "domain_cap")],
    "admissible.lower_bound_at": [("admissible", "RadiusField", "lower_bound_at")],
    "admissible.checks": [("admissible", "check_lipschitz"), ("admissible", "check_slow_variation")],
    "covering.build_admissible_covering": [("covering", "build_admissible_covering")],
    "covering.check_core_disjointness": [("covering", "check_core_disjointness")],
    "covering.certify_dilated_overlap": [("covering", "certify_dilated_overlap")],
    "norms.Grid": [("norms", "Grid", "__init__")],
    "norms.sobolev_norm": [("norms", "sobolev_norm")],
    "norms.covariant_tensors": [("norms", "covariant_tensors")],
    "norms.ball_mask": [("norms", "Grid", "ball_mask")],
    "heatflow.solve_parabolic": [("heatflow", "solve_parabolic")],
    "heatflow.assembly": [("heatflow", "discrete_laplacian"), ("heatflow", "one_form_hodge_matrices")],
    "heatflow.estimates": [("heatflow", "local_estimate_experiment"),
                           ("heatflow", "global_estimate_experiment")],
    "heatflow.contraction": [("heatflow", "check_threshold_contraction")],
    "exponents.bootstrap_table": [("exponents", "bootstrap_table")],
}

COVERING_LABELS = ("covering.build_admissible_covering", "covering.check_core_disjointness",
                   "covering.certify_dilated_overlap")


def _points(x) -> int:
    return math.prod(np.shape(x)[:-1])


def _pairs(x, y) -> int:
    """Point pairs of a distance call after broadcasting."""
    sx, sy = np.shape(x)[:-1], np.shape(y)[:-1]
    return math.prod(sx if sx == sy else np.broadcast_shapes(sx, sy))


def _grid_unknowns(grid, kind) -> int:
    if kind == "one-form":
        return 2 * math.prod(grid.shape)
    return math.prod(s if per else s - 2 for s, per in zip(grid.shape, grid.chart.periodic))


def _solve_work(args, kwargs, result):
    steps = len(result.times) - 1
    unknowns = _grid_unknowns(result.problem.grid, result.problem.kind)
    return {"steps": steps, "node_steps": steps * unknowns}


def _norm_request(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["req"]


# label -> work counts of one call, {counter: value}, from its arguments
# and result
WORK = {
    "geometry.distance": lambda a, k, r: {"pairs": _pairs(a[1], a[2])},
    "geometry.conformal_factor": lambda a, k, r: {"points": _points(a[1])},
    "admissible.radius_field": lambda a, k, r: {"centers": len(r.points),
                                                "degenerate": int(r.degenerate.sum())},
    "admissible.lower_bound_at": lambda a, k, r: {"points": _points(a[1])},
    "covering.build_admissible_covering": lambda a, k, r: {"balls": len(r.centers)},
    "covering.check_core_disjointness": lambda a, k, r: {"pairs_screened": int(r["pairs_screened"])},
    "covering.certify_dilated_overlap": lambda a, k, r: {"probes": int(r["probes"])},
    "norms.sobolev_norm": lambda a, k, r: {
        "region_requests": int(_norm_request(a, k).region is not None)},
    "heatflow.solve_parabolic": _solve_work,
}


class Tracer:
    """In-memory span recorder.  Spans are parallel lists indexed by id."""

    def __init__(self):
        self.labels: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.work: list[dict | None] = []
        self.chart: list[str | None] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, label, fn):
        tracer = self
        work = WORK.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if label == "geometry.conformal_factor" and stack and \
                    tracer.labels[stack[-1]] == "geometry.distance":
                return fn(*args, **kwargs)
            sid = len(tracer.labels)
            tracer.labels.append(label)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            tracer.work.append(None)
            tracer.chart.append(args[0].name if label == "geometry.distance" else None)
            stack.append(sid)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter()
                stack.pop()
            if work is not None:
                tracer.work[sid] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target of every soboheat layer module already imported."""
        modules = {name[len("soboheat."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("soboheat.") and mod is not None}
        holders = [sys.modules["soboheat"]] + list(modules.values())
        for label, targets in TARGETS.items():
            for target in targets:
                mod = modules.get(target[0])
                if mod is None:
                    continue
                if len(target) == 3:
                    cls = getattr(mod, target[1])
                    orig = cls.__dict__[target[2]]
                    setattr(cls, target[2], self._wrap(label, orig))
                    self._installed.append((cls, target[2], orig))
                    continue
                orig = getattr(mod, target[1])
                wrapped = self._wrap(label, orig)
                for holder in holders:
                    if holder.__dict__.get(target[1]) is orig:
                        setattr(holder, target[1], wrapped)
                        self._installed.append((holder, target[1], orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._installed):
            setattr(owner, name, orig)
        self._installed.clear()

    # -- reduction -----------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[sid] - self.start[sid]
        return own

    def _under(self, sid: int, labels) -> bool:
        par = self.parent[sid]
        while par >= 0:
            if self.labels[par] in labels:
                return True
            par = self.parent[par]
        return False

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> value, for every label in TARGETS
        (zero where the layer did not run)."""
        own = self.self_times()
        secs = {label: 0.0 for label in TARGETS}
        calls = {label: 0 for label in TARGETS}
        work: dict[str, int] = {}
        pert_s = 0.0
        pert_pairs = 0
        predicates_in_fields = 0
        covering_pairs = 0
        for sid, label in enumerate(self.labels):
            secs[label] += own[sid]
            calls[label] += 1
            for key, val in (self.work[sid] or {}).items():
                work[f"{label}.{key}"] = work.get(f"{label}.{key}", 0) + val
            if label == "geometry.distance":
                if self.chart[sid] == "perturbed-euclidean":
                    pert_s += own[sid]
                    pert_pairs += self.work[sid]["pairs"]
                if self._under(sid, COVERING_LABELS):
                    covering_pairs += self.work[sid]["pairs"]
            elif label == "admissible.is_admissible" and self._under(sid, ("admissible.radius_field",)):
                predicates_in_fields += 1

        def w(key):
            return work.get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        steps = w("heatflow.solve_parabolic.steps")
        balls = w("covering.build_admissible_covering.balls")
        centers = w("admissible.radius_field.centers")
        return {
            "geometry.make_chart.s": secs["geometry.make_chart"],
            "geometry.distance.calls": calls["geometry.distance"],
            "geometry.distance.pairs": w("geometry.distance.pairs"),
            "geometry.distance.s": secs["geometry.distance"],
            "geometry.distance.perturbed-euclidean.pairs": pert_pairs,
            "geometry.distance.perturbed-euclidean.s": pert_s,
            "geometry.conformal_factor.points": w("geometry.conformal_factor.points"),
            "geometry.conformal_factor.s": secs["geometry.conformal_factor"],
            "geometry.volume_of_ball.calls": calls["geometry.volume_of_ball"],
            "geometry.volume_of_ball.s": secs["geometry.volume_of_ball"],
            "geometry.ball_bbox.calls": calls["geometry.ball_bbox"],
            "geometry.ball_bbox.s": secs["geometry.ball_bbox"],
            "geometry.christoffel.s": secs["geometry.christoffel"],
            "geometry.cmt_bound_check.s": secs["geometry.cmt_bound_check"],
            "admissible.radius_field.centers": centers,
            "admissible.radius_field.s": secs["admissible.radius_field"],
            "admissible.is_admissible.calls": calls["admissible.is_admissible"],
            "admissible.is_admissible.s": secs["admissible.is_admissible"],
            "admissible.predicates_per_center": ratio(predicates_in_fields, centers),
            "admissible.domain_cap.s": secs["admissible.domain_cap"],
            "admissible.lower_bound_at.points": w("admissible.lower_bound_at.points"),
            "admissible.lower_bound_at.s": secs["admissible.lower_bound_at"],
            "admissible.checks.s": secs["admissible.checks"],
            "admissible.degenerate": w("admissible.radius_field.degenerate"),
            "covering.build_admissible_covering.s": secs["covering.build_admissible_covering"],
            "covering.balls": balls,
            "covering.check_core_disjointness.s": secs["covering.check_core_disjointness"],
            "covering.pairs_screened": w("covering.check_core_disjointness.pairs_screened"),
            "covering.certify_dilated_overlap.s": secs["covering.certify_dilated_overlap"],
            "covering.probes": w("covering.certify_dilated_overlap.probes"),
            "covering.distance_pairs_per_ball": ratio(covering_pairs, balls),
            "norms.Grid.s": secs["norms.Grid"],
            "norms.sobolev_norm.calls": calls["norms.sobolev_norm"],
            "norms.sobolev_norm.s": secs["norms.sobolev_norm"],
            "norms.covariant_tensors.calls": calls["norms.covariant_tensors"],
            "norms.ball_mask.calls": calls["norms.ball_mask"],
            "norms.ball_mask.s": secs["norms.ball_mask"],
            "norms.masks_per_norm": ratio(calls["norms.ball_mask"],
                                          w("norms.sobolev_norm.region_requests")),
            "heatflow.solve_parabolic.s": secs["heatflow.solve_parabolic"],
            "heatflow.assembly.s": secs["heatflow.assembly"],
            "heatflow.steps": steps,
            "heatflow.node_steps": w("heatflow.solve_parabolic.node_steps"),
            "heatflow.step_s": ratio(secs["heatflow.solve_parabolic"], steps),
            "heatflow.estimates.s": secs["heatflow.estimates"],
            "heatflow.contraction.s": secs["heatflow.contraction"],
            "exponents.bootstrap_table.s": secs["exponents.bootstrap_table"],
        }

    def dump(self, path):
        """Write every span as [label, start, end, parent, work]."""
        t0 = self.start[0] if self.start else 0.0
        spans = [[lab, s - t0, e - t0, p, w] for lab, s, e, p, w in
                 zip(self.labels, self.start, self.end, self.parent, self.work)]
        with open(path, "w") as fh:
            json.dump({"fields": ["label", "start_s", "end_s", "parent", "work"],
                       "spans": spans}, fh, separators=(",", ":"))
            fh.write("\n")


# metric name -> unit, in the order reported
UNITS = {
    name: ("s" if name.endswith(".s") or name.endswith("step_s") else
           "pairs/ball" if name.endswith("pairs_per_ball") else
           "calls/center" if name.endswith("per_center") else
           "masks/norm" if name.endswith("per_norm") else "count")
    for name in Tracer().layer_metrics()
}
