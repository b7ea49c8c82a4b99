"""Command-line front end: radius fields, coverings, exponent tables,
solver experiments, and the verification suites.

Config is a flat JSON object (--config file); flags override its values.
Its numbers read as the flags read them: n, m and k are whole, r is the
decimal as written (2.3 is 23/10), and true or false is no number; only
estimates takes them.  All outputs land under --out and are deterministic
for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import admissible, exponents, norms
from .geometry import CapabilityError, DomainError, make_chart

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _load_config(args) -> dict:
    """The --config file's object with the given flags laid over it.  The
    file may hold the subcommand's own flags, and `frequency` where the
    subcommand builds a chart; any other key is an error, since a typo
    would otherwise leave its field at the default silently."""
    flags = {key.replace("_", "-"): val for key, val in vars(args).items()
             if key not in ("command", "config", "func")}
    cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
        except OSError as exc:
            raise ConfigError(f"config file {str(path)!r}: {exc.strerror}")
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: top-level value must be an object")
        unknown = sorted(set(cfg) - set(flags) - ({"frequency"} if "model" in flags else set()))
        if unknown:
            names = ", ".join(repr(key) for key in unknown)
            raise ConfigError(f"{path}: unknown key {names} for {args.command}")
    cfg.update({key: val for key, val in flags.items() if val is not None})
    return cfg


def _get(cfg, key, default=None, required=False, cast=None):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing config field {key!r}")
        return default
    val = cfg[key]
    if cast is not None:
        if isinstance(val, bool):  # a JSON true is an int to Python
            raise ConfigError(f"field {key!r}: expected a number, got {json.dumps(val)}")
        try:
            val = cast(val)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"field {key!r}: {exc}")
    return val


def _whole(val) -> int:
    """A whole number: 3, 3.0 or "3", not 3.9 or "3.9"."""
    if isinstance(val, float) and not val.is_integer():
        raise ValueError(f"{val!r} is not a whole number")
    return int(val)


def _rational(val) -> Fraction:
    """The exact value of the decimal as written: 2.3 is 23/10."""
    return Fraction(str(val))


def _chart_from_config(cfg):
    name = _get(cfg, "model", required=True)
    kwargs = {"n": _get(cfg, "n", 2, cast=_whole)}
    if name == "perturbed-euclidean":
        kwargs["a"] = _get(cfg, "a", 0.1, cast=float)
        freq = _get(cfg, "frequency", None, cast=float)
        if freq is not None:
            kwargs["frequency"] = freq
    if name == "flat-torus":
        kwargs["L"] = _get(cfg, "L", 4.0, cast=float)
    return make_chart(name, **kwargs)


def _params_from_config(cfg):
    return admissible.AdmissibilityParams(
        m=_get(cfg, "m", 2, cast=_whole),
        eps=_get(cfg, "eps", 0.2, cast=float),
        bisection_tol=_get(cfg, "tol", 1e-3, cast=float),
    )


def _parse_grid(text, n):
    parts = str(text).lower().split("x")
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise ConfigError(f"grid spec {text!r} does not match dimension {n}")
    try:
        counts = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"grid spec {text!r} is not a list of whole numbers")
    if min(counts) < 1:
        raise ConfigError(f"grid spec {text!r} needs at least 1 point per axis")
    return counts


def _parse_box(text, n):
    """Box syntax: 'lo:hi,lo:hi' one pair per axis."""
    if text is None:
        return None
    pairs = str(text).split(",")
    if len(pairs) != n:
        raise ConfigError(f"box spec {text!r} does not match dimension {n}")
    box = []
    for p in pairs:
        try:
            lo, hi = (float(v) for v in p.split(":"))
        except ValueError:
            raise ConfigError(f"box interval {p!r} is not of the form lo:hi")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"box interval {p!r} is not finite")
        if hi <= lo:
            raise ConfigError(f"box interval {p!r} is empty")
        box.append((lo, hi))
    return box


def _outdir(cfg) -> Path:
    out = _get(cfg, "out", ".")
    if not isinstance(out, str):
        raise ConfigError(f"field 'out' must be a directory path, got {json.dumps(out)}")
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {str(out)!r}: {exc.strerror}")
    return out


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)


def _radius_field(cfg):
    """Radius field on the --grid centers of --box (default: the working
    box), shrunk by --margin (admissible.grid_centers)."""
    chart = _chart_from_config(cfg)
    params = _params_from_config(cfg)
    per_axis = _parse_grid(_get(cfg, "grid", "8x8"), chart.n)
    margin = _get(cfg, "margin", 0.0, cast=float)
    box = _parse_box(_get(cfg, "box"), chart.n)
    return admissible.radius_field(chart, admissible.grid_centers(chart, per_axis, margin, box), params)


def cmd_radius(cfg) -> int:
    fld = _radius_field(cfg)
    out = _outdir(cfg)
    fld.to_csv(out / "radius.csv")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "model": cfg["model"],
        "m": fld.params.m,
        "eps": fld.params.eps,
        "points": int(len(fld.points)),
        "uniform_lower_bound": admissible.uniform_lower_bound(fld),
        "truncated_count": int(np.count_nonzero(fld.truncated)),
        "slow_variation": admissible.check_slow_variation(fld),
        "lipschitz": admissible.check_lipschitz(fld),
    }
    (out / "radius_summary.json").write_text(_json_dump(summary) + "\n")
    print(f"wrote {out / 'radius.csv'} and radius_summary.json ({len(fld.points)} centers)")
    return 0


def cmd_cover(cfg) -> int:
    from . import covering

    fld = _radius_field(cfg)
    k = _get(cfg, "k", 0, cast=_whole)
    box = _parse_box(_get(cfg, "cover-box"), fld.chart.n)
    cov = covering.build_admissible_covering(fld, k, box=box)
    disjoint = covering.check_core_disjointness(cov)
    dilated = covering.certify_dilated_overlap(cov, box=box)
    out = _outdir(cfg)
    payload = cov.to_dict()
    payload["core_disjointness"] = disjoint
    payload["dilated_overlap"] = dilated
    payload["model"] = cfg["model"]
    (out / "covering.json").write_text(_json_dump(payload) + "\n")
    print(
        f"wrote {out / 'covering.json'}: {len(cov.centers)} balls, "
        f"overlap {cov.overlap_certificate} <= {cov.t_bound:g}"
    )
    return 0


def cmd_exponents(cfg) -> int:
    m = _get(cfg, "m", required=True, cast=_whole)
    n = _get(cfg, "n", required=True, cast=_whole)
    r = _get(cfg, "r", required=True, cast=_rational)
    variant = _get(cfg, "variant", "sections")
    table = exponents.bootstrap_table(m, n, r, variant)
    out = _outdir(cfg)
    payload = {"schema_version": SCHEMA_VERSION, **table.to_dict()}
    ws = exponents.weight_spec(table)
    payload["weights"] = {
        "w1_exp": str(ws.w1_exp),
        "w2_exp": str(ws.w2_exp),
        "w3_exp": str(ws.w3_exp),
    }
    (out / "exponents.json").write_text(_json_dump(payload) + "\n")
    print(exponents.render_table(table))
    return 0


FORCINGS = ("bump", "eigen", "zero")


def _forcing_from_config(cfg, chart, box):
    from .heatflow import bump_forcing

    name = _get(cfg, "forcing", "bump")
    if name not in FORCINGS:
        raise ConfigError(f"unknown forcing {name!r}; choose from {sorted(FORCINGS)}")
    if name == "zero":
        return lambda t, pts: np.zeros(pts.shape[:-1])
    if name == "eigen":
        w = 2 * math.pi / (chart.hi[0] - chart.lo[0])
        return lambda t, pts: np.sin(w * pts[..., 0]) * np.sin(w * pts[..., 1])
    center = np.array([(lo + hi) / 2.0 for lo, hi in box])
    width = _get(cfg, "width", min(hi - lo for lo, hi in box) / 6.0, cast=float)
    tfreq = _get(cfg, "tfreq", 3.0, cast=float)
    if not (math.isfinite(width) and width > 0):
        raise ConfigError(f"field 'width' must be finite and > 0, got {width!r}")
    if not math.isfinite(tfreq):
        raise ConfigError(f"field 'tfreq' must be finite, got {tfreq!r}")
    return bump_forcing(center, width, tfreq)


def _along_dx1(g):
    """The one-form g dx1 of a scalar forcing g."""

    def one_form(t, pts):
        out = np.zeros(pts.shape)
        out[..., 0] = g(t, pts)
        return out

    return one_form


def cmd_solve(cfg) -> int:
    from . import heatflow

    chart = _chart_from_config(cfg)
    box = _parse_box(_get(cfg, "box"), chart.n)
    if box is None:
        box = [(chart.lo[i], chart.hi[i]) for i in range(chart.n)]
    per_axis = _parse_grid(_get(cfg, "grid", "33x33"), chart.n)
    grid = norms.Grid.over_box(chart, box, per_axis)
    estimates = _get(cfg, "estimates", False)
    if not isinstance(estimates, bool):
        raise ConfigError(f"field 'estimates' must be true or false, got {json.dumps(estimates)}")
    if estimates:
        grid.require_derivative_nodes()
        # the estimate inputs are read and built before anything is written
        margin = 0.25 * min(hi - lo for lo, hi in box)
        fld = admissible.radius_field(chart, admissible.grid_centers(chart, 5, margin),
                                      _params_from_config(cfg))
        table = exponents.bootstrap_table(_get(cfg, "m", 2, cast=_whole), chart.n,
                                          _get(cfg, "r", 4, cast=_rational))
    forcing = _forcing_from_config(cfg, chart, box)
    kind = _get(cfg, "kind", "scalar")
    if kind == "one-form":
        forcing = _along_dx1(forcing)
    prob = heatflow.ParabolicProblem(
        grid,
        forcing,
        horizon=_get(cfg, "T", 0.3, cast=float),
        margin=_get(cfg, "alpha", 0.1, cast=float),
        dt=_get(cfg, "dt", 0.01, cast=float),
        kind=kind,
    )
    sol = heatflow.solve_parabolic(prob)
    contraction = heatflow.check_threshold_contraction(sol)
    out = _outdir(cfg)

    un = contraction["u_norms"]
    cum = contraction["forcing_integral"]
    with open(out / "solve_timeseries.csv", "w") as fh:
        fh.write("t,u_l2,forcing_integral\n")
        for t, a, b in zip(sol.times, un, cum):
            fh.write(f"{float(t)!r},{float(a)!r},{float(b)!r}\n")
    with open(out / "solve_plot.dat", "w") as fh:
        for t, a in zip(sol.times, un):
            fh.write(f"{float(t)!r} {float(a)!r}\n")

    reports = [
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "contraction",
            "holds": contraction["holds"],
            "worst_margin": contraction["worst_margin"],
        }
    ]
    if estimates:
        center = np.array([(lo + hi) / 2.0 for lo, hi in box])
        R = 0.4 * min(hi - lo for lo, hi in box)
        loc = heatflow.local_estimate_experiment(sol, (center, R), r=float(table.r))
        glob = heatflow.global_estimate_experiment(sol, fld, table)
        reports.append({"schema_version": SCHEMA_VERSION, "kind": "local-estimate", **loc})
        reports.append({"schema_version": SCHEMA_VERSION, "kind": "global-estimate", **glob})
    with open(out / "solve_report.jsonl", "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep, sort_keys=True) + "\n")
    print(f"wrote solve outputs to {out} ({len(sol.times)} time nodes)")
    return 0


def cmd_verify(cfg) -> int:
    from . import acceptance

    suite = _get(cfg, "suite", "all")
    try:
        results = acceptance.run_suite(suite)
    except KeyError as exc:
        raise ConfigError(str(exc))
    out = _outdir(cfg)
    with open(out / f"verify_{suite}.jsonl", "w") as fh:
        for res in results:
            fh.write(json.dumps(res, sort_keys=True, default=str) + "\n")
    print(acceptance.render_report(results))
    return 0 if all(res["passed"] for res in results) else 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `prog: error: message` line, without
    the usage block."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="soboheat",
        description="Admissible radius fields, Vitali coverings, weighted norms, "
        "and heat-flow estimate experiments on model surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory (default: current)")

    p = sub.add_parser("radius", help="evaluate an admissible radius field")
    common(p)
    p.add_argument("--model")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--grid", help="e.g. 16x16")
    p.add_argument("--margin", type=float)
    p.add_argument("--box", help="lo:hi,lo:hi")
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("cover", help="build and certify an admissible covering")
    common(p)
    p.add_argument("--model")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--grid")
    p.add_argument("--margin", type=float)
    p.add_argument("--box", help="field sampling box, lo:hi,lo:hi")
    p.add_argument("--cover-box", help="covering target box, lo:hi,lo:hi")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("exponents", help="print and save a bootstrap exponent table")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r")
    p.add_argument("--variant", choices=["sections", "functions"])
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("solve", help="run a parabolic experiment")
    common(p)
    p.add_argument("--model")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--grid")
    p.add_argument("--box", help="lo:hi,lo:hi")
    p.add_argument("--forcing", choices=sorted(FORCINGS))
    p.add_argument("--width", type=float)
    p.add_argument("--tfreq", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--kind", choices=["scalar", "one-form"])
    p.add_argument("--estimates", action="store_true", default=None)
    p.add_argument("--m", type=int)
    p.add_argument("--r")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run an acceptance suite")
    common(p)
    p.add_argument("suite", nargs="?", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args)
        return args.func(cfg)
    except (ConfigError, DomainError, CapabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
