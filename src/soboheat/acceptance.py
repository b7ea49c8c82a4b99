"""Acceptance suite: numbered, self-contained verification experiments.

Each criterion function is deterministic (fixed seeds, sequential
reductions) and returns {"criterion", "name", "passed", "details"}.
The CLI `verify` command and the test suite both run these.
"""

from __future__ import annotations

import functools
import math
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import admissible, covering, exponents, heatflow, norms
from .geometry import make_chart, volume_of_ball


def _params(eps=0.2):
    return admissible.AdmissibilityParams(m=2, eps=eps)


# model name -> (chart kwargs, covering box, field-sample box, field grid)
MODEL_SETUPS = {
    "euclidean": dict(
        chart=dict(name="euclidean", n=2),
        cover_box=[(4.5, 5.5), (4.5, 5.5)],
        field_box=[(4.3, 5.7), (4.3, 5.7)],
        field_pts=4,
    ),
    "perturbed-euclidean": dict(
        chart=dict(name="perturbed-euclidean", a=0.1),
        cover_box=[(4.8, 5.2), (4.8, 5.2)],
        field_box=[(4.6, 5.4), (4.6, 5.4)],
        field_pts=4,
    ),
    "hyperbolic-halfplane": dict(
        chart=dict(name="hyperbolic-halfplane"),
        cover_box=[(-0.012, 0.012), (0.988, 1.012)],
        field_box=[(-0.02, 0.02), (0.98, 1.02)],
        field_pts=7,
    ),
    "hyperbolic-ball": dict(
        chart=dict(name="hyperbolic-ball"),
        cover_box=[(-0.04, 0.04), (-0.04, 0.04)],
        field_box=[(-0.07, 0.07), (-0.07, 0.07)],
        field_pts=5,
    ),
    "flat-torus": dict(
        chart=dict(name="flat-torus", n=2, L=4.0),
        cover_box=[(0.0, 2.0), (0.0, 2.0)],
        field_box=None,  # the working box
        field_pts=5,
    ),
}


@functools.lru_cache(maxsize=None)
def _model_chart(name):
    kwargs = dict(MODEL_SETUPS[name]["chart"])
    return make_chart(kwargs.pop("name"), **kwargs)


def _field_for(name):
    setup = MODEL_SETUPS[name]
    chart = _model_chart(name)
    pts = admissible.grid_centers(chart, setup["field_pts"], box=setup["field_box"])
    return admissible.radius_field(chart, pts, _params())


# -- criteria -----------------------------------------------------------


def criterion_1():
    """Bootstrap exponent recurrences equal their closed forms exactly."""
    checked = 0
    bad = []
    for m in range(1, 5):
        for n in (2, 3, 4):
            for r in (2, Fraction(5, 2), 3, 4, 6, 10):
                for variant in ("sections", "functions"):
                    t = exponents.bootstrap_table(m, n, r, variant)
                    a0 = Fraction(m) + Fraction(n, 2) - Fraction(n) / Fraction(r)
                    ok = t.a[0] == a0 and t.b[0] == 2 * m and t.d[0] == m
                    for k in range(t.k_star + 1):
                        if variant == "sections":
                            ok &= t.b[k] == 4 * m * k + 2 * m
                            ok &= t.d[k] == (4 * m * k + m if k else m)
                        else:
                            ok &= t.b[k] == k * (4 * m - 1) + 2 * m
                            ok &= t.d[k] == m + k * (4 * m - 1)
                    ks = t.k_star
                    if ks == 0:
                        ok &= (t.beta, t.gamma, t.delta) == (a0, 2 * m, m)
                    elif variant == "sections":
                        ok &= t.beta == min(a0, Fraction(5 * m))
                        ok &= t.gamma == (4 * ks + 2) * m
                        ok &= t.delta == (4 * ks + 1) * m
                    else:
                        ok &= t.beta == min(a0, Fraction(4 * m))
                        ok &= t.gamma == (4 * m - 1) * ks + 2 * m
                        ok &= t.delta == (4 * m - 1) * ks + m
                    checked += 1
                    if not ok:
                        bad.append((m, n, str(Fraction(r)), variant))
    return {
        "criterion": 1,
        "name": "exponent recurrences match closed forms",
        "passed": not bad,
        "details": {"tables_checked": checked, "mismatches": bad},
    }


def criterion_2():
    """Hand-evaluated spot values of the exponent tables."""
    t1 = exponents.bootstrap_table(2, 4, 4)
    t2 = exponents.bootstrap_table(2, 3, 2)
    ok = (
        t1.k_star == 1
        and (t1.beta, t1.gamma, t1.delta) == (3, 12, 10)
        and t2.k_star == 0
        and t2.beta == 2
    )
    return {
        "criterion": 2,
        "name": "exponent spot values",
        "passed": bool(ok),
        "details": {"t1": t1.to_dict(), "t2": t2.to_dict()},
    }


def criterion_3():
    """Flat-plane admissible radius is identically 1 on a 16x16 grid."""
    chart = make_chart("euclidean", n=2)
    worst = {}
    ok = True
    for eps in (0.1, 0.2, 1.0 / 3.0):
        params = admissible.AdmissibilityParams(m=2, eps=eps)
        pts = admissible.grid_centers(chart, 16, margin=2.1)
        fld = admissible.radius_field(chart, pts, params)
        dev = float(np.max(np.abs(fld.r_eps - 1.0)))
        worst[f"eps={eps:.4f}"] = dev
        ok &= dev <= params.bisection_tol
    return {
        "criterion": 3,
        "name": "euclidean radius field is constant 1",
        "passed": bool(ok),
        "details": {"max_deviation": worst},
    }


def criterion_4():
    """Lipschitz continuity and slow variation of the radius field."""
    details = {}
    ok = True
    boxes = {
        "euclidean": [(2.5, 7.5), (2.5, 7.5)],
        "perturbed-euclidean": [(3.0, 7.0), (3.0, 7.0)],
        "hyperbolic-halfplane": [(-1.0, 1.0), (0.5, 3.0)],
    }
    for name, box in boxes.items():
        chart = _model_chart(name)
        fld = admissible.radius_field(chart, admissible.grid_centers(chart, 6, box=box), _params())
        lip = admissible.check_lipschitz(fld)
        slow = admissible.check_slow_variation(fld)
        details[name] = {
            "lipschitz_pairs": lip["pairs_checked"],
            "lipschitz_violations": lip["violations"],
            "slow_pairs": slow["pairs_checked"],
            "slow_violations": slow["violations"],
        }
        ok &= lip["violations"] == 0 and slow["violations"] == 0
    return {
        "criterion": 4,
        "name": "radius field Lipschitz and slow variation",
        "passed": bool(ok),
        "details": details,
    }


def criterion_5():
    """Covering certificates on every model at levels k = 0, 1, 2."""
    details = {}
    ok = True
    for name, setup in MODEL_SETUPS.items():
        fld = _field_for(name)
        box = setup["cover_box"]
        per_level = {}
        for k in (0, 1, 2):
            cov = covering.build_admissible_covering(fld, k, box=box)
            disjoint = covering.check_core_disjointness(cov)
            dilated = covering.certify_dilated_overlap(cov, box=box)
            level_ok = (
                disjoint["violations"] == 0
                and cov.coverage_fraction == 1.0
                and cov.overlap_certificate <= cov.t_bound
                and dilated["holds"]
            )
            per_level[f"k={k}"] = {
                "balls": len(cov.centers),
                "overlap": cov.overlap_certificate,
                "t_bound": cov.t_bound,
                "dilated_overlap": dilated["max_overlap"],
                "dilated_bound": dilated["bound"],
                "coverage": cov.coverage_fraction,
                "core_violations": disjoint["violations"],
                "ok": level_ok,
            }
            ok &= level_ok
        details[name] = per_level
    return {
        "criterion": 5,
        "name": "covering overlap and disjointness certificates",
        "passed": bool(ok),
        "details": details,
    }


def criterion_6():
    """Volumes of admissible balls sit in the conformal-band sandwich."""
    eps = 0.2
    details = {}
    ok = True
    for name in MODEL_SETUPS:
        chart = _model_chart(name)
        n = chart.n
        nu_n = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        pts = admissible.grid_centers(chart, 5, margin=0.1 * float(np.min(chart.hi - chart.lo)))
        fld = admissible.radius_field(chart, pts, _params(eps=eps))
        good = np.flatnonzero(~fld.degenerate & (fld.r_eps > 0))[:20]
        worst_lo, worst_hi = math.inf, -math.inf
        model_ok = len(good) > 0
        for j in good:
            R = float(fld.r_eps[j])
            vol = volume_of_ball(chart, fld.points[j], R)
            ratio = vol / (nu_n * R**n)
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
            model_ok &= (1 - eps) ** (n / 2.0) <= ratio <= (1 + eps) ** (n / 2.0)
        details[name] = {"balls": int(len(good)), "ratio_range": [worst_lo, worst_hi]}
        ok &= model_ok
    return {
        "criterion": 6,
        "name": "ball volume sandwich",
        "passed": bool(ok),
        "details": details,
    }


def criterion_7():
    """Interpolation inequality L2 <= |B|^(1/2-1/r) L^r on random data."""
    rng = np.random.default_rng(20240817)
    chart = make_chart("perturbed-euclidean", a=0.1)
    grid = norms.Grid.over_box(chart, [(3.0, 7.0), (3.0, 7.0)], 41)
    ok = True
    worst = 0.0
    for _ in range(100):
        vals = rng.standard_normal(grid.shape)
        fld = norms.DiscreteField(grid, vals)
        center = np.array([rng.uniform(4.0, 6.0), rng.uniform(4.0, 6.0)])
        R = rng.uniform(0.3, 1.0)
        r = rng.uniform(2.0, 8.0)
        rep = norms.holder_volume_check(fld, (center, R), r)
        ok &= rep["holds"]
        if rep["rhs"] > 0:
            worst = max(worst, rep["lhs"] / rep["rhs"] - 1.0)
    const = norms.DiscreteField(grid, np.full(grid.shape, 2.5))
    rep = norms.holder_volume_check(const, (np.array([5.0, 5.0]), 0.8), 2.0)
    eq = abs(rep["lhs"] - rep["rhs"]) <= 1e-12 * rep["rhs"]
    return {
        "criterion": 7,
        "name": "interpolation inequality with volume factor",
        "passed": bool(ok and eq),
        "details": {"worst_relative_excess": worst, "constant_field_equal": bool(eq)},
    }


def criterion_8():
    """Two-sided equivalence of global and covering-sum weighted norms."""
    gamma = 2.0
    tau = 2.0
    details = {}
    ok = True
    for name in ("euclidean", "perturbed-euclidean", "flat-torus"):
        setup = MODEL_SETUPS[name]
        fld = _field_for(name)
        box = setup["cover_box"]
        cov = covering.build_admissible_covering(fld, 0, box=box)
        b = setup["cover_box"]
        c = np.array([(lo + hi) / 2.0 for lo, hi in b])
        w = min(hi - lo for lo, hi in b) / 2.0
        chart = fld.chart
        grid = norms.Grid.over_box(chart, b, 33)

        def bump(pts, c=c, w=w):
            z = np.clip(np.max(np.abs(pts - c), axis=-1) / (0.8 * w), 0, 1)
            out = np.where(z < 1, np.exp(-1.0 / np.maximum(1e-12, 1 - z**2)), 0.0)
            return out

        def wavy(pts, c=c, w=w):
            return bump(pts) * np.sin(12.0 * (pts[..., 0] - c[0]) / w)

        per_field = {}
        model_ok = True
        for label, fn in (("bump", bump), ("oscillatory", wavy)):
            u = norms.DiscreteField(grid, fn(grid.points))
            rvals = fld.lower_bound_at(grid.points.reshape(-1, chart.n)).reshape(grid.shape)
            glob = norms.sobolev_norm(
                u, norms.NormRequest(r=tau, l=0, weight=rvals ** (gamma * tau))
            )
            summed = norms.covering_sum_norm(u, cov, gamma, 0, tau)
            lo_c = 2.0**-gamma
            hi_c = 2.0**gamma * cov.t_bound ** (1.0 / tau)
            ratio = summed / glob if glob else math.inf
            f_ok = glob > 0 and lo_c <= ratio <= hi_c
            per_field[label] = {"ratio": ratio, "lower": lo_c, "upper": hi_c, "ok": f_ok}
            model_ok &= f_ok
        details[name] = per_field
        ok &= model_ok
    return {
        "criterion": 8,
        "name": "global vs covering-sum norm equivalence",
        "passed": bool(ok),
        "details": details,
    }


def _torus_eigen_error(nx, dt, against="continuum"):
    L, T = 2 * math.pi, 0.5
    chart = make_chart("flat-torus", n=2, L=L)
    grid = norms.Grid.over_box(chart, [(0, L), (0, L)], nx)

    def forcing(t, pts):
        return np.sin(pts[..., 0]) * np.sin(pts[..., 1])

    prob = heatflow.ParabolicProblem(grid, forcing, horizon=T, margin=0.0, dt=dt)
    sol = heatflow.solve_parabolic(prob)
    s1 = np.sin(grid.points[..., 0]) * np.sin(grid.points[..., 1])
    if against == "continuum":
        lam = 2.0
    else:  # time error only: continuum time flow of the discrete eigenvalue
        h = grid.h[0]
        lam = 2.0 * (2.0 - 2.0 * math.cos(h)) / h**2
    exact = (1.0 - math.exp(-lam * T)) / lam * s1
    diff = sol.u.values[-1] - exact
    return float(np.sqrt(np.sum(diff**2 * grid.quadrature)))


def criterion_9():
    """Heat solver convergence orders on the periodic eigen-forcing."""
    e_h1 = _torus_eigen_error(16, 0.0005)
    e_h2 = _torus_eigen_error(32, 0.0005)
    e_t1 = _torus_eigen_error(32, 0.02, against="discrete")
    e_t2 = _torus_eigen_error(32, 0.01, against="discrete")
    p_space = math.log2(e_h1 / e_h2)
    p_time = math.log2(e_t1 / e_t2)
    ok = p_space >= 1.8 and p_time >= 0.9 and e_h2 < 0.01 and e_t2 < 0.01
    return {
        "criterion": 9,
        "name": "heat solver convergence orders",
        "passed": bool(ok),
        "details": {
            "space_order": p_space,
            "time_order": p_time,
            "errors": [e_h1, e_h2, e_t1, e_t2],
        },
    }


def problem_catalog():
    """One parabolic problem per model, plus a one-form problem."""
    L = 4.0
    torus = make_chart("flat-torus", n=2, L=L)

    def torus_forcing(t, pts):
        w = 2 * math.pi / L
        return np.sin(w * pts[..., 0]) * np.sin(w * pts[..., 1]) * (1 + math.sin(3 * t))

    def torus_one_form(t, pts):
        w = 2 * math.pi / L
        out = np.zeros(pts.shape)
        out[..., 0] = np.sin(w * pts[..., 1]) * math.sin(2 * t)
        out[..., 1] = np.cos(w * pts[..., 0]) * (1 - math.exp(-t))
        return out

    problems = {}
    boxes = {
        "euclidean": ([(4.0, 6.0), (4.0, 6.0)], [5.0, 5.0], 0.3),
        "perturbed-euclidean": ([(4.0, 6.0), (4.0, 6.0)], [5.0, 5.0], 0.3),
        "hyperbolic-halfplane": ([(-0.5, 0.5), (0.5, 1.5)], [0.0, 1.0], 0.15),
        "hyperbolic-ball": ([(-0.4, 0.4), (-0.4, 0.4)], [0.0, 0.0], 0.12),
    }
    for name, (box, c, width) in boxes.items():
        grid = norms.Grid.over_box(_model_chart(name), box, 33)
        problems[name] = heatflow.ParabolicProblem(
            grid, heatflow.bump_forcing(c, width, 3.0), horizon=0.3, margin=0.1, dt=0.01
        )
    tg = norms.Grid.over_box(torus, [(0, L), (0, L)], 32)
    problems["flat-torus"] = heatflow.ParabolicProblem(
        tg, torus_forcing, horizon=0.3, margin=0.1, dt=0.01
    )
    problems["flat-torus-one-form"] = heatflow.ParabolicProblem(
        tg, torus_one_form, horizon=0.3, margin=0.1, dt=0.01, kind="one-form"
    )
    return problems


def criterion_10():
    """L2 threshold contraction at every node of every catalog problem."""
    details = {}
    ok = True
    for name, prob in problem_catalog().items():
        sol = heatflow.solve_parabolic(prob)
        rep = heatflow.check_threshold_contraction(sol)
        details[name] = {"holds": rep["holds"], "worst_margin": rep["worst_margin"]}
        ok &= rep["holds"]
    return {
        "criterion": 10,
        "name": "threshold contraction",
        "passed": bool(ok),
        "details": details,
    }


def criterion_11():
    """Scale stability of the local and global estimate constants."""
    details = {}
    ok = True
    box = [(4.0, 6.0), (4.0, 6.0)]
    center = np.array([5.0, 5.0])
    forcing = heatflow.bump_forcing(center, 0.3, 3.0)
    for name in ("euclidean", "perturbed-euclidean"):
        chart = _model_chart(name)
        fld = admissible.radius_field(
            chart, admissible.grid_centers(chart, 5, box=[(3.5, 6.5), (3.5, 6.5)]), _params()
        )
        sols = {}
        for nx in (49, 97):
            grid = norms.Grid.over_box(chart, box, nx)
            prob = heatflow.ParabolicProblem(grid, forcing, horizon=0.3, margin=0.1, dt=0.01)
            sols[nx] = heatflow.solve_parabolic(prob)
        per_r = {}
        for r in (2, 4):
            table = exponents.bootstrap_table(2, chart.n, r)
            loc_R = heatflow.local_estimate_experiment(sols[49], (center, 0.8), r=float(r))
            loc_h = heatflow.local_estimate_experiment(sols[49], (center, 0.4), r=float(r))
            drift_loc = loc_R["c_emp"] / loc_h["c_emp"]
            g1 = heatflow.global_estimate_experiment(sols[49], fld, table)
            g2 = heatflow.global_estimate_experiment(sols[97], fld, table)
            drift_glob = g1["ratio"] / g2["ratio"]
            r_ok = (
                0.25 <= drift_loc <= 4.0
                and math.isfinite(g1["ratio"])
                and math.isfinite(g2["ratio"])
                and 0.5 <= drift_glob <= 2.0
            )
            per_r[f"r={r}"] = {
                "local_c_emp": [loc_R["c_emp"], loc_h["c_emp"]],
                "local_drift": drift_loc,
                "global_ratio": [g1["ratio"], g2["ratio"]],
                "global_drift": drift_glob,
                "ok": r_ok,
            }
            ok &= r_ok
        details[name] = per_r
    return {
        "criterion": 11,
        "name": "estimate constants are scale-stable",
        "passed": bool(ok),
        "details": details,
    }


def criterion_12():
    """Rotationally symmetric model: positive uniform radius bound and
    agreement at equal distance from the origin.

    The chart-sum admissibility test is invariant under the chart's
    dihedral symmetries (quarter turns and reflections), so equal-distance
    agreement is sampled over a dihedral orbit of directions.
    """
    chart = make_chart("hyperbolic-ball")
    params = _params()
    fld = admissible.radius_field(
        chart, admissible.grid_centers(chart, 6, box=[(-0.3, 0.3), (-0.3, 0.3)]), params
    )
    bound = admissible.uniform_lower_bound(fld)
    rho = 0.2
    theta0 = 0.37
    angles = []
    for k in range(4):
        angles += [theta0 + k * math.pi / 2.0, -theta0 + k * math.pi / 2.0]
    radii = []
    for th in angles:
        c = np.array([rho * math.cos(th), rho * math.sin(th)])
        r_prime, r_eps, truncated, _ = admissible.admissible_radius(chart, c, params)
        radii.append(r_eps)
    spread = max(radii) - min(radii)
    ok = bound > 0 and spread <= 2 * params.bisection_tol
    return {
        "criterion": 12,
        "name": "uniform bound and radial homogeneity on the round model",
        "passed": bool(ok),
        "details": {
            "uniform_lower_bound": bound,
            "orbit_spread": spread,
            "orbit_radii": radii,
        },
    }


def _determinism_pipeline(outdir):
    env_cmds = [
        ["exponents", "--m", "2", "--n", "3", "--r", "4"],
        ["radius", "--model", "euclidean", "--grid", "8x8", "--margin", "2.1"],
        [
            "cover",
            "--model",
            "hyperbolic-halfplane",
            "--k",
            "0",
            "--grid",
            "7x7",
            "--box=-0.02:0.02,0.98:1.02",
            "--cover-box=-0.012:0.012,0.988:1.012",
        ],
        [
            "solve",
            "--model",
            "flat-torus",
            "--forcing",
            "eigen",
            "--grid",
            "24x24",
            "--T",
            "0.2",
            "--alpha",
            "0.1",
            "--dt",
            "0.01",
        ],
    ]
    for cmd in env_cmds:
        res = subprocess.run(
            [sys.executable, "-m", "soboheat.cli"] + cmd + ["--out", str(outdir)],
            capture_output=True,
            text=True,
        )
        if res.returncode != 0:
            raise RuntimeError(f"pipeline step {cmd[0]} failed: {res.stderr}")


def criterion_13():
    """Identical configs produce byte-identical report files.

    Runs the full reporting pipeline (radius CSV, covering JSON, exponent
    JSON, solve reports) twice in fresh processes and compares bytes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        d1 = Path(tmp) / "run1"
        d2 = Path(tmp) / "run2"
        d1.mkdir()
        d2.mkdir()
        _determinism_pipeline(d1)
        _determinism_pipeline(d2)
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        same_names = names1 == names2
        diffs = []
        if same_names:
            for name in names1:
                if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                    diffs.append(name)
    ok = same_names and not diffs
    return {
        "criterion": 13,
        "name": "byte-identical reports on identical configs",
        "passed": bool(ok),
        "details": {"files": names1, "mismatched": diffs, "same_listing": same_names},
    }


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
}

SUITES = {
    "exponents": [1, 2],
    "radius": [3, 4, 12],
    "covering": [5, 6],
    "norms": [7, 8],
    "heatflow": [9, 10, 11],
    "determinism": [13],
    "all": list(range(1, 14)),
}


def run_suite(suite: str) -> list[dict]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [CRITERIA[i]() for i in SUITES[suite]]


def render_report(results: list[dict]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res["passed"] else "FAIL"
        lines.append(f"[{status}] criterion {res['criterion']:2d}: {res['name']}")
    return "\n".join(lines)
