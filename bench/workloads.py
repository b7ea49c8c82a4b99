"""The benchmark's workloads: seeded inputs, jobs, and the checks on every
job's output.

A workload imports only the soboheat modules it uses (`LAYERS`, through
`import_layers`), builds its charts and inputs in its constructor, and
then offers `jobs`: a list of
(name, run, check).  `run()` makes the calls into the program and returns
their outputs; `check(output)` compares them with the reference
computations in `oracles` and returns a list of problems (empty when the
output is correct).  Only `run()` is timed.

The inputs move with the seed by isometries or small shifts that keep the
amount of work nearly fixed, so runs with different seeds time the same
work on different numbers.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

import oracles

# The five catalog models with explicit parameters, so the program
# receives only inputs the benchmark chose.
MODELS = {
    "euclidean": dict(chart=dict(n=2, box=[[0.0, 10.0], [0.0, 10.0]])),
    "perturbed-euclidean": dict(chart=dict(n=2, a=0.1, frequency=1.0,
                                           box=[[0.0, 10.0], [0.0, 10.0]])),
    "hyperbolic-halfplane": dict(chart=dict(box=[[-2.0, 2.0], [0.25, 4.0]])),
    "hyperbolic-ball": dict(chart=dict(box=[[-0.6, 0.6], [-0.6, 0.6]])),
    "flat-torus": dict(chart=dict(n=2, L=4.0), box=[[0.0, 4.0], [0.0, 4.0]],
                       periodic=(True, True)),
}

R_CAP = 2.5  # admissible radii are capped here (only min(1, R'/2) is used)
EPS = 0.2
TOL = 1e-3  # bisection tolerance of the radius fields
R_TOL = 1e-9  # rounding allowed on a covering's R against its oracle bracket


def oracle_model(name: str) -> oracles.Model:
    spec = MODELS[name]
    chart = spec["chart"]
    return oracles.Model(name, spec.get("box", chart.get("box")),
                         spec.get("periodic", (False, False)),
                         a=chart.get("a", 0.0), frequency=chart.get("frequency", 1.0))


def box_grid(box, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))


def _finite_positive(x) -> bool:
    return x is not None and math.isfinite(x) and x > 0


def import_layers(names) -> dict:
    """Import the soboheat modules a workload uses, and no others."""
    return {name: importlib.import_module(f"soboheat.{name}") for name in names}


class Workload:
    LAYERS: tuple = ()

    def __init__(self, mods: dict):
        self.mods = mods
        self.jobs: list = []

    def charts(self, names):
        make_chart = self.mods["geometry"].make_chart
        return {name: make_chart(name, **MODELS[name]["chart"]) for name in names}


# -- cover --------------------------------------------------------------


def _cover_boxes(name, rng):
    """(field sample box, points per axis, cover box) for one model.

    Box sizes make each model's job cost about the same (1.1 to 1.6 s on
    the reference machine), which keeps the median job time steady.
    """
    if name == "euclidean":
        o = rng.uniform(-0.8, 0.8, 2)
        return [(3.9 + o[0], 6.1 + o[0]), (3.9 + o[1], 6.1 + o[1])], 4, \
            [(4.15 + o[0], 5.85 + o[0]), (4.15 + o[1], 5.85 + o[1])]
    if name == "perturbed-euclidean":
        # f depends on x1 only, so a shift along x2 is an isometry.  The x1
        # range stays put: at centers within ~0.05 of x1 = 3 pi / 2 the
        # program's radius field collapses (chart.f_min, taken from a
        # coarse grid, lies above the true minimum of f there).
        o = rng.uniform(-1.0, 1.0)
        return [(4.6, 5.4), (4.6 + o, 5.4 + o)], 3, [(4.87, 5.13), (4.87 + o, 5.13 + o)]
    if name == "hyperbolic-halfplane":
        # (x, y) -> (ox + lam x, lam y) is an isometry of the half-plane
        lam, ox = rng.uniform(0.9, 1.1), rng.uniform(-0.5, 0.5)
        return [(ox - 0.02 * lam, ox + 0.02 * lam), (0.98 * lam, 1.02 * lam)], 6, \
            [(ox - 0.012 * lam, ox + 0.012 * lam), (0.988 * lam, 1.012 * lam)]
    if name == "hyperbolic-ball":
        o = rng.uniform(-0.02, 0.02, 2)
        return [(-0.07 + o[0], 0.07 + o[0]), (-0.07 + o[1], 0.07 + o[1])], 5, \
            [(-0.022 + o[0], 0.022 + o[0]), (-0.022 + o[1], 0.022 + o[1])]
    lo = rng.uniform(0.0, 3.0, 2)  # flat-torus: any translation is an isometry
    return None, 5, [(lo[0], lo[0] + 1.0), (lo[1], lo[1] + 1.0)]


class Cover(Workload):
    """One job per model: a radius field with its Lipschitz and
    slow-variation checks (`soboheat radius`), then coverings at k = 0, 1,
    2 with both certificates (`soboheat cover`)."""

    LAYERS = ("geometry", "admissible", "covering")
    SAMPLE_POINTS = 200  # seeded points of each cover box
    SAMPLE_CORES = 100  # seeded cores checked against every other core

    def __init__(self, mods: dict, seed: int):
        super().__init__(mods)
        rng = np.random.default_rng(seed)
        adm = self.mods["admissible"]
        self.params = adm.AdmissibilityParams(m=2, eps=EPS, bisection_tol=TOL)
        for name, chart in self.charts(MODELS).items():
            field_box, per_axis, cover_box = _cover_boxes(name, rng)
            if field_box is None:
                shift = rng.uniform(0.0, 4.0, 2)
                pts = np.mod(box_grid([(0.0, 3.2), (0.0, 3.2)], per_axis) + shift, 4.0)
            else:
                pts = box_grid(field_box, per_axis)
            lo = np.array([b[0] for b in cover_box])
            hi = np.array([b[1] for b in cover_box])
            probe = rng.uniform(lo, hi, size=(self.SAMPLE_POINTS, 2))
            cores = rng.random(self.SAMPLE_CORES)
            model = oracle_model(name)
            self.jobs.append((name, self._job(chart, pts, cover_box),
                              self._check(model, probe, cores)))

    def _job(self, chart, pts, box):
        adm, cov = self.mods["admissible"], self.mods["covering"]

        def run():
            fld = adm.radius_field(chart, pts, self.params)
            out = [(fld, adm.uniform_lower_bound(fld), adm.check_lipschitz(fld),
                    adm.check_slow_variation(fld))]
            for k in (0, 1, 2):
                cv = cov.build_admissible_covering(fld, k, box=box)
                out.append((cv, cov.check_core_disjointness(cv),
                            cov.certify_dilated_overlap(cv, box=box)))
            return out

        return run

    def _check(self, model, probe, cores):
        field_check = self._field_check(model)
        cover_checks = [self._cover_check(model, k, probe, cores) for k in (0, 1, 2)]

        def check(out):
            fld = out[0][0]
            return field_check(out[0]) + [p for c, o in zip(cover_checks, out[1:])
                                          for p in c(fld, o)]

        return check

    def _field_check(self, model):
        def check(out):
            fld, _, lip, slow = out
            bad = []
            if fld.degenerate.any():
                bad.append(f"{int(fld.degenerate.sum())} degenerate centers")
            if lip["violations"] or slow["violations"]:
                bad.append(f"program reports lipschitz {lip['violations']}, "
                           f"slow variation {slow['violations']} violations")
            good = ~fld.degenerate
            rp = fld.r_prime[good]
            if np.max(np.abs(fld.r_eps[good] - np.minimum(1.0, rp / 2.0))) > 1e-12:
                bad.append("R != min(1, R'/2)")
            excess = oracles.lipschitz_excess(model, fld.points[good], rp, TOL)
            if excess > 0:
                bad.append(f"|R'(x) - R'(y)| exceeds d(x, y) + 2 tol by {excess:.3g}")
            if model.flat:
                expect = np.minimum(R_CAP, model.gap_to_boundary(fld.points[good]))
                err = float(np.max(np.abs(rp - expect)))
                if err > TOL:
                    bad.append(f"flat R' off the domain cap by {err:.3g}")
            if model.name == "hyperbolic-halfplane":
                free = rp[~fld.truncated[good]]
                if len(free) and float(np.ptp(free)) > TOL:
                    bad.append(f"half-plane R' spread {float(np.ptp(free)):.3g} over isometric centers")
            return bad

        return check

    def _cover_check(self, model, k, probe, cores):
        n = 2
        t_bound = oracles.overlap_bound(n, EPS)
        t_dilated = t_bound * 2.0 ** (n * k)

        def check(fld, out):
            cv, disjoint, dilated = out
            bad = []
            label = f"k={k}: "
            # the radii as the covering defines them: R from the field's
            # certified lower bound, cores 2^-k R / 50, cover balls 5 cores
            if not np.allclose(cv.cover_radii, 5.0 * cv.core_radii, rtol=1e-12, atol=0.0):
                bad.append("cover radii are not 5 core radii")
            if not np.allclose(cv.core_radii, 2.0**-k * cv.r_eps / 50.0, rtol=1e-12, atol=0.0):
                bad.append("core radii are not 2^-k R / 50")
            idx = (cores * len(cv.centers)).astype(int)
            good = ~fld.degenerate
            lo, hi = oracles.radius_bracket(model, cv.centers[idx], fld.points[good],
                                            fld.r_prime[good])
            r = cv.r_eps[idx]
            off = float(np.max(np.maximum(lo - r, r - hi)))
            if off > R_TOL:
                bad.append(f"R at sampled centers off the field's certified bound by {off:.3g}")
            if disjoint["violations"]:
                bad.append(f"program reports {disjoint['violations']} meeting cores")
            if cv.coverage_fraction != 1.0 or cv.overlap_certificate > t_bound:
                bad.append(f"program certificate: coverage {cv.coverage_fraction}, "
                           f"overlap {cv.overlap_certificate} vs T {t_bound:g}")
            if not dilated["holds"] or dilated["max_overlap"] > t_dilated:
                bad.append(f"program dilated overlap {dilated['max_overlap']} vs {t_dilated:g}")
            sure, maybe = oracles.membership_counts(model, probe, cv.centers, cv.cover_radii)
            if (maybe == 0).any():
                bad.append(f"{int((maybe == 0).sum())} sample points in no cover ball")
            if sure.max() > t_bound:
                bad.append(f"sample point in {sure.max()} cover balls > T {t_bound:g}")
            sure, _ = oracles.membership_counts(model, probe, cv.centers, cv.r_eps / 10.0)
            if sure.max() > t_dilated:
                bad.append(f"sample point in {sure.max()} dilated balls > {t_dilated:g}")
            meet = oracles.core_overlaps(model, cv.centers, cv.core_radii, idx)
            if meet:
                bad.append(f"{meet} sampled cores meet another core")
            return [label + b for b in bad]

        return check


# -- heat ---------------------------------------------------------------

T_HORIZON, ALPHA, DT = 0.3, 0.1, 0.01  # 40 steps: (T + alpha)/dt is whole
BUMP_BOXES = {  # solve box, bump width, nodes per axis
    "euclidean": ([(4.0, 6.0), (4.0, 6.0)], 0.3, 81),
    # a smaller box at the same spacing: the chord distance makes this
    # model's ball masks several times dearer than the others'
    "perturbed-euclidean": ([(4.25, 5.75), (4.25, 5.75)], 0.3, 61),
    "hyperbolic-halfplane": ([(-0.5, 0.5), (0.5, 1.5)], 0.15, 81),
    "hyperbolic-ball": ([(-0.4, 0.4), (-0.4, 0.4)], 0.12, 81),
}
TORUS_NODES = 96
TORUS_BOX = MODELS["flat-torus"]["box"]
BIG = ("hyperbolic-halfplane", 161, 0.01, 0.01)  # model, nodes, T, alpha: 2 steps


def _bump(center, width, tfreq):
    center = np.asarray(center, dtype=float)

    def forcing(t, pts):
        r2 = np.sum((pts - center) ** 2, axis=-1)
        return np.exp(-r2 / width**2) * math.sin(tfreq * t)

    return forcing


def _steps(horizon, margin, dt) -> int:
    steps = round((horizon + margin) / dt)
    if abs(steps * dt - (horizon + margin)) > 1e-12:
        raise ValueError("the benchmark keeps (T + alpha)/dt whole")
    return steps


class Heat(Workload):
    """Implicit-Euler solves (`soboheat solve --estimates`): eigen-forced
    scalar and one-form solves on the flat torus, bump-forced solves with
    the estimate experiments on the four bounded models, and one large
    solve of a few steps."""

    LAYERS = ("geometry", "admissible", "norms", "heatflow", "exponents")

    def __init__(self, mods: dict, seed: int):
        super().__init__(mods)
        rng = np.random.default_rng(seed)
        charts = self.charts(MODELS)
        torus = charts["flat-torus"]
        w = 2.0 * math.pi / MODELS["flat-torus"]["chart"]["L"]
        modes = rng.integers(1, 3, 2)
        phases = rng.uniform(0.0, 2.0 * math.pi, 2)
        self.jobs.append(("flat-torus/scalar", *self._torus_scalar(torus, w, modes, phases)))
        modes = rng.integers(1, 3, 2)
        phases = rng.uniform(0.0, 2.0 * math.pi, 2)
        amp = rng.uniform(0.5, 1.5, 2)
        self.jobs.append(("flat-torus/one-form",
                          *self._torus_one_form(torus, w, modes, phases, amp)))
        for name, (box, width, nodes) in BUMP_BOXES.items():
            span = np.array([hi - lo for lo, hi in box])
            mid = np.array([(lo + hi) / 2.0 for lo, hi in box])
            center = mid + rng.uniform(-0.1, 0.1, 2) * span
            forcing = _bump(center, width * rng.uniform(0.9, 1.1), rng.uniform(2.5, 3.5))
            self.jobs.append((f"{name}/bump", self._bump_job(charts[name], box, nodes, forcing),
                              self._bump_check(oracle_model(name), box, nodes)))
        name, nodes, horizon, margin = BIG
        box, width, _ = BUMP_BOXES[name]
        center = np.array([(lo + hi) / 2.0 for lo, hi in box]) + rng.uniform(-0.05, 0.05, 2)
        forcing = _bump(center, width * rng.uniform(0.9, 1.1), rng.uniform(2.5, 3.5))
        self.jobs.append((f"{name}/big",
                          lambda: self._solve(charts[name], box, nodes, forcing, horizon, margin),
                          self._contraction_check(oracle_model(name), box, nodes, horizon, margin)))

    def _solve(self, chart, box, nodes, forcing, horizon=T_HORIZON, margin=ALPHA, kind="scalar"):
        norms, heat = self.mods["norms"], self.mods["heatflow"]
        grid = norms.Grid.over_box(chart, box, nodes)
        prob = heat.ParabolicProblem(grid, forcing, horizon=horizon, margin=margin, dt=DT,
                                     kind=kind)
        sol = heat.solve_parabolic(prob)
        return sol, heat.check_threshold_contraction(sol)

    def _torus_scalar(self, chart, w, k, ph):
        box = TORUS_BOX

        def forcing(t, pts):
            return np.sin(k[0] * w * pts[..., 0] + ph[0]) * np.sin(k[1] * w * pts[..., 1] + ph[1])

        def run():
            return self._solve(chart, box, TORUS_NODES, forcing)

        model = oracle_model("flat-torus")
        contraction = self._contraction_check(model, box, TORUS_NODES)

        def check(out):
            sol, _ = out
            bad = contraction(out)
            x, y = oracles.grid_axes(box, TORUS_NODES, model.periodic)
            h = x[1] - x[0]
            lam = sum(oracles.periodic_mode_eigenvalue(kk * w, h) for kk in k)
            c = oracles.implicit_euler_coefficient(lam, DT, _steps(T_HORIZON, ALPHA, DT))
            expect = c * np.outer(np.sin(k[0] * w * x + ph[0]), np.sin(k[1] * w * y + ph[1]))
            err = float(np.max(np.abs(sol.u.values[-1] - expect)) / np.max(np.abs(expect)))
            if not err <= 1e-7:
                bad.append(f"scalar eigen solve off the recurrence by {err:.3g} (relative)")
            return bad

        return run, check

    def _torus_one_form(self, chart, w, k, ph, amp):
        box = TORUS_BOX

        def forcing(t, pts):
            out = np.zeros(pts.shape)
            out[..., 0] = amp[0] * np.sin(k[0] * w * pts[..., 1] + ph[0])
            out[..., 1] = amp[1] * np.cos(k[1] * w * pts[..., 0] + ph[1])
            return out

        def run():
            return self._solve(chart, box, TORUS_NODES, forcing, kind="one-form")

        model = oracle_model("flat-torus")
        contraction = self._contraction_check(model, box, TORUS_NODES, one_form=True)

        def check(out):
            sol, _ = out
            bad = contraction(out)
            x, y = oracles.grid_axes(box, TORUS_NODES, model.periodic)
            h = x[1] - x[0]
            steps = _steps(T_HORIZON, ALPHA, DT)
            # each component is a mode of the edge Hodge Laplacian on its own
            cx = oracles.implicit_euler_coefficient(
                oracles.periodic_mode_eigenvalue(k[0] * w, h), DT, steps)
            cy = oracles.implicit_euler_coefficient(
                oracles.periodic_mode_eigenvalue(k[1] * w, h), DT, steps)
            ex = cx * amp[0] * np.broadcast_to(np.sin(k[0] * w * y + ph[0])[None, :], (len(x), len(y)))
            ey = cy * amp[1] * np.broadcast_to(np.cos(k[1] * w * x + ph[1])[:, None], (len(x), len(y)))
            expect = np.stack([ex, ey], axis=-1)
            err = float(np.max(np.abs(sol.u.values[-1] - expect)) / np.max(np.abs(expect)))
            if not err <= 1e-7:
                bad.append(f"one-form eigen solve off the recurrence by {err:.3g} (relative)")
            return bad

        return run, check

    def _contraction_check(self, model, box, nodes, horizon=T_HORIZON, margin=ALPHA,
                           one_form=False):
        axes = oracles.grid_axes(box, nodes, model.periodic)
        weights = oracles.quadrature_weights(model, axes)
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        factor = model.factor(mesh)
        steps = _steps(horizon, margin, DT)

        def check(out):
            sol, program = out[0], out[1]
            bad = []
            if len(sol.times) != steps + 1 or abs(sol.times[-1] - (horizon + margin)) > 1e-12:
                bad.append(f"solve ended at t = {sol.times[-1]!r}, not {horizon + margin!r}")
                return bad
            if not program["holds"]:
                bad.append("program reports a contraction failure")
            excess = oracles.contraction_excess(sol.u.values, sol.forcing_values, sol.times,
                                                weights, factor, one_form)
            if not excess <= 1e-8:
                bad.append(f"L2 contraction exceeded by {excess:.3g} (relative)")
            if not one_form and not all(model.periodic):
                u = sol.u.values
                edge = max(np.abs(u[:, [0, -1], :]).max(), np.abs(u[:, :, [0, -1]]).max())
                if edge != 0.0:
                    bad.append(f"Dirichlet boundary value {edge:.3g}")
            return bad

        return check

    def _bump_job(self, chart, box, nodes, forcing):
        adm, heat, expo = self.mods["admissible"], self.mods["heatflow"], self.mods["exponents"]
        params = adm.AdmissibilityParams(m=2, eps=EPS, bisection_tol=TOL)
        span = min(hi - lo for lo, hi in box)
        margin = 0.25 * span
        field_box = [(chart.lo[i] + margin, chart.hi[i] - margin) for i in range(2)]
        field_pts = box_grid(field_box, 5)
        center = np.array([(lo + hi) / 2.0 for lo, hi in box])
        R = 0.4 * span

        def run():
            sol, contraction = self._solve(chart, box, nodes, forcing)
            fld = adm.radius_field(chart, field_pts, params)
            table = expo.bootstrap_table(2, 2, 4)
            loc = heat.local_estimate_experiment(sol, (center, R), r=float(table.r))
            loc_half = heat.local_estimate_experiment(sol, (center, R / 2.0), r=float(table.r))
            glob = heat.global_estimate_experiment(sol, fld, table)
            return sol, contraction, loc, loc_half, glob

        return run

    def _bump_check(self, model, box, nodes):
        contraction = self._contraction_check(model, box, nodes)

        def check(out):
            bad = contraction(out)
            _, _, loc, loc_half, glob = out
            c1, c2 = loc["c_emp"], loc_half["c_emp"]
            if not (_finite_positive(c1) and _finite_positive(c2)):
                bad.append(f"local estimate constants {c1!r}, {c2!r}")
            elif not 0.25 <= c1 / c2 <= 4.0:
                bad.append(f"local constant moved by {c1 / c2:.3g} from R to R/2")
            if glob.get("vacuous") or not _finite_positive(glob["ratio"]):
                bad.append(f"global estimate ratio {glob['ratio']!r}")
            return bad

        return check


# -- balls --------------------------------------------------------------

# balls per model per pass: perturbed-euclidean's chord-distance volumes
# cost about eight times the others', so it gets fewer
BALLS = {"euclidean": 8, "perturbed-euclidean": 3, "hyperbolic-halfplane": 8,
         "hyperbolic-ball": 8, "flat-torus": 8}
QUADRATURE = 256  # volume_of_ball resolution: 256^2 cells per ball
CMT_ORDER = 3


def _ball_inputs(name, rng):
    """(center, radius) of a ball well inside the working domain."""
    if name in ("euclidean", "perturbed-euclidean"):
        return rng.uniform(3.0, 7.0, 2), rng.uniform(0.5, 1.5)
    if name == "hyperbolic-halfplane":
        # y e^R < 4, y e^-R > 0.25 and |x| + y sinh R < 2
        return np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.25)]), rng.uniform(0.3, 0.8)
    if name == "hyperbolic-ball":
        return rng.uniform(-0.07, 0.07, 2), rng.uniform(0.3, 0.6)
    return rng.uniform(0.0, 4.0, 2), rng.uniform(0.5, 1.5)


class Balls(Workload):
    """`volume_of_ball` and `cmt_bound_check` at m = 3 on seeded balls of
    every model."""

    LAYERS = ("geometry",)

    def __init__(self, mods: dict, seed: int):
        super().__init__(mods)
        rng = np.random.default_rng(seed)
        charts = self.charts(MODELS)
        for name, chart in charts.items():
            model = oracle_model(name)
            for j in range(BALLS[name]):
                center, radius = _ball_inputs(name, rng)
                self.jobs.append((f"{name}/ball{j}", self._job(chart, center, radius),
                                  self._check(model, radius)))

    def _job(self, chart, center, radius):
        geo = self.mods["geometry"]

        def run():
            return (geo.volume_of_ball(chart, center, radius, quadrature_resolution=QUADRATURE),
                    geo.cmt_bound_check(chart, center, radius, CMT_ORDER))

        return run

    def _check(self, model, radius):
        tol = oracles.area_tolerance(QUADRATURE, 8)

        def check(out):
            vol, cmt = out
            bad = []
            if model.name == "perturbed-euclidean":
                lo, hi = oracles.perturbed_area_bracket(model.a, radius)
                if not lo * (1 - tol) <= vol <= hi * (1 + tol):
                    bad.append(f"volume {vol!r} outside [{lo:.6g}, {hi:.6g}]")
            else:
                area = oracles.disc_area(model, radius)
                if not abs(vol - area) <= tol * area:
                    bad.append(f"volume {vol!r} vs {area!r}: relative {abs(vol - area) / area:.3g}")
            witness = cmt["witness_constant"]
            if not (cmt["holds"] and math.isfinite(witness)):
                bad.append(f"CMT witness {witness!r}")
            elif model.flat and witness != 0.0:
                bad.append(f"CMT witness {witness!r} on a flat model")
            return bad

        return check


WORKLOADS = {"cover": Cover, "heat": Heat, "balls": Balls}
