import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from soboheat import cli
from soboheat.geometry import CATALOG


def run(argv):
    return cli.main(argv)


def test_radius_euclidean_all_ones(tmp_path):
    code = run(["radius", "--model", "euclidean", "--grid", "6x6",
                "--margin", "2.1", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "radius.csv").read_text().splitlines()
    assert rows[0].startswith("x1,x2,")
    for row in rows[1:]:
        r_eps = float(row.split(",")[3])
        assert abs(r_eps - 1.0) <= 1e-3
    summary = json.loads((tmp_path / "radius_summary.json").read_text())
    assert summary["uniform_lower_bound"] == pytest.approx(1.0, abs=1e-3)
    assert summary["schema_version"] == 1


def test_radius_unknown_model(tmp_path, capsys):
    code = run(["radius", "--model", "moebius", "--out", str(tmp_path)])
    assert code == 2
    assert "moebius" in capsys.readouterr().err


def test_exponents_spot_values(tmp_path, capsys):
    code = run(["exponents", "--m", "2", "--n", "4", "--r", "4", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "beta=3" in out and "gamma=12" in out and "delta=10" in out
    payload = json.loads((tmp_path / "exponents.json").read_text())
    assert payload["beta"] == "3"
    assert payload["k_star"] == 1


def test_exponents_functions_variant(tmp_path):
    code = run(["exponents", "--m", "2", "--n", "4", "--r", "4",
                "--variant", "functions", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "exponents.json").read_text())
    assert payload["variant"] == "functions"
    assert payload["gamma"] == "11"


def test_exponents_rejects_r_below_two(tmp_path):
    assert run(["exponents", "--m", "2", "--n", "4", "--r", "1",
                "--out", str(tmp_path)]) == 2


def test_cover_writes_certificates(tmp_path):
    code = run(["cover", "--model", "euclidean", "--k", "0", "--grid", "4x4",
                "--box", "4.3:5.7,4.3:5.7", "--cover-box", "4.5:5.5,4.5:5.5",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "covering.json").read_text())
    assert payload["coverage_fraction"] == 1.0
    assert payload["core_disjointness"]["violations"] == 0
    assert payload["dilated_overlap"]["holds"]
    assert payload["overlap"] <= payload["T_bound"]


def test_solve_zero_forcing_all_zero(tmp_path):
    code = run(["solve", "--model", "euclidean", "--box", "4:6,4:6",
                "--grid", "17x17", "--forcing", "zero", "--T", "0.2",
                "--alpha", "0.1", "--dt", "0.05", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "solve_timeseries.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)
    rep = json.loads((tmp_path / "solve_report.jsonl").read_text().splitlines()[0])
    assert rep["kind"] == "contraction" and rep["holds"]


def test_solve_eigen_forcing_closed_form(tmp_path):
    import math

    code = run(["solve", "--model", "flat-torus", "--L", str(2 * math.pi),
                "--forcing", "eigen", "--grid", "32x32", "--T", "0.5",
                "--alpha", "0", "--dt", "0.005", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "solve_timeseries.csv").read_text().splitlines()[1:]
    t_last, u_last, _ = (float(v) for v in rows[-1].split(","))
    # closed form: u(t) = (1 - e^{-2t})/2 sin x1 sin x2
    amp = (1 - math.exp(-2 * t_last)) / 2
    exact = amp * math.pi  # ||sin sin||_L2 = pi on the 2pi-torus
    assert u_last == pytest.approx(exact, rel=2e-2)


def test_solve_bad_dt(tmp_path):
    assert run(["solve", "--model", "euclidean", "--box", "4:6,4:6",
                "--dt", "0", "--out", str(tmp_path)]) == 2


def test_solve_estimates_reports(tmp_path):
    code = run(["solve", "--model", "euclidean", "--box", "4:6,4:6",
                "--grid", "17x17", "--T", "0.2", "--alpha", "0.1", "--dt", "0.02",
                "--estimates", "--out", str(tmp_path)])
    assert code == 0
    kinds = [json.loads(line)["kind"]
             for line in (tmp_path / "solve_report.jsonl").read_text().splitlines()]
    assert kinds == ["contraction", "local-estimate", "global-estimate"]


@pytest.mark.parametrize("forcing", ["bump", "eigen", "zero"])
def test_solve_one_form_for_every_forcing(tmp_path, forcing):
    argv = ["solve", "--model", "flat-torus", "--grid", "8x8", "--kind", "one-form",
            "--forcing", forcing, "--T", "0.02", "--alpha", "0.01", "--dt", "0.01"]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(argv + ["--out", str(out)]) == 0
    names = ["solve_timeseries.csv", "solve_plot.dat", "solve_report.jsonl"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    rep = json.loads((outs[0] / "solve_report.jsonl").read_text().splitlines()[0])
    assert rep["holds"]


def test_verify_unknown_suite(tmp_path, capsys):
    assert run(["verify", "nosuchsuite", "--out", str(tmp_path)]) == 2
    assert "nosuchsuite" in capsys.readouterr().err


def test_verify_exponents_suite(tmp_path, capsys):
    code = run(["verify", "exponents", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion  1" in out and "[PASS] criterion  2" in out
    lines = (tmp_path / "verify_exponents.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["passed"] for line in lines)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "euclidean", "grid": "4x4", "margin": 2.1}))
    out = tmp_path / "out"
    code = run(["radius", "--config", str(cfg), "--grid", "5x5", "--out", str(out)])
    assert code == 0
    rows = (out / "radius.csv").read_text().splitlines()
    assert len(rows) == 1 + 25  # flag overrides the config's 4x4


def test_config_names_the_keys_the_subcommand_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "euclidean", "esp": 0.01, "cover-box": "4:5,4:5"}))
    assert run(["radius", "--config", str(cfg), "--grid", "2x2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "'cover-box', 'esp'" in err and "'model'" not in err


def test_config_accepts_the_flags_and_frequency(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "perturbed-euclidean", "a": 0.2, "frequency": 2.0,
                               "grid": "2x2", "margin": 4, "eps": 0.2, "tol": 1e-3, "m": 2,
                               "n": 2, "out": str(tmp_path)}))
    assert run(["radius", "--config", str(cfg)]) == 0
    assert len((tmp_path / "radius.csv").read_text().splitlines()) == 1 + 4


def test_config_parse_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["radius", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize("argv", [
    # (T + alpha)/dt = 5/3 is not a whole number of steps
    ["solve", "--model", "flat-torus", "--grid", "8x8", "--T", "0.5",
     "--alpha", "0", "--dt", "0.3"],
    # one-forms need a fully periodic grid
    ["solve", "--model", "euclidean", "--box", "4:6,4:6", "--grid", "8x8",
     "--kind", "one-form"],
    ["solve", "--model", "euclidean", "--box", "4:6,4:6", "--grid", "1x1"],
    ["radius", "--model", "euclidean", "--grid", "0x0"],
    ["exponents", "--m", "2", "--n", "4", "--r", "1/0"],
    ["cover", "--model", "euclidean", "--k", "-1", "--grid", "4x4",
     "--box", "4.3:5.7,4.3:5.7", "--cover-box", "4.5:5.5,4.5:5.5"],
    # the margin empties the box: reversed on --box, empty on the working box
    ["radius", "--model", "euclidean", "--grid", "3x3", "--box", "4:5,4:5", "--margin", "0.8"],
    ["radius", "--model", "hyperbolic-ball", "--grid", "3x3", "--margin", "0.6"],
    # chart parameters: non-finite, non-positive side, unsupported dimension
    ["radius", "--model", "perturbed-euclidean", "--grid", "2x2", "--config", {"frequency": "nan"}],
    ["radius", "--model", "perturbed-euclidean", "--grid", "2x2", "--config", {"a": "inf"}],
    ["solve", "--model", "flat-torus", "--grid", "8x8", "--config", {"L": -3}],
    ["radius", "--model", "flat-torus", "--grid", "2x2", "--L", "0"],
    ["radius", "--model", "flat-torus", "--grid", "2x2", "--L", "-2"],
    ["radius", "--model", "flat-torus", "--grid", "2x2", "--L", "nan"],
    ["radius", "--model", "hyperbolic-ball", "--grid", "2", "--n", "3"],
    ["radius", "--model", "hyperbolic-halfplane", "--grid", "2", "--n", "3"],
    ["radius", "--model", "perturbed-euclidean", "--grid", "2", "--n", "4"],
    ["radius", "--model", "euclidean", "--grid", "2", "--n", "1"],
    # boxes that leave the working box, periodic axes included
    ["cover", "--model", "flat-torus", "--grid", "3x3", "--cover-box", "3.4:4.6,1:2"],
    ["radius", "--model", "flat-torus", "--grid", "9x9", "--box", "0:8,0:8"],
    ["solve", "--model", "euclidean", "--grid", "8x8", "--box", "9:11,4:6"],
    # derivative orders above 3, flat and non-flat
    ["radius", "--model", "euclidean", "--grid", "2x2", "--m", "4"],
    ["radius", "--model", "hyperbolic-ball", "--grid", "2x2", "--m", "4"],
    # a config path that cannot be read: missing, or a directory
    ["radius", "--model", "euclidean", "--grid", "2x2", "--config", "no-such-config.json"],
    ["radius", "--model", "euclidean", "--grid", "2x2", "--config", "."],
    # config keys the subcommand does not read
    ["radius", "--model", "euclidean", "--grid", "2x2", "--config", {"esp": 0.01}],
    ["radius", "--model", "euclidean", "--grid", "2x2", "--config", {"density": 4}],
    ["exponents", "--m", "2", "--n", "4", "--r", "4", "--config", {"frequency": 2.0}],
    # a bisection tolerance that is not positive
    ["radius", "--model", "euclidean", "--grid", "2x2", "--tol", "0"],
    ["radius", "--model", "euclidean", "--grid", "2x2", "--tol", "nan"],
    # one field center on a corner of the box: no radius to cover with
    ["cover", "--model", "euclidean", "--grid", "1x1", "--cover-box", "4.8:5.2,4.8:5.2"],
    # a horizon or step that is not finite, or a step count that overflows
    ["solve", "--model", "euclidean", "--grid", "5x5", "--T", "inf"],
    ["solve", "--model", "euclidean", "--grid", "5x5", "--dt", "1e-320"],
    ["solve", "--model", "euclidean", "--grid", "5x5", "--dt", "nan"],
    # a bump forcing with no width, or with a time frequency that is not finite
    ["solve", "--model", "euclidean", "--grid", "5x5", "--width", "0"],
    ["solve", "--model", "euclidean", "--grid", "5x5", "--width", "nan"],
    ["solve", "--model", "euclidean", "--grid", "5x5", "--tfreq", "inf"],
    # estimates need 3 nodes on every axis with ends: checked before the solve
    ["solve", "--model", "euclidean", "--grid", "2x33", "--estimates"],
    # config numbers read as the flags read them: whole n, m and k, no booleans
    ["cover", "--model", "euclidean", "--grid", "4x4", "--box", "4.3:5.7,4.3:5.7",
     "--cover-box", "4.5:5.5,4.5:5.5", "--config", {"k": 1.7}],
    ["cover", "--model", "euclidean", "--grid", "4x4", "--box", "4.3:5.7,4.3:5.7",
     "--cover-box", "4.5:5.5,4.5:5.5", "--config", {"k": True}],
    ["radius", "--model", "euclidean", "--grid", "2x2", "--config", {"m": 2.9}],
    ["radius", "--model", "euclidean", "--grid", "2", "--config", {"n": 3.9}],
    ["radius", "--model", "euclidean", "--grid", "2x2", "--config", {"tol": True}],
    ["exponents", "--config", {"m": 2, "n": 4.5, "r": 4}],
    ["exponents", "--config", {"m": True, "n": 4, "r": 4}],
    ["solve", "--model", "euclidean", "--grid", "5x5", "--T", "0.02", "--dt", "0.01",
     "--config", {"alpha": False}],
    ["solve", "--model", "euclidean", "--grid", "5x5", "--config", {"estimates": 1}],
    ["solve", "--model", "euclidean", "--grid", "5x5", "--config", {"estimates": "yes"}],
    # read before the solve, whose files would otherwise be written first
    ["solve", "--model", "euclidean", "--grid", "5x5", "--T", "0.02", "--alpha", "0.01",
     "--estimates", "--config", {"m": 2.5}],
    # a config file that is not UTF-8 text: the error names the file
    ["radius", "--model", "euclidean", "--grid", "2x2", "--config", b"\xff\xfe{}"],
])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    # a dict stands for a config file with that content, bytes for its raw bytes
    cfg = tmp_path / "cfg.json"
    for a in argv:
        if isinstance(a, dict):
            cfg.write_text(json.dumps(a))
        if isinstance(a, bytes):
            cfg.write_bytes(a)
    raw = any(isinstance(a, bytes) for a in argv)
    argv = [str(cfg) if isinstance(a, (dict, bytes)) else a for a in argv]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
    assert not raw or str(cfg) in err
    # the error names the bad input, not the default margin it met later
    assert "--margin" in argv or "leaves an empty box" not in err
    assert [p.name for p in tmp_path.iterdir() if p != cfg] == []


def refusing_lattice(real, limit=10**8):
    """A stand-in for geometry.Lattice that refuses, as numpy does when it
    cannot allocate, every lattice of more than limit nodes."""

    def lattice(lo, hi, count, endpoint):
        size = math.prod(int(c) for c in np.broadcast_to(count, (len(lo),)))
        if size > limit:
            raise MemoryError(f"Unable to allocate {size * len(lo) * 8 / 2**30:.3g} GiB for an array "
                              f"with shape ({size}, {len(lo)}) and data type float64")
        return real(lo, hi, count, endpoint)

    return lattice


@pytest.mark.parametrize("argv", [
    ["radius", "--model", "euclidean", "--grid", "100000x100000"],
    ["cover", "--model", "euclidean", "--grid", "4", "--box", "4.3:5.7,4.3:5.7",
     "--cover-box", "4.5:5.5,4.5:5.5", "--k", "40"],
])
def test_refused_allocation_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    """A lattice too large to allocate is one error line and exit 2.  The
    refusal comes from a stand-in: a real request of that size could be
    granted under memory overcommit and then fault its pages in."""
    from soboheat import admissible, covering, geometry

    for module in (admissible, covering):
        monkeypatch.setattr(module, "Lattice", refusing_lattice(geometry.Lattice))
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,values", [
    ("radius", {"model": "perturbed-euclidean", "n": 2, "a": 0.2, "m": 2, "eps": 0.25,
                "tol": 0.002, "grid": "3x3", "margin": 4}),
    ("cover", {"model": "euclidean", "k": 1, "m": 2, "eps": 0.2, "grid": "4x4",
               "box": "4.3:5.7,4.3:5.7", "cover-box": "4.5:5.5,4.5:5.5"}),
    ("exponents", {"m": 2, "n": 3, "r": 2.3}),
    ("solve", {"model": "euclidean", "box": "4:6,4:6", "grid": "17x17", "width": 0.3,
               "tfreq": 2.5, "T": 0.2, "alpha": 0.1, "dt": 0.02, "estimates": True, "m": 2,
               "r": 2.3}),
])
def test_config_file_and_flags_write_the_same_files(tmp_path, command, values):
    """The same values, once as flags and once as JSON numbers in a config
    file, give byte-identical outputs; r = 2.3 is 23/10 either way."""
    flags = [command]
    for key, val in values.items():
        flags += [f"--{key}"] if val is True else [f"--{key}", str(val)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    outs = [tmp_path / "flags", tmp_path / "file"]
    assert run(flags + ["--out", str(outs[0])]) == 0
    assert run([command, "--config", str(cfg), "--out", str(outs[1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("name", ["euclidean", "perturbed-euclidean", "flat-torus"])
def test_chart_from_config_passes_the_dimension(name):
    assert cli._chart_from_config({"model": name, "n": 3}).n == 3


def test_margin_on_periodic_axes_is_ignored(tmp_path):
    assert run(["radius", "--model", "flat-torus", "--grid", "3x3", "--margin", "5",
                "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, prefix", [
    (["exponents", "--m", "2", "--n", "4", "--r", "-x"], "soboheat exponents: error: "),
    (["exponents", "--m", "2", "--n", "4", "--r", "4", "--bogus"], "soboheat: error: "),
    (["bogus"], "soboheat: error: "),
    ([], "soboheat: error: "),
])
def test_usage_errors_print_one_error_line(capsys, argv, prefix):
    assert run(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert captured.out == ""


def test_help_keeps_its_usage_text(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["exponents", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: soboheat exponents")


@pytest.mark.parametrize("spec", ["1:inf,2:3", "4.5:nan,4.5:5.5", "-inf:0,0:1"])
def test_parse_box_rejects_non_finite_bounds(spec):
    with pytest.raises(cli.ConfigError, match="not finite"):
        cli._parse_box(spec, 2)


def test_exponents_imports_no_heavy_modules(tmp_path):
    out = str(tmp_path)
    # (calls, modules they must leave unloaded)
    runs = [
        (f"assert cli.main(['exponents', '--m', '2', '--n', '4', '--r', '4', '--out', {out!r}]) == 0\n",
         ("sympy", "scipy")),
        # coverings screen pairs on their own lattices
        (f"assert cli.main(['cover', '--model', 'flat-torus', '--grid', '3x3', '--out', {out!r}]) == 0\n",
         ("sympy", "scipy")),
        # closed-form factor jets: charts and radius fields need no symbolic algebra
        ("from soboheat.geometry import CATALOG, make_chart\n"
         "charts = [make_chart(name) for name in CATALOG]\n"
         "assert cli.main(['radius', '--model', 'perturbed-euclidean', '--grid', '2x2', '--margin', '4',"
         f" '--out', {out!r}]) == 0\n",
         ("sympy", "scipy")),
        # the chord kernel and the ball volumes on it stay numpy-only
        ("from soboheat.geometry import CATALOG, make_chart, volume_of_ball\n"
         "charts = {name: make_chart(name) for name in CATALOG}\n"
         "assert volume_of_ball(charts['perturbed-euclidean'], [5.0, 5.0], 1.0) > 0\n",
         ("scipy",)),
        # heat steps on both solve paths, one-forms, the estimates and the
        # heat criteria run on numpy alone
        ("".join(f"assert cli.main({argv + ['--out', out]!r}) == 0\n" for argv in [
            ["solve", "--model", "flat-torus", "--grid", "16x16"],
            ["solve", "--model", "perturbed-euclidean", "--box", "4:6,4:6", "--grid", "17x17"],
            ["solve", "--model", "hyperbolic-ball", "--grid", "17x17"],
            ["solve", "--model", "flat-torus", "--grid", "16x16", "--kind", "one-form"],
            ["solve", "--model", "euclidean", "--box", "4:6,4:6", "--grid", "17x17",
             "--estimates"],
            ["verify", "heatflow"],
         ]), ("sympy", "scipy")),
        # the heat workload's layers, imported
        ("import soboheat.geometry, soboheat.admissible, soboheat.norms, soboheat.heatflow, "
         "soboheat.exponents\n", ("scipy",)),
    ]
    for calls, heavy in runs:
        code = ("import sys\nfrom soboheat import cli\n" + calls
                + f"print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy!r}))\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert res.stdout.splitlines()[-1] == "[]"


def _exits_0_or_2_with_one_error_line(argv, out):
    """Run the CLI in process, with --out unless out is None: exit 0, or
    exit 2 with one `error:` line.  Returns the exit code."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ([] if out is None else ["--out", str(out)]))
    err = stderr.getvalue()
    assert code in (0, 2), err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    return code


@pytest.mark.parametrize("out", [5, None, ["out"], "cfg.json"])
@pytest.mark.parametrize("argv", [
    ["exponents", "--m", "2", "--n", "4", "--r", "4"],
    ["solve", "--model", "euclidean", "--box", "4:6,4:6", "--grid", "5x5", "--T", "0.02",
     "--alpha", "0", "--dt", "0.01"],
], ids=["exponents", "solve"])
def test_config_out_that_is_no_directory_exits_2(tmp_path, monkeypatch, argv, out):
    """A config `out` that is not a string, or names a file, is a bad input
    like any other, not a traceback from Path; nothing is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": out}))
    monkeypatch.chdir(tmp_path)
    assert _exits_0_or_2_with_one_error_line(argv + ["--config", str(cfg)], None) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@settings(max_examples=200, deadline=None)
@given(m=st.integers(-2, 10), n=st.integers(-2, 10),
       r=st.text(alphabet="0123456789/.-x ", max_size=8))
def test_fuzz_exponents_exits_0_or_2_with_one_error_line(tmp_path_factory, m, n, r):
    _exits_0_or_2_with_one_error_line(["exponents", f"--m={m}", f"--n={n}", f"--r={r}"],
                                      tmp_path_factory.getbasetemp() / "fuzz-exponents")


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(max_size=12),
                      st.text(alphabet="0123456789.:,x-+einfa ", max_size=16)))
def test_fuzz_grid_and_box_specs(text):
    try:
        counts = cli._parse_grid(text, 2)
    except cli.ConfigError:
        pass
    else:
        assert len(counts) == 2 and all(isinstance(c, int) and c >= 1 for c in counts)
    try:
        box = cli._parse_box(text, 2)
    except cli.ConfigError:
        pass
    else:
        assert len(box) == 2
        assert all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in box)


NODE_STEPS = 40_000  # bound on steps x grid nodes per example


@st.composite
def solve_configs(draw):
    n = draw(st.sampled_from([2, 2, 2, 3]))
    counts = [draw(st.one_of(st.integers(2, 24), st.integers(1, 24))) for _ in range(n)]
    nodes = math.prod(counts)
    dt = draw(st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.1]))
    steps = draw(st.integers(1, max(1, min(200, NODE_STEPS // nodes))))
    alpha_steps = draw(st.integers(0, steps - 1))
    # T and alpha as whole numbers of dt, or a T off the step lattice
    T = (steps - alpha_steps) * dt * draw(st.sampled_from([1.0, 1.0, 1.37]))
    return [
        "solve", "--model", draw(st.sampled_from(CATALOG)), f"--n={n}",
        "--kind", draw(st.sampled_from(["scalar", "scalar", "one-form"])),
        "--forcing", draw(st.sampled_from(["bump", "eigen", "zero"])),
        "--grid", "x".join(map(str, counts)),
        f"--dt={dt!r}", f"--T={T!r}", f"--alpha={alpha_steps * dt!r}",
    ]


@settings(max_examples=60, deadline=None)
@given(argv=solve_configs())
def test_fuzz_solve_exits_0_or_2_with_one_error_line(tmp_path_factory, argv):
    _exits_0_or_2_with_one_error_line(argv, tmp_path_factory.getbasetemp() / "fuzz-solve")


# per model: a point inside the working domain and the half-width of a
# field box around it that a covering resolves in a few hundred balls
SITES = {"euclidean": (5.0, 0.4), "perturbed-euclidean": (5.0, 0.2),
         "hyperbolic-halfplane": ((0.0, 1.0), 0.01), "hyperbolic-ball": (0.0, 0.03),
         "flat-torus": (0.5, 0.1)}
FIELD_CENTERS = 36  # bound on radius-field centers per example
COVER_SCALE = 0.25  # bound on (2^k w)^n, w the cover box's share of the site


def _site_box(name, n, scale):
    point, half = SITES[name]
    return ",".join(f"{p - scale * half!r}:{p + scale * half!r}" for p in map(float, np.resize(point, n)))


# per flag: values that a run accepts, and values it must reject
GOOD = {"m": [1, 2, 3], "eps": [0.2, 0.05, 1 / 3], "tol": [1e-3, 1e-2, 1e-300],
        "a": [0.1, 0.2], "L": [4.0, 1.0], "k": [0, 1, 2], "scale": [0.5, 0.25, 0.1, 0.05]}
BAD = {"m": [0, 4], "eps": [0.0, -0.1, 0.5, math.nan], "tol": [0.0, -1e-3, math.nan, math.inf],
       "a": [1.0, -0.2, math.nan], "L": [0.0, -2.0, math.inf], "k": [-1],
       "margin": [6.0, math.nan], "scale": [1000.0], "box": [1000.0]}


@st.composite
def field_configs(draw, command):
    """argv of a radius or cover run: valid, or with one bad value.  Grid
    sizes include a million points per axis, and a cover box of scale w
    at level k resolves into ~(2^k w)^n times a site's balls: validation
    rejects the grids of more than FIELD_CENTERS centers and the covers
    above COVER_SCALE before they run."""
    name = draw(st.sampled_from(CATALOG))
    n = draw(st.sampled_from([2, 2, 3] if name in ("euclidean", "perturbed-euclidean", "flat-torus") else [2]))
    flags = ["grid", "n", "m", "eps", "margin", "box"] + {"perturbed-euclidean": ["a"], "flat-torus": ["L"]}.get(name, [])
    flags += ["tol"] if command == "radius" else ["k", "scale"]
    fault = draw(st.sampled_from([None] * len(flags) + flags))
    value = {flag: draw(st.sampled_from(BAD[flag] if flag == fault else GOOD[flag]))
             for flag in GOOD if flag in flags}
    counts = [draw(st.integers(1, 6)) for _ in range(n)]
    if fault == "grid":
        counts[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, -1, 1_000_000]))
    assume(math.prod(abs(c) for c in counts) <= FIELD_CENTERS)
    half = SITES[name][1]
    margin = draw(st.sampled_from(BAD["margin"])) if fault == "margin" else draw(st.sampled_from([0.0, 0.2])) * half
    argv = [command, "--model", name, f"--n={draw(st.sampled_from([1, 4])) if fault == 'n' else n}",
            f"--grid={'x'.join(map(str, counts))}", f"--margin={margin!r}"]
    argv += [f"--{flag}={value[flag]!r}" for flag in ("m", "eps", "tol", "a", "L", "k") if flag in value]
    # a covering needs the field sampled around its box
    if fault == "box" or command == "cover" or draw(st.booleans()):
        argv.append(f"--box={_site_box(name, n, draw(st.sampled_from(BAD['box'])) if fault == 'box' else 1.0)}")
    if command == "cover":
        scale = value["scale"]
        assume(fault == "scale" or (2 ** value["k"] * scale) ** n <= COVER_SCALE)
        argv.append(f"--cover-box={_site_box(name, n, scale)}")
    return argv


@settings(max_examples=40, deadline=None)
@given(argv=field_configs("radius"))
def test_fuzz_radius_exits_0_or_2_with_one_error_line(tmp_path_factory, argv):
    _exits_0_or_2_with_one_error_line(argv, tmp_path_factory.getbasetemp() / "fuzz-radius")


@settings(max_examples=25, deadline=None)
@given(argv=field_configs("cover"))
def test_fuzz_cover_exits_0_or_2_with_one_error_line(tmp_path_factory, argv):
    _exits_0_or_2_with_one_error_line(argv, tmp_path_factory.getbasetemp() / "fuzz-cover")
