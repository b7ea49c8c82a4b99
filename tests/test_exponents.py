import ast
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from soboheat import exponents as ex


def test_k_star_spot_values():
    # hand arithmetic: k* = ceil(n (r-2) / (2 m r))
    assert ex.k_star(2, 4, 4) == 1
    assert ex.k_star(2, 3, 2) == 0
    assert ex.k_star(1, 4, 10) == 2
    assert ex.k_star(1, 2, Fraction(5, 2)) == 1


def test_k_star_rejects_r_below_two():
    with pytest.raises(ValueError):
        ex.k_star(2, 3, Fraction(3, 2))


def test_integrability_chain_climbs_to_target():
    chain = ex.integrability_chain(1, 4, 10)
    assert chain[0] == 2
    # 1/rho_k = 1/2 - k/4: rho_1 = 4, rho_2 = inf
    assert chain[1] == 4
    assert chain[2] is math.inf
    # the last finite-or-infinite rung dominates the target integrability
    assert chain[-1] is math.inf or chain[-1] >= 10


def test_table_spot_values_m2_n4_r4():
    t = ex.bootstrap_table(2, 4, 4)
    assert t.k_star == 1
    assert (t.beta, t.gamma, t.delta) == (3, 12, 10)
    assert t.a[0] == 3 and t.b[0] == 4 and t.d[0] == 2
    assert t.b[1] == 12 and t.d[1] == 10


def test_table_spot_values_m2_n3_r2():
    t = ex.bootstrap_table(2, 3, 2)
    assert t.k_star == 0
    assert t.beta == 2
    assert t.gamma == t.b[0] == 4
    assert t.delta == t.d[0] == 2


def test_functions_variant_uses_smaller_steps():
    t = ex.bootstrap_table(2, 4, 4, variant="functions")
    assert t.b[1] == t.b[0] + (4 * 2 - 1)
    assert t.d[1] == 2 + (4 * 2 - 1)
    assert t.gamma == (4 * 2 - 1) * 1 + 2 * 2
    assert t.delta == 2 + (4 * 2 - 1) * 1
    assert t.beta == min(Fraction(2) + 2 - 1, Fraction(8))


@given(
    m=st.integers(1, 4),
    n=st.integers(2, 4),
    num=st.integers(2, 40),
    den=st.integers(1, 10),
)
def test_closed_forms_match_recurrence(m, n, num, den):
    r = Fraction(num, den)
    if r < 2:
        r = 2 + r
    for variant in ("sections", "functions"):
        t = ex.bootstrap_table(m, n, r, variant)
        step = 4 * m if variant == "sections" else 4 * m - 1
        for k in range(t.k_star + 1):
            assert t.b[k] == step * k + 2 * m
            if k:
                assert t.d[k] == t.b[k] - m if variant == "sections" else True
        # a_k is non-increasing, beta equals its terminal value
        assert all(x >= y for x, y in zip(t.a, t.a[1:]))
        assert t.beta == t.a[-1]


@given(m=st.integers(1, 4), n=st.integers(2, 4))
def test_weight_spec_scales_with_r(m, n):
    t = ex.bootstrap_table(m, n, 4)
    ws = ex.weight_spec(t)
    assert ws.w1_exp == 4 * t.delta
    assert ws.w2_exp == 4 * t.gamma
    assert ws.w3_exp == 4 * t.beta


def test_render_table_mentions_terminals():
    t = ex.bootstrap_table(2, 4, 4)
    text = ex.render_table(t)
    assert "beta=3" in text and "gamma=12" in text and "delta=10" in text


def test_no_assert_in_the_package():
    """Guards stay in force under python -O, which strips asserts."""
    src = Path(ex.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_sympy_import_in_the_package():
    """Every factor jet is a closed form, so sympy is a test oracle only;
    coverings screen pairs on their own lattices, so no scipy.spatial."""
    src = Path(ex.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for banned in ("sympy", "scipy.spatial"):
                if any(name == banned or name.startswith(banned + ".") for name in names):
                    found.append(f"{path.name}:{node.lineno} {banned}")
    assert found == []


def test_exponents_report_is_the_same_under_python_O(tmp_path):
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / ("opt" if flags else "plain")
        res = subprocess.run([sys.executable, *flags, "-m", "soboheat.cli", "exponents", "--m", "2",
                              "--n", "4", "--r", "4", "--out", str(out)],
                             capture_output=True, text=True, check=True)
        reports.append((res.stdout.replace(str(out), ""), (out / "exponents.json").read_text()))
    assert reports[0] == reports[1]
