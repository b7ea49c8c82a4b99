"""The span tracer of the benchmark (bench/spans.py) wraps package
functions by name; a renamed function would only show as a crashed traced
run.  This test reads the tracer's TARGETS table from that file and
checks that every name in it resolves in the package."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets() -> dict:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def test_traced_names_resolve_in_the_package():
    targets = _targets()
    assert targets
    for label, names in targets.items():
        for module, *path in names:
            obj = importlib.import_module(f"soboheat.{module}")
            for attr in path:
                assert hasattr(obj, attr), f"{label}: soboheat.{module}.{'.'.join(path)} is missing"
                obj = getattr(obj, attr)
            assert callable(obj), f"{label}: soboheat.{module}.{'.'.join(path)} is not callable"
