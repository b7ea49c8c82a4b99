"""The span tracer of the benchmark (bench/spans.py) wraps package
functions by name; a renamed function would only show as a crashed traced
run.  The first test reads the tracer's TARGETS table from that file and
checks that every name in it resolves in the package.

The second test keeps the package free of definitions that nothing uses:
every function, class and method must be reached from the command line
(`cli`), the verification suites (`acceptance`), import-time module code or
the tracer's TARGETS."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "soboheat"
ENTRY_MODULES = ("cli", "acceptance")


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes) -> set:
    """Short names that Name and Attribute nodes in `nodes` refer to,
    not descending into nested definitions (they are definitions of
    their own)."""
    found, todo = set(), list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(child for child in ast.iter_child_nodes(node) if not isinstance(child, _DEFS))
    return found


def _reference_graph():
    """(module, qualname) -> the definitions it reaches, for every
    function, class and method of the package, nested ones included; and
    the definitions that import-time module code refers to."""
    names, dunders, module_level = {}, {}, set()

    def visit(module, body, prefix, cls):
        for node in body:
            if not isinstance(node, _DEFS):
                continue
            key = (module, prefix + node.name)
            names[key] = _names([node])
            if cls is not None:
                names[key].add(cls)  # a method reaches its class
            if isinstance(node, ast.ClassDef):
                dunders[key] = {(module, f"{prefix}{node.name}.{item.name}") for item in node.body
                                if isinstance(item, _DEFS) and item.name.startswith("__")
                                and item.name.endswith("__")}
            visit(module, node.body, f"{prefix}{node.name}.",
                  node.name if isinstance(node, ast.ClassDef) else None)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(path.stem, tree.body, "", None)
        module_level |= _names([node for node in tree.body if not isinstance(node, _DEFS)])

    by_short = defaultdict(set)
    for module, qualname in names:
        by_short[qualname.rsplit(".", 1)[-1]].add((module, qualname))

    def resolve(short):
        return {key for name in short for key in by_short.get(name, ())}

    graph = {key: resolve(short) | dunders.get(key, set()) for key, short in names.items()}
    return graph, resolve(module_level)


def test_every_definition_is_reached():
    """A reference is any name in a definition's body that equals another
    definition's short name, so this over-counts reach and never fails on
    live code; what it reports is used by nothing but tests."""
    graph, import_time = _reference_graph()
    roots = {key for key in graph if key[0] in ENTRY_MODULES} | import_time
    for names in _targets().values():
        roots |= {(module, ".".join(path)) for module, *path in names}
    assert roots <= graph.keys(), sorted(roots - graph.keys())

    reached, todo = set(roots), list(roots)
    while todo:
        for key in graph[todo.pop()] - reached:
            reached.add(key)
            todo.append(key)
    unreached = sorted(f"{module}.{qualname}" for module, qualname in graph.keys() - reached)
    assert not unreached, "reached by no command, criterion or traced name: " + ", ".join(unreached)
