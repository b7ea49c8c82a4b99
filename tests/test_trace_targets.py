"""The span tracer of the benchmark (bench/spans.py) wraps package
functions by name; a renamed function would only show as a crashed traced
run.  The first test reads the tracer's TARGETS table from that file and
checks that every name in it resolves in the package.

The second test keeps the package free of definitions that nothing uses:
every function, class and method must be reached from the command line
(`cli`), the verification suites (`acceptance`), import-time module code or
the tracer's TARGETS.

The third keeps it free of options that nothing sets: every defaulted
parameter must be passed by some call in the package or the benchmark.

The fourth keeps one node layout: np.linspace is called in
geometry.Lattice alone, so every lattice of a box comes from it."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "soboheat"
ENTRY_MODULES = ("cli", "acceptance")
CALLERS = (PACKAGE, ROOT / "bench")
SEAMS = {("cli", "main", "argv")}  # tests pass argv; the console entry point passes none


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


def _top_level_defs(tree):
    """(qualname, short name a call uses, def, bound) for every module-level
    function and every method of a module-level class; a constructor is
    called by its class's name, and bound methods take self or cls first.
    Nested closures are left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    short = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", short, item, not static


def _defaulted_parameters() -> dict:
    """(module, qualname, parameter) -> (short name, position) of every
    defaulted parameter; the position leaves out self or cls and is None
    for a keyword-only parameter."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, short, fn, bound in _top_level_defs(ast.parse(path.read_text())):
            args = fn.args
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                found[(path.stem, qualname, positional[i].arg)] = (short, i - bound)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found[(path.stem, qualname, arg.arg)] = (short, None)
    return found


def _call_sites() -> dict:
    """short name -> [(caller, call)] for every call in the package and the
    benchmark; caller is the (module, qualname) of the enclosing
    module-level function or method, None outside one."""
    sites = defaultdict(list)
    for path in sorted(p for root in CALLERS for p in root.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {id(node): (path.stem, qualname) for qualname, _, fn, _ in _top_level_defs(tree)
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                short = getattr(node.func, "id", getattr(node.func, "attr", None))
                sites[short].append((owners.get(id(node)), node))
    return sites


def _passed(call, name, position):
    """The expression a call passes for the parameter; Ellipsis when a
    *args or **kwargs may pass it, None when it passes nothing."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if position is not None:
        if any(isinstance(arg, ast.Starred) for arg in call.args[:position + 1]):
            return Ellipsis
        if position < len(call.args):
            return call.args[position]
    return Ellipsis if any(kw.arg is None for kw in call.keywords) else None


def test_every_parameter_is_set_by_a_caller():
    """A default that no call overrides is a constant under another name.
    A call that passes its own caller's parameter straight on sets it only
    if that parameter is set in turn."""
    params, sites = _defaulted_parameters(), _call_sites()
    passes = {key: [(caller, _passed(call, key[2], position)) for caller, call in sites[short]]
              for key, (short, position) in params.items()}
    unset, grown = set(), True
    while grown:
        now = {key for key, calls in passes.items() if not any(
            expr is not None and not (isinstance(expr, ast.Name) and caller is not None
                                      and (*caller, expr.id) in unset)
            for caller, expr in calls)}
        grown, unset = now != unset, now
    unset -= SEAMS
    assert not unset, "set by no caller: " + ", ".join(
        f"{module}.{qualname}({name})" for module, qualname, name in sorted(unset))



def test_linspace_is_called_in_the_lattice_alone():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {id(node): qualname for qualname, _, fn, _ in _top_level_defs(tree) for node in ast.walk(fn)}
        found += [(path.stem, owners.get(id(node))) for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "linspace"]
    assert found == [("geometry", "Lattice.__init__")]
