"""The library's surface: every definition in ``src/jetlag``, public or
private, is run by the command line, and the test oracles share none of
its internals.

A definition is reachable when its name is used in code that runs:
``cli.run``, the module-level statements of every module (they run on
import), and, transitively, the body of every reachable definition.
Names are matched without regard to which module or class defines them,
so the walk over-approximates what runs; an unreachable definition is
certainly dead.  A reachable class brings its special methods along.
Imports are not uses; annotations are.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jetlag"
TESTS = Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"


# The modules that may name the forward-mode first-derivative machinery;
# every other module takes first derivatives through
# ``calculus.field_jacobian``.
DUAL_MODULES = ("scalars", "calculus")
DUAL_NAMES = {"Dual", "lift_d1"}

# The modules that may name the electrodynamics decomposition's builder:
# its own, and the commands, which build it once and hand it, or a
# point's jet of it, to every reader.
DECOMPOSING_MODULES = ("regularity", "cli", "verify")


class _Uses(ast.NodeVisitor):
    """Names a piece of code reads; an import is not a read."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.visit(node.value)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import


def _uses(nodes) -> set:
    visitor = _Uses()
    for node in nodes:
        visitor.visit(node)
    return visitor.names


class _Definition:
    def __init__(self, qualname, name, nodes, special=None):
        self.qualname = qualname
        self.name = name
        self.nodes = nodes
        self.special = special or []  # a class's special methods


def _scan():
    """Every definition in the package, and the module-level statements."""
    defs, top = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(_Definition(stmt.name, stmt.name, [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body
                           if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                body = [s for s in stmt.body if s not in methods]
                special = [m for m in methods if m.name.startswith("__")]
                defs.append(_Definition(stmt.name, stmt.name,
                                        stmt.bases + stmt.decorator_list + body, special))
                for m in methods:
                    if m not in special:
                        defs.append(_Definition(f"{stmt.name}.{m.name}", m.name, [m]))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets
                         if isinstance(t, ast.Name) and not t.id.startswith("__")]
                if names:
                    for name in names:
                        defs.append(_Definition(name, name, [stmt.value]))
                else:
                    top.append(stmt)
            else:
                top.append(stmt)
    return defs, top


def _reachable(defs, roots) -> set:
    """Qualified names of the definitions reachable from ``roots``."""
    by_name = {}
    for d in defs:
        by_name.setdefault(d.name, []).append(d)
    seen_names, reached = set(), set()
    pending = set(_uses(roots))
    while pending:
        name = pending.pop()
        if name in seen_names:
            continue
        seen_names.add(name)
        for d in by_name.get(name, ()):
            reached.add(d.qualname)
            pending |= _uses(d.nodes + d.special) - seen_names
    return reached


def _run_function(defs):
    return next(d for d in defs if d.qualname == "run").nodes


def test_every_definition_is_reachable_from_the_commands():
    defs, top = _scan()
    reached = _reachable(defs, _run_function(defs) + top)
    assert sorted(d.qualname for d in defs if d.qualname not in reached) == []


def _referenced_names(tree) -> set:
    """Every name a module reads, binds or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_oracles_read_no_private_jetlag_name():
    # a reference that shares the internals it checks cannot catch their defects
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    own = {stmt.name for stmt in tree.body
           if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))} | {"_"}
    private = {name for name in _referenced_names(tree)
               if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - own) == []


def test_only_calculus_and_scalars_name_the_dual_lift():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem in DUAL_MODULES:
            continue
        used = _referenced_names(ast.parse(path.read_text(encoding="utf-8"))) & DUAL_NAMES
        if used:
            offenders[path.stem] = sorted(used)
    assert offenders == {}


def test_only_the_commands_build_a_decomposition():
    offenders = [path.stem for path in sorted(SRC.glob("*.py"))
                 if path.stem not in DECOMPOSING_MODULES
                 and "electrodynamics_decompose"
                 in _referenced_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []


def _defaulted_parameters(tree):
    """(callee name, parameter, positional index or None) for every
    defaulted parameter of a function in ``tree``; a method's index skips
    its bound first argument, and a constructor is named by its class."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                if cls is not None and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list):
                    positional = positional[1:]
                name = cls if cls is not None and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                out.extend((name, positional[k].arg, k) for k in range(first, len(positional)))
                out.extend((name, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _passes(call, param, index) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant in disguise
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [f"{path.stem}.{name}({param})"
                for path in sorted(SRC.glob("*.py"))
                for name, param, index in _defaulted_parameters(trees[path])
                if not any(_passes(c, param, index) for c in calls.get(name, ()))]
    assert unpassed == []
