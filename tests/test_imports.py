"""No module of the package imports a name it never uses or defines a
public function or method nothing reaches."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "nilcone").glob("*.py")
                 if p.name != "__init__.py")
# Where a public function or method may be reached from: the package
# itself, the benchmark and the acceptance criteria.  Unit tests and the
# package's re-exports do not count.
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]
# Public names kept although no reader names them.
UNREACHED_ALLOWED: set[str] = set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _named(tree, skip=None) -> set[str]:
    """Names, attributes and imported names in tree, outside node skip.

    A bare name counts only where it is read, and only if tree binds no
    name of that spelling itself: a local list called like a public
    function does not reach the function.
    """
    names, read, bound = set(), set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names | (read - bound)


def _public_defs(tree):
    """(qualified name, node) of each public function and class of a
    module, and of each public method of its public classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                            if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_"))


def test_every_public_function_is_reached():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in READERS}
    named = {p: _named(tree) for p, tree in trees.items()}
    unreached = []
    for path in MODULES:
        for qualname, node in _public_defs(trees[path]):
            if qualname in UNREACHED_ALLOWED:
                continue
            if node.name in _named(trees[path], skip=node) or any(
                    node.name in names for p, names in named.items() if p != path):
                continue
            unreached.append(f"{path.name}:{qualname}")
    assert not unreached, f"nothing reaches {', '.join(unreached)}"


PACKAGE_MODULES = {p.stem for p in MODULES}


def _package_module(node):
    """The package module an expression names (nc.<module>, self.nc.<module>)."""
    if isinstance(node, ast.Attribute) and node.attr in PACKAGE_MODULES:
        base = node.value
        if (isinstance(base, ast.Name) and base.id == "nc"
                or isinstance(base, ast.Attribute) and base.attr == "nc"):
            return node.attr
    return None


def _package_reads(tree) -> dict[ast.Attribute, tuple[str, str]]:
    """(module, name) for every nc.<module>.<name> read in tree, by the
    node reading it, also through an alias a function binds, such as
    d = nc.derivative."""
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _package_module(node.value):
            reads[node] = (_package_module(node.value), node.attr)
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        aliases = {t.id: _package_module(n.value) for n in ast.walk(fn)
                   if isinstance(n, ast.Assign) and _package_module(n.value)
                   for t in n.targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                reads[node] = (aliases[node.value.id], node.attr)
    return reads


def _benchmark_trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "perfbench").glob("*.py"))]


def test_benchmark_reads_only_names_the_package_has():
    # the benchmark runs the package through module attributes; a name it
    # reads that the package lost would fail every benchmark run
    reads = {read for tree in _benchmark_trees() for read in _package_reads(tree).values()}
    assert ("derivative", "gamma_sequence") in reads  # read through d = nc.derivative
    missing = [f"nilcone.{mod}.{name}" for mod, name in sorted(reads)
               if not hasattr(importlib.import_module(f"nilcone.{mod}"), name)]
    assert not missing, f"perfbench reads {', '.join(missing)}"


def test_benchmark_calls_bind_to_the_package_signatures():
    # a parameter the package dropped that the benchmark still passes
    # would fail only when the benchmark runs
    bound, bad = set(), []
    for tree in _benchmark_trees():
        reads = _package_reads(tree)
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and call.func in reads):
                continue
            mod, name = reads[call.func]
            assert not any(isinstance(a, ast.Starred) for a in call.args)
            assert all(k.arg is not None for k in call.keywords)  # no **kwargs
            sig = inspect.signature(getattr(importlib.import_module(f"nilcone.{mod}"), name))
            try:
                sig.bind(*call.args, **{k.arg: k.value for k in call.keywords})
            except TypeError as exc:
                bad.append(f"line {call.lineno}: nilcone.{mod}.{name}: {exc}")
            bound.add((mod, name))
    # positional and keyword calls, through d = nc.derivative too
    assert {("derivative", "build_phi"), ("derivative", "kappa_grid"),
            ("derivative", "main_theorem_experiment"),
            ("coupling", "integrability_estimate")} <= bound
    assert bad == []


def test_no_module_unwraps_a_point():
    # a point is its coordinate tuple: the package reads it as one, and
    # GroupPoint.coords is kept only for readers outside the package
    reads = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "coords"]
    assert reads == []


def test_no_module_reads_another_modules_private_names():
    # a private name is its module's own: another module that needs it
    # needs it public, or the name belongs in that module
    bad = []
    for path in sorted((ROOT / "src" / "nilcone").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # package modules imported whole: from . import ratlin
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:
                    modules |= {a.asname or a.name for a in node.names}
                    continue
                bad += [f"{path.name}: {node.module}.{a.name}"
                        for a in node.names if a.name.startswith("_")]
        bad += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert bad == []


# Defaulted parameters kept although no reader passes them another value.
DEFAULT_ONLY_ALLOWED = {
    "geometry.horizontal_factorization.max_passes":
        "benchmark-only code that leaves with the benchmark refresh",
    "geometry.horizontal_factorization.tol":
        "benchmark-only code that leaves with the benchmark refresh",
    "kernels.reduce_batch.side":
        "benchmark-only code that leaves with the benchmark refresh",
    "kernels.reduce_batch.mode":
        "benchmark-only code that leaves with the benchmark refresh",
    "wordmetric.peel.mode":
        "the exact reference peel, compared with peel_batch in every mode",
    "wordmetric.peel.side":
        "the exact reference peel, compared with peel_batch on both sides",
    "wordmetric.digits_to_point.order":
        "the exact reference exp map, compared with digit_coords in both orders",
    "wordmetric.peel_batch.mode":
        "the float peel, compared with the exact peel in every mode",
    "wordmetric.peel_batch.side":
        "the float peel, compared with the exact peel on both sides",
    "derivative.main_theorem_experiment.perturb_digits":
        "checks that the limit does not depend on the approximating sequence",
}


def _defaulted(fn, skip_first):
    """(name, default node, positional index or None) per defaulted parameter."""
    a = fn.args
    positional = a.posonlyargs + a.args
    offset = len(positional) - len(a.defaults)
    out = [(arg.arg, d, i - skip_first)
           for i, (arg, d) in enumerate(zip(positional[offset:], a.defaults), offset)]
    out += [(arg.arg, d, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_every_defaulted_parameter_is_passed():
    # a parameter that every reader leaves at its default is a constant
    calls = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
    unpassed = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # (called name, function, leading parameters a call does not pass)
        targets = [(node.name, node, 0) for node in tree.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    targets.append((cls.name, fn, 1))
                elif not fn.name.startswith("_"):
                    targets.append((fn.name, fn, 0 if static else 1))
        for name, fn, skip in targets:
            for param, default, index in _defaulted(fn, skip):
                bound = [k.value for c in calls.get(name, ()) for k in c.keywords
                         if k.arg == param]
                if index is not None:
                    bound += [c.args[index] for c in calls.get(name, ())
                              if len(c.args) > index
                              and not any(isinstance(a, ast.Starred) for a in c.args)]
                if all(ast.dump(v) == ast.dump(default) for v in bound):
                    unpassed.add(f"{path.stem}.{name}.{param}")
    extra = sorted(unpassed - DEFAULT_ONLY_ALLOWED.keys())
    assert not extra, f"only ever passed at the default: {', '.join(extra)}"
    stale = sorted(DEFAULT_ONLY_ALLOWED.keys() - unpassed)
    assert not stale, f"allowed, yet passed another value: {', '.join(stale)}"
