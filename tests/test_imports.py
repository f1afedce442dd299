"""Every name a module of the package imports is used in that module; every
function, class and public method has a caller in the package or is in
`lu.__all__`, the documented API; and every name the benchmark reads from
the package resolves."""

import ast
import builtins
import importlib
from collections import Counter
from pathlib import Path
from types import ModuleType

import lu

PACKAGE = Path(lu.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _references(node):
    """What `node` refers to, counted: `f` for a bare or imported name, `.f`
    for an attribute access, and `m.f` for an attribute whose owner
    expression ends in the name `m`."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
        elif isinstance(n, ast.Attribute):
            refs["." + n.attr] += 1
            owner = n.value
            if isinstance(owner, ast.Name):
                refs[f"{owner.id}.{n.attr}"] += 1
            elif isinstance(owner, ast.Attribute):
                refs[f"{owner.attr}.{n.attr}"] += 1
    return refs


def _overrides_a_library_method(cls, name):
    """Whether class node `cls` has a builtin or `module.Class` base that
    defines `name`, a hook the library calls (`argparse`'s `error`)."""
    for base in cls.bases:
        found = None
        if isinstance(base, ast.Name):
            found = getattr(builtins, base.id, None)
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            found = getattr(importlib.import_module(base.value.id), base.attr, None)
        if hasattr(found, name):
            return True
    return False


def _uncalled_definitions(sources, exported):
    """(module, line, name) of each module-level function or class and each
    public method that no statement of the modules refers to, its own body
    aside.  A module-level `f` of `m.py` is referred to by the bare name `f`
    or by `m.f`; a method only by an attribute access `.f`, so a function or
    local variable of the same name does not count for it.  Names in
    `exported`, dunders and overrides of library hooks are exempt.

    Blind spot: a method counts any `.name` access as its referrer, whatever
    the receiver, so an uncalled method that shares its name with a called
    one (as a field's `sub` would with the pipeline's `run.sub(...)`) passes."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = []
    for module, tree in trees.items():
        stem = module.removesuffix(".py")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node, node.name, (node.name, f"{stem}.{node.name}"))]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (m, f"{node.name}.{m.name}", ("." + m.name,))
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")
                    and not _overrides_a_library_method(node, m.name)
                ]
            for d, name, keys in defs:
                if name in exported or (name.startswith("__") and name.endswith("__")):
                    continue
                own = _references(d)
                if all(refs[k] == own[k] for k in keys):
                    uncalled.append((module, d.lineno, name))
    return uncalled


def _package_sources():
    # __init__.py only re-exports lu.__all__, which is exempt anyway
    return {
        path.name: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"), (2, "b"),
    ]


def test_the_check_sees_an_uncalled_private_definition():
    sources = {
        "a.py": "def _used(): pass\n"
        "def _loop(): _loop()\n"
        "class _Gone: pass\n"
        "def f(): return _used() + b._attr()\n",
        "b.py": "from a import _imported\n"
        "def _attr(): pass\n"
        "def _imported(): pass\n",
    }
    assert _uncalled_definitions(sources, exported={"f"}) == [
        ("a.py", 2, "_loop"), ("a.py", 3, "_Gone"),
    ]


def test_the_check_resolves_methods_module_functions_and_hooks():
    sources = {
        "poly.py": "import argparse\n"
        "class P:\n"
        "    def derivative(self): return self.derivative()\n"
        "    def scale(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n"
        "    def extra(self): pass\n",
        "unifactor.py": "def derivative(a): pass\n"
        "def factor_once(a): return derivative(a)\n"
        "def gone(): pass\n",
        "decomp.py": "from . import unifactor\n"
        "def run(p, q):\n"
        "    infinite = [unifactor.factor_once(p), p.scale(), q.gone()]\n"
        "    return P, _Parser, infinite\n"
        "class V:\n"
        "    def infinite(self): pass\n",
    }
    assert _uncalled_definitions(sources, exported={"run", "V"}) == [
        ("poly.py", 3, "P.derivative"),
        ("poly.py", 8, "_Parser.extra"),
        ("unifactor.py", 3, "gone"),
        ("decomp.py", 6, "V.infinite"),
    ]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path.read_text())
    ]
    assert unused == []


def test_every_private_definition_has_a_caller_in_the_package():
    uncalled = [
        f"{module}:{line}: {name}"
        for module, line, name in _uncalled_definitions(_package_sources(), lu.__all__)
        if name.startswith("_")
    ]
    assert uncalled == []


def test_every_public_definition_has_a_caller_or_is_documented():
    uncalled = [
        f"{module}:{line}: {name}"
        for module, line, name in _uncalled_definitions(_package_sources(), lu.__all__)
        if not name.startswith("_")
    ]
    assert uncalled == []


def test_the_package_namespace_is_its_all():
    public = {
        name for name, value in vars(lu).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(lu.__all__)


def _resolve(dotted):
    """The object `lu.a.b` names, importing the submodules on the way."""
    obj, path = lu, "lu"
    for part in dotted.split(".")[1:]:
        path += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
    return obj


def _bench_reads():
    """Each `lu.name...` chain that bench/worker.py and bench/make_golden.py
    read, and each `lu.layer.name` that bench/tracer.py's LAYERS wraps."""
    reads = set()
    for script in ("worker.py", "make_golden.py"):
        for node in ast.walk(ast.parse((BENCH / script).read_text())):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id == "lu":
                reads.add(".".join(["lu"] + chain[::-1]))
    for node in ast.parse((BENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            layers = ast.literal_eval(node.value)
    reads |= {f"lu.{layer}.{qual}" for layer, quals in layers.items() for qual in quals}
    return reads


def test_every_name_the_benchmark_reads_resolves():
    reads = _bench_reads()
    assert {"lu.run_reduction", "lu.ideals.Ideal.multiply"} <= reads
    missing = []
    for dotted in sorted(reads):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert missing == []
