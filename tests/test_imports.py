"""Every name a module of the package imports is used in that module; every
function, class and public method has a caller in the package or is in
`lu.__all__`, the documented API; every name the benchmark reads from the
package resolves; and `import lu` loads no module the package does not use."""

import ast
import builtins
import importlib
import subprocess
import sys
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


# Modules that `import lu` does not load, each a millisecond or more of every
# process's start: the first four it never needs (records, fixtures and the
# command line do without them), the rest come on first use: `fractions`
# (with `decimal` and `numbers`) at the first division with a remainder,
# `random` at the first axiom sample, `lu.unifactor` at the first factor
# search; `heapq` not at all, since both work queues are sorted lists.
UNUSED_AT_IMPORT = (
    "dataclasses", "inspect", "importlib.resources", "argparse",
    "fractions", "decimal", "numbers", "random", "heapq", "lu.unifactor",
)


def test_import_lu_loads_none_of_the_modules_it_does_not_need():
    # -S: no site module, so no .pth file preloads any of them
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lu; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent), *UNUSED_AT_IMPORT],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == []


def test_fractions_comes_with_the_first_fraction():
    # one fresh -S interpreter, so nothing but lu can have loaded fractions
    code = """if True:
        import sys; sys.path.insert(0, sys.argv[1])
        import lu
        from lu.fields import GF
        from lu.poly import PolyRing
        before = "fractions" in sys.modules
        L, nu = lu.load_scene({
            "field": "Q", "vars": ["x", "y"], "ideal": ["2*y - x"],
            "localize_at": ["x", "y"],
            "valuation": {"support": ["2*y - x"], "rank": 1,
                          "weights": {"x": [1], "y": [1]}},
        })
        verdict = lu.run_reduction(L, nu).verdict
        print(before, verdict, L.defining.canonical_strings(), "fractions" in sys.modules)
        R = PolyRing(GF(7), ["x"])
        print(lu.parse_poly(R, "1/2*x").text())
        try:
            lu.parse_poly(R, "1/7*x")
        except lu.LuError as e:
            print(e)
    """
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == [
        "False Uniformized ['y - 1/2*x'] True",
        "4*x",
        "coefficient 1/7 has no value in GF(7): its denominator is divisible by p = 7",
    ]
