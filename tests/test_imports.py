"""Every name a module of the package imports is used in that module, and
every module-level private function or class has a caller in the package."""

import ast
from collections import Counter
from pathlib import Path

import lu

PACKAGE = Path(lu.__file__).parent


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


def _names_in(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _uncalled_private_definitions(sources):
    """(module, line, name) of each module-level private function or class
    that no statement of the modules refers to, its own body aside."""
    refs = Counter()
    private = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _names_in(node)
            refs.update(names)
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")
            ):
                private.append((module, node.lineno, node.name, node.name in names))
    return [
        (module, line, name)
        for module, line, name, recursive in private
        if refs[name] == recursive
    ]


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
    assert _uncalled_private_definitions(sources) == [
        ("a.py", 2, "_loop"), ("a.py", 3, "_Gone"),
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
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    uncalled = [
        f"{module}:{line}: {name}"
        for module, line, name in _uncalled_private_definitions(sources)
    ]
    assert uncalled == []
