"""Every name a module of the package imports is used in that module."""

import ast
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


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"), (2, "b"),
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
