"""The library stays dependency-free: every module of the package imports only
the standard library and the package itself.

An AST scan, so an import inside a function or behind a guard counts too.
"""

import ast
import sys
from pathlib import Path

import intervalmaps

PACKAGE = Path(intervalmaps.__file__).parent


def imported_roots(tree):
    """The top-level name of each absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def imports_by_module():
    return {
        path.relative_to(PACKAGE).as_posix(): set(imported_roots(ast.parse(path.read_text())))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_scan_sees_the_imports():
    imports = imports_by_module()
    assert "fractions" in imports["kernel.py"]
    assert "concurrent" in imports["cli.py"]


def test_imports_only_stdlib_and_itself():
    outside = {
        module: sorted(roots - sys.stdlib_module_names - {"intervalmaps"})
        for module, roots in imports_by_module().items()
    }
    assert {module: roots for module, roots in outside.items() if roots} == {}
