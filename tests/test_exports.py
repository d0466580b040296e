"""The package exports only what its own modules call.

A name in intervalmaps.__all__ must resolve and be read, called or subclassed
by some module of the package other than __init__.py, so an API that only
tests use does not grow back. The one exception is a name kept for a ROADMAP
item that will call it.
"""

import ast
from pathlib import Path

import intervalmaps

KEPT_FOR_ROADMAP = {
    "slope_poly_quotient",  # item 4: arithmetic in Q(lambda_p) reduces by it
    "stefan_map",  # item 7: the lower bound's equality case
}


def names_used_by_the_package():
    used = set()
    for path in Path(intervalmaps.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_exports_resolve():
    assert [name for name in intervalmaps.__all__ if not hasattr(intervalmaps, name)] == []


def test_exports_are_used_by_the_package():
    """Equality, not inclusion: a kept name that gains a caller leaves the
    exception list."""
    unused = set(intervalmaps.__all__) - names_used_by_the_package()
    assert unused == KEPT_FOR_ROADMAP
