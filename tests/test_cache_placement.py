"""Source rule: every functools cache in the package decorates a
module-level function.

A benchmark that wants each operation to start cold empties the caches
it finds as module attributes with cache_clear.  A cache on a method, on
a nested function or made by calling lru_cache on a value is not such an
attribute, so it would survive between operations unseen and make the
later ones look faster.
"""

import ast
from pathlib import Path

import knotslope

PACKAGE = Path(knotslope.__file__).parent

CACHES = {"lru_cache", "cache"}


def misplaced_caches(tree):
    """Line numbers of the functools caches in a module's tree that are
    not a decorator of a top-level def, called or not."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in CACHES
            and isinstance(node.value, ast.Name) and node.value.id == "functools"]
    placed = {id(getattr(d, "func", d)) for node in tree.body
              if isinstance(node, ast.FunctionDef) for d in node.decorator_list}
    return sorted(node.lineno for node in uses if id(node) not in placed)


def test_package_caches_decorate_module_level_functions():
    found = {path.name: misplaced_caches(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_misplaced_caches_are_found():
    source = """
import functools
from functools import cache, lru_cache as memo

@memo(maxsize=None)
def table(n): ...

@functools.cache
def other(n): ...

class Holder:
    @cache
    def method(self): ...

def outer():
    @functools.lru_cache
    def inner(): ...
    return memo()(inner)
"""
    assert misplaced_caches(ast.parse(source)) == [12, 16, 18]
