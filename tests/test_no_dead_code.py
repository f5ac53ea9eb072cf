"""Source rules: every name the package defines is used by the package,
and every TRIPWIRES entry names one statement.

A top-level function, class or constant, or a non-dunder method, whose
name is never loaded, read as an attribute or imported anywhere in
src/knotslope outside its own definition is dead code, unless it is
listed below with a reason.  A mention in a docstring or comment does not
count as a use, and neither does a recursive call.  Oracles that only the
tests call live in tests/oracles.py.

The line-level rule, that every statement runs in tier-1 or is a
tripwire, is checked by tests/statement_coverage.py, which is too slow
for tier-1; this file checks its list.
"""

import ast
from collections import Counter
from pathlib import Path

from statement_coverage import MAIN_BLOCK, TRIPWIRES, guarded_statements, matches

import knotslope

PACKAGE = Path(knotslope.__file__).parent

# Names that code outside the package calls, each with the caller.
EXTERNAL_CALLERS = (
    ("LaurentPoly.is_zero", "bench/tracing.py's on_exact_div reads it before "
     "the dividend's span"),
    ("_Parser.error", "argparse.ArgumentParser calls it on a usage error"),
)


def definitions(tree):
    """(qualified name, bare name, defining node) of each top-level def,
    class, method and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node


def references(tree):
    """Every name the tree loads, reads as an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_package_defines_no_unreferenced_names():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in references(tree))
    unreferenced = sorted(qualified
                          for name, tree in trees.items() if name != "__init__.py"
                          for qualified, bare, node in definitions(tree)
                          if used[bare] == Counter(references(node))[bare])
    assert unreferenced == sorted(name for name, _ in EXTERNAL_CALLERS)


def test_each_tripwire_matches_one_statement():
    # Keyed by function, exception type and message prefix, an entry
    # survives line moves; it must still name exactly one raise (or the
    # one __main__ block), and say why valid input cannot reach it.
    statements = [key for path in sorted(PACKAGE.glob("*.py"))
                  for *key, _ in guarded_statements(path)]
    for entry in TRIPWIRES:
        assert sum(matches(entry, *key) for key in statements) == 1, entry
        assert entry.reason
        assert (entry.exception is None) == (entry is MAIN_BLOCK), entry
    assert len(set(TRIPWIRES)) == len(TRIPWIRES)
