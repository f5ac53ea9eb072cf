"""Source rule: every name the package defines is used by the package.

A top-level function, class or constant, or a non-dunder method, whose
name is never loaded, read as an attribute or imported anywhere in
src/knotslope outside its own definition is dead code, unless it is
listed below with a reason.  A mention in a docstring or comment does not
count as a use, and neither does a recursive call.
"""

import ast
from collections import Counter
from pathlib import Path

import knotslope

PACKAGE = Path(knotslope.__file__).parent

# Names kept although only the tests call them, each with the reason.
TEST_ORACLES = (
    ("line_check", "independent three-line check of the ending u-coordinate "
                   "that gamma_system computes"),
    ("summand", "one exact state-sum term, summed by the flat oracle that "
                "the grouped sum of colored_jones is tested against"),
    ("qfact", "the q-factorial that the qbinom and qmultinom tests divide "
              "against"),
)

# Names that code outside the package calls, each with the caller.
EXTERNAL_CALLERS = (
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
    assert unreferenced == sorted(name for name, _ in TEST_ORACLES + EXTERNAL_CALLERS)
