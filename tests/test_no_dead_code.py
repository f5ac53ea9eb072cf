"""Source rule: every name the package defines is used by the package.

A top-level function, class or constant, or a non-dunder method, whose
name occurs nowhere in src/knotslope but at its own definition is dead
code, unless it is a test oracle listed below.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import knotslope

PACKAGE = Path(knotslope.__file__).parent

# Names kept although only the tests call them, each with the reason.
TEST_ORACLES = (
    ("line_check", "independent three-line check of the ending u-coordinate "
                   "that gamma_system computes"),
    ("QuasiPolynomial.evaluate", "evaluates a fitted quasi-polynomial against "
                                 "closed_form_dplus"),
    ("AdmissibilityReport.all_conditions", "the E1-E4 conjunction the edgepath "
                                           "and acceptance tests check"),
)


def definitions(tree):
    """(qualified name, bare name) of each top-level def, class, method, constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id


def test_package_defines_no_unreferenced_names():
    paths = sorted(PACKAGE.glob("*.py"))
    text = "\n".join(path.read_text() for path in paths)
    defined = [(path.name, qualified, bare)
               for path in paths if path.name != "__init__.py"
               for qualified, bare in definitions(ast.parse(path.read_text()))]
    words = Counter(re.findall(r"\w+", text))
    definition_count = Counter(bare for _, _, bare in defined)
    unreferenced = sorted(qualified for _, qualified, bare in defined
                          if words[bare] <= definition_count[bare])
    assert unreferenced == sorted(name for name, _ in TEST_ORACLES)
