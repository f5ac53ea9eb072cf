"""Source rule: invariants in the package raise instead of asserting.

`python -O` strips assert statements, so a check written as one would
vanish silently in optimized runs.
"""

import ast
from pathlib import Path

import knotslope

PACKAGE = Path(knotslope.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
