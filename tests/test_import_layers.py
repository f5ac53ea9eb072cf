"""Source rule: the package's modules import one another in one direction.

The order is qlaurent < ktg < jones < degopt < pipeline < cli, and a
module may import only modules below it.  The surface side, edgepath,
imports no package module at all, so the slope it reports cannot lean on
the degree side it is checked against; any module may import it.
"""

import ast
from pathlib import Path

import knotslope

PACKAGE = Path(knotslope.__file__).parent

ORDER = ("qlaurent", "ktg", "jones", "degopt", "pipeline", "cli")


def package_imports(tree):
    """The package modules a module's tree imports, anywhere in its body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("knotslope"):
                continue
            module = (node.module or "").removeprefix("knotslope").lstrip(".")
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("knotslope."):
                    yield alias.name.split(".")[1]


def allowed(module):
    """The package modules `module` may import: every module below it, and
    edgepath, which sits beside the bottom layer and imports none."""
    if module == "edgepath":
        return set()
    return set(ORDER[:ORDER.index(module)]) | {"edgepath"}


def test_modules_import_only_lower_layers():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(ORDER + ("edgepath",))
    wrong = [f"{module} imports {imported}"
             for module in modules
             for imported in package_imports(ast.parse((PACKAGE / f"{module}.py").read_text()))
             if imported not in allowed(module)]
    assert wrong == []
