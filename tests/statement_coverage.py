"""Statement coverage of src/knotslope under the tier-1 suite.

Every executable line of the package must run somewhere in tier-1, or lie
in a statement on TRIPWIRES: a raise that no valid input reaches, listed
with the reason, or the cli module's `__main__` block, which only
`python -m knotslope.cli` runs.

The script runs the tier-1 suite in this process under a sys.settrace
line tracer (the standard library has no coverage tool) with
--hypothesis-seed=0.  It prints every never-run line that no TRIPWIRES
entry covers, and every TRIPWIRES statement that did run (a reachable
statement needs a test, not an entry), and exits 1 if there is either.
The tracer makes the suite about four times slower, so pytest does not
collect this file; run it as

    python tests/statement_coverage.py [extra pytest arguments]

Extra arguments go after the defaults, so `--hypothesis-seed=1` picks
another seed.  Worker processes of `verify --jobs` are not traced.

A TRIPWIRES entry names the function that holds the raise (module and
qualified name), the exception type and a prefix of the message, with
f-string fields written as {}, never a line number.
tests/test_no_dead_code.py checks that each entry matches exactly one
statement, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "knotslope"


class Tripwire(NamedTuple):
    where: str
    exception: str | None
    message: str | None
    reason: str


MAIN_BLOCK = Tripwire(
    "cli.__main__", None, None,
    "the entry of `python -m knotslope.cli`, which the benchmark and CI run "
    "in a fresh interpreter")

TRIPWIRES = (
    Tripwire("degopt.classify", "ArithmeticError", "r + s + 1 and r + t must be even",
             "KnotParams makes r and t odd and s even"),
    Tripwire("degopt.classify", "ArithmeticError", "case 2.4 away from",
             "disc = 0 with r + s = 1 and r + t = 2 forces r = -3, s = 4, t = 5 "
             "for r < -1"),
    Tripwire("degopt.degree_objective", "ArithmeticError", "half-integer framing degree",
             "x(x+2) is divisible by 8 for even colors"),
    Tripwire("degopt.closed_form_dplus", "ArithmeticError", "closed form not integral",
             "in the quadratic cases the model value is face_objective, whose "
             "coefficients are integers, at c = 2n - b for the even b nearest "
             "the line peak; in the linear ones it is 2u(N - 1)"),
    Tripwire("edgepath.gamma_system", "ArithmeticError", "chain cut k={} out of range",
             "the 1/r-path length is positive past the guard, and it is at most "
             "-r - 1 because s > 0"),
    Tripwire("ktg.dplus_delta6j", "ArithmeticError", "top z-term is not the range end",
             "tops[i] + offsets[i] are (total - a - alpha)/2 and its two "
             "analogues, so 2*zhi is that difference by construction"),
    MAIN_BLOCK,
)


# -- the source side ---------------------------------------------------------


def executable_lines(path):
    """Every line that holds a bytecode instruction of the module."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _template(node):
    """A message argument as text, f-string fields written as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def _raise_key(node):
    """(exception type, message template) of a raise statement."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        name = exc.func.id if isinstance(exc.func, ast.Name) else None
        return name, _template(exc.args[0]) if exc.args else None
    return (exc.id if isinstance(exc, ast.Name) else None), None


def _is_main_block(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__")


def guarded_statements(path):
    """Every raise statement and `__main__` block of one module.

    Yields (where, exception, message, node): where is the module name
    plus the qualified name of the enclosing function, or
    "<module>.__main__" for the main block.
    """
    module = path.stem

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise):
                yield (".".join([module] + scope), *_raise_key(child), child)
            elif _is_main_block(child) and not scope:
                yield f"{module}.__main__", None, None, child
            yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text()), [])


def matches(entry, where, exception, message):
    if entry.where != where or entry.exception != exception:
        return False
    if entry.message is None:
        return message is None
    return message is not None and message.startswith(entry.message)


def tripwire_statements(path):
    """(first line run, every line) of each module statement on TRIPWIRES.

    The first line run is the raise itself, or the first statement of the
    `__main__` block, whose `if` line runs on every import.
    """
    for where, exception, message, node in guarded_statements(path):
        if any(matches(t, where, exception, message) for t in TRIPWIRES):
            first = node.body[0].lineno if isinstance(node, ast.If) else node.lineno
            yield first, set(range(node.lineno, node.end_lineno + 1))


# -- the run -----------------------------------------------------------------


def run_traced(pytest_args):
    """Run pytest under a line tracer; returns (exit code, {path: lines run})."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed = {}
    tracers = {}
    ignored = set()

    def tracer_for(filename):
        path = os.path.realpath(filename)
        if not path.startswith(prefix):
            ignored.add(filename)
            return None
        hits = executed.setdefault(path, set())
        add = hits.add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        tracers[filename] = local
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        local = tracers.get(filename)
        if local is None:
            if filename in ignored:
                return None
            local = tracer_for(filename)
            if local is None:
                return None
        return local(frame, event, arg)

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, executed


def main(argv):
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--hypothesis-seed=0", str(ROOT / "tests"), *argv]
    stamps = {path: path.stat().st_mtime_ns for path in PACKAGE.glob("*.py")}
    code, executed = run_traced(args)
    if code != 0:
        print(f"statement coverage: the tier-1 suite failed (pytest exit {code})")
        return 1
    if stamps != {path: path.stat().st_mtime_ns for path in PACKAGE.glob("*.py")}:
        # Line numbers traced from the old text would not match the new.
        print("statement coverage: src/knotslope changed during the run")
        return 1
    missed, reached = [], []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        ran = executed.get(str(path.resolve()), set())
        source = path.read_text().splitlines()
        excused = set()
        for first, statement in tripwire_statements(path):
            excused |= statement
            if first in ran:
                reached.append(f"src/knotslope/{path.name}:{first}: "
                               f"{source[first - 1].strip()}")
        for line in sorted(lines - ran - excused):
            missed.append(f"src/knotslope/{path.name}:{line}: {source[line - 1].strip()}")
    for entry in missed:
        print(entry)
    for entry in reached:
        print(f"{entry}  (on TRIPWIRES, but ran)")
    print(f"statement coverage: {len(missed)} of {total} executable lines in "
          f"src/knotslope never ran and are not on TRIPWIRES; "
          f"{len(reached)} TRIPWIRES statements ran")
    return 1 if missed or reached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
