#!/usr/bin/env python3
"""Print file:line for each statement of src/iprox that no test executes.

Runs pytest in this process, with the arguments given on the command line
and no others, under a stdlib line tracer (sys.settrace; no coverage
package needed) that follows only frames whose code lives in src/iprox of
the checkout this script belongs to (../src/iprox from scripts/).  A
statement counts as reached when any line it spans runs.  Docstrings and
other bare string statements, def and class lines, try headers and
global/nonlocal declarations are not counted: they run nothing a test
could miss.

    python3 scripts/unreached.py -q tests

prints one src/iprox/<file>:<line> per unreached statement, then the count
on stderr, and exits with pytest's exit code.  Only this process is
traced: statements that run only in a subprocess, such as the
`python -m iprox` entry point or the workers of a `sweep --workers 2`
pool, show as unreached.  Tracing slows the suite several-fold, so a
test with a wall-time bound can fail under it.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "iprox")
_UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try,
              ast.Global, ast.Nonlocal)


def statement_lines(path: str) -> dict:
    """{line: first line of the statement that line belongs to} of a file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    owner = {}

    def visit(body):
        for node in body:
            children = [getattr(node, name) for name in ("body", "orelse", "finalbody")
                        if isinstance(getattr(node, name, None), list)]
            children += [h.body for h in getattr(node, "handlers", ())]
            children += [case.body for case in getattr(node, "cases", ())]
            is_string = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if not (isinstance(node, _UNCOUNTED) or is_string):
                # a compound statement owns its header, up to its first child
                end = min([b[0].lineno - 1 for b in children if b] + [node.end_lineno])
                for line in range(node.lineno, end + 1):
                    owner[line] = node.lineno
            for block in children:
                visit(block)

    visit(tree.body)
    return owner


def main(argv) -> int:
    import pytest

    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE + os.sep):
            return local
        return None

    sys.path.insert(0, SRC)
    threading.settrace(start)
    sys.settrace(start)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        owner = statement_lines(path)
        reached = {owner[line] for file, line in executed if file == path and line in owner}
        missing += [f"{os.path.relpath(path, ROOT)}:{line}"
                    for line in sorted(set(owner.values()) - reached)]
    for item in missing:
        print(item)
    print(f"{len(missing)} unreached statements", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
