#!/usr/bin/env python3
"""Report which ``raise`` statements of ``src/tensorhit`` fire under the tests.

    python3 scripts/raise_audit.py [PYTEST_ARGS ...]

A ``sys.settrace`` hook follows the frames of ``src/tensorhit`` only, with
their line events off, and records each exception event in the frame where
the exception starts (its traceback holds no deeper frame) on a line of a
``raise`` statement.  Under the hook the script runs pytest in process,
with PYTEST_ARGS or else ``-q`` over the tier-1 suite (``tests/`` and
``bench/test_checks.py``), and then ``scripts/cli_identity.py``, whose
digest it discards.  It times nothing.  A test with a wall-clock budget may
fail under the hook; that changes no count.

It prints each ``raise`` that never fired as ``file:line: source``, then
one count for the ``raise`` statements that signal an error and one for
those of ``AssertionError``, which mark code the program never reaches.
It exits 1 if some error ``raise`` never fired, else 0.
"""

import ast
import contextlib
import io
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tensorhit")
sys.path.insert(0, os.path.dirname(SRC))


def raise_statements():
    """{(path, first line): (last line, is AssertionError, source line)} for every
    ``raise`` in src/tensorhit."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            text = fh.read()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                guard = isinstance(exc, ast.Name) and exc.id == "AssertionError"
                out[path, node.lineno] = (node.end_lineno, guard,
                                          lines[node.lineno - 1].strip())
    return out


class Hook:
    """The trace functions, and the (path, line) of each exception start seen."""

    def __init__(self):
        self.starts = set()

    def call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(SRC):
            return None
        frame.f_trace_lines = False
        return self.local

    def local(self, frame, event, arg):
        if event == "exception" and arg[2] is not None and arg[2].tb_next is None:
            self.starts.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local


def main(argv):
    import pytest

    statements = raise_statements()
    hook = Hook()
    sys.settrace(hook.call)
    try:
        os.chdir(ROOT)
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                    "tests", "bench/test_checks.py"])
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_path(os.path.join(ROOT, "scripts", "cli_identity.py"),
                               run_name="__main__")
            except SystemExit:
                pass
    finally:
        sys.settrace(None)

    fired = {key for key, (last, _, _) in statements.items()
             if any((key[0], line) in hook.starts for line in range(key[1], last + 1))}
    counts = {False: [0, 0], True: [0, 0]}  # is AssertionError -> [fired, total]
    for key, (_, guard, source) in sorted(statements.items()):
        counts[guard][1] += 1
        if key in fired:
            counts[guard][0] += 1
        else:
            print(f"{os.path.relpath(key[0], ROOT)}:{key[1]}: {source}")
    print(f"pytest exit code {int(code)}")
    print("{} of {} error raise statements in src/ fired".format(*counts[False]))
    print("{} of {} AssertionError raise statements in src/ fired".format(*counts[True]))
    return 1 if counts[False][0] < counts[False][1] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
