"""List the ``if`` and ``while`` statements in ``src/`` that Tier-1 only ever
takes one way.

    python tools/branches.py [pytest arguments]

Runs pytest in this process (by default on ``tests``, quietly) under a
stdlib line tracer, and records, for each ``if`` or ``while`` statement of
the package, which way each evaluation of its test went: to the first line
of its body (true) or anywhere else, the function's return included
(false).  It then prints one line per statement that went only one way or
never ran, as ``file:line: if|while: always true|always false (count)`` or
``never ran``, and a closing count.  If pytest fails, it prints no list,
only that Tier-1 failed under the tracer, and exits with pytest's status.
Slower than plain pytest; a test run in a subprocess (the ``python -O``
scripts) is not traced, so a branch only those reach is listed.  A
statement whose body shares the test's line, or whose test is a constant
(``while True``), cannot be told apart and is skipped.  Needs only the
standard library and pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "coblemukai")


def branch_statements(path: str) -> dict[int, tuple[int, int, str]]:
    """test line -> (last test line, first body line, keyword) for each
    traceable ``if`` and ``while`` in the file; every line of a test that
    spans several maps to the same entry, keyed by its first line."""
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.While)) or isinstance(node.test, ast.Constant):
            continue
        first, last, body = node.test.lineno, node.test.end_lineno, node.body[0].lineno
        if body > last:
            found[first] = (last, body, "if" if isinstance(node, ast.If) else "while")
    return found


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    import pytest

    files = {path: branch_statements(path) for path in
             (os.path.join(PACKAGE, f) for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py"))}
    owner = {}  # (file, any test line) -> (file, first test line)
    for path, statements in files.items():
        for first, (last, _, _) in statements.items():
            for line in range(first, last + 1):
                owner[path, line] = (path, first)
    taken: Counter = Counter()  # ((file, first test line), went true)

    def local_tracer(path):
        statements, last = files[path], [None]

        def trace(frame, event, arg):
            # a test that raises went neither way; a return is a false arc
            line = frame.f_lineno if event == "line" else -1
            key = owner.get((path, last[0]))
            if key is not None and event != "exception" and owner.get((path, line)) != key:
                taken[key, line == statements[key[1]][1]] += 1
            last[0] = line if event == "line" else None
            return trace

        return trace

    def global_tracer(frame, event, arg):
        path = frame.f_code.co_filename
        return local_tracer(path) if path in files else None

    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        # a failed run stops early or takes other paths, so its counts would mislead
        print(f"Tier-1 failed under the tracer (pytest exit status {int(status)}); no branch list",
              file=sys.stderr)
        return int(status)

    one_way = never = 0
    for path, statements in files.items():
        for first, (_, _, word) in sorted(statements.items()):
            key = (path, first)
            true, false = taken[key, True], taken[key, False]
            if true and false:
                continue
            where = f"{os.path.relpath(path, ROOT)}:{first}: {word}"
            if true or false:
                one_way += 1
                print(f"{where}: always {'true' if true else 'false'} ({true or false})")
            else:
                never += 1
                print(f"{where}: never ran")
    total = sum(map(len, files.values()))
    print(f"{one_way} of {total} if/while statements went one way only, {never} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
