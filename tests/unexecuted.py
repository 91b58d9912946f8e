"""The lines inside `reqsmith` functions that no tier-1 test executes.

Runs the tier-1 suite in this process under a `sys.settrace` line tracer
that records only frames of `src/reqsmith`, then prints each line that has
bytecode inside a function (a `def`, a lambda or a comprehension) and that
no test reached, grouped by function, with its source text, on stdout; the
suite's own report goes to stderr. It needs pytest and nothing beyond the
standard library; no coverage package is used.

CLI subprocesses that tests start are not traced, so a `cli.py` line that
only such tests run is listed too. Tests that time themselves may fail
under the tracer; their lines are still recorded, and the exit status of
the suite does not change the report. The script exits 1 when it lists
any line, so that CI fails on it, and 0 otherwise.

    PYTHONPATH=src python tests/unexecuted.py [pytest arguments]

With no arguments it runs `-q --continue-on-collection-errors`.
"""

import contextlib
import inspect
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reqsmith"


def _function_lines(path: Path) -> dict:
    """Each line with bytecode inside a function of `path`, mapped to the
    name of the innermost function that holds it. A function's own first
    line is left out: entering it is a call event, not a line event."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = {}, [module]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if not code.co_flags & inspect.CO_NEWLOCALS:
            continue  # the module body or a class body, run on import
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                lines[line] = getattr(code, "co_qualname", code.co_name)
    return lines


class _Tracer:
    """Records (file, line) for every line event in a `reqsmith` frame. A
    function whose every line has run is not traced again, so the suite
    runs at close to its usual speed."""

    def __init__(self) -> None:
        self.ours: dict = {}  # code file name -> its absolute path, or None
        self.left: dict = {}  # code -> its lines not yet run
        self.seen: set = set()

    def on_call(self, frame, event, arg):
        code = frame.f_code
        if code not in self.left:
            name = code.co_filename
            if name not in self.ours:
                path = os.path.abspath(name)
                self.ours[name] = path if path.startswith(str(PACKAGE) + os.sep) else None
            lines = {line for _, _, line in code.co_lines()} if self.ours[name] else set()
            self.left[code] = lines - {None, code.co_firstlineno}
        return self.on_line if self.left[code] else None

    def on_line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.seen.add((self.ours[code.co_filename], frame.f_lineno))
            self.left[code].discard(frame.f_lineno)
        return self.on_line

    def install(self) -> None:
        sys.settrace(self.on_call)
        threading.settrace(self.on_call)

    # pytest hooks: a test that sets or clears its own tracer does not end
    # the recording for the tests after it
    def pytest_runtest_setup(self, item):
        if sys.gettrace() is not self.on_call:
            self.install()


def main(args: list) -> int:
    tracer = _Tracer()
    tracer.install()
    try:
        # the suite reports on stderr, so stdout carries the report alone
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(args or ["-q", "--continue-on-collection-errors"], plugins=[tracer])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    print("lines inside reqsmith functions that no test executed:")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(
            (line, name)
            for line, name in _function_lines(path).items()
            if (str(path), line) not in tracer.seen
        )
        total += len(missed)
        where = None
        for line, name in missed:
            if name != where:
                print(f"{path.relative_to(ROOT)} in {name}:")
                where = name
            print(f"  {line:5}  {source[line - 1].strip()}")
    print(f"{total} lines")
    return total


if __name__ == "__main__":
    sys.exit(1 if main(sys.argv[1:]) else 0)
