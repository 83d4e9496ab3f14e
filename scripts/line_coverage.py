"""Line coverage of src/modalkit over the test suite, with no coverage package.

Run from the repository root; any arguments go to pytest:

    PYTHONPATH=src python scripts/line_coverage.py -q

A sys.settrace collector records each line of src/modalkit that runs, in
the main thread and in threads the tests start.  It is installed before
pytest collects the tests, so import-time lines count, and installed again
around every test, because Hypothesis replaces the tracer while it runs
some tests.  The total per file is every line that a compiled code
object of that file maps an instruction to, so it counts more than
statements.  A `nonlocal` line emits no line event and always reads as
unreached.  Tracing makes the suite run two to three times slower.  Exits
with pytest's status.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "modalkit"
_PREFIX = str(PACKAGE) + "/"
reached: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    reached.add((frame.f_code.co_filename, frame.f_lineno))  # the def line
    return _lines


def _install() -> None:
    sys.settrace(_calls)
    threading.settrace(_calls)


class _Reinstall:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        _install()
        yield
        _install()


def _code_lines(code: CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # 0: no source line
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    _install()
    status = pytest.main(argv, plugins=[_Reinstall()])
    sys.settrace(None)
    threading.settrace(None)
    total = hit = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = _code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
        missed = sorted(n for n in lines if (str(path), n) not in reached)
        total += len(lines)
        hit += len(lines) - len(missed)
        name = path.relative_to(PACKAGE.parent)
        print(f"{name}: {len(lines) - len(missed)} of {len(lines)} lines; unreached {missed}")
    print(f"src/modalkit: reached {hit} of {total} lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
