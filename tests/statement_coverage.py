"""Statement coverage of ``src/onewaysim`` under tier-1: run the suite in
this process with a line tracer on the package's frames, and fail on any
statement of the package that no test ran.

    PYTHONPATH=src python tests/statement_coverage.py [pytest arguments]

A statement is a line holding bytecode, apart from a function's own
``def`` line.  Only ``EXEMPT`` may stay unrun.  Not collected by pytest
(the file name does not start with ``test_``).
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "onewaysim"
# (file, line text): reached only when cli.py runs as a program, which
# the tests do in a new interpreter, out of the tracer's sight
EXEMPT = {("cli.py", "sys.exit(main())")}


def _lines(code) -> set:
    """The lines of one code object that hold bytecode, its ``def`` line aside."""
    own = {line for _, _, line in code.co_lines() if line is not None and line > 0}
    return own - {code.co_firstlineno} if code.co_name != "<module>" else own


def statements(path: Path) -> set:
    """The lines of every code object in ``path``."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
        lines |= _lines(code)
    return lines


def main(args) -> int:
    unrun = {}  # package code object -> its lines not run yet; others -> set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in unrun:
            in_package = Path(os.path.realpath(code.co_filename)).parent == PACKAGE
            unrun[code] = _lines(code) if in_package else set()
        left = unrun[code]
        left.discard(frame.f_lineno)
        return trace if left else None  # a frame with nothing left to see runs untraced

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    ran = {}
    for code, left in unrun.items():
        ran.setdefault(os.path.realpath(code.co_filename), set()).update(_lines(code) - left)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statements(path) - ran.get(os.path.realpath(path), set())):
            if (path.name, text[line - 1].strip()) not in EXEMPT:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print("\n".join(missed) or "every statement of the package ran")
    return int(status) or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
