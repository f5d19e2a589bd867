"""List the lines of ``src/treefem`` that the test suite never runs.

coverage.py is not a dependency, so this script measures line coverage
itself: it installs a ``sys.settrace`` hook that records line events in the
package's files only, runs pytest in this process, and prints, for each
module, its executable lines (the line starts of every code object compiled
from its source) that never ran, as ranges. Code run in child processes is
not seen. The file is a script, not a test module: pytest does not collect
it.

Usage, from the repository root:

    python tests/line_trace.py [pytest arguments]

Without arguments it runs the whole suite quietly. The exit status is
pytest's.
"""

import dis
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treefem"


def executable_lines(path):
    """The line numbers at which any code object of ``path`` starts a line."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def ranges(lines):
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace(args):
    """Run pytest with ``args`` under the hook; returns (exit status, the
    ``{filename: set of line numbers}`` that ran)."""
    prefix = str(PACKAGE) + "/"
    ran = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv):
    status, ran = trace(argv or ["-q", "-p", "no:cacheprovider"])
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun = lines - ran.get(str(path), set())
        total, missed = total + len(lines), missed + len(unrun)
        print(f"{path.name}: {len(unrun)} of {len(lines)} lines unrun"
              + (f": {ranges(unrun)}" if unrun else ""))
    print(f"total: {missed} of {total} lines unrun")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
