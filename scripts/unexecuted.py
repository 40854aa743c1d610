"""Print each line of the tikhoflow package that a pytest run never executes.

    PYTHONPATH=src python scripts/unexecuted.py [pytest arguments]

The package is found with `importlib.util.find_spec`, which does not import
it, and a line tracer (`sys.settrace`) is armed before pytest starts, so the
lines that run when the package is first imported count as executed. The
tracer is armed again before each test, since a test or a library it calls
may replace it. A line is executable when some code object compiled from
its module starts an instruction on it.

The output is one ``path:line: text`` line per executable line that never
ran, then the count per module and in total. The pytest arguments default
to the Tier-1 suite, ``tests``, which takes about 1.5 minutes under the
tracer on one core of a 2-CPU x86-64 host. The exit status is pytest's, or
1 with a message naming PYTHONPATH=src when the package is not on the path.
"""
from __future__ import annotations

import importlib.util
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest


def _executable(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def main(args: list) -> int:
    spec = importlib.util.find_spec("tikhoflow")
    if spec is None:
        sys.exit("unexecuted.py: tikhoflow is not on the path; run it with PYTHONPATH=src")
    package = Path(spec.submodule_search_locations[0])
    prefix = str(package) + os.sep
    executed = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    class Rearm:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(call)

    sys.settrace(call)
    try:
        status = pytest.main(args or ["tests"], plugins=[Rearm()])
    finally:
        sys.settrace(None)
    counts = {}
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        missed = sorted(_executable(compile(source, str(path), "exec")) - executed[str(path)])
        for n in missed:
            print(f"{os.path.relpath(path)}:{n}: {text[n - 1].strip()}")
        counts[path.name] = len(missed)
    print(" ".join(f"{name} {n}" for name, n in counts.items()), f"total {sum(counts.values())}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
