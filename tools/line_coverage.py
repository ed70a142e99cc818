"""Line coverage of the `postselect` package by a pytest run, standard library only.

usage: PYTHONPATH=src python tools/line_coverage.py [PYTEST-ARGS ...]

PYTEST-ARGS go to pytest as given; with no paths among them it runs its
configured testpaths (`tests` and `perfbench/tests`).  The package is found on the import path
without importing it, and tracing (`sys.settrace`, and `threading.settrace`
for the fuzz's worker threads) starts before pytest imports anything, so
module-level lines count too.  A line is executable when one of the code
objects compiled from its module lists it in `co_lines()`; it is run when a
line event, or the call event of its code object, fires on it.  Prints one
JSON record: lines run, lines total, each executable line never run as
[module, line], and pytest's exit status, which is also the tool's.  Tracing
slows the run several-fold, so tests with wall-clock bounds may fail under it.
"""

import importlib.util
import json
import sys
import threading
from pathlib import Path

import pytest


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)  # module code starts at line 0
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    package = Path(importlib.util.find_spec("postselect").origin).resolve().parent
    modules = {str(p): f"postselect.{p.stem}" for p in sorted(package.glob("*.py"))}
    hits: set[tuple[str, int]] = set()
    resolved: dict[str, str] = {}  # code object file name -> resolved path

    def local(frame, event, arg):
        hits.add((resolved[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = str(Path(name).resolve())
        if resolved[name] not in modules:
            return None
        hits.add((resolved[name], frame.f_lineno))
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {path: executable_lines(Path(path)) for path in modules}
    missing = [
        [modules[path], line]
        for path, executable in lines.items()
        for line in sorted(executable)
        if (path, line) not in hits
    ]
    total = sum(map(len, lines.values()))
    record = {"run": total - len(missing), "total": total, "missing": missing}
    print(json.dumps({**record, "pytest_exit": int(status)}))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
