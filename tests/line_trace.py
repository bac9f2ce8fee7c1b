"""Lines of src/flowcl that the tier-1 suite never executes.

    python3 tests/line_trace.py [PYTEST_ARGS...]

Runs `python -m pytest -q --continue-on-collection-errors` (or the given
pytest arguments) from the repository root in a child process, with a
`sitecustomize` module put first on PYTHONPATH. It starts a `sys.settrace`
line tracer in every Python process that inherits that path (the pytest
child and each `python -m flowcl.cli` child the tests start), records the
lines run in src/flowcl, and writes them to a file per process at exit.
Then it prints each executable line, one `path:line: source` per line,
that no process ran, and a count. Standard library only, for a box without
`coverage`. Tracing makes the suite a few times slower; a test that
measures time may fail under it, and its failure is reported, not hidden.
Exits with the pytest child's code.

A process killed before its exit handlers run records nothing, and a
child started with a PYTHONPATH of its own is not traced.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "flowcl") + os.sep

_SITECUSTOMIZE = """\
import atexit, json, os, sys, threading

_PREFIX, _OUT = {prefix!r}, {out!r}
_seen = {{}}


def _line(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _seen.setdefault(name, set()).add(frame.f_lineno)
    return _line


def _dump():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump({{k: sorted(v) for k, v in _seen.items()}}, fh)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
"""


def executable_lines(path: str) -> set:
    """Every line that carries bytecode in the module or any code object in it."""
    with open(path, encoding="utf-8") as fh:
        stack, lines = [compile(fh.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(pytest_args: list) -> int:
    with tempfile.TemporaryDirectory() as out:
        with open(os.path.join(out, "sitecustomize.py"), "w") as fh:
            fh.write(_SITECUSTOMIZE.format(prefix=PACKAGE, out=out))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (out, SRC, os.environ.get("PYTHONPATH")) if p))
        code = subprocess.run([sys.executable, "-m", "pytest", *pytest_args],
                              cwd=ROOT, env=env).returncode
        ran = {}
        for dump in glob.glob(os.path.join(out, "*.json")):
            with open(dump) as fh:
                for name, lines in json.load(fh).items():
                    ran.setdefault(os.path.realpath(name), set()).update(lines)
    missed = total = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        lines = executable_lines(path)
        never = sorted(lines - ran.get(os.path.realpath(path), set()))
        total, missed = total + len(lines), missed + len(never)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in never:
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/flowcl never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", "--continue-on-collection-errors"]))
