"""Lines of src/flowcl that the tier-1 suite never executes.

    python3 tests/line_trace.py [--check] [PYTEST_ARGS...]

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

With --check, the unrun lines are compared with the `path: source` entries
of tests/unrun_lines.txt instead ('#' lines and blank lines there are
comments), matched by file and source text, not by line number, so edits
elsewhere in a file do not trip it. It prints and fails on each line that
goes unrun without an entry, and on each entry whose line now runs; it
exits 1 then, else with the pytest child's code.

A process killed before its exit handlers run records nothing, and a
child started with a PYTHONPATH of its own is not traced.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "flowcl") + os.sep
LISTED = os.path.join(HERE, "unrun_lines.txt")

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


def listed_lines(path: str) -> Counter:
    """The `path: source` entries of an unrun-lines file, each as often as it is listed."""
    with open(path, encoding="utf-8") as fh:
        lines = (line.strip() for line in fh)
        return Counter(line for line in lines if line and not line.startswith("#"))


def check(unrun: list, listed: Counter) -> int:
    """1, after naming each, if a line goes unrun unlisted or a listed line ran; else 0."""
    found = Counter(f"{path}: {source}" for path, _, source in unrun)
    unlisted, ran = found - listed, listed - found
    for path, line, source in unrun:
        if f"{path}: {source}" in unlisted:
            print(f"never ran and not listed in {os.path.relpath(LISTED, ROOT)}: "
                  f"{path}:{line}: {source}")
    for entry in sorted(ran.elements()):
        print(f"listed in {os.path.relpath(LISTED, ROOT)} but ran: {entry}")
    return 1 if unlisted or ran else 0


def main(argv: list) -> int:
    checking = argv[:1] == ["--check"]
    pytest_args = (argv[1:] if checking else argv) or ["-q", "--continue-on-collection-errors"]
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
    unrun, total = [], 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        lines = executable_lines(path)
        total += len(lines)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        unrun += [(os.path.relpath(path, ROOT), line, source[line - 1].strip())
                  for line in sorted(lines - ran.get(os.path.realpath(path), set()))]
    if not checking:
        for path, line, source in unrun:
            print(f"{path}:{line}: {source}")
    print(f"{len(unrun)} of {total} executable lines in src/flowcl never ran")
    return (check(unrun, listed_lines(LISTED)) or code) if checking else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
