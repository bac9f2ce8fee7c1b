"""Run one `flowcl` command with every traced layer wrapped.

Usage: python3 perfbench/traced_cli.py SPANS_FILE FLOWCL_ARGS...

Exits with the command's own exit code after writing the spans.
"""

import sys

import flowcl.cli

from tracer import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        print("untraced (absent in this flowcl): " + ", ".join(missing), file=sys.stderr)
    code = flowcl.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
