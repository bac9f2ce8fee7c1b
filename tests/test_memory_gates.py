"""The full-size memory gate runner, tests/memory_gates.py: its table and its peak reader."""

import ast
import os
import subprocess
import sys

import pytest

import memory_gates
from flowcl.cli import build_parser

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("gate", memory_gates.gates("work"), ids=lambda gate: gate.name)
def test_every_gate_parses(gate):
    build_parser().parse_args(gate.argv)


def test_peak_reader_reads_one_child():
    """From a small driver, not this process: a child's ru_maxrss starts at its parent's RSS."""
    driver = ("import sys, memory_gates as m\n"
              "fill = [sys.executable, '-c', 'b = bytearray(b\"1\") * (64 << 20)']\n"
              "fail = [sys.executable, '-c', 'raise SystemExit(3)']\n"
              "print((m.child_peak(fill, None), m.child_peak(fail, None),\n"
              "       'numpy' in sys.modules or 'flowcl' in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", driver], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=HERE)).stdout
    (code_fill, fill_mb), (code_fail, fail_mb), loaded = ast.literal_eval(out)
    assert (code_fill, code_fail, loaded) == (0, 3, False)
    assert fill_mb >= 64 and fail_mb < 40
