"""The comparison `line_trace.py --check` makes between unrun lines and the committed list."""

from collections import Counter

import line_trace
from line_trace import check, listed_lines

UNRUN = [("src/flowcl/a.py", 12, "raise X()"), ("src/flowcl/a.py", 40, "raise X()"),
         ("src/flowcl/b.py", 7, "return y")]


def entries(*lines):
    return Counter(lines)


def test_the_committed_list_has_no_entries():
    assert listed_lines(line_trace.LISTED) == Counter()


def test_comments_and_blank_lines_are_not_entries(tmp_path):
    path = tmp_path / "unrun.txt"
    path.write_text("# why: no caller can pass it\n\n  src/flowcl/b.py: return y  \n",
                    encoding="utf-8")
    assert listed_lines(str(path)) == entries("src/flowcl/b.py: return y")


def test_listed_lines_match_by_file_and_source_not_line(capsys):
    listed = entries("src/flowcl/a.py: raise X()", "src/flowcl/a.py: raise X()",
                     "src/flowcl/b.py: return y")
    assert check(UNRUN, listed) == 0
    assert capsys.readouterr().out == ""


def test_an_unlisted_unrun_line_fails(capsys):
    assert check(UNRUN, entries("src/flowcl/a.py: raise X()", "src/flowcl/a.py: raise X()")) == 1
    assert "not listed in tests/unrun_lines.txt: src/flowcl/b.py:7: return y" in (
        capsys.readouterr().out)


def test_a_second_copy_of_a_listed_line_fails(capsys):
    assert check(UNRUN, entries("src/flowcl/a.py: raise X()", "src/flowcl/b.py: return y")) == 1
    assert "src/flowcl/a.py:40: raise X()" in capsys.readouterr().out


def test_a_listed_line_that_runs_fails(capsys):
    listed = entries("src/flowcl/a.py: raise X()", "src/flowcl/a.py: raise X()",
                     "src/flowcl/b.py: return y", "src/flowcl/c.py: pass")
    assert check(UNRUN, listed) == 1
    assert capsys.readouterr().out == (
        "listed in tests/unrun_lines.txt but ran: src/flowcl/c.py: pass\n")
