"""tools/code_lines.py: the code-line count ROADMAP and CHANGES quote."""

import runpy
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# The package's size after the last change that shrank it; it should only
# shrink.
CEILING = 1640


def test_reports_every_module_and_a_total_under_the_ceiling():
    out = subprocess.run([sys.executable, "-B", str(TOOL)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    rows = [line.split() for line in out.splitlines()]
    counts = {name: int(n) for n, name in rows}
    modules = {p.name for p in (TOOL.parents[1] / "src" / "fedmatch").glob("*.py")}
    assert set(counts) == modules | {"total"}
    assert counts["total"] == sum(n for name, n in counts.items() if name != "total")
    assert 0 < counts["total"] <= CEILING


def test_blanks_comments_and_docstrings_do_not_count():
    code_lines = runpy.run_path(str(TOOL))["code_lines"]
    source = '''"""Module
docstring."""

# a comment
X = 1  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """a string
        that is code"""
'''
    # X = 1, class A:, def f and the two lines of the return statement
    assert code_lines(source) == 5
