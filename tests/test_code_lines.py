"""The code-line counter of ``tools/code_lines.py``, run on a fixture package."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 11 code lines: every docstring, comment and blank line is left out, and
# the statements over several lines count each line they hold a token on
MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring."""
        return os.path.join(
            "a",
            # a comment inside a statement
            "b",
        )


async def run():
    \'\'\'A docstring in single quotes.\'\'\'
    text = """a string that is
not a docstring"""
    return text
'''

INIT = '''"""The fixture package."""

__all__ = ["Thing", "run"]
'''


def test_counts_a_fixture_package(tmp_path):
    package = tmp_path / "redei_berge"
    package.mkdir()
    (package / "__init__.py").write_text(INIT)
    (package / "module.py").write_text(MODULE)
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    report = [line.split() for line in result.stdout.splitlines()]
    assert report == [
        ["__init__", "1"],
        ["module", "11"],
        ["total", "12"],
        ["__all__", "2"],
    ]
