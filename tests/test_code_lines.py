import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
# a comment

import math  # a trailing comment


class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring,

        with a blank line."""
        text = """a string
        that is code"""
        return (side
                * side)
'''


def test_counts_lines_with_code_and_no_blank_comment_or_docstring_line(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, def, the two-line string, the two-line return
    assert code_lines.code_lines(path) == 7


def test_counts_every_package_module_by_default(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith(" total") and sum(counts[:-1]) == counts[-1]
    assert any(line.endswith("cli.py") for line in lines)
