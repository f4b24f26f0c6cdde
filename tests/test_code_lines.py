import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = textwrap.dedent(
    '''
    """A module docstring
    over two lines."""

    import math  # a trailing comment does not hide the code

    # a comment line


    def area(r):
        """A function docstring."""
        return math.pi * (
            r
            * r
        )


    class Shape:
        """A class docstring."""

        label = """a string that is
    not a docstring"""
    '''
)


def test_counts_code_lines_only():
    # import; def and its 4-line return; class; the 2-line string assignment
    assert code_lines.code_lines(SOURCE) == 1 + 5 + 1 + 2


def test_an_empty_module_has_none():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     9 a.py", "     1 b.py", "    10 total", ""]
