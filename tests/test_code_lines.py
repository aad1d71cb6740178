import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_counts_lines_with_code_and_skips_docstrings(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "import os  # counted\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function\n    docstring."""\n'
        "    return os.path.join(\n"
        '        """a string argument\n        on two lines""",\n'
        "        x,\n"
        "    )\n"
    )
    # import, def, return, the argument's two lines, x, and the closing paren
    assert code_lines.code_lines(src) == 7
