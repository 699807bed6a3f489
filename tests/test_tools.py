"""Tests for the scripts under tools/."""

import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import code_lines  # noqa: E402


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], [__file__, "--help"]])
def test_code_lines_prints_usage_on_options(argv, capsys):
    assert code_lines.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: python tools/code_lines.py")


def test_code_lines_names_a_missing_path(tmp_path, capsys):
    missing = tmp_path / "absent.py"
    assert code_lines.main([__file__, str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"no such file: {missing}\n"


def test_code_lines_counts_code_only(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text('"""doc"""\n\n# comment\nx = 1\n')
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out == f"     1  {path}\n     1  total\n"
