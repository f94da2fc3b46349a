"""Smoke tests of the scripts in bench/: one CLI call measured by
sample_pass.py, the --tree parsing it shares with analyze_pass.py, and the
code line count of code_lines.py."""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("analyze_pass"), importlib.import_module("sample_pass")


def test_run_records_every_figure_of_one_call(bench):
    _, sample_pass = bench
    got = sample_pass._run(os.path.join(ROOT, "src"),
                           ("sample", "k2", "--n", "100", "--seed", "1", "--scales", "1,2"))
    assert set(got) == {"wall_s", "peak_rss_mb", "minor_faults", "sys_s"}
    assert got["wall_s"] > 0 and got["peak_rss_mb"] > 0 and got["minor_faults"] > 0
    assert got["sys_s"] >= 0


def test_trees_of_wants_label_equals_path(bench, capsys):
    analyze_pass, _ = bench
    parser = analyze_pass.tree_parser(analyze_pass.__doc__)
    assert analyze_pass.trees_of(parser, ["change=."]) == {"change": os.path.abspath(".")}
    with pytest.raises(SystemExit) as refused:
        analyze_pass.trees_of(parser, ["/path/to/parent"])
    assert refused.value.code == 2 and "LABEL=PATH" in capsys.readouterr().err


MODULE = '''"""A module docstring,
over two lines."""
import os  # a comment after code


# a comment line
class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)
'''


def test_code_lines_counts_neither_blanks_comments_nor_docstrings(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(BENCH)
    code_lines = importlib.import_module("code_lines")
    package = tmp_path / "src" / "rigidset"
    package.mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "b.py").write_text("x = 1\n")
    # import, class, def, the string's two lines, the return's two
    assert code_lines.package_lines(str(tmp_path)) == {"a": 7, "b": 1}
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", str(tmp_path)], ["a", "7"], ["b", "1"], ["total", "8"]]
