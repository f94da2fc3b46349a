"""Smoke tests of the scripts in bench/: one CLI call and one whole
measurement of one tree by compare.py, its --tree parsing, and the code
line count of code_lines.py."""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
CALL_FIGURES = {"wall_s", "peak_rss_mb", "minor_faults", "sys_s"}


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("compare")


def test_run_records_every_figure_of_one_call(compare):
    got = compare._run(os.path.join(ROOT, "src"),
                       ("sample", "k2", "--n", "100", "--seed", "1", "--scales", "1,2"), ROOT)
    assert set(got) == CALL_FIGURES
    assert got["wall_s"] > 0 and got["peak_rss_mb"] > 0 and got["minor_faults"] > 0
    assert got["sys_s"] >= 0


def test_trees_of_wants_label_equals_path(compare, capsys):
    assert compare._tree("change=.") == ("change", os.path.abspath("."))
    with pytest.raises(SystemExit) as refused:
        compare.main(["--tree", "/path/to/parent"])
    assert refused.value.code == 2 and "LABEL=PATH" in capsys.readouterr().err


def test_measure_records_stages_and_calls_of_one_tree(compare, monkeypatch):
    monkeypatch.setattr(compare, "ROUNDS", 1)
    monkeypatch.setattr(compare, "FOREST_SIZES", (3,))
    monkeypatch.setattr(compare, "LAMAN_SIZES", (6,))
    monkeypatch.setattr(compare, "CALLS", {"forest": ("analyze", "forest-3.json", "--seed", "1")})
    record = compare.measure({"change": ROOT})
    assert record["calls"] == {"forest": "analyze forest-3.json --seed 1"}
    assert set(record["inputs"]) == {"forest-3", "laman-6"}
    tree = record["trees"]["change"]
    assert tree["src_sha1"] and "commit" in tree and "src_dirty" in tree
    figures = tree["figures"]
    assert set(figures) == {"forest-3", "laman-6", "forest"}
    for name in ("forest-3", "laman-6"):
        assert set(figures[name]) == set(compare.STAGES)
        assert all(figure["samples"] == compare.REPEATS for figure in figures[name].values())
    assert set(figures["forest"]) == CALL_FIGURES
    assert all(figure["samples"] == 1 for figure in figures["forest"].values())


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
