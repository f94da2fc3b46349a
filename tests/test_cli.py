import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidset
from rigidset import cli, experiments, rigidity
from rigidset.cli import main
from rigidset.graphs import (complete_graph, double_banana, graph_to_json, make_graph,
                             path_graph, star_graph)
from rigidset.thresholds import analyze


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_double_banana(self, capsys):
        code, out, _ = run(capsys, "analyze", "double-banana", "--d", "3", "--seed", "7")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert doc["generic_rank"] == 17
        assert doc["predicted_distance_set_dimension"] == 17
        assert doc["is_generically_rigid"] is False
        assert "generic rank" in out

    def test_k4_from_file(self, capsys, tmp_path):
        path = tmp_path / "k4.json"
        path.write_text(graph_to_json(complete_graph(4)))
        code, out, _ = run(capsys, "analyze", str(path), "--d", "2", "--seed", "7")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert doc["predicted_distance_set_dimension"] == 5
        assert doc["is_minimally_rigid"] is False

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/g.json", "--seed", "1")
        assert code == 2
        assert "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{this is not json")
        code, _, err = run(capsys, "analyze", str(path), "--seed", "1")
        assert code == 2

    def test_invalid_dimension(self, capsys):
        code, _, err = run(capsys, "analyze", "k4", "--d", "1", "--seed", "1")
        assert code == 3

    def test_unwritable_output_prints_nothing(self, capsys, tmp_path):
        # the file is written before stdout, so a failed write leaves stdout empty
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "analyze", "k4", "--seed", "1", "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory") and err.count("\n") == 1

    def test_output_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "k4", "--seed", "7",
                           "--output", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["generic_rank"] == 5
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == [str(out_path)]
        assert manifest["parameters"] == {"d": 2, "graph": "k4"}
        assert len(manifest["input_sha1"]) == 40

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "k4"])
        assert exc.value.code == 2

    def test_oversized_json_refused(self, capsys, tmp_path):
        # 40 bytes of JSON must not allocate for 10^8 vertices
        path = tmp_path / "big.json"
        path.write_text('{"vertices": 100000000, "edges": [[1, 2]]}')
        code, out, err = run(capsys, "analyze", str(path), "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "100000000 vertices" in err

    @pytest.mark.parametrize("name, what", [
        ("k100000", "4999950000 edges"),
        ("k1415", "1000405 edges"),
        ("path-100001", "100001 vertices"),
        ("star-" + "9" * 5000, "more than 100000 vertices"),
    ])
    def test_oversized_name_refused(self, capsys, name, what):
        code, out, err = run(capsys, "analyze", name, "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert what in err

    @pytest.mark.parametrize("command", ["analyze", "complete", "sample"])
    @pytest.mark.parametrize("name", ["k1", "k0", "path-1", "star-1"])
    def test_too_small_name_refused(self, capsys, command, name):
        # the builders need two vertices; a name they refuse is malformed input
        code, out, err = run(capsys, command, name, "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: graph {name!r}: ") and err.count("\n") == 1
        assert err.endswith("needs n >= 2\n")


class TestPlaneOutputIgnoresTheSeed:
    """Plane ranks and completions come from the pebble game, which uses no
    witness, so analyze and complete print the same bytes under any seed."""

    # three components, rigid blocks sharing a vertex among them
    GRAPH = make_graph(11, [(1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6), (4, 6),
                            (7, 8), (8, 9), (9, 7), (10, 11)])

    @pytest.mark.parametrize("command", ["analyze", "complete"])
    @pytest.mark.parametrize("graph", ["double-banana", "path-40", "star-9", "k6", "file"])
    def test_two_seeds(self, capsys, tmp_path, command, graph):
        if graph == "file":
            graph = str(tmp_path / "g.json")
            (tmp_path / "g.json").write_text(graph_to_json(self.GRAPH))
        runs = [run(capsys, command, graph, "--d", "2", "--seed", seed)
                for seed in ("1", "4294967311")]
        # double-banana and k6 are dependent, so complete exits 4 on them
        dependent = command == "complete" and graph in ("double-banana", "k6")
        assert runs[0][0] == (4 if dependent else 0)
        assert runs[0] == runs[1]


class TestComplete:
    def test_path4(self, capsys):
        code, out, _ = run(capsys, "complete", "path-4", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == 4
        assert len(doc["edges"]) == 5
        assert [1, 2] in doc["edges"]

    def test_k3_unchanged(self, capsys):
        code, out, _ = run(capsys, "complete", "k3", "--seed", "7")
        assert code == 0
        assert json.loads(out) == json.loads(graph_to_json(complete_graph(3)))

    def test_double_banana_dependent(self, capsys):
        code, _, err = run(capsys, "complete", "double-banana", "--d", "3", "--seed", "7")
        assert code == 4
        assert "dependent edges" in err

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "complete", "not-a-graph", "--seed", "1")
        assert code == 2


class TestWitnessSizeGuard:
    """--d times the vertex count is capped by rigidity.MAX_WITNESS_COORDINATES;
    the cap is patched small here so that no test draws the real size."""

    @pytest.mark.parametrize("command", ["analyze", "complete"])
    def test_boundary(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.setattr(rigidity, "MAX_WITNESS_COORDINATES", 12)
        code, out, _ = run(capsys, command, "k4", "--d", "3", "--seed", "1")
        assert code == 0 and out
        path = tmp_path / "out.json"
        code, out, err = run(capsys, command, "k4", "--d", "4", "--seed", "1",
                             "--output", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "16 witness coordinates; at most 12" in err
        assert not path.exists()

    def test_analyze_counts_every_component(self, capsys, monkeypatch, tmp_path):
        # in R^3 each 2-vertex component's 6 coordinates alone fit; the
        # graph's 12 do not
        monkeypatch.setattr(rigidity, "MAX_WITNESS_COORDINATES", 6)
        path = tmp_path / "two.json"
        path.write_text(graph_to_json(make_graph(4, [(1, 2), (3, 4)])))
        code, out, err = run(capsys, "analyze", str(path), "--d", "3", "--seed", "1")
        assert code == 3 and out == ""
        assert "12 witness coordinates" in err

    @pytest.mark.parametrize("command", ["analyze", "complete"])
    def test_plane_calls_draw_no_witness(self, capsys, monkeypatch, command):
        monkeypatch.setattr(rigidity, "MAX_WITNESS_COORDINATES", 1)
        code, out, err = run(capsys, command, "path-40", "--seed", "1")
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("command", ["analyze", "complete"])
    def test_help_limits_the_guard_to_d_three(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert (f"--d D ambient dimension (default 2); in d >= 3, d times the vertex "
                f"count may be at most {rigidity.MAX_WITNESS_COORDINATES} ") in text


@pytest.mark.parametrize("command", ["analyze", "complete"])
@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_d_below_two_is_refused(capsys, command, d):
    code, out, err = run(capsys, command, "k4", "--d", d, "--seed", "1")
    assert (code, out, err) == (3, "", "error: d must be >= 2\n")


class TestLattice:
    def test_counts_and_bounds(self, capsys):
        code, out, _ = run(capsys, "lattice", "--d", "2", "--q-list", "1,2", "--k", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,classes,classes_labeled,count_bound,content_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["3", "6"]
        assert [r[3] for r in rows] == ["9", "25"]
        assert all(r[4] == "" for r in rows)

    def test_content_column(self, capsys):
        code, out, _ = run(capsys, "lattice", "--d", "2", "--q-list", "2",
                           "--k", "1", "--s", "1.5")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(2 ** (2 / 3), rel=1e-12)

    def test_s_out_of_range(self, capsys):
        code, _, err = run(capsys, "lattice", "--d", "2", "--s", "2.5")
        assert code == 3
        assert "s must lie" in err

    def test_guard(self, capsys):
        code, _, err = run(capsys, "lattice", "--d", "2", "--q-list", "50", "--k", "3")
        assert code == 5

    def test_guard_boundary(self, capsys, monkeypatch):
        # d = 2, q = 2, k = 1: 3^4 = 81 tuples; the limit is patched small
        # so that no test enumerates the real guard
        monkeypatch.setattr(experiments, "ENUMERATION_LIMIT", 81)
        code, out, _ = run(capsys, "lattice", "--q-list", "2", "--k", "1")
        assert code == 0 and out.splitlines()[1].startswith("2,6,6,")
        monkeypatch.setattr(experiments, "ENUMERATION_LIMIT", 80)
        code, out, err = run(capsys, "lattice", "--q-list", "1,2", "--k", "1")
        assert code == 5 and out == ""
        assert err == "error: (q+1)^(d(k+1)) tuples for d=2, q=2, k=1 exceed " \
                      "the enumeration guard of 80\n"

    @pytest.mark.parametrize("argv", [
        ("lattice", "--q-list", "1", "--k", "100000000"),
        ("lattice", "--q-list", "1", "--k", "100000000", "--s", "1.5"),
        ("lattice", "--q-list", "123456789012345678901234567890", "--k", "1"),
        ("sample", "k2", "--sampler", "lattice", "--q", "10000000000000000000000",
         "--s", "1.5", "--n", "10", "--seed", "1"),
    ])
    def test_huge_sizes_refused_briefly(self, capsys, argv):
        # the guard decides without building (q+1)^(d(k+1)) or (q+1)^d,
        # which here has up to 3*10^7 digits
        code, out, err = run(capsys, *argv)
        assert code == 5 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 150
        assert "guard" in err and "d=2, q=" in err

    def test_bad_q_list(self, capsys):
        code, _, err = run(capsys, "lattice", "--q-list", "1,x")
        assert code == 3

    def test_content_bound_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "lattice", "--d", "10", "--q-list", "10000000000",
                             "--k", "1", "--s", "9.99")
        assert code == 3 and out == ""
        assert err == "error: content bound q^45.035 at q=1e+10 is beyond the float range\n"

    def test_every_q_guarded_before_enumeration(self, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("a q enumerated before the guard saw the whole list")

        monkeypatch.setattr(cli, "congruence_class_counts", no_count)
        code, out, err = run(capsys, "lattice", "--d", "3", "--k", "1",
                             "--q-list", "8,8,8,8,200")
        assert code == 5 and out == ""
        assert err == ("error: (q+1)^(d(k+1)) tuples for d=3, q=200, k=1 exceed "
                       "the enumeration guard of 100000000\n")

    def test_s_checked_before_enumeration(self, capsys):
        # the range error must win even when the q would also trip the guard
        code, _, err = run(capsys, "lattice", "--d", "2", "--q-list", "50",
                           "--k", "3", "--s", "0.5")
        assert code == 3


@pytest.mark.parametrize("argv, message", [
    (("lattice", "--k", "0"), "--k must be >= 1"),
    (("lattice", "--q-list", "0"), "--q-list expects positive integers, got '0'"),
    (("sample", "k4", "--seed", "1", "--scales", "0,1"),
     "--scales expects positive integers, got '0,1'"),
])
def test_nonpositive_flag_refused(capsys, argv, message):
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


HUGE = str(10 ** 400)  # beyond the float range, so no float may be made of it


@pytest.mark.parametrize("argv", [
    ("analyze", "k4", "--d", HUGE, "--seed", "1"),
    ("lattice", "--d", HUGE, "--s", "1.5"),
    ("lattice", "--d", str(10 ** 200), "--s", "6e199"),
    ("sample", "k4", "--d", HUGE, "--sampler", "lattice", "--q", "2", "--s", "1.5",
     "--seed", "1"),
    ("lattice", "--k", HUGE),
    ("lattice", "--q-list", HUGE),
    ("lattice", "--q-list", HUGE, "--s", "1.5"),
    ("sample", "k4", "--sampler", "lattice", "--q", HUGE, "--s", "1.5", "--seed", "1"),
    ("sample", "k4", "--n", HUGE, "--seed", "1"),
    ("sample", "k4", "--sampler", "cantor", "--depth", HUGE, "--n", "10", "--seed", "1"),
    ("complete", "k4", "--seed", HUGE),
    ("sample", "k3", "--n", "10", "--seed", "1", "--scales", f"1,{HUGE}"),
    ("sample", "k4", "--d", HUGE, "--seed", "1"),
    ("complete", "k4", "--d", HUGE, "--seed", "1"),
    ("lattice", "--q-list", f"1,-{HUGE}"),
])
def test_huge_integer_gets_a_documented_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code in (0, 2, 3, 4, 5)
    assert code == 0 or err.startswith("error: ") and err.count("\n") == 1
    # a refusal names an integer above 10^30 by its digit count
    assert len(err) < 200


@pytest.mark.parametrize("argv, message", [
    (("sample", "k4", "--n", HUGE, "--seed", "1"),
     "an integer of 401 digits samples of 4 points in R^2 need an integer of 402 digits "
     "array entries; at most 50000000 are supported"),
    (("analyze", "k4", "--d", HUGE, "--seed", "1"),
     "d=an integer of 401 digits on 4 vertices needs an integer of 401 digits witness "
     "coordinates; at most 1000000 are supported"),
    (("lattice", "--d", HUGE, "--s", "1.5"),
     "s must lie in [d/2, d) for d = an integer of 401 digits, got 1.5"),
    (("lattice", "--d", str(10 ** 30), "--q-list", "2"),
     f"(q+1)^(d(k+1)) tuples for d={10 ** 30}, q=2, k=1 exceed the enumeration "
     "guard of 100000000"),
    (("lattice", "--d", str(10 ** 30 + 1), "--q-list", "2"),
     "(q+1)^(d(k+1)) tuples for d=an integer of 31 digits, q=2, k=1 exceed the "
     "enumeration guard of 100000000"),
    (("lattice", "--q-list", f"1,-{HUGE}"),
     "--q-list expects positive integers, got '1,a negative integer of 401 digits'"),
])
def test_huge_integer_named_by_its_digits(capsys, argv, message):
    # an integer up to 10^30 is printed in full, a larger one by its digits
    code, out, err = run(capsys, *argv)
    assert (out, err) == ("", f"error: {message}\n")


# past int's 4300-digit limit, so argparse and the list parser never make an
# integer of either; a refusal must not repeat them
LONG_TEXTS = {"digits": "1" + "0" * 4999, "letters": "x" * 5000}


@pytest.mark.parametrize("text", LONG_TEXTS.values(), ids=LONG_TEXTS)
@pytest.mark.parametrize("argv, code", [
    (("analyze", "k4", "--seed", "1", "--d"), 2),
    (("analyze", "k4", "--seed"), 2),
    (("complete", "k4", "--seed", "1", "--d"), 2),
    (("complete", "k4", "--seed"), 2),
    (("lattice", "--d"), 2),
    (("lattice", "--k"), 2),
    (("sample", "k4", "--seed", "1", "--d"), 2),
    (("sample", "k4", "--seed", "1", "--q"), 2),
    (("sample", "k4", "--seed", "1", "--depth"), 2),
    (("sample", "k4", "--seed", "1", "--n"), 2),
    (("sample", "k4", "--seed"), 2),
    (("lattice", "--q-list"), 3),
    (("sample", "k4", "--seed", "1", "--scales"), 3),
])
def test_long_option_text_refused_briefly(capsys, argv, code, text):
    # argparse (exit 2) prints its usage block, then one line; main (exit 3)
    # prints one `error:` line. Either line names the text by its length.
    try:
        got = main([*argv, text])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    assert err.endswith(f" a text of {len(text)} characters\n")
    assert len(err.splitlines()[-1]) < 200 and text[:20] not in err
    assert code == 2 or err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, tail", [
    (("analyze", "k4", "--seed", "x" * 64), f"argument --seed: invalid int value: '{'x' * 64}'"),
    (("analyze", "k4", "--seed", "x" * 65),
     "argument --seed: invalid int value: a text of 65 characters"),
    (("lattice", "--s", "one"), "argument --s: invalid float value: 'one'"),
    (("lattice", "--s", "x" * 5000),
     "argument --s: invalid float value: a text of 5000 characters"),
])
def test_option_text_repeated_up_to_64_characters(capsys, argv, tail):
    with pytest.raises(SystemExit):
        main(list(argv))
    assert capsys.readouterr().err.endswith(f": error: {tail}\n")


class TestSample:
    def test_k2_cube(self, capsys):
        code, out, _ = run(capsys, "sample", "k2", "--n", "2000", "--seed", "11")
        assert code == 0
        lines = out.strip().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "eps,count"
        assert len(data) == 6
        slope_line = next(line for line in lines if line.startswith("# slope="))
        assert 0.8 < float(slope_line.split("=")[1]) < 1.1

    def test_edgeless_graph_refused_before_drawing(self, capsys, monkeypatch, tmp_path):
        def no_draw(*args, **kwargs):
            raise AssertionError("tuples drawn for a graph without edges")

        monkeypatch.setattr(experiments, "_sample_chunks", no_draw)
        path = tmp_path / "edgeless.json"
        path.write_text(graph_to_json(make_graph(3, [])))
        code, out, err = run(capsys, "sample", str(path), "--seed", "1")
        assert code == 3 and out == ""
        assert err == (f"error: graph {str(path)!r} has no edges, "
                       "so it has no distances to sample\n")

    def test_negative_seed_refused_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("tuples drawn for a negative seed")

        monkeypatch.setattr(experiments, "_sample_chunks", no_draw)
        code, out, err = run(capsys, "sample", "k4", "--seed", "-1")
        assert (code, out, err) == (3, "", "error: --seed must be >= 0 for sample\n")

    def test_k4_euler_summary(self, capsys):
        code, out, _ = run(capsys, "sample", "k4", "--n", "3000", "--seed", "11")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("# max_euler_residual="))
        assert float(line.split("=")[1]) < 1e-9

    def test_degenerate_tuples_counted(self, capsys):
        # the Cantor set of depth 1 has 4 points, so most tuples repeat one;
        # their residuals are undefined, and no warning may reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sample", "k4", "--sampler", "cantor", "--depth", "1",
                                 "--n", "100", "--seed", "1", "--scales", "1,2")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "# sample k4 d=2 sampler=cantor n=100 seed=1",
            "# scales=1,2",
            "# slope=1.18057224564182",
            "# max_euler_residual=1.4048949503631344e-08",
            "# degenerate_tuples=58",
            "eps,count",
            "0.5,15",
            "0.25,34",
        ]

    def test_all_tuples_degenerate(self, capsys, monkeypatch):
        def coincident(sampler, rng, count):
            return np.zeros((count, sampler.d))

        monkeypatch.setattr(experiments.UnitCubeSampler, "draw", coincident)
        code, out, _ = run(capsys, "sample", "k4", "--n", "7", "--seed", "1", "--scales", "1,2")
        assert code == 0
        assert "max_euler_residual" not in out
        assert "# degenerate_tuples=7\neps,count\n" in out

    def test_no_euler_line_off_plane(self, capsys):
        code, out, _ = run(capsys, "sample", "k4", "--d", "3", "--n", "100", "--seed", "1")
        assert code == 0
        assert "max_euler_residual" not in out

    def test_lattice_sampler(self, capsys):
        code, out, _ = run(capsys, "sample", "k2", "--sampler", "lattice",
                           "--q", "3", "--s", "1.5", "--n", "500", "--seed", "2")
        assert code == 0

    @pytest.mark.parametrize("argv, digest", [
        (("sample", "k4", "--sampler", "lattice", "--q", "7", "--s", "1.5",
          "--n", "5000", "--seed", "1", "--scales", "1,2,3"),
         "ffe510c1c4d332e9cc6e4c70b9e685c4541a7fc0"),
        (("sample", "k3", "--d", "3", "--sampler", "lattice", "--q", "20", "--s", "2.0",
          "--n", "5000", "--seed", "3", "--scales", "2,3,4"),
         "04313cfb119504737273558287a5332901b762b8"),
        (("sample", "path-4", "--d", "5", "--sampler", "lattice", "--q", "6", "--s", "3.0",
          "--n", "5000", "--seed", "4", "--scales", "2,3,4"),
         "5e5a1648bba4bf3d30559bd97e9ab865f79451a3"),
    ])
    def test_lattice_sampler_output_pinned(self, capsys, argv, digest):
        # sha1 of stdout as computed when the sampler still held the grid as
        # a stored array of Fraction-built centers; decoding indices into
        # digits must not move a bit
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha1(out.encode()).hexdigest() == digest

    def test_lattice_sampler_large_q(self, capsys):
        # 10^12 grid points: the sampler draws indices and stores no points
        code, out, err = run(capsys, "sample", "k4", "--sampler", "lattice", "--q", "1000000",
                             "--s", "1.5", "--n", "100", "--seed", "1", "--scales", "1,2")
        assert code == 0 and err == ""
        assert out.startswith("# sample k4 d=2 sampler=lattice n=100 seed=1\n")

    def test_lattice_sampler_needs_q_and_s(self, capsys):
        code, _, err = run(capsys, "sample", "k2", "--sampler", "lattice",
                           "--n", "100", "--seed", "2")
        assert code == 3
        assert "--q and --s" in err

    def test_cantor_sampler(self, capsys):
        code, out, _ = run(capsys, "sample", "k2", "--sampler", "cantor", "--d", "1",
                           "--n", "4000", "--seed", "3")
        assert code == 0
        slope_line = next(l for l in out.splitlines() if l.startswith("# slope="))
        assert 0.8 < float(slope_line.split("=")[1]) < 1.1

    def test_bad_scales(self, capsys):
        code, _, err = run(capsys, "sample", "k2", "--n", "10", "--seed", "1",
                           "--scales", "3")
        assert code == 3

    def test_scales_beyond_int64_grid(self, capsys):
        # at eps = 2^-64 some distance / eps passes 2^63, so cell indices
        # would wrap in int64
        code, out, err = run(capsys, "sample", "k3", "--n", "1000", "--seed", "1",
                             "--scales", "1,64")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "sample", "k2", "--n", "0", "--seed", "1")
        assert code == 3

    def test_repeated_scales_give_no_slope(self, capsys, monkeypatch):
        # refused before any tuple is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("tuples drawn for a refused scale list")

        monkeypatch.setattr(experiments, "_sample_chunks", no_draw)
        code, out, err = run(capsys, "sample", "k3", "--n", "1000000", "--seed", "1",
                             "--scales", "5,5,5")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "two distinct scales" in err

    @pytest.mark.parametrize("scales", ["1,1100", "1080,1100"])
    def test_underflowed_scale_refused(self, capsys, monkeypatch, scales):
        # 2^-e is 0.0 for every e >= 1075; refused before any tuple is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("tuples drawn for a refused scale list")

        monkeypatch.setattr(experiments, "_sample_chunks", no_draw)
        code, out, err = run(capsys, "sample", "k4", "--n", "1000", "--seed", "1",
                             "--scales", scales)
        assert code == 3 and out == ""
        assert err == "error: scale 0.0 is not positive " \
                      "(2^-e underflows to 0.0 for every e >= 1075)\n"

    @pytest.mark.parametrize("extra, entries", [
        (("--n", "10"), 50),
        (("--n", "10", "--sampler", "cantor", "--d", "1", "--depth", "3"), 70),
    ])
    def test_size_guard_boundary(self, capsys, monkeypatch, tmp_path, extra, entries):
        # k2: per tuple 2 points of d coordinates (times --depth digits for
        # the cantor sampler) plus 1 distance; the cap is patched small here
        # so that no test allocates the real size
        monkeypatch.setattr(experiments, "SAMPLE_ENTRY_LIMIT", entries)
        code, out, _ = run(capsys, "sample", "k2", *extra, "--seed", "1", "--scales", "1,2")
        assert code == 0 and out
        monkeypatch.setattr(experiments, "SAMPLE_ENTRY_LIMIT", entries - 1)
        path = tmp_path / "out.csv"
        code, out, err = run(capsys, "sample", "k2", *extra, "--seed", "1", "--scales", "1,2",
                             "--output", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{entries} array entries; at most {entries - 1}" in err
        assert not path.exists()


class TestManifestParameters:
    """The manifest of every command names the options it parsed, with
    the lists in place of their strings, and nothing else but the seed."""

    @pytest.mark.parametrize("argv, seed, parameters", [
        (("complete", "path-6", "--d", "3", "--seed", "3"), 3, {"graph": "path-6", "d": 3}),
        (("lattice", "--d", "2", "--k", "2", "--q-list", "2,4", "--s", "1.5"), None,
         {"d": 2, "q_list": [2, 4], "k": 2, "s": 1.5}),
        (("lattice", "--q-list", "1,2"), None, {"d": 2, "q_list": [1, 2], "k": 1, "s": None}),
        (("sample", "k4", "--n", "2000", "--seed", "21"), 21,
         {"graph": "k4", "d": 2, "sampler": "cube", "n": 2000, "scales": [3, 4, 5, 6, 7],
          "q": None, "s": None, "depth": 35}),
        (("sample", "k3", "--sampler", "lattice", "--q", "4", "--s", "1.5", "--n", "500",
          "--seed", "2", "--scales", "2,3"), 2,
         {"graph": "k3", "d": 2, "sampler": "lattice", "n": 500, "scales": [2, 3],
          "q": 4, "s": 1.5, "depth": 35}),
        (("sample", "k2", "--sampler", "cantor", "--d", "1", "--depth", "5", "--n", "500",
          "--seed", "2", "--scales", "2,3"), 2,
         {"graph": "k2", "d": 1, "sampler": "cantor", "n": 500, "scales": [2, 3],
          "q": None, "s": None, "depth": 5}),
    ])
    def test_parameters(self, capsys, tmp_path, argv, seed, parameters):
        path = tmp_path / "out.txt"
        code, _, _ = run(capsys, *argv, "--output", str(path))
        assert code == 0
        manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["seed"] == seed
        assert manifest["parameters"] == parameters


class TestDeterminism:
    def test_analyze_stdout_identical(self, capsys):
        _, first, _ = run(capsys, "analyze", "double-banana", "--d", "3", "--seed", "9")
        _, second, _ = run(capsys, "analyze", "double-banana", "--d", "3", "--seed", "9")
        assert first == second

    def test_sample_stdout_identical(self, capsys):
        args = ("sample", "k4", "--n", "500", "--seed", "21")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("argv, sha1", [
        # the slope and the Euler residual line, at d = 2
        (("sample", "k4", "--n", "20000", "--seed", "1", "--scales", "1,2,3,4"),
         "6c3df1cbbaffa3d33e264b159b2b562db573c5fd"),
        # d = 9, where the edge lengths come from np.linalg.norm
        (("sample", "path-5", "--d", "9", "--n", "5000", "--seed", "2", "--scales", "1,2,3"),
         "bac99b4315908eb790fe54f88e915e28a440bb7b"),
    ])
    def test_sample_stdout_pinned(self, capsys, argv, sha1):
        # sha1 of the stdout recorded before the column-at-a-time kernels
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha1(out.encode("utf-8")).hexdigest() == sha1

    def test_different_seed_differs(self, capsys):
        _, first, _ = run(capsys, "sample", "k2", "--n", "500", "--seed", "1")
        _, second, _ = run(capsys, "sample", "k2", "--n", "500", "--seed", "2")
        assert first != second

    def test_output_file_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "lattice", "--q-list", "1,2,3", "--s", "1.25", "--output", str(a))
        run(capsys, "lattice", "--q-list", "1,2,3", "--s", "1.25", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


# pairs that share a size and a rank but not their pruning (the 4-cycle, a
# triangle with a pendant edge) or, in the plane, their edge count (K4 and K4
# less an edge, each with a pendant edge)
_LOOKALIKES = [make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
               make_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
               make_graph(5, complete_graph(4).edges + ((4, 5),)),
               make_graph(5, complete_graph(4).edges[1:] + ((4, 5),))]
# the parts of the emitter's graphs: K2..K5, paths, stars, the double banana,
# isolated vertices and the lookalikes
_PARTS = st.one_of(
    st.integers(2, 5).map(complete_graph),
    st.integers(2, 6).map(path_graph),
    st.integers(2, 6).map(star_graph),
    st.just(double_banana()),
    st.none(),
    st.sampled_from(_LOOKALIKES),
)


def _disjoint_union(parts, rng: random.Random):
    """The disjoint union of parts (None for an isolated vertex), its
    labels shuffled by rng."""
    edges, n = [], 0
    for part in parts:
        if part is not None:
            edges += [(n + i, n + j) for i, j in part.edges]
        n += 1 if part is None else part.n_vertices
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return make_graph(n, [(labels[i - 1], labels[j - 1]) for i, j in edges])


class TestReportJson:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_PARTS, min_size=1, max_size=12), st.integers(2, 5), st.integers(0, 2 ** 32),
           st.randoms(use_true_random=False))
    def test_same_bytes_as_the_indented_dump(self, parts, d, seed, rng):
        # d = 2..5 gives thresholds that are None (isolated vertices) and
        # components with and without small_regime_note
        report = analyze(_disjoint_union(parts, rng), d, seed)
        reference = json.dumps(report.to_json_obj(), indent=2, sort_keys=True)
        assert cli._report_json(report) == reference

    def test_forest_output_pinned(self, capsys, tmp_path, monkeypatch):
        # sha1 of the stdout recorded before analyze wrote its JSON per
        # distinct component: 200 components cycling through twelve kinds
        kinds = [complete_graph(2), complete_graph(3), complete_graph(4), complete_graph(5),
                 path_graph(4), star_graph(5), double_banana(), None, *_LOOKALIKES]
        g = _disjoint_union([kinds[c % len(kinds)] for c in range(200)], random.Random(200))
        monkeypatch.chdir(tmp_path)
        Path("forest-200.json").write_text(graph_to_json(g))
        code, out, err = run(capsys, "analyze", "forest-200.json", "--seed", "1")
        assert (code, err) == (0, "")
        assert hashlib.sha1(out.encode("utf-8")).hexdigest() == (
            "280aae64dba05e8ababa554db477cbd25d0ee83c")


def _child(*args):
    # the package this test imported goes first on the child's path
    package_root = str(Path(rigidset.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestProcessEntry:
    def test_module_prints_what_main_prints(self, capsys):
        argv = ("analyze", "k4", "--seed", "1")
        child = _child("-m", "rigidset.cli", *argv)
        assert (child.returncode, child.stdout, child.stderr) == run(capsys, *argv)

    def test_run_freezes_the_heap(self):
        child = _child("-c", "import gc, sys\n"
                             "from rigidset import cli\n"
                             "code = cli.run(['analyze', 'k2', '--seed', '1'])\n"
                             "print(code, gc.get_freeze_count() > 0, file=sys.stderr)")
        assert child.stderr == "0 True\n"

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert run(capsys, "analyze", "k4", "--seed", "1")[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before
