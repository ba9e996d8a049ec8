import csv
import json

import pytest

from pathramsey import cli
from pathramsey.graphs import HostGraph, power_of_path, write_edge_list


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_graph(path, g):
    with open(path, "w") as fh:
        write_edge_list(g, fh)


@pytest.fixture
def path_graph_file(tmp_path):
    p = tmp_path / "graph.txt"
    _write_graph(p, power_of_path(200, 2))
    return str(p)


@pytest.fixture
def bipartite_file(tmp_path):
    g = HostGraph(8, [(i, 4 + j) for i in range(4) for j in range(4)],
                  bipartition=(4, 4))
    p = tmp_path / "bip.txt"
    _write_graph(p, g)
    return str(p)


def test_plane_stdout(capsys):
    code, out, _ = run(capsys, "plane", "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 3
    assert len(doc["points"]) == 9
    assert len(doc["lines"]) == 12
    assert len(doc["classes"]) == 4
    assert all(len(cls) == 3 for cls in doc["classes"])


def test_plane_to_file(capsys, tmp_path):
    out_path = tmp_path / "plane.json"
    code, out, _ = run(capsys, "plane", "--q", "4", "--out", str(out_path))
    assert code == 0
    assert "plane q=4" in out
    doc = json.loads(out_path.read_text())
    assert len(doc["lines"]) == 20


def test_plane_bad_order(capsys):
    code, _, err = run(capsys, "plane", "--q", "6")
    assert code == cli.EXIT_INPUT
    assert "error" in err


def test_color_certificate(capsys, path_graph_file, tmp_path):
    cert = tmp_path / "cert.txt"
    counts = tmp_path / "counts.csv"
    code, out, _ = run(capsys, "color", "--graph", path_graph_file,
                       "--r", "4", "--d", "3.97", "--C", "5", "--seed", "0",
                       "--trials", "100",
                       "--out", str(cert), "--counts-out", str(counts))
    assert code == 0
    assert "certificate found" in out
    lines = cert.read_text().splitlines()
    assert lines[0].startswith("# certificate")
    assert lines[1].startswith("v0 ")
    with open(counts) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6      # q = 2 plane has 6 lines
    assert all(row["pass"] == "1" for row in rows)


def test_color_failure_exit_code(capsys, tmp_path):
    from pathramsey.graphs import complete_graph
    p = tmp_path / "k40.txt"
    _write_graph(p, complete_graph(40))
    with pytest.warns(UserWarning):
        code, out, _ = run(capsys, "color", "--graph", str(p),
                           "--r", "4", "--d", "5.0", "--trials", "5")
    assert code == cli.EXIT_INFEASIBLE
    assert "FAIL" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_color_rejects_trials_below_one(capsys, path_graph_file, trials):
    code, out, err = run(capsys, "color", "--graph", path_graph_file,
                         "--r", "4", "--d", "3.97", "--trials", trials)
    assert code == cli.EXIT_INPUT
    assert "max_trials" in err
    assert "FAIL" not in out


@pytest.mark.parametrize("text", ["", "# comments only\n\n"])
def test_color_rejects_graph_without_vertices(capsys, tmp_path, text):
    p = tmp_path / "empty.txt"
    p.write_text(text)
    code, _, err = run(capsys, "color", "--graph", str(p),
                       "--r", "4", "--d", "2.0")
    assert code == cli.EXIT_INPUT
    assert "graph has no vertices" in err


def test_bounds_general(capsys):
    code, out, _ = run(capsys, "bounds", "--r", "4", "--n", "10000",
                       "--d", "2.0", "--C", "0")
    assert code == 0
    assert "40000.0000" in out


def test_bounds_path_power(capsys):
    code, out, _ = run(capsys, "bounds", "--r", "4", "--n", "500", "--k", "1")
    assert code == 0
    assert "1996.0000" in out


def test_bounds_missing_degree(capsys):
    code, _, err = run(capsys, "bounds", "--r", "4", "--n", "100")
    assert code == cli.EXIT_INPUT
    assert "--d or --k" in err


def test_optimize_three_colors(capsys):
    code, out, _ = run(capsys, "optimize", "--r", "3")
    assert code == 0
    assert "cd*=764.02" in out
    assert "INCONSISTENT with the published bound" in out
    assert "corrected pair" in out


def test_sample_support(capsys, tmp_path):
    out_path = tmp_path / "g.txt"
    code, out, _ = run(capsys, "sample", "--side-size", "20",
                       "--degree", "3", "--seed", "1", "--out", str(out_path))
    assert code == 0
    assert "multigraph support" in out
    assert out_path.exists()


def test_sample_simple_deterministic(capsys, tmp_path):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    for p in (p1, p2):
        code, out, _ = run(capsys, "sample", "--side-size", "30",
                           "--degree", "2", "--seed", "7", "--simple",
                           "--out", str(p))
        assert code == 0
        assert "simple after" in out
    assert p1.read_text() == p2.read_text()


def test_expand_pass(capsys, bipartite_file):
    code, out, _ = run(capsys, "expand", "--graph", bipartite_file,
                       "--s", "2")
    assert code == 0
    assert "PASS" in out


def test_expand_fail(capsys, tmp_path):
    g = HostGraph(8, [(i, 4 + i) for i in range(4)], bipartition=(4, 4))
    p = tmp_path / "m.txt"
    _write_graph(p, g)
    code, out, _ = run(capsys, "expand", "--graph", str(p), "--s", "2")
    assert code == cli.EXIT_VERIFY
    assert "zero-edge pair" in out


def test_expand_sampled(capsys, bipartite_file):
    code, out, _ = run(capsys, "expand", "--graph", bipartite_file,
                       "--s", "2", "--mode", "sampled",
                       "--samples", "200", "--seed", "3")
    assert code == 0
    assert "no violation found" in out


def test_arrow_oracle_true(capsys, tmp_path):
    from pathramsey.graphs import complete_graph
    p = tmp_path / "k4.txt"
    _write_graph(p, complete_graph(4))
    code, out, _ = run(capsys, "arrow-oracle", "--graph", str(p),
                       "--path-vertices", "3", "--colors", "2")
    assert code == 0
    assert "arrows" in out


def test_arrow_oracle_false(capsys, tmp_path):
    p = tmp_path / "p3.txt"
    _write_graph(p, power_of_path(3, 1))
    code, out, _ = run(capsys, "arrow-oracle", "--graph", str(p),
                       "--path-vertices", "3", "--colors", "2")
    assert code == cli.EXIT_VERIFY
    assert "witness coloring" in out


def test_g_surface_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "g-surface", "--r", "3",
                       "--c-lo", "4", "--c-hi", "10",
                       "--d-lo", "80", "--d-hi", "100",
                       "--steps", "5", "--out", str(out_path))
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    assert all(row["valid"] == "1" for row in rows)


def test_moment_converge_csv(capsys):
    code, out, _ = run(capsys, "moment-converge", "--r", "3",
                       "--c", "8.2919", "--d", "92.1405",
                       "--n", "1000", "10000")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [row["n"] for row in rows] == ["1000", "10000"]
    assert float(rows[0]["scaled_gap"]) >= float(rows[1]["scaled_gap"])


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "color", "--graph", "/no/such/file",
                       "--r", "4", "--d", "2.0")
    assert code == cli.EXIT_INPUT
    assert "error" in err
