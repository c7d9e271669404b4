import json

import numpy as np
import pytest

from permgen import Corpus, classify, parse_generator, permissible_set, splice_spec
from permgen.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.csv"
    path.write_text("0,0\n0,1\n1,0\n")
    return str(path)


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.csv"
    path.write_text("0\n1\n")
    return str(path)


# -- analyze --------------------------------------------------------------------


def test_analyze_reports_sets(triangle_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", triangle_file, "--generator", "conv")
    assert code == 0
    report = json.loads(out)
    assert report["generator"] == "conv"
    assert report["corpus"]["size"] == 3
    assert report["generable"]["type"] == "region"
    assert len(report["generable"]["vertices"]) == 3
    assert report["permissible"]["empty"] is True
    assert "generable_polygon" in report["plot"]


def test_analyze_add_reports_before_and_after(triangle_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", triangle_file, "--generator", "conv", "--add", "1,1")
    assert code == 0
    report = json.loads(out)
    add = report["add"]
    assert add["case"] == "not_generable"
    assert add["before"]["empty"] is True
    assert add["after"]["empty"] is False
    (vertex,) = add["after"]["vertices"]
    assert vertex == pytest.approx([0.5, 0.5], abs=1e-9)
    assert add["strictly_expanded"] is True


def test_analyze_query_attribution(interval_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", interval_file, "--generator", "conv", "--query", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["permissible"]["empty"] is True
    assert report["query"]["status"] == "violation"
    assert report["query"]["infringed"] == [[0.0], [1.0]]


def test_analyze_query_outside_box(triangle_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", triangle_file, "--generator", "conv", "--query", "9,9")
    assert code == 0
    assert json.loads(out)["query"]["status"] == "not_generable"


def test_analyze_splice_grid_description(tmp_path, capsys):
    path = tmp_path / "pair.csv"
    path.write_text("0,0\n1,1\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--generator", "splice")
    assert code == 0
    report = json.loads(out)
    assert report["generable"]["type"] == "grid"
    assert report["generable"]["cardinality"] == 4
    assert report["generable"]["sizes"] == [2, 2]


def test_analyze_raster(triangle_file, capsys):
    code, out, _ = run_cli(
        capsys, "analyze", triangle_file, "--generator", "conv", "--grid-res", "16"
    )
    assert code == 0
    raster = json.loads(out)["plot"]["raster"]
    assert len(raster["xs"]) == 16
    assert len(raster["status"]) == 16
    flat = {s for row in raster["status"] for s in row}
    assert "not_generable" in flat
    assert "violation" in flat


@pytest.mark.parametrize("generator", ["conv", "box", "conv|splice", "box|splice"])
def test_analyze_raster_statuses_match_the_sets(tmp_path, capsys, generator):
    rows = [[0.0, 0.0], [3.0, 0.5], [1.0, 3.0], [2.5, 2.5], [1.0, 1.0], [2.0, 1.0], [0.5, 2.5]]
    path = tmp_path / "corpus.csv"
    path.write_text("".join(f"{x},{y}\n" for x, y in rows))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--generator", generator, "--grid-res", "24")
    assert code == 0
    raster = json.loads(out)["plot"]["raster"]
    res = permissible_set(parse_generator(generator), Corpus.from_array(np.array(rows)))
    seen = set()
    for y, row in zip(raster["ys"], raster["status"]):
        for x, status in zip(raster["xs"], row):
            if not res.generable.contains([x, y]):
                expected = "not_generable"
            else:
                expected = "permissible" if res.permissible.contains([x, y]) else "violation"
            assert status == expected
            seen.add(status)
    assert {"not_generable", "violation"} <= seen


def _splice_raster(tmp_path, capsys, rows):
    path = tmp_path / "grid.csv"
    path.write_text("".join(f"{x},{y}\n" for x, y in rows))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--generator", "splice", "--grid-res", "32")
    assert code == 0
    raster = json.loads(out)["plot"]["raster"]
    cells = {
        (x, y): status
        for y, row in zip(raster["ys"], raster["status"])
        for x, status in zip(raster["xs"], row)
        if status != "not_generable"
    }
    return raster, cells


def _nearest_cell(raster, point):
    axes = (raster["xs"], raster["ys"])
    return tuple(min(axis, key=lambda v: abs(v - c)) for axis, c in zip(axes, point))


def test_analyze_raster_marks_the_cells_of_splice_grid_points(tmp_path, capsys):
    # 11 integer points whose values all repeat: a 4 x 4 grid, all permissible
    rows = [[0, 0], [1, 1], [2, 2], [3, 3], [0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3], [2, 0]]
    raster, cells = _splice_raster(tmp_path, capsys, rows)
    assert len(cells) == 16
    assert set(cells.values()) == {"permissible"}
    assert set(cells) == {_nearest_cell(raster, (x, y)) for x in range(4) for y in range(4)}


def test_analyze_raster_splice_statuses_match_classify(tmp_path, capsys):
    rows = [[0, 0], [1, 1], [2, 2], [0, 1], [3, 5], [3, 1]]
    raster, cells = _splice_raster(tmp_path, capsys, rows)
    corpus = Corpus.from_array(np.array(rows, dtype=float))
    grid = permissible_set(splice_spec(), corpus).generable.points()
    assert len(cells) == len(grid) == 16
    for p in grid:
        assert cells[_nearest_cell(raster, p)] == classify(splice_spec(), corpus, p).status
    assert set(cells.values()) == {"permissible", "violation"}


def test_analyze_deterministic_output(triangle_file, capsys):
    code1, out1, _ = run_cli(capsys, "analyze", triangle_file, "--generator", "conv")
    code2, out2, _ = run_cli(capsys, "analyze", triangle_file, "--generator", "conv")
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_analyze_header_and_blank_lines(tmp_path, capsys):
    path = tmp_path / "named.csv"
    path.write_text("x,y\n\n0,0\n1,1\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--generator", "box")
    assert code == 0
    assert json.loads(out)["corpus"]["columns"] == ["x", "y"]


# -- analyze error paths ----------------------------------------------------------


def test_analyze_duplicate_rows_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("1,2\n3,4\n1,2\n")
    code, _, err = run_cli(capsys, "analyze", str(path), "--generator", "conv")
    assert code == 2
    assert "row 3 duplicates row 1" in err


def test_analyze_malformed_value_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    code, _, err = run_cli(capsys, "analyze", str(path), "--generator", "conv")
    assert code == 2
    assert "row 2, column 2" in err


def test_analyze_ragged_rows_exit_2(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    code, _, err = run_cli(capsys, "analyze", str(path), "--generator", "conv")
    assert code == 2
    assert "expected 2 columns" in err


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent.csv", "--generator", "conv")
    assert code == 2


def test_analyze_unknown_generator_exit_3(triangle_file, capsys):
    code, _, err = run_cli(capsys, "analyze", triangle_file, "--generator", "frobnicate")
    assert code == 3
    assert "unknown generator" in err


def test_analyze_bad_query_exit_2(triangle_file, capsys):
    code, _, err = run_cli(capsys, "analyze", triangle_file, "--generator", "conv", "--query", "a,b")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", triangle_file, "--generator", "conv", "--query", "1")
    assert code == 2


# -- simulate ----------------------------------------------------------------------


def test_simulate_writes_csvs(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys,
        "simulate", "gauss:d=2", "conv",
        "--nmax", "30", "--checkpoints", "10,30", "--seeds", "2",
        "--out", str(out_dir),
    )
    assert code == 0
    traj = (out_dir / "trajectories.csv").read_text().splitlines()
    stats = (out_dir / "stats.csv").read_text().splitlines()
    assert traj[0].startswith("seed,n,")
    assert len(traj) == 5
    assert stats[0].startswith("checkpoint,")
    assert len(stats) == 3
    assert "mean" in out  # summary table printed


def test_simulate_flag_aliases(tmp_path, capsys):
    out_dir = tmp_path / "alias"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--dist", "gauss:d=2", "--generator", "conv",
        "--nmax", "20", "--checkpoints", "20", "--seeds", "1",
        "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "stats.csv").exists()


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    args = [
        "simulate", "gauss:d=2", "conv",
        "--nmax", "25", "--checkpoints", "10,25", "--seeds", "2",
    ]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(d1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(d2))[0] == 0
    assert (d1 / "trajectories.csv").read_bytes() == (d2 / "trajectories.csv").read_bytes()
    assert (d1 / "stats.csv").read_bytes() == (d2 / "stats.csv").read_bytes()


def test_simulate_single_degenerate_row(tmp_path, capsys):
    out_dir = tmp_path / "tiny"
    code, _, _ = run_cli(
        capsys, "simulate", "gauss:d=2", "conv", "--nmax", "1", "--seeds", "1", "--out", str(out_dir)
    )
    assert code == 0
    rows = (out_dir / "trajectories.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1] == "0,1,0,0,0,1,0"


def test_simulate_bad_dist_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "nosuch:d=2", "conv", "--nmax", "10", "--seeds", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_simulate_splice_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "gauss:d=2", "splice", "--nmax", "10", "--seeds", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3


def test_simulate_exact_above_dim_3_exit_3(tmp_path, capsys):
    out_dir = tmp_path / "x"
    code, _, err = run_cli(
        capsys, "simulate", "gauss:d=4", "conv", "--method", "exact", "--nmax", "100",
        "--checkpoints", "100", "--seeds", "1", "--out", str(out_dir),
    )
    assert code == 3
    assert err == "error: exact volumes are limited to dimension <= 3\n"
    assert not out_dir.exists()


def test_simulate_bad_checkpoints_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "gauss:d=2", "conv", "--nmax", "10",
        "--checkpoints", "5,99", "--seeds", "1", "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_simulate_missing_dist_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "simulate", "--nmax", "10", "--out", str(tmp_path / "x"))
    assert code == 2


# -- props -------------------------------------------------------------------------


def test_props_passes_and_prints(capsys):
    code, out, _ = run_cli(capsys, "props", "axioms", "--trials", "15", "--seed", "0")
    assert code == 0
    assert "PASS axioms/conv/preservation" in out
    assert "properties passed" in out


_LAWS = [
    *(f"axioms/{g}/{law}" for g in ("conv", "splice", "box") for law in ("preservation", "monotonicity", "idempotence")),
    "permissibility/monotone-growth",
    "permissibility/stability",
    "permissibility/insertion-trichotomy",
    "permissibility/classify-consistency",
    "radon/witness-permissible",
    "groupwise/monotone-growth",
    "groupwise/stability",
    "groupwise/richness-inclusion",
    "groupwise/superadditivity",
    "convexity/hull-minimality",
    "convexity/box-characterizations",
    "convexity/hull-characterizations",
    "convexity/recombination-witness",
]


def test_props_all_prints_every_law_and_trial(capsys):
    code, out, _ = run_cli(capsys, "props", "all", "--trials", "10", "--seed", "1")
    assert code == 0
    assert out.splitlines() == [f"PASS {law}  trials=10 failures=0" for law in _LAWS] + ["22/22 properties passed"]


def test_props_zero_trials_exit_2(capsys):
    code, _, _ = run_cli(capsys, "props", "axioms", "--trials", "0")
    assert code == 2


def test_props_unknown_scope_exit_2(capsys):
    code, _, err = run_cli(capsys, "props", "nosuch", "--trials", "5")
    assert code == 2
    assert "unknown scope" in err
