"""scipy is loaded by the first Qhull or HiGHS call, not by importing permgen.

Each case runs in a fresh interpreter, because this test process has scipy
loaded already. The one-dimensional paths and the box paths make no such
call, so they must finish without scipy; a d = 2 hull must load it, which
shows that the check can see a load.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the given permgen command, then records its exit code and which scipy
# modules the process holds.
SCRIPT = """
import json, sys
import permgen, permgen.cli
out, argv = sys.argv[1], sys.argv[2:]
rc = permgen.cli.main(argv) if argv else None
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
with open(out, "w") as fh:
    json.dump({"rc": rc, "scipy": loaded}, fh)
"""


def _run(tmp_path, *argv):
    out = tmp_path / "loaded.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out), *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_import_loads_no_scipy(tmp_path):
    got = _run(tmp_path)
    assert got["scipy"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "pareto:d=1,alpha=1.0", "conv", "--nmax", "200", "--seeds", "2", "--out", "out"],
        ["simulate", "pareto:d=1,alpha=0.3", "box", "--nmax", "200", "--seeds", "2", "--out", "out"],
        ["analyze", "corpus.csv", "--generator", "conv", "--query", "1.0", "--add", "5.0"],
        ["analyze", "corpus.csv", "--generator", "box", "--query", "1.0", "--add", "5.0"],
    ],
    ids=["simulate-conv", "simulate-box", "analyze-conv", "analyze-box"],
)
def test_one_dimensional_commands_load_no_scipy(tmp_path, argv):
    (tmp_path / "corpus.csv").write_text("x\n0.1\n0.5\n2.0\n3.5\n-1.0\n")
    got = _run(tmp_path, *argv)
    assert got["rc"] == 0
    assert got["scipy"] == []


# boxes and their permissible sets are built coordinatewise in every dimension
@pytest.mark.parametrize(
    "rows,argv",
    [
        (
            "0,0\n1,2\n3,1\n2,4\n-1,1\n",
            ["analyze", "corpus.csv", "--generator", "box", "--query", "1,1", "--add", "5,5"]
            + ["--grid-res", "16"],
        ),
        (
            "0,0,0\n1,2,0\n3,1,1\n2,4,2\n-1,1,3\n",
            ["analyze", "corpus.csv", "--generator", "box", "--query", "1,1,1", "--add", "5,5,5"],
        ),
        (
            "",
            ["simulate", "gauss:d=3", "box", "--method", "mc", "--samples", "2000", "--nmax", "60"]
            + ["--seeds", "2", "--out", "out"],
        ),
    ],
    ids=["analyze-box-d2", "analyze-box-d3", "simulate-box-mc-d3"],
)
def test_box_commands_load_no_scipy(tmp_path, rows, argv):
    (tmp_path / "corpus.csv").write_text(rows)
    got = _run(tmp_path, *argv)
    assert got["rc"] == 0
    assert got["scipy"] == []


def test_two_dimensional_hull_loads_qhull(tmp_path):
    got = _run(tmp_path, "simulate", "gauss:d=2", "conv", "--nmax", "50", "--seeds", "1", "--out", "out")
    assert got["rc"] == 0
    assert "scipy.spatial" in got["scipy"]
