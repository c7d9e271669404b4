"""The README's library example runs and shows what it says it shows."""
import ast
import re
from pathlib import Path

import numpy as np

from permgen import parse_distribution
from permgen.experiments import CheckpointRecord, Trajectory, summarize, write_stats, write_trajectories

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _simulate_section() -> str:
    return README.read_text().split("\n### simulate\n", 1)[1].split("\n### ", 1)[0]


def test_readme_library_example_runs():
    block = _library_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    # every `expression  # literal` line shows the value the expression has
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if not sep or not code.strip():
            continue
        expected = ast.literal_eval(comment.strip())
        got = eval(code, namespace)
        if isinstance(got, np.ndarray):
            assert np.allclose(got, expected), line
        else:
            assert got == expected, line


def test_readme_distribution_strings_parse():
    section = _simulate_section()
    texts = re.findall(r"`([a-z_]+:[^`\s]*)`", section) + re.findall(r"permgen simulate (\S+)", section)
    assert len(texts) >= 6
    for text in texts:
        parse_distribution(text)


def test_readme_csv_headers_are_the_written_ones(tmp_path):
    section = _simulate_section()
    traj = Trajectory(0, (CheckpointRecord(5, 2.0, 1.0, 0.5, False, 3.0),))
    write_trajectories(tmp_path / "trajectories.csv", [traj])
    write_stats(tmp_path / "stats.csv", summarize([traj]))
    for name in ("trajectories.csv", "stats.csv"):
        documented = re.search(rf"`{re.escape(name)}`[^`]*`([^`]+)`", section).group(1)
        assert (tmp_path / name).read_text().splitlines()[0] == documented
