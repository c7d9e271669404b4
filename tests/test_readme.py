"""The README's library example runs and shows what it says it shows."""
import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
