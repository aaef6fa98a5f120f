"""The library example in README.md runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs():
    examples = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(examples) == 1
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(examples[0], str(README), "exec"), {})
    # four lines, then the stack's length and shape and one a_eff per draw
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 4 + 16
    assert lines[3].startswith("16 (16, 15) ")
