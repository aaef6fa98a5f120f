"""The library example in README.md runs as written, and the block sizes it
states are the code's."""

import contextlib
import io
import re
from pathlib import Path

from snrloss import cli, montecarlo

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


def test_sweep_block_size_matches_the_code():
    stated = re.findall(r"blocks of (\d+) realizations \(`cli\.SWEEP_BLOCK`\)", README.read_text(encoding="utf-8"))
    assert stated == [str(cli.SWEEP_BLOCK)]


def test_direct_block_size_matches_the_code():
    stated = re.findall(r"blocks of (\d+) trials \(`montecarlo\._BLOCK`\)", README.read_text(encoding="utf-8"))
    assert stated == [str(montecarlo._BLOCK)]
