"""The README's Python examples run as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run_and_print_what_they_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("s1^4*s2 + 6*s1^3*s2^2 + 12*s1^2*s2^3 + ")
    assert lines[0].endswith(" + 107*s1 + 154*s2 + 60")
    assert lines[1:] == [
        "['s1 + 1', 's2 + 1', 's1 + 2*s2 + 3', 's1 + 2*s2 + 4',"
        " 's1 + 2*s2 + 5'] 1",
        "True", "total degree 8 exceeds bound 7"]
