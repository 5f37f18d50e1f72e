"""The README's library example runs as written."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_example_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library surface")) + len("```python\n")
    code = text[start:text.index("```", start)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines
    for line in lines:
        tag, score, provenance = line.split(" ")
        float(score)
        assert provenance.startswith("from_")
