"""The README's library sketch runs as written, so a renamed or deleted
name cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_sketch_runs():
    text = README.read_text()
    section = text.split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "build_hat(2, 4)" in sketch
    exec(compile(sketch, f"{README}:Library sketch", "exec"), {})
