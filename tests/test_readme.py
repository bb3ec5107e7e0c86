"""The README's Python examples run as written.

The ```` ```python ```` blocks of ``README.md`` run in order in one
namespace, as a reader pasting them into one interpreter would run them, so
an example that calls a renamed or removed function fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


def test_readme_python_blocks_run_in_order(capsys):
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert capsys.readouterr().out
