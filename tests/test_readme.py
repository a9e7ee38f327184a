"""The README's library quick tour runs as documented.

The block runs under the suite's ``filterwarnings = error``, so a call that
starts to warn fails here as well.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The first python block under the "Library quick tour" heading."""
    match = re.search(r"^## Library quick tour\n.*?```python\n(.*?)```", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no python block under 'Library quick tour'"
    return match.group(1)


def test_quick_tour_runs():
    exec(compile(quick_tour(), str(README), "exec"), {})
