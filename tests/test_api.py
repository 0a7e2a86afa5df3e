import re
from pathlib import Path

import rankprune

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    # The `from rankprune import (...)` block under "Library entry points" must run as written.
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    match = re.search(r"```python\n(from rankprune import \((.*?)\)\n)```", section, re.DOTALL)
    assert match, "README's Library entry points section has no `from rankprune import (...)` block"
    exec(compile(match.group(1), str(README), "exec"), {})
    names = re.findall(r"\w+", match.group(2))
    assert names and all(name in rankprune.__all__ for name in names)


def test_every_exported_name_resolves():
    assert [name for name in rankprune.__all__ if not hasattr(rankprune, name)] == []
    assert len(set(rankprune.__all__)) == len(rankprune.__all__)
