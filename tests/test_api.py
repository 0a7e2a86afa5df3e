import importlib
import pkgutil
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


def test_readme_names_of_module_members_resolve():
    # Every backticked `module.name` in README whose module is one of the package's
    # (optionally written `rankprune.module.name`) must name something that exists.
    modules = "|".join(m.name for m in pkgutil.iter_modules(rankprune.__path__))
    text = README.read_text(encoding="utf-8")
    names = sorted(set(re.findall(rf"`(?:rankprune\.)?((?:{modules})(?:\.\w+)+)", text)))
    assert names, "README names no module member"

    def resolves(dotted):
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"rankprune.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    assert [name for name in names if not resolves(name)] == []
