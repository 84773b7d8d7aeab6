"""README states some module constants by value; they must match the code."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# `module.NAME = <int>` or `module._NAME = <int>`, a code span that may
# wrap across a line break
CONSTANT = re.compile(r"`(\w+)\.(_?[A-Z][A-Z0-9_]*)\s*=\s*(\d+)`")


def test_readme_constants_match_the_code():
    stated = CONSTANT.findall(README.read_text(encoding="utf-8"))
    names = {(m, n) for m, n, _ in stated}
    assert ("criterion", "WINDOW_BLOCK") in names
    assert any(n.startswith("_") for _, n in names), "no private constant found"
    for module, name, value in stated:
        mod = importlib.import_module(f"horomu.{module}")
        assert hasattr(mod, name), f"README names {module}.{name}, which does not exist"
        assert getattr(mod, name) == int(value), (
            f"README says {module}.{name} = {value}, the code has {getattr(mod, name)}")
