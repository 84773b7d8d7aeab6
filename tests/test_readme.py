"""README states some module constants by value; they must match the code."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# `module.NAME = <int>`, a code span that may wrap across a line break
CONSTANT = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)\s*=\s*(\d+)`")


def test_readme_constants_match_the_code():
    stated = CONSTANT.findall(README.read_text(encoding="utf-8"))
    assert ("criterion", "WINDOW_BLOCK") in {(m, n) for m, n, _ in stated}
    for module, name, value in stated:
        mod = importlib.import_module(f"horomu.{module}")
        assert hasattr(mod, name), f"README names {module}.{name}, which does not exist"
        assert getattr(mod, name) == int(value), (
            f"README says {module}.{name} = {value}, the code has {getattr(mod, name)}")
