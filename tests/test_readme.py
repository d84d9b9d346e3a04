"""Every ```python block of README.md runs as written, so a change to the
documented API that the examples miss fails here.  The library example reads
a response y and a design x that it does not make; they are drawn here."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# each block with as many newlines before it as it has lines above it in the
# README, so that a traceback names the README's line
BLOCKS = ["\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.S | re.M)]


def test_the_readme_has_its_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("code", BLOCKS, ids=["library", "study"][:len(BLOCKS)])
def test_readme_example_runs(code):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((75, 3))
    y = x @ np.array([1.0, 0.5, 0.0]) + rng.standard_normal(75)
    exec(compile(code, str(README), "exec"), {"__name__": "readme", "y": y, "x": x})
