"""The README's quick start runs and prints what it says it prints."""

from __future__ import annotations

import re
from pathlib import Path

from helpers import run_capped

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_prints_its_stated_results():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    result = run_capped(blocks[0])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[0.5  0.   0.25 0.25]", "True", "False"]
