"""The README's quick start runs and prints what it says it prints, and its
document example is a valid family document."""

from __future__ import annotations

import re
from pathlib import Path

from helpers import run_capped
from qhistories import load_document, parse_family, serialize_family

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_prints_its_stated_results():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    result = run_capped(blocks[0])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[0.5  0.   0.25 0.25]", "True", "False"]


def test_readme_document_example_is_a_valid_family_document():
    blocks = re.findall(r"^## Document format\n\n```json\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    family = parse_family(blocks[0])  # loads and validates
    assert len(family) == 3
    blob = serialize_family(family)
    assert load_document(blob).validate().ok
    assert serialize_family(load_document(blob)) == blob
