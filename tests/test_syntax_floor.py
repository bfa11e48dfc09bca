"""Every .py file under src/, tests/, perfbench/ and demos/ parses with
the Python 3.10 grammar, the oldest version pyproject.toml admits.

ast.parse(..., feature_version=(3, 10)) checks grammar only (say, no
except* or PEP 695 type parameters); it does not check that the
standard-library functions a file calls exist in 3.10.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("top", ["src", "tests", "perfbench", "demos"])
def test_every_file_parses_with_the_3_10_grammar(top):
    files = sorted((ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
