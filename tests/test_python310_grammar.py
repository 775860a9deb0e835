"""Every Python file under src/, tests/ and cqabench/ parses with the
Python 3.10 grammar, the oldest that pyproject.toml allows.

This checks grammar only, such as `except*` or a `type` statement. It does
not check stdlib APIs: a call to a function that 3.10 lacks still passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_310():
    failures = []
    for path in sorted(p for top in ("src", "tests", "cqabench")
                       for p in (ROOT / top).rglob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_newer_grammar_is_rejected():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
