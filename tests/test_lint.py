"""Source rules that no runtime test can see.

No safety check in the package is a bare ``assert``: ``python -O`` strips
those, so a broken invariant would pass silently.  Checks raise instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "neckslime"


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")) and found == []
