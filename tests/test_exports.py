"""The public surface: every export resolves, and no error class is dead.

An error class that no module raises or catches is a name for a fault the
pipeline cannot report; the source scan keeps such classes from coming
back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import entroscore as es
from entroscore import errors

PACKAGE_DIR = Path(es.__file__).parent


def names_used(path: Path) -> set[str]:
    """Names a module reads, as bare names or attributes; imports do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_error_class_is_used_by_the_pipeline():
    used = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name not in ("errors.py", "__init__.py"):
            used |= names_used(path)
    unused = [name for name in errors.__all__ if name != "EntroscoreError" and name not in used]
    assert unused == []


def test_every_public_name_resolves():
    missing = [name for name in es.__all__ if not hasattr(es, name)]
    assert missing == []
