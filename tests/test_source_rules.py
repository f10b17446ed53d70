"""Rules every module of the package keeps, checked on its source.

No ``assert`` statement: ``python -O`` strips them, and a check must not
depend on how the interpreter was started.  No import from outside the
standard library and the package itself: the runtime is stdlib-only.
"""

import ast
import sys
from pathlib import Path

import pytest

import alexinv

SOURCES = sorted(Path(alexinv.__file__).parent.glob("*.py"))


def test_the_rules_see_every_module():
    assert {path.stem for path in SOURCES} >= {
        "__init__", "cli", "exact_kernel", "invariant_pipeline", "residue_systems"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_keeps_the_source_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        for name in names:
            top = name.partition(".")[0]
            if top != "alexinv" and top not in sys.stdlib_module_names:
                found.append(f"line {node.lineno}: imports {name}")
    assert found == []
