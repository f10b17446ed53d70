"""Rules every module of the package keeps, checked on its source.

No ``assert`` statement: ``python -O`` strips them, and a check must not
depend on how the interpreter was started.  No import from outside the
standard library and the package itself: the runtime is stdlib-only.  No
catch-all handler (``except:``, ``except Exception``, ``except
BaseException``): each handler names the errors it turns into a user error,
so that a bug in the library is never reported as one.  The one catch-all is
``cli.run``, the process entry point, which reports any escaped exception as
an internal error.
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


CATCH_ALL = {"Exception", "BaseException"}


def catch_all_handlers(tree) -> list:
    """The ``except`` handlers of ``tree`` that catch every exception."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or getattr(c, "id", None) in CATCH_ALL for c in caught):
                found.append(node)
    return found


def entry_wrapper_handlers(path, tree) -> list:
    if path.name != "cli.py":
        return []
    (run,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "run"]
    return catch_all_handlers(run)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_keeps_the_source_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    allowed = entry_wrapper_handlers(path, tree)
    for node in catch_all_handlers(tree):
        if node not in allowed:
            found.append(f"line {node.lineno}: catch-all except")
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


def test_the_entry_wrapper_is_the_one_catch_all():
    path = Path(alexinv.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert len(entry_wrapper_handlers(path, tree)) == 1


@pytest.mark.parametrize("handler, count", [
    ("except:", 1), ("except Exception:", 1), ("except BaseException as exc:", 1),
    ("except (ValueError, Exception):", 1), ("except (ValueError, KeyError):", 0),
])
def test_catch_all_handlers_are_seen(handler, count):
    tree = ast.parse(f"try:\n    pass\n{handler}\n    pass\n")
    assert len(catch_all_handlers(tree)) == count
