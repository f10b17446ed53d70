"""Rules every module of the package keeps, checked on its source.

No ``assert`` statement: ``python -O`` strips them, and a check must not
depend on how the interpreter was started.  No import from outside the
standard library and the package itself: the runtime is stdlib-only.  No
catch-all handler (``except:``, ``except Exception``, ``except
BaseException``): each handler names the errors it turns into a user error,
so that a bug in the library is never reported as one.  The one catch-all is
``cli.run``, the process entry point, which reports any escaped exception as
an internal error.  No ``functools.cache`` or ``lru_cache`` without a finite
``maxsize``: a long-lived library process would keep every value it ever
cached.  The exceptions are zero-argument functions, which cache one value.
Every function that ``perfbench/tracing.py`` wraps by name exists, so that
deleting one cannot break a traced benchmark run.
"""

import ast
import importlib
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


def name_of(expr):
    return expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)


def is_unbounded_cache(expr) -> bool:
    """Whether ``expr`` is ``cache`` or ``lru_cache`` with ``maxsize=None``
    (a bare ``lru_cache`` keeps 128)."""
    if isinstance(expr, ast.Call) and name_of(expr.func) == "lru_cache":
        sizes = expr.args[:1] + [k.value for k in expr.keywords if k.arg == "maxsize"]
        return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
    return name_of(expr) == "cache"


# The zero-argument functions that may cache their one value without a cap.
SINGLETONS = {("cli.py", "_build_parser"), ("corpus.py", "_scenario_paths")}


def unbounded_caches(path, tree) -> list:
    """The line of each unbounded cache in ``tree`` that is not on one of
    the ``SINGLETONS``."""
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators.update(map(id, node.decorator_list))
            args = node.args
            takes_none = not (args.posonlyargs or args.args or args.vararg
                              or args.kwonlyargs or args.kwarg)
            if not ((path.name, node.name) in SINGLETONS and takes_none):
                found.extend(d.lineno for d in node.decorator_list
                             if is_unbounded_cache(d))
    for node in ast.walk(tree):
        if id(node) not in decorators and is_unbounded_cache(node):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_keeps_the_source_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"line {line}: unbounded cache" for line in unbounded_caches(path, tree)]
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


@pytest.mark.parametrize("source, lines", [
    ("@cache\ndef f(x): pass", [1]),
    ("@functools.cache\ndef f(): pass", [1]),
    ("@lru_cache(maxsize=None)\ndef f(x): pass", [1]),
    ("@functools.lru_cache(None)\ndef f(x): pass", [1]),
    ("g = functools.lru_cache(maxsize=None)(len)", [1]),
    ("@lru_cache(maxsize=8)\ndef f(x): pass", []),
    ("@functools.lru_cache\ndef f(x): pass", []),
    ("@cached_property\ndef f(self): pass", []),
    # The singletons are exempt only by name and only without arguments.
    ("@functools.cache\ndef _build_parser(): pass", []),
    ("@functools.cache\ndef _build_parser(x): pass", [1]),
    ("@functools.cache\ndef _scenario_dir(): pass", [1]),
    ("@functools.cache\ndef _scenario_paths(): pass", [1]),
])
def test_unbounded_caches_are_seen(source, lines):
    assert unbounded_caches(Path("cli.py"), ast.parse(source)) == lines


def traced_names() -> dict:
    """``SPANS`` and ``COUNTED`` of ``perfbench/tracing.py``, read as literals."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTED")}


def test_every_traced_function_resolves():
    names = traced_names()
    assert set(names) == {"SPANS", "COUNTED"} and names["SPANS"]
    spans = {f"{module}.{function}" for module, function in names["SPANS"]}
    missing = []
    for module, function, *inside in names["SPANS"] + names["COUNTED"]:
        if not callable(getattr(importlib.import_module(f"alexinv.{module}"), function, None)):
            missing.append(f"{module}.{function}")
        missing.extend(name for name in inside if name not in spans)
    assert missing == []
