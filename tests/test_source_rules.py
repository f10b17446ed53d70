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
No ``dataclasses`` import and no ``exec`` or ``eval`` call: records are plain
classes, and generating their methods was a large share of every import (a
subprocess test checks that importing the CLI loads no ``dataclasses``).
Every function that ``perfbench/tracing.py`` wraps by name exists, so that
deleting one cannot break a traced benchmark run.  No definition that only
tests reach: every top-level ``def`` and ``class`` is named outside its own
body, as an ``ast.Name``, an ``ast.Attribute`` or an import alias, somewhere
in the package, in its ``__all__`` or in the ``SPANS`` and ``COUNTED`` of
``perfbench/tracing.py``; ``TEST_ONLY`` lists the exceptions, each with its
reason.  No member that only tests reach: every function or property that a
class of the modules the CLI imports defines, but for the dunder methods, is
named as an ``ast.Attribute`` somewhere in the package outside its own body,
or spanned by perfbench; ``TEST_ONLY`` lists the exceptions as
``Class.member``.  That rule goes by name, so the members whose name another
definition of the package shares are listed in ``SHARED_MEMBERS``, each with
a read checked by hand.  Importing the CLI loads the modules a command can reach
and no others: not ``alexinv.constructions``.  Importing the package loads none of
its modules: its ``__init__`` names each export once, in one table by home
module, and imports that module on first use of one of its names.  Each
definition lives in one module.  The six modules whose unreached
definitions moved to ``constructions`` resolve exactly those names there,
through one ``__getattr__`` each, which loads nothing for any other name;
a pickle made under an old module path still loads.
``laurent_ring`` has one gcd loop: ``gcd_all`` alone calls ``_gcd_prs``, and
``gcd`` calls neither it nor ``divide_exact``.
"""

import ast
import importlib
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
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


GENERATED_CODE = {"exec", "eval"}


def generated_code(tree) -> list:
    """The line of each ``dataclasses`` import and ``exec`` or ``eval`` call."""
    found = []
    for node in ast.walk(tree):
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        if any(module.partition(".")[0] == "dataclasses" for module in modules) or (
                isinstance(node, ast.Call) and name_of(node.func) in GENERATED_CODE):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("source, lines", [
    ("import dataclasses", [1]),
    ("from dataclasses import dataclass, field", [1]),
    ("import json, dataclasses as dc", [1]),
    ("exec('x = 1')", [1]),
    ("value = eval(text, {})", [1]),
    ("import builtins\nbuiltins.exec('pass')", [2]),
    ("from .dataclasses import x\nimport json\nliteral_eval('1')", []),
])
def test_generated_code_is_seen(source, lines):
    assert generated_code(ast.parse(source)) == lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_keeps_the_source_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"line {line}: unbounded cache" for line in unbounded_caches(path, tree)]
    found += [f"line {line}: dataclasses, exec or eval" for line in generated_code(tree)]
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


def test_importing_the_cli_loads_no_dataclasses():
    # -S keeps the machine's site-packages and their .pth files out.
    src = str(Path(alexinv.__file__).resolve().parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r}); import alexinv.cli; "
              "print('dataclasses' in sys.modules, 'pathlib' in sys.modules, "
              "alexinv.cli.__file__)")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    dataclasses, pathlib, where = done.stdout.split()
    assert (dataclasses, pathlib) == ("False", "False") and where.startswith(src)


# What importing the CLI loads of the package: every module a command can
# reach, and not the functions no command runs.
CLI_MODULES = {
    "alexinv", "alexinv.alexander_modules", "alexinv.aomoto_complex", "alexinv.cli",
    "alexinv.corpus", "alexinv.errors", "alexinv.exact_kernel",
    "alexinv.invariant_pipeline", "alexinv.laurent_ring", "alexinv.residue_systems",
}


def test_importing_the_cli_loads_only_what_a_command_reaches():
    src = str(Path(alexinv.__file__).resolve().parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r}); import alexinv.cli; "
              "print(*sorted(n for n in sys.modules if n.startswith(('alexinv', 'reference'))))")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    assert set(done.stdout.split()) == CLI_MODULES


def test_importing_the_package_loads_no_submodule():
    # The first use of a name loads its home module and what that imports.
    src = str(Path(alexinv.__file__).resolve().parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r}); import alexinv; "
              "loaded = lambda: sorted(n for n in sys.modules if n.startswith('alexinv')); "
              "print(*loaded()); alexinv.LaurentPoly; print(*loaded())")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    bare, used = [set(line.split()) for line in done.stdout.splitlines()]
    assert bare == {"alexinv"}
    assert "alexinv.laurent_ring" in used
    assert not used & {"alexinv.cli", "alexinv.constructions"}


def test_the_package_names_each_export_once_and_imports_nothing():
    path = Path(alexinv.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (table,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [name_of(t) for t in node.targets] == ["_EXPORTS"]]
    imports = [node.lineno for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []
    names = [name for home in table.values() for name in home]
    assert len(names) == len(set(names)) == 46
    assert set(names) == set(alexinv.__all__)
    assert set(table) <= {path.stem for path in SOURCES}
    words = Counter(word for node in ast.walk(tree) if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) for word in node.value.split())
    assert [name for name in names if words[name] != 1] == []


# Every name the package exports, by the module that defines it.
EXPORTS = {
    "alexander_modules": "Presentation char_poly",
    "aomoto_complex": "GradedAlgebra validate_algebra",
    "constructions": "CyclotomicNumber ExactMatrix IdealGenerators OneForm TorsionPoint "
                     "admissible_search charvar_scan cohomology_at cohomology_dims "
                     "cyclic_module differential_matrix direct_sum divides elementary_ideal "
                     "epsilon_line evaluate_at_torsion fitting_variety_scan in_support "
                     "is_admissible one_form os_algebra_lines projective_points rank "
                     "residues support_scan tensor_cyclic twisted_cohomology wedge",
    "corpus": "bundled_scenario_names load_bundled_scenario",
    "exact_kernel": "cyclotomic_poly",
    "invariant_pipeline": "MonodromyPolynomial Scenario load_scenario milnor_charpoly",
    "laurent_ring": "LaurentPoly format_poly gcd normalize_unit parse_poly",
    "residue_systems": "ResidueSystem equimonodromic_beta",
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_resolves_to_its_home(module):
    home = importlib.import_module(f"alexinv.{module}")
    for name in EXPORTS[module].split():
        value = getattr(alexinv, name)
        assert value is getattr(home, name) and value.__module__ == home.__name__, name
        assert name in dir(alexinv) and name in alexinv.__all__, name


# The definitions that left each module for ``constructions``, which the
# module's ``__getattr__`` resolves there: perfbench's spans name some of them
# by their old module, and old imports and pickles name them all.
MOVED = {
    "alexander_modules": "IdealGenerators elementary_ideal fitting_variety_scan support_scan",
    "aomoto_complex": "OneForm cohomology_dims differential_matrix wedge",
    "exact_kernel": "CyclotomicNumber ExactMatrix _rref euler_phi integer_vector mat_mul rank",
    "invariant_pipeline": "CharvarScan charvar_scan twisted_cohomology",
    "laurent_ring": "TorsionPoint divides evaluate_at_torsion grid_points torsion_grid",
    "residue_systems": "admissible_search is_admissible residues shift_vectors",
}


def top_level_definitions(path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_each_definition_lives_once():
    names = Counter(name for path in SOURCES for name in top_level_definitions(path))
    assert [name for name, count in names.items() if count > 1] == []


@pytest.mark.parametrize("module", sorted(MOVED))
def test_an_old_home_resolves_exactly_the_names_that_left_it(module):
    from alexinv import constructions

    old = importlib.import_module(f"alexinv.{module}")
    moved = MOVED[module].split()
    for name in top_level_definitions(Path(constructions.__file__)):
        value = getattr(constructions, name)
        assert name not in vars(old), name
        if name in moved:
            assert getattr(old, name) is value and value.__module__ == constructions.__name__
            assert name not in alexinv.__all__ or getattr(alexinv, name) is value, name
        else:
            with pytest.raises(AttributeError) as caught:
                getattr(old, name)
            assert str(caught.value) == f"module 'alexinv.{module}' has no attribute {name!r}"
    assert set(moved) <= set(top_level_definitions(Path(constructions.__file__)))


def test_the_constructions_import_nothing_through_a_hook():
    path = Path(alexinv.__file__).parent / "constructions.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hooked = [f"{node.module}.{alias.name}" for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
              for alias in node.names
              if alias.name not in vars(importlib.import_module(f"alexinv.{node.module}"))]
    assert hooked == []


def test_asking_an_old_home_for_another_name_loads_nothing():
    src = str(Path(alexinv.__file__).resolve().parent.parent)
    script = (f"import importlib, sys; sys.path.insert(0, {src!r}); "
              f"modules = [importlib.import_module('alexinv.' + m) for m in {sorted(MOVED)!r}]; "
              "print(any(hasattr(m, n) for m in modules for n in ('nope', '_nope', 'moved_to')), "
              "sorted(n for n in sys.modules if n.startswith('alexinv')))")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    found, loaded = done.stdout.split(" ", 1)
    assert found == "False" and "constructions" not in loaded and "alexinv.errors" in loaded


# ``pickle.dumps(x, protocol=2)`` of a ``TorsionPoint(4, (1, 3))`` and a
# ``CyclotomicNumber(3, (Fraction(1, 2), Fraction(-1)))``, made while each
# class lived in ``laurent_ring`` and ``exact_kernel``.
OLD_PICKLES = {
    "torsion point": (
        b"\x80\x02calexinv.laurent_ring\nTorsionPoint\nq\x00)\x81q\x01}q\x02(X\x05\x00"
        b"\x00\x00levelq\x03K\x04X\n\x00\x00\x00numeratorsq\x04K\x01K\x03\x86q\x05ub."),
    "cyclotomic number": (
        b"\x80\x02calexinv.exact_kernel\nCyclotomicNumber\nq\x00)\x81q\x01}q\x02(X\t\x00"
        b"\x00\x00conductorq\x03K\x03X\x06\x00\x00\x00coeffsq\x04cfractions\nFraction\n"
        b"q\x05K\x01K\x02\x86q\x06Rq\x07h\x05J\xff\xff\xff\xffK\x01\x86q\x08Rq\t\x86q\nub."),
}


def test_a_pickle_made_under_an_old_module_path_loads_equal():
    from alexinv.constructions import CyclotomicNumber, TorsionPoint

    expected = {"torsion point": TorsionPoint(4, (1, 3)), "cyclotomic number":
                CyclotomicNumber(3, (Fraction(1, 2), Fraction(-1)))}
    for kind, data in OLD_PICKLES.items():
        value = pickle.loads(data)
        assert type(value) is type(expected[kind]) and value == expected[kind], kind
        assert pickle.loads(pickle.dumps(value)) == value
        assert b"alexinv.constructions" in pickle.dumps(value, protocol=2)


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        alexinv.nope


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


# The definitions that only tests may reach, each with its reason: a top-level
# one by its name, a member of a class as ``Class.member``.
TEST_ONLY: dict = {}

# The package's PEP 562 hooks, which the interpreter calls by name.
MODULE_HOOKS = {"__getattr__", "__dir__"}


def referred_names(node) -> Counter:
    """How often ``node`` names each name: as an ``ast.Name``, an
    ``ast.Attribute`` or an import alias."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
        else n.name
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def unnamed_definitions(trees, exempt, exported=()) -> list:
    """The top-level definitions of ``trees`` (by path) that no tree names
    outside their own body and the package does not list in ``exported``
    (its ``__all__``), but for the ``exempt`` names."""
    everywhere = sum(map(referred_names, trees.values()), Counter(exported))
    return [f"{path.name}: {node.name}" for path, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in exempt
            and everywhere[node.name] == referred_names(node)[node.name]]


def test_every_definition_is_named_outside_its_body():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    names = traced_names()
    traced = {function for _, function, *_ in names["SPANS"] + names["COUNTED"]}
    assert unnamed_definitions(
        trees, traced | TEST_ONLY.keys() | MODULE_HOOKS, alexinv.__all__) == []
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {f"{cls.name}.{node.name}" for tree in trees.values()
                for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert TEST_ONLY.keys() <= defined


def test_unnamed_definitions_are_seen():
    trees = {Path("a.py"): ast.parse(
        "def loop(): loop()\n"
        "def used(): pass\n"
        "class Kept: pass\n"
        "def traced(): pass\n"
        "x = used() or Kept"),
        Path("b.py"): ast.parse("from a import Kept\nclass Alone: pass")}
    assert unnamed_definitions(trees, {"traced"}) == ["a.py: loop", "b.py: Alone"]
    # A lazily exported module is named only by the package's __all__: what
    # that leaves out is still unnamed.
    trees = {Path("constructions.py"): ast.parse("def one_form(): pass\ndef orphan(): pass")}
    assert unnamed_definitions(trees, set(), ["one_form"]) == ["constructions.py: orphan"]


def attribute_names(node) -> Counter:
    """How often ``node`` names each name as an ``ast.Attribute``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unread_members(trees, modules, exempt) -> list:
    """The functions and properties, but for the dunder methods, that a class
    of the ``trees`` whose module is in ``modules`` defines and that no tree
    names as an attribute outside their own body, but for the ``exempt``
    ones (``Class.member`` or a bare name).

    Members are matched by name alone, so one that shares its name with an
    attribute read elsewhere passes unseen.  ``Presentation.from_rows`` (as
    ``ExactMatrix.from_rows``) and ``GradedAlgebra.differential`` (as
    ``Scenario.differential``) were two such, found and deleted by hand; the
    members whose name another definition shares are listed by
    :func:`shared_members`, and each is checked by hand in ``SHARED_MEMBERS``.
    """
    everywhere = sum(map(attribute_names, trees.values()), Counter())
    return [f"{path.name}: {cls.name}.{node.name}" for path, tree in trees.items()
            if path.stem in modules
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not {node.name, f"{cls.name}.{node.name}"} & exempt
            and everywhere[node.name] == attribute_names(node)[node.name]]


def test_every_member_is_read_outside_its_body():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    modules = {name.partition(".")[2] or "__init__" for name in CLI_MODULES}
    names = traced_names()
    traced = {function for _, function, *_ in names["SPANS"] + names["COUNTED"]}
    assert unread_members(trees, modules, traced | TEST_ONLY.keys()) == []


def test_unread_members_are_seen():
    trees = {Path("a.py"): ast.parse(
        "class Kept:\n"
        "    def __init__(self): self.used()\n"
        "    def used(self): pass\n"
        "    def again(self): return self.again()\n"
        "    @property\n"
        "    def shown(self): pass\n"
        "    @classmethod\n"
        "    def make(cls): pass\n"
        "    def traced(self): pass\n"
        "    def allowed(self): pass\n"
        "def f(x):\n"
        "    class Inner:\n"
        "        def planted(self): pass\n"
        "    return Inner, x.shown"),
        Path("b.py"): ast.parse("class Elsewhere:\n    def ignored(self): pass\n"
                                "k = Kept.make()")}
    assert unread_members(trees, {"a"}, {"traced", "Kept.allowed"}) == [
        "a.py: Kept.again", "a.py: Inner.planted"]
    # A name is a name: an attribute read on any object keeps the member.
    trees[Path("b.py")] = ast.parse("y = z.again + z.planted")
    assert unread_members(trees, {"a"}, {"traced", "Kept.allowed"}) == [
        "a.py: Kept.make"]


# The members of the classes of the modules the CLI imports whose name another
# definition of the package shares, so that the member rule cannot tell a
# read of one from a read of the other; each was checked by hand, and its
# reason names a read of the member itself.
SHARED_MEMBERS = {
    "Presentation.minors": "alexander_modules: `pres.minors(rsel, csel)` in "
                           "`_minors` (also `IntegerDifferential.minors`)",
    "Scenario.nparams": "cli: `scenario.nparams` in each residue command "
                        "(also `ResidueSystem.nparams`)",
    "MonodromyPolynomial.degree": "cli: `delta.degree` in the milnor report "
                                  "(also `CharvarScan.degree`)",
    "LaurentPoly._make": "laurent_ring, alexander_modules, aomoto_complex: "
                         "`LaurentPoly._make(...)` (also `CyclotomicNumber._make`)",
    "LaurentPoly.is_zero": "laurent_ring: `p.is_zero` in `divide_exact`; cli: "
                           "`poly.is_zero` (also `CyclotomicNumber.is_zero`, "
                           "`OneForm.is_zero`)",
}


def defined_names(tree) -> Counter:
    """How often ``tree`` defines each name that an attribute read may mean:
    as a top-level ``def`` or ``class``, a function of a class body, an
    attribute stored on ``self``, or a record field (in ``_fields`` or set by
    ``_set(self, name, ...)``)."""
    names = Counter(node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields, members = set(), set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and name_of(node.value) == "self":
                fields.add(node.attr)
            elif isinstance(node, ast.Call) and name_of(node.func) == "_set" \
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                fields.add(node.args[1].value)
            elif isinstance(node, ast.Assign) and "_fields" in map(name_of, node.targets):
                fields.update(c.value for c in ast.walk(node.value)
                              if isinstance(c, ast.Constant) and isinstance(c.value, str))
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(node.name)
        names.update(members | (fields - members))
    return names


def shared_members(trees, modules) -> set:
    """The non-dunder functions and properties that a class of the ``trees``
    whose module is in ``modules`` defines, as ``Class.member``, whose name
    the ``trees`` define more than once (see :func:`defined_names`)."""
    everywhere = sum(map(defined_names, trees.values()), Counter())
    return {f"{cls.name}.{node.name}" for path, tree in trees.items()
            if path.stem in modules
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and everywhere[node.name] > 1}


def test_every_shared_member_name_was_checked_by_hand():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    modules = {name.partition(".")[2] or "__init__" for name in CLI_MODULES}
    assert shared_members(trees, modules) == SHARED_MEMBERS.keys()


def test_shared_member_names_are_seen():
    trees = {Path("a.py"): ast.parse(
        "class Kept:\n"
        "    _fields = ('field',)\n"
        "    def __init__(self): _set(self, 'other', 1); self.stored = 2\n"
        "    def alone(self): pass\n"
        "    def field(self): pass\n"
        "    def stored(self): pass\n"
        "    def twice(self): pass\n"
        "    def top(self): pass\n"
        "    def other(self): pass\n"
        "def top(): pass\n"),
        Path("b.py"): ast.parse(
        "class Record:\n"
        "    _fields = ('field',)\n"
        "    def twice(self): pass\n"
        "    def __init__(self): _set(self, 'other', 1)\n")}
    assert shared_members(trees, {"a"}) == {
        "Kept.field", "Kept.twice", "Kept.top", "Kept.other"}
    # A name that one class both defines and stores on itself counts once.
    assert shared_members(trees, {"b"}) == {"Record.twice"}


def called_names(node) -> set:
    """The names that ``node`` calls, as plain names or attributes."""
    return {name_of(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}


def callers(tree, name) -> list:
    """The top-level definitions of ``tree`` that call ``name``, in order;
    ``None`` stands for a call outside every definition."""
    return [getattr(node, "name", None) for node in tree.body if name in called_names(node)]


def test_laurent_ring_has_one_gcd_loop():
    path = Path(alexinv.__file__).parent / "laurent_ring.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert callers(tree, "_gcd_prs") == ["gcd_all"]
    (gcd,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "gcd"]
    assert called_names(gcd).isdisjoint({"divide_exact", "_gcd_prs"})


def test_gcd_callers_are_seen():
    tree = ast.parse(
        "def a(): return _gcd_prs(1, 2)\n"
        "def b(): return lr.divide_exact(1, 2)\n"
        "class C:\n    def m(self): _gcd_prs()\n"
        "_gcd_prs()")
    assert callers(tree, "_gcd_prs") == ["a", "C", None]
    assert callers(tree, "divide_exact") == ["b"]
    assert called_names(tree.body[1]) == {"divide_exact"}
