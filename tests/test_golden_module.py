"""Golden ``module`` reports: text and json, exit codes and stderr.

The presentations under ``tests/golden/module/`` are seeded draws from
``randgen``; each ``<name>-<format>.golden`` file holds every report of
``module --op charpoly`` (every ``i``), ``--op support`` and ``--op fitting``
(``--i`` 1 and 2) at levels 2-12 on one presentation.  Any change to the
Laurent ring or module kernel must leave them byte-identical.

Regenerate (only when a report is meant to change) with::

    PYTHONPATH=src python tests/test_golden_module.py --write
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from alexinv.cli import main
from alexinv.laurent_ring import format_poly

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden", "module")
LEVELS = range(2, 13)
FORMATS = ("text", "json")

# name -> (randgen constructor, seed, nvars, (generators, relations))
PRESENTATIONS = {
    "uni_2x3": ("random_presentation", 1, 1, (2, 3)),
    "uni_4x5": ("random_chain_presentation", 12, 1, (4, 5)),
    "bi_2x3": ("random_chain_presentation", 13, 2, (2, 3)),
    "bi_3x4": ("random_presentation", 3, 2, (3, 4)),
    "bi_4x5": ("random_chain_presentation", 14, 2, (4, 5)),
    "tri_2x3": ("random_presentation", 5, 3, (2, 3)),
    "tri_3x4": ("random_chain_presentation", 16, 3, (3, 4)),
    "tri_4x5": ("random_chain_presentation", 17, 3, (4, 5)),
    "bi_5x6": ("random_partial_presentation", 36, 2, (5, 6)),
}


def _calls(name: str, generators: int, fmt: str):
    path = name + ".json"
    base = ["module", "--presentation", path]
    for i in range(generators + 1):
        yield base + ["--op", "charpoly", "--i", str(i), "--format", fmt]
    for level in LEVELS:
        yield base + ["--op", "support", "--level", str(level), "--format", fmt]
    for i in (1, 2):
        for level in LEVELS:
            yield base + ["--op", "fitting", "--i", str(i), "--level", str(level),
                          "--format", fmt]


def record(calls) -> str:
    """Every call's argv, exit code, stdout and stderr, as one transcript."""
    parts = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        parts.append(
            f"$ alexinv {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )
    return "".join(parts)


def compare(path: str, transcript: str) -> None:
    with open(path, encoding="utf-8") as handle:
        expected = handle.read()
    assert transcript == expected


def write(path: str, transcript: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(transcript)


def write_main(doc: str, write_all) -> None:
    """``python <test file> --write`` runs ``write_all``; anything else
    prints the file's docstring."""
    if sys.argv[1:] != ["--write"]:
        sys.exit(doc)
    sys.path.insert(0, HERE)
    write_all()


def _transcript(name: str, fmt: str) -> str:
    """Every call on one presentation; run from GOLDEN_DIR."""
    generators = PRESENTATIONS[name][3][0]
    return record(_calls(name, generators, fmt))


def _golden_path(name: str, fmt: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}-{fmt}.golden")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_module_reports_match_golden(monkeypatch, name, fmt):
    monkeypatch.chdir(GOLDEN_DIR)
    compare(_golden_path(name, fmt), _transcript(name, fmt))


def _write() -> None:
    import randgen

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    os.chdir(GOLDEN_DIR)
    for name, (maker, seed, nvars, shape) in PRESENTATIONS.items():
        pres = getattr(randgen, maker)(randgen.make_rng(seed), nvars, shape=shape)
        doc = {"nvars": pres.nvars, "generators": pres.generators,
               "relations": pres.relations,
               "matrix": [[format_poly(e) for e in row] for row in pres.matrix]}
        with open(name + ".json", "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
        for fmt in FORMATS:
            write(_golden_path(name, fmt), _transcript(name, fmt))


if __name__ == "__main__":
    write_main(__doc__, _write)
