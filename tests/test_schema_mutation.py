"""Schema mutation: a damaged scenario or presentation file never ends in a
traceback.

Each draw takes one of the six bundled scenarios or one of the golden
presentations, applies one mutation at one place in it (drop a key, retype a
value, ``true`` for an integer, a 5000-digit integer, a deeply nested list,
``"1/0"`` for a rational, an invalid UTF-8 byte) and runs ``validate`` on a
scenario, or ``module --op support --level 2`` or ``module --op charpoly`` on
a presentation, in-process under an alarm.  Every run must return an exit
code of 0-3; an exception out of ``cli.main``, including the alarm's, fails
the test.  The reader caps each entry's degree span and term count, so no
mutated presentation hands ``charpoly`` a steep exponent to work through one
degree at a time.
"""

from __future__ import annotations

import copy
import glob
import io
import json
import os
import signal
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv.cli import main
from alexinv.corpus import bundled_scenario_names, bundled_scenario_path

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = 10
HYPOTHESIS = settings(max_examples=300, deadline=None, database=None)


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


DOCUMENTS = [
    (["validate"], _load(bundled_scenario_path(name)))
    for name in bundled_scenario_names()
] + [
    (["module", *op, "--presentation"], _load(path))
    for path in sorted(glob.glob(os.path.join(HERE, "golden", "module", "*.json")))
    for op in (("--op", "support", "--level", "2"), ("--op", "charpoly"))
]

# A string that json.dumps writes as one token, replaced by raw JSON text
# that json.dumps itself cannot write.
PLACEHOLDER = "\x00mutation\x00"
RAW = {
    "huge": "1" * 5000,
    "nested": "[" * 100_000 + "]" * 100_000,
}
VALUES = {
    "object": {},
    "list": [],
    "string": "x",
    "null": None,
    "true": True,
    "1/0": "1/0",
    "huge": PLACEHOLDER,
    "nested": PLACEHOLDER,
}
MUTATIONS = ("drop", "number", "utf8", *VALUES)


def _paths(node, prefix=()):
    """Every location in a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, sub in items:
        yield from _paths(sub, prefix + (key,))


def _mutate(doc, where, kind: str, number, offset: int) -> bytes:
    # The document sits in a one-item list, so that the root is mutated
    # (and dropped, leaving an empty file) like any other value.
    box = [copy.deepcopy(doc)]
    parent, key = box, 0
    for step in where:
        parent, key = parent[key], step
    if kind == "drop":
        del parent[key]
    elif kind != "utf8":
        parent[key] = number if kind == "number" else VALUES[kind]
    text = json.dumps(box[0]) if box else ""
    if kind in RAW:
        text = text.replace(json.dumps(PLACEHOLDER), RAW[kind])
    raw = text.encode("utf-8")
    if kind == "utf8":
        offset %= len(raw) + 1
        raw = raw[:offset] + b"\xff" + raw[offset:]
    return raw


def _timeout(signum, frame):
    raise TimeoutError(f"no exit within {SECONDS} s")


def _run(argv) -> int:
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(SECONDS)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@HYPOTHESIS
@given(st.data())
def test_mutated_file_exits_cleanly(tmp_path_factory, data):
    command, doc = data.draw(st.sampled_from(DOCUMENTS))
    where = data.draw(st.sampled_from(list(_paths(doc))))
    kind = data.draw(st.sampled_from(MUTATIONS))
    number = data.draw(st.integers(min_value=-2, max_value=10**9) | st.floats())
    offset = data.draw(st.integers(min_value=0))
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(_mutate(doc, where, kind, number, offset))
    assert _run(command + [str(path)]) in (0, 1, 2, 3)
