"""Exception types, and the JSON document checks, shared across the package."""

from __future__ import annotations

import json


class DimensionError(ValueError):
    """Operands have incompatible shapes or variable counts."""


class DegreeError(DimensionError):
    """A cohomology degree outside the range of the scenario's algebra.

    The one shape error a command-line argument can cause; the CLI reports
    it as a usage error, while any other ``DimensionError`` is a bug.
    """


class ParseError(ValueError):
    """Text input violates the polynomial grammar.

    Carries the 0-based position of the offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LimitError(ValueError):
    """A level below 1, a torsion grid or search box over its size cap, a
    presentation entry over its degree-span or term cap, or a rational with
    more digits than can be written."""


class SchemaError(ValueError):
    """A JSON document does not match the expected file schema.

    ``path`` is a JSON-pointer-style location of the offending value.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def load_json(data: bytes):
    """The JSON document in a file's UTF-8 bytes, newlines read as in text mode
    (error positions count them); bytes that do not decode are a root SchemaError."""
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from exc


def fields(data, path: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``data``, all required."""
    if not isinstance(data, dict):
        raise SchemaError(path, "must be an object")
    try:
        return [data[key] for key in keys]
    except KeyError as exc:
        raise SchemaError(f"{path}/{exc.args[0]}", "missing required field") from None


def integers(value, path: str, low: int, length: int | None = None):
    """``value`` if it is an integer ``>= low``, for ``low`` 0 or 1, or, given
    ``length``, a list of ``length`` such integers.  Bools are not integers."""
    if length is None:
        if type(value) is int and value >= low:
            return value
    elif isinstance(value, list) and len(value) == length and all(
        type(x) is int and x >= low for x in value
    ):
        return value
    kind = ("non-negative", "positive")[low]
    if length is None:
        raise SchemaError(path, f"must be a {kind} integer")
    raise SchemaError(path, f"must be a list of {length} {kind} integers")


class AlgebraInvalidError(Exception):
    """A graded algebra violates its structural invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class InconsistentDifferentialError(Exception):
    """Wedging twice with the given one-form is not zero (d*d != 0)."""


class InconclusiveSearchError(Exception):
    """No admissible residue representative was found inside the search box.

    Absence within the box does not certify that the local system is
    non-admissible; callers must treat this as "unknown", never as a negative
    certificate.
    """

    def __init__(self, beta, bound: int, context: str = ""):
        self.beta = tuple(beta)
        self.bound = bound
        self.context = context
        where = f" for {context}" if context else ""
        super().__init__(
            f"no admissible representative{where} with shifts bounded by "
            f"{bound} for beta={tuple(str(b) for b in self.beta)}"
        )
