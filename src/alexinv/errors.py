"""Exception types, the JSON document checks, the record base class and the
hook that resolves moved names, shared across the package."""

from __future__ import annotations

import json

# A frozen record's __init__ writes each field past its own __setattr__.
_set = object.__setattr__


class Record:
    """A record of named fields: ``==`` holds between records of one class
    with equal fields, ``hash`` is the hash of the field tuple, and the repr
    lists each field by name.  A field can be neither set nor deleted after
    ``__init__``, which writes them with ``_set``.

    Each subclass names its fields, in constructor order, in ``_fields``.
    Whatever else sits in the instance dict, a cached property say, takes no
    part in ``==``, ``hash`` or the repr.
    """

    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def moved(module: str, names: str):
    """The PEP 562 ``__getattr__`` of a module whose definitions ``names``
    (space-separated) moved to ``alexinv.constructions``: each resolves
    there, importing it on first use, so that old imports, old pickles and
    spans by old name still find it.  Any other name is an
    ``AttributeError``, raised without importing anything."""
    names = frozenset(names.split())

    def __getattr__(name):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from . import constructions

        return getattr(constructions, name)

    return __getattr__


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
    """A level below 1, a torsion grid over its size cap, a negative search
    bound, a scenario differential over its cell cap, a presentation entry
    over its degree-span or term cap, or a rational with more digits than can
    be written."""


class SchemaError(ValueError):
    """A JSON document does not match the expected file schema.

    ``path`` is a JSON pointer to the offending value, left out when empty.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
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
    """No admissible residue representative was found among the shifts
    searched, at most ``MAX_SHIFT_BOX`` of the box ``|k_i| <= bound``.

    Absence within that budget certifies nothing about admissibility; callers
    must treat this as "unknown", never as a negative certificate.
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
