"""Exception types shared across the package."""

from __future__ import annotations


class DimensionError(ValueError):
    """Operands have incompatible shapes or variable counts."""


class ParseError(ValueError):
    """Text input violates the polynomial grammar.

    Carries the 0-based position of the offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LimitError(ValueError):
    """A level below 1, or a torsion grid or search box over its size cap."""


class SchemaError(ValueError):
    """A JSON document does not match the expected file schema.

    ``path`` is a JSON-pointer-style location of the offending value.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


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
