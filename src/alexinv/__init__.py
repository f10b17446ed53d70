"""Exact multivariable Alexander invariants and twisted cohomology of
hypersurface arrangement complements.

The functions that no command runs live in ``alexinv.constructions``, which
this package loads on first use of one of their names (PEP 562), so that
``import alexinv.cli`` compiles only what a command can reach.
"""

from .alexander_modules import (
    IdealGenerators,
    Presentation,
    char_poly,
    elementary_ideal,
    fitting_variety_scan,
    support_scan,
)
from .aomoto_complex import (
    GradedAlgebra,
    OneForm,
    cohomology_dims,
    differential_matrix,
    validate_algebra,
    wedge,
)
from .corpus import bundled_scenario_names, load_bundled_scenario
from .exact_kernel import (
    CyclotomicNumber,
    ExactMatrix,
    cyclotomic_poly,
    rank,
)
from .invariant_pipeline import (
    MonodromyPolynomial,
    Scenario,
    charvar_scan,
    load_scenario,
    milnor_charpoly,
    twisted_cohomology,
)
from .laurent_ring import (
    LaurentPoly,
    TorsionPoint,
    divides,
    evaluate_at_torsion,
    format_poly,
    gcd,
    normalize_unit,
    parse_poly,
)
from .residue_systems import (
    ResidueSystem,
    admissible_search,
    equimonodromic_beta,
    is_admissible,
    residues,
)

__version__ = "0.1.0"

_CONSTRUCTIONS = (
    "cohomology_at", "cyclic_module", "direct_sum", "epsilon_line", "in_support",
    "one_form", "os_algebra_lines", "projective_points", "tensor_cyclic",
)

__all__ = [
    "CyclotomicNumber", "ExactMatrix", "GradedAlgebra", "IdealGenerators", "LaurentPoly",
    "MonodromyPolynomial", "OneForm", "Presentation", "ResidueSystem", "Scenario",
    "TorsionPoint", "admissible_search", "bundled_scenario_names", "char_poly",
    "charvar_scan", "cohomology_dims", "cyclotomic_poly", "differential_matrix",
    "divides", "elementary_ideal", "equimonodromic_beta", "evaluate_at_torsion",
    "fitting_variety_scan", "format_poly", "gcd", "is_admissible", "load_bundled_scenario",
    "load_scenario", "milnor_charpoly", "normalize_unit", "parse_poly", "rank", "residues",
    "support_scan", "twisted_cohomology", "validate_algebra", "wedge", *_CONSTRUCTIONS,
]


def __getattr__(name):
    if name in _CONSTRUCTIONS:
        from . import constructions

        return getattr(constructions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
