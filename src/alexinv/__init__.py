"""Exact multivariable Alexander invariants and twisted cohomology of
hypersurface arrangement complements."""

from .alexander_modules import (
    IdealGenerators,
    Presentation,
    char_poly,
    cyclic_module,
    direct_sum,
    elementary_ideal,
    fitting_variety_scan,
    in_support,
    support_scan,
    tensor_cyclic,
)
from .aomoto_complex import (
    GradedAlgebra,
    OneForm,
    cohomology_dims,
    differential_matrix,
    os_algebra_lines,
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
    cohomology_at,
    epsilon_line,
    load_scenario,
    milnor_charpoly,
    projective_points,
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
