"""Exact multivariable Alexander invariants and twisted cohomology of
hypersurface arrangement complements.

Each export is named once below, under the module that defines it.  The
package imports that module on first use of one of its names (PEP 562), so
``import alexinv`` loads no submodule and ``import alexinv.cli`` compiles only
what a command can reach.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "alexander_modules": ("IdealGenerators", "Presentation", "char_poly",
                          "elementary_ideal", "fitting_variety_scan", "support_scan"),
    "aomoto_complex": ("GradedAlgebra", "OneForm", "cohomology_dims",
                       "differential_matrix", "validate_algebra", "wedge"),
    "constructions": ("cohomology_at", "cyclic_module", "direct_sum", "epsilon_line",
                      "in_support", "one_form", "os_algebra_lines", "projective_points",
                      "tensor_cyclic"),
    "corpus": ("bundled_scenario_names", "load_bundled_scenario"),
    "exact_kernel": ("CyclotomicNumber", "ExactMatrix", "cyclotomic_poly", "rank"),
    "invariant_pipeline": ("MonodromyPolynomial", "Scenario", "charvar_scan",
                           "load_scenario", "milnor_charpoly", "twisted_cohomology"),
    "laurent_ring": ("LaurentPoly", "TorsionPoint", "divides", "evaluate_at_torsion",
                     "format_poly", "gcd", "normalize_unit", "parse_poly"),
    "residue_systems": ("ResidueSystem", "admissible_search", "equimonodromic_beta",
                        "is_admissible", "residues"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
