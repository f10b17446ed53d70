"""Exact multivariable Alexander invariants and twisted cohomology of
hypersurface arrangement complements.

Each export is named once below, under the module that defines it.  The
package imports that module on first use of one of its names (PEP 562), so
``import alexinv`` loads no submodule and ``import alexinv.cli`` compiles only
what a command can reach.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "alexander_modules": ("Presentation", "char_poly"),
    "aomoto_complex": ("GradedAlgebra", "validate_algebra"),
    "constructions": ("CyclotomicNumber", "ExactMatrix", "IdealGenerators", "OneForm",
                      "TorsionPoint", "admissible_search", "charvar_scan", "cohomology_at",
                      "cohomology_dims", "cyclic_module", "differential_matrix", "direct_sum",
                      "divides", "elementary_ideal", "epsilon_line", "evaluate_at_torsion",
                      "fitting_variety_scan", "in_support", "is_admissible", "one_form",
                      "os_algebra_lines", "projective_points", "rank", "residues",
                      "support_scan", "tensor_cyclic", "twisted_cohomology", "wedge"),
    "corpus": ("bundled_scenario_names", "load_bundled_scenario"),
    "exact_kernel": ("cyclotomic_poly",),
    "invariant_pipeline": ("MonodromyPolynomial", "Scenario", "load_scenario",
                           "milnor_charpoly"),
    "laurent_ring": ("LaurentPoly", "format_poly", "gcd", "normalize_unit", "parse_poly"),
    "residue_systems": ("ResidueSystem", "equimonodromic_beta"),
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
