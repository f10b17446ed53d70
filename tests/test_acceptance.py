"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every assertion is an equality; there are no
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines as they print.
"""

import functools
from fractions import Fraction
from itertools import product as iproduct

from alexinv.alexander_modules import Presentation, char_poly
from alexinv.aomoto_complex import betti_vector
from alexinv.constructions import (
    OneForm,
    charvar_scan,
    cohomology_dims,
    cyclic_module,
    differential_matrix,
    direct_sum,
    divides,
    euler_phi,
    is_admissible,
    mat_mul,
    one_form,
    shift_vectors,
    support_scan,
    tensor_cyclic,
    torsion_grid,
    twisted_cohomology,
)
from alexinv.corpus import bundled_scenario_names, load_bundled_scenario
from alexinv.exact_kernel import cyclotomic_poly, divisors
from alexinv.invariant_pipeline import milnor_charpoly
from alexinv.laurent_ring import gcd, normalize_unit, parse_poly
from randgen import (
    make_rng,
    random_cyclic_gens,
    random_oneform,
    random_presentation,
    random_product,
)
from reference import is_trivial, is_zero_matrix, points_with_dim_above

F = Fraction


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL - {description}")
                raise
            print(f"criterion {number:2d}: PASS - {description}")

        return wrapper

    return decorate


def scenario(name):
    return load_bundled_scenario(name)


@criterion(1, "example 4.1 untwisted cohomology is (1, 3, 2)")
def test_criterion_01_untwisted_41():
    sc = scenario("example_4_1")
    assert cohomology_dims(sc.algebra, OneForm((0, 0, 0))) == (1, 3, 2)
    assert twisted_cohomology(sc, (F(0), F(0), F(0))) == (1, 3, 2)


@criterion(2, "example 4.1 case 2 residues: admissibility flags and (0, 1, 1)")
def test_criterion_02_case2_41():
    sc = scenario("example_4_1")
    good = (F(-4, 5), F(1, 5), F(1, 5))
    assert is_admissible(sc.residue_system, good)
    assert cohomology_dims(sc.algebra, one_form(sc, good)) == (0, 1, 1)
    obvious = (F(1, 5), F(1, 5), F(1, 5))
    assert not is_admissible(sc.residue_system, obvious)


@criterion(3, "example 4.1 monodromy polynomials match exactly")
def test_criterion_03_milnor_41():
    sc = scenario("example_4_1")
    produced = [milnor_charpoly(sc, m, bound=3).factored_str() for m in (0, 1, 2)]
    assert produced == ["(t-1)", "(t-1)^2*(t^5-1)", "(t-1)*(t^5-1)"]


@criterion(4, "example 4.1 level-5 jumping loci: 25-point subtorus and {1}")
def test_criterion_04_jumping_41():
    sc = scenario("example_4_1")
    subtorus = {
        pt
        for pt in torsion_grid(5, 3)
        if sum(n * c for n, c in zip(pt.numerators, (1, 2, 2))) % 5 == 0
    }
    assert len(subtorus) == 25
    for degree in (1, 2):
        scan = charvar_scan(sc, 5, degree, bound=3)
        assert not scan.inconclusive
        assert set(points_with_dim_above(scan, 0)) == subtorus
        deeper = points_with_dim_above(scan, 1)
        assert len(deeper) == 1 and is_trivial(deeper[0])


@criterion(5, "example 4.2: case-2 dims, monodromy, level-5 scan fills the torus")
def test_criterion_05_42():
    sc = scenario("example_4_2")
    nontrivial = 0
    for pt in torsion_grid(5, 3):
        dims = twisted_cohomology(sc, pt.beta, bound=3)
        if is_trivial(pt):
            assert dims == (1, 3, 4)
        else:
            assert dims == (0, 0, 2)
            nontrivial += 1
    assert nontrivial == 124
    assert milnor_charpoly(sc, 1, bound=3).factored_str() == "(t-1)^3"
    assert milnor_charpoly(sc, 2, bound=3).factored_str() == "(t-1)^2*(t^5-1)^2"
    scan = charvar_scan(sc, 5, 2, bound=3)
    assert len(points_with_dim_above(scan, 0)) == 125
    assert len(points_with_dim_above(scan, 1)) == 125


@criterion(6, "example 5.3: dims (0, 0, 2, 1) and a full level-5 character torus")
def test_criterion_06_53():
    sc = scenario("example_5_3")
    for k in range(1, 5):
        assert twisted_cohomology(sc, (F(k, 5),)) == (0, 0, 2, 1)
    scan = charvar_scan(sc, 5, 2)
    assert not scan.inconclusive
    assert len(points_with_dim_above(scan, 0)) == 5
    assert len(points_with_dim_above(scan, 1)) == 5


@criterion(7, "canonical module over R_2: delta chain 0, l1*l2, l2, 1")
def test_criterion_07_canonical_module():
    l1 = parse_poly("t1*t2 - t1 - t2 + 1", 2)  # (t1 - 1)(t2 - 1)
    l2 = parse_poly("t2 - 1", 2)
    free = Presentation(2, 1, 0, ((),))
    module = direct_sum(direct_sum(free, cyclic_module([l1])), cyclic_module([l2]))
    assert char_poly(module, 0).is_zero
    assert char_poly(module, 1) == normalize_unit(l1 * l2)
    assert char_poly(module, 2) == normalize_unit(l2)
    assert char_poly(module, 3).is_one


@criterion(8, "property suites (>= 200 randomized cases each; full grids elsewhere)")
def test_criterion_08_property_suites():
    _properties_divisibility_chain()
    _properties_direct_sum()
    _properties_tensor_support()
    _properties_euler_and_scaling()
    _properties_d_squared_zero()
    _properties_admissible_independence()
    _properties_gcd_laws()
    _properties_cyclotomic_products()


def _properties_divisibility_chain():
    rng = make_rng(801)
    for _ in range(200):
        pres = random_presentation(rng)
        deltas = [char_poly(pres, i) for i in range(pres.generators + 2)]
        for lower, higher in zip(deltas[1:], deltas):
            assert divides(lower, higher)


def _properties_direct_sum():
    rng = make_rng(802)
    for _ in range(200):
        nvars = rng.randint(1, 2)
        p1 = random_presentation(rng, nvars)
        p2 = random_presentation(rng, nvars)
        assert char_poly(direct_sum(p1, p2), 0) == normalize_unit(
            char_poly(p1, 0) * char_poly(p2, 0)
        )


def _properties_tensor_support():
    rng = make_rng(803)
    for _ in range(200):
        nvars = rng.randint(1, 2)
        level = rng.choice([2, 3, 4, 5, 6])
        a = cyclic_module(random_cyclic_gens(rng, nvars), nvars=nvars)
        b = cyclic_module(random_cyclic_gens(rng, nvars), nvars=nvars)
        assert set(support_scan(tensor_cyclic(a, b), level)) == (
            set(support_scan(a, level)) & set(support_scan(b, level))
        )


def _properties_euler_and_scaling():
    rng = make_rng(804)
    algebras = [
        load_bundled_scenario(name).algebra for name in bundled_scenario_names()
    ]
    for i in range(200):
        algebra = algebras[i % len(algebras)]
        euler = sum(
            (-1) ** p * algebra.dim(p) for p in range(algebra.top_degree + 1)
        )
        omega = random_oneform(rng, algebra.dim(1))
        dims = cohomology_dims(algebra, omega)
        assert sum((-1) ** p * d for p, d in enumerate(dims)) == euler
        scale = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 7]))
        assert cohomology_dims(algebra, omega.scaled(scale)) == dims


def _properties_d_squared_zero():
    rng = make_rng(805)
    algebras = [
        load_bundled_scenario(name).algebra for name in bundled_scenario_names()
    ]
    checks = 0
    for algebra in algebras:
        for _ in range(35):
            omega = random_oneform(rng, algebra.dim(1))
            mats = [
                differential_matrix(algebra, omega, p)
                for p in range(algebra.top_degree)
            ]
            for p in range(algebra.top_degree - 1):
                assert is_zero_matrix(mat_mul(mats[p + 1], mats[p]))
            checks += 1
    assert checks >= 200


def _properties_admissible_independence():
    # Full enumeration: every admissible representative inside the default
    # search box (all shifts with entries in [-3, 3]) of every level-5 class
    # of examples 4.1 and 4.2 yields identical dimensions, and at least one
    # representative exists.
    shifts = shift_vectors(3, 3)
    for name in ("example_4_1", "example_4_2"):
        sc = load_bundled_scenario(name)
        for pt in torsion_grid(5, 3):
            dims_seen = set()
            for shift in shifts:
                alpha = tuple(b + k for b, k in zip(pt.beta, shift))
                if is_admissible(sc.residue_system, alpha):
                    dims_seen.add(
                        cohomology_dims(sc.algebra, one_form(sc, alpha))
                    )
            assert len(dims_seen) == 1


def _properties_gcd_laws():
    rng = make_rng(806)
    for _ in range(200):
        nvars = rng.randint(1, 2)
        p = random_product(rng, nvars)
        q = random_product(rng, nvars)
        r = random_product(rng, nvars)
        g = gcd(p, q)
        assert divides(g, p) and divides(g, q)
        assert gcd(p * r, q * r) == normalize_unit(r * g)


def _properties_cyclotomic_products():
    for n in range(1, 31):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)
        prod = [1]
        for d in divisors(n):
            phi_d = cyclotomic_poly(d)
            out = [0] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            prod = out
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert prod == expected


@criterion(9, "support scan and jumping-locus scan agree on the 25-point set")
def test_criterion_09_cross_check():
    cyc = cyclic_module([parse_poly("t1*t2^2*t3^2 - 1", 3)])
    from_module = set(support_scan(cyc, 5))
    scan = charvar_scan(scenario("example_4_1"), 5, 1, bound=3)
    from_pipeline = set(points_with_dim_above(scan, 0))
    assert from_module == from_pipeline
    assert len(from_module) == 25


@criterion(10, "Koszul vanishing: rank-2 exterior algebra kills every nonzero form")
def test_criterion_10_koszul_vanishing():
    algebra = scenario("torus").algebra
    assert betti_vector(algebra) == (1, 2, 1)
    assert cohomology_dims(algebra, OneForm((F(1, 2), F(1, 3)))) == (0, 0, 0)
    rng = make_rng(810)
    checked = 0
    while checked < 200:
        omega = random_oneform(rng, 2, allow_zero=False)
        assert cohomology_dims(algebra, omega) == (0, 0, 0)
        checked += 1
    for num, den in iproduct(range(-3, 4), (1, 2, 3, 5)):
        for position in (0, 1):
            coeffs = [F(0), F(0)]
            coeffs[position] = F(num, den)
            if any(coeffs):
                assert cohomology_dims(algebra, OneForm(coeffs)) == (0, 0, 0)
