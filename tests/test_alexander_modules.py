import copy
import json
import pickle
import time
from fractions import Fraction

import pytest

from alexinv.alexander_modules import (
    Presentation,
    char_poly,
    cyclic_module,
    direct_sum,
    elementary_ideal,
    fitting_variety_scan,
    in_support,
    load_presentation,
    presentation_from_dict,
    presentation_to_dict,
    support_scan,
    tensor_cyclic,
)
from alexinv.errors import LimitError, SchemaError
from alexinv.exact_kernel import cyclotomic_poly
from alexinv.laurent_ring import (
    MAX_SCAN_POINTS,
    LaurentPoly,
    TorsionPoint,
    divides,
    normalize_unit,
    parse_poly,
)
from randgen import make_rng, random_cyclic_gens, random_presentation

F = Fraction


def P(text, nvars):
    return parse_poly(text, nvars)


def free_module(nvars, rank=1):
    return Presentation(nvars, rank, 0, tuple(() for _ in range(rank)))


def diag(entries):
    nvars = entries[0].nvars
    zero = LaurentPoly.zero(nvars)
    rows = []
    for i, e in enumerate(entries):
        rows.append(tuple(e if j == i else zero for j in range(len(entries))))
    return Presentation(nvars, len(entries), len(entries), tuple(rows))


def test_elementary_ideal_examples():
    lam = P("t1*t2 - 1", 2)
    cyc = cyclic_module([lam])
    assert elementary_ideal(cyc, 0).gens == (lam,)

    d = diag([P("t1 - 1", 2), P("t2 - 1", 2)])
    e1 = elementary_ideal(d, 1)
    assert set(e1.gens) == {P("t1 - 1", 2), P("t2 - 1", 2)}

    assert elementary_ideal(free_module(1, 2), 0).is_zero_ideal
    assert elementary_ideal(cyc, 1).is_full_ring
    assert elementary_ideal(cyc, 5).is_full_ring


def test_char_poly_examples():
    d = diag([P("t^2 - 2*t + 1", 1), P("t - 1", 1)])  # (t-1)^2, (t-1)
    assert char_poly(d, 0) == P("t^3 - 3*t^2 + 3*t - 1", 1)
    assert char_poly(d, 1) == P("t - 1", 1)
    assert char_poly(d, 2).is_one
    cyc = cyclic_module([P("t1*t2 - 1", 2)])
    assert char_poly(cyc, 0) == P("t1*t2 - 1", 2)


def test_canonical_module_family():
    # R^s + R/(l1) + ... + R/(lr) with l_{j+1} | l_j gives 0, l_{i-s+1}...l_r, 1.
    l1 = P("t1*t2 - t1 - t2 + 1", 2)  # (t1-1)(t2-1)
    l2 = P("t2 - 1", 2)
    module = direct_sum(direct_sum(free_module(2), cyclic_module([l1])),
                        cyclic_module([l2]))
    assert char_poly(module, 0).is_zero
    assert char_poly(module, 1) == normalize_unit(l1 * l2)
    assert char_poly(module, 2) == normalize_unit(l2)
    assert char_poly(module, 3).is_one


def test_direct_sum_examples():
    a = cyclic_module([P("t1 - 1", 2)])
    b = cyclic_module([P("t2 - 1", 2)])
    s = direct_sum(a, b)
    assert (s.generators, s.relations) == (2, 2)
    assert s.entry(0, 0) == P("t1 - 1", 2)
    assert s.entry(1, 1) == P("t2 - 1", 2)
    assert s.entry(0, 1).is_zero and s.entry(1, 0).is_zero
    s2 = direct_sum(free_module(2), a)
    assert (s2.generators, s2.relations) == (2, 1)


def test_canonical_module_closed_formula_random():
    # For R^s + R/(l_1) + ... + R/(l_r) with l_{j+1} | l_j, the chain of
    # characteristic polynomials is 0 (i < s), l_{i-s+1}...l_r, then 1.
    from randgen import random_binomial_factor

    rng = make_rng(36)
    for _ in range(25):
        nvars = rng.randint(1, 2)
        s = rng.randint(0, 1)
        r = rng.randint(1, 3)
        factors = [random_binomial_factor(rng, nvars) for _ in range(r)]
        lams = []
        for j in range(r):
            prod = LaurentPoly.one(nvars)
            for f in factors[j:]:
                prod = prod * f
            lams.append(prod)  # lams[j] = f_j * ... * f_r, so lams[j+1] | lams[j]
        module = free_module(nvars, s) if s else cyclic_module([lams[0]])
        start = 0 if s else 1
        for lam in lams[start:]:
            module = direct_sum(module, cyclic_module([lam]))
        for i in range(s + r + 2):
            actual = char_poly(module, i)
            if i < s:
                assert actual.is_zero
            elif i < s + r:
                expected = LaurentPoly.one(nvars)
                for lam in lams[i - s :]:
                    expected = expected * lam
                assert actual == normalize_unit(expected)
            else:
                assert actual.is_one


def test_direct_sum_multiplicativity_random():
    rng = make_rng(31)
    for _ in range(60):
        nvars = rng.randint(1, 2)
        p1 = random_presentation(rng, nvars)
        p2 = random_presentation(rng, nvars)
        left = char_poly(direct_sum(p1, p2), 0)
        right = normalize_unit(char_poly(p1, 0) * char_poly(p2, 0))
        assert left == right


def test_divisibility_chain_random():
    rng = make_rng(32)
    for _ in range(60):
        pres = random_presentation(rng)
        for i in range(pres.generators + 1):
            assert divides(char_poly(pres, i + 1), char_poly(pres, i))


def test_cyclic_and_tensor():
    one_gen = cyclic_module([P("t - 1", 1)])
    assert (one_gen.generators, one_gen.relations) == (1, 1)
    free = cyclic_module([], nvars=2)
    assert char_poly(free, 0).is_zero
    both = cyclic_module([P("t1 - 1", 2), P("t2 - 1", 2)])
    assert char_poly(both, 0).is_one

    t = tensor_cyclic(cyclic_module([P("t1 - 1", 2)]),
                      cyclic_module([P("t2 - 1", 2)]))
    assert set(t.matrix[0]) == {P("t1 - 1", 2), P("t2 - 1", 2)}
    # Tensoring a cyclic module with itself only duplicates generators.
    same = tensor_cyclic(one_gen, one_gen)
    assert char_poly(same, 0) == char_poly(one_gen, 0)
    assert set(support_scan(same, 6)) == set(support_scan(one_gen, 6))
    with pytest.raises(ValueError):
        tensor_cyclic(free_module(2, 2), one_gen)


def test_tensor_support_intersection_random():
    rng = make_rng(33)
    for _ in range(40):
        nvars = rng.randint(1, 2)
        level = rng.choice([2, 3, 4, 5, 6])
        a = cyclic_module(random_cyclic_gens(rng, nvars), nvars=nvars)
        b = cyclic_module(random_cyclic_gens(rng, nvars), nvars=nvars)
        prod = tensor_cyclic(a, b)
        expected = set(support_scan(a, level)) & set(support_scan(b, level))
        assert set(support_scan(prod, level)) == expected


def test_in_support_examples():
    cyc = cyclic_module([P("t1*t2^2*t3^2 - 1", 3)])
    assert in_support(cyc, TorsionPoint.from_numerators(5, (1, 1, 1)))
    assert not in_support(cyclic_module([P("t - 1", 1)]),
                          TorsionPoint.from_numerators(5, (1,)))
    assert in_support(free_module(2), TorsionPoint.from_numerators(3, (1, 2)))


def test_in_support_refuses_a_level_past_the_scan_limit():
    # One point costs at least O(level) in time and memory, as a scan's grid
    # would.
    cyc = cyclic_module([P("t - 1", 1)])
    with pytest.raises(LimitError):
        in_support(cyc, TorsionPoint.from_numerators(MAX_SCAN_POINTS + 1, (0,)))
    assert in_support(cyc, TorsionPoint.from_numerators(MAX_SCAN_POINTS, (0,)))
    assert not in_support(cyc, TorsionPoint.from_numerators(MAX_SCAN_POINTS, (1,)))


def test_in_support_at_a_modulus_with_zero_coefficients():
    # Phi_99999 has 8841 nonzero coefficients among its 64801; the test at
    # level 99999 = 3^2 * 41 * 271 never builds it, and costs the same at
    # every point.
    point = {n: TorsionPoint.from_numerators(99999, (n,)) for n in range(4)}
    cyc = cyclic_module([P("t - 1", 1)])
    assert in_support(cyc, point[0])
    assert not in_support(cyc, point[1])
    # Phi_99999 itself vanishes only at a primitive root.
    phi = cyclotomic_poly(99999)
    cyc = cyclic_module([LaurentPoly(1, {(e,): c for e, c in enumerate(phi) if c})])
    for n, primitive in ((0, False), (1, True), (2, True), (3, False)):
        start = time.perf_counter()
        assert in_support(cyc, point[n]) == primitive
        assert time.perf_counter() - start < 0.5, n


def test_support_scan_examples():
    cyc = cyclic_module([P("t1*t2^2*t3^2 - 1", 3)])
    points = support_scan(cyc, 5)
    assert len(points) == 25
    expected = {
        pt for pt in points
        if (pt.numerators[0] + 2 * pt.numerators[1] + 2 * pt.numerators[2]) % 5 == 0
    }
    assert set(points) == expected

    single = support_scan(cyclic_module([P("t - 1", 1)]), 5)
    assert [p.numerators for p in single] == [(0,)]

    assert len(support_scan(free_module(3), 2)) == 8


def test_support_union_and_delta_bound_for_split_sequences():
    rng = make_rng(34)
    for _ in range(30):
        nvars = rng.randint(1, 2)
        level = rng.choice([2, 3, 4])
        a = random_presentation(rng, nvars, max_gens=2, max_rels=2)
        c = random_presentation(rng, nvars, max_gens=2, max_rels=2)
        b = direct_sum(a, c)
        assert set(support_scan(b, level)) == (
            set(support_scan(a, level)) | set(support_scan(c, level))
        )
        d0c = char_poly(c, 0)
        for i in range(b.generators + 1):
            assert divides(char_poly(b, i), char_poly(a, i) * d0c)
            # A is a submodule of A + C, so its deltas divide those of the sum.
            assert divides(char_poly(a, i), char_poly(b, i))


def test_fitting_variety_examples():
    d = diag([P("t^2 - 2*t + 1", 1), P("t - 1", 1)])
    v1 = fitting_variety_scan(d, 1, 5)
    assert [p.numerators for p in v1] == [(0,)]
    assert fitting_variety_scan(d, 3, 5) == ()
    assert fitting_variety_scan(cyclic_module([P("t - 1", 1)]), 2, 5) == ()
    with pytest.raises(ValueError):
        fitting_variety_scan(d, 0, 5)


def test_fitting_varieties_nested_random():
    rng = make_rng(35)
    for _ in range(30):
        pres = random_presentation(rng, 1, max_gens=3, max_rels=3)
        level = rng.choice([2, 3])
        for i in range(1, pres.generators + 1):
            outer = set(fitting_variety_scan(pres, i, level))
            inner = set(fitting_variety_scan(pres, i + 1, level))
            assert inner <= outer


def test_presentation_json_round_trip(tmp_path):
    d = diag([P("t^2 - 2*t + 1", 1), P("t - 1", 1)])
    data = presentation_to_dict(d)
    again = presentation_from_dict(data)
    assert again == d
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data))
    assert load_presentation(str(path)) == d


def round_trips(value):
    """``value`` through every pickle protocol, ``copy`` and ``deepcopy``."""
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    return [pickle.loads(pickle.dumps(value, k)) for k in protocols] + [
        copy.copy(value), copy.deepcopy(value)]


@pytest.mark.parametrize("entry", ["t1 - 1", "1/2*t1^-1*t2 - 3/7 + t2^2"],
                         ids=["int", "fraction"])
def test_values_pickle_and_copy(entry):
    poly = P(entry, 2)
    pres = Presentation.from_rows(2, [[poly, P("t1*t2 - 1", 2)], [P("2", 2), poly]])
    expected = [char_poly(pres, i) for i in range(3)]  # the minor table is warm
    ideal = elementary_ideal(pres, 1)
    point = TorsionPoint(6, (1, 4))
    for value in (poly, ideal, point):
        for again in round_trips(value):
            assert again == value and hash(again) == hash(value)
    for again in round_trips(poly):
        assert again.terms == poly.terms
        assert [type(c) for c in again.terms.values()] == [
            type(c) for c in poly.terms.values()]
    for again in round_trips(pres):
        assert again == pres
        assert [char_poly(again, i) for i in range(3)] == expected
    assert str(round_trips(point)[0]) == "(1/6,2/3)"


def test_presentation_schema_errors():
    with pytest.raises(SchemaError) as err:
        presentation_from_dict({"nvars": 1, "generators": 1, "relations": 1})
    assert "/matrix" in str(err.value)
    with pytest.raises(SchemaError) as err:
        presentation_from_dict(
            {"nvars": 1, "generators": 1, "relations": 1, "matrix": [["t9"]]}
        )
    assert "/matrix/0/0" in str(err.value)
