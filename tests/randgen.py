"""Seeded random generators shared by the property-test suites."""

from __future__ import annotations

import random
from fractions import Fraction

from alexinv.alexander_modules import Presentation
from alexinv.constructions import OneForm
from alexinv.laurent_ring import LaurentPoly, parse_poly
from reference import presentation


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_fraction(rng, small=False) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2] if small else [1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_laurent(rng, nvars, max_terms=3, exp_lo=-2, exp_hi=2, allow_zero=True):
    nterms = rng.randint(0 if allow_zero else 1, max_terms)
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(exp_lo, exp_hi) for _ in range(nvars))
        terms[exps] = terms.get(exps, Fraction(0)) + random_fraction(rng)
    return LaurentPoly(nvars, terms)


def random_nonzero_laurent(rng, nvars, **kwargs):
    while True:
        p = random_laurent(rng, nvars, allow_zero=False, **kwargs)
        if not p.is_zero:
            return p


def random_binomial_factor(rng, nvars):
    """Small factors like t_i^a - c; products of these have usable gcds."""
    i = rng.randrange(nvars)
    a = rng.choice([1, 1, 2])
    c = rng.choice([1, 1, 1, 2, -1])
    return parse_poly(f"t{i + 1}^{a}", nvars) - c


def random_product(rng, nvars, max_factors=2):
    p = LaurentPoly.one(nvars)
    for _ in range(rng.randint(1, max_factors)):
        p = p * random_binomial_factor(rng, nvars)
    return p


def random_presentation(rng, nvars=None, max_gens=3, max_rels=3,
                        shape=None) -> Presentation:
    """Sparse presentation of products of binomials; ``shape = (n, m)`` fixes
    its size, else the size is drawn."""
    if nvars is None:
        nvars = rng.randint(1, 2)
    if shape is None:
        n = rng.randint(1, max_gens)
        m = rng.randint(0, max_rels)
    else:
        n, m = shape
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            roll = rng.random()
            if roll < 0.35:
                row.append(LaurentPoly.zero(nvars))
            elif roll < 0.9:
                row.append(random_product(rng, nvars))
            else:
                row.append(
                    random_laurent(rng, nvars, max_terms=2, exp_lo=0, exp_hi=2,
                                   allow_zero=False)
                )
        rows.append(tuple(row))
    return Presentation(nvars, n, m, tuple(rows))


def random_cyclic_gens(rng, nvars, max_gens=2):
    """Generators with structured vanishing sets on torsion grids."""
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        if rng.random() < 0.7:
            exps = tuple(rng.randint(-2, 2) for _ in range(nvars))
            if not any(exps):
                continue
            gens.append(LaurentPoly(nvars, {exps: 1}) - 1)
        else:
            gens.append(parse_poly(f"t{rng.randrange(nvars) + 1}", nvars) - 1)
    return gens


def random_oneform(rng, dim, allow_zero=True) -> OneForm:
    while True:
        coeffs = tuple(
            random_fraction(rng, small=True) if rng.random() < 0.8 else Fraction(0)
            for _ in range(dim)
        )
        if allow_zero or any(coeffs):
            return OneForm(coeffs)


def random_chain_presentation(rng, nvars, shape) -> Presentation:
    """``U*D*V`` of size ``shape = (n, m)``: ``D`` is diagonal with a
    divisibility chain of binomial products, ``U`` and ``V`` are a few
    elementary row and column operations with monomial multipliers, so the
    characteristic polynomials are nontrivial and known up to units."""
    n, m = shape
    zero = LaurentPoly.zero(nvars)
    rows = [[zero] * m for _ in range(n)]
    d = LaurentPoly.one(nvars)
    for j in range(min(n, m)):
        d = d * random_binomial_factor(rng, nvars)
        rows[j][j] = d
    for _ in range(2):
        a, b = rng.sample(range(n), 2)
        sign = rng.choice([1, -1])
        mono = LaurentPoly(nvars, {tuple(rng.randint(-1, 1) for _ in range(nvars)): sign})
        rows[a] = [x + mono * y for x, y in zip(rows[a], rows[b])]
        a, b = rng.sample(range(m), 2)
        sign = rng.choice([1, -1])
        mono = LaurentPoly(nvars, {tuple(rng.randint(-1, 1) for _ in range(nvars)): sign})
        for row in rows:
            row[a] = row[a] + mono * row[b]
    return Presentation(nvars, n, m, tuple(tuple(r) for r in rows))


def random_partial_presentation(rng, nvars, shape) -> Presentation:
    """A ``random_chain_presentation`` block of size ``(n-2, m-2)`` summed
    with a ``random_presentation`` 2 x 2 block, its rows and its columns then
    shuffled: the chain block splits off pivot by pivot, the random block
    mostly does not."""
    n, m = shape
    chain = random_chain_presentation(rng, nvars, (n - 2, m - 2))
    block = random_presentation(rng, nvars, shape=(2, 2))
    zero = LaurentPoly.zero(nvars)
    rows = [list(r) + [zero] * 2 for r in chain.matrix]
    rows += [[zero] * (m - 2) + list(r) for r in block.matrix]
    rng.shuffle(rows)
    cols = list(range(m))
    rng.shuffle(cols)
    return presentation(nvars, [[r[c] for c in cols] for r in rows])
