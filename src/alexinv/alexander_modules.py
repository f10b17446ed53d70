"""Finitely presented modules over the Laurent polynomial ring.

A module is given by an n x m presentation matrix (rows = generators,
columns = relations).  From it we compute characteristic polynomials (gcds
of the minors that generate the elementary ideals), and supports and
Fitting-stratified variety scans over the torsion points of a chosen level.

Conventions for the i-th elementary ideal of an n-generator presentation:
the full ring when ``i >= n``, the zero ideal when ``n - i > m``, and
otherwise the ideal of all ``(n-i) x (n-i)`` minors.

Before any minor is taken, the presentation is peeled
(``Presentation._peeled``): an entry ``a`` that divides every other entry of
its row and of its column splits off as a 1 x 1 block by unimodular row and
column operations, which leave ``B[r'][c'] = A[r'][c'] - (A[r'][c] / a) *
A[r][c']``; the entry with the fewest terms goes first, then the lowest
(row, col).  Fitting ideals do not change under unimodular operations
(Eisenbud, *Commutative Algebra*, 20.2), and ``I_k(a (+) B) = a * I_{k-1}(B)
+ I_k(B)``, so the pivots ``a_1 .. a_r`` and the residual ``B`` (the
presentation itself when nothing peels) carry every elementary ideal.

``char_poly`` reads ``Delta_k(A) = gcd_j(Delta_j(diag) * Delta_{k-j}(B))``,
as ``gcd(I * J) = gcd(I) * gcd(J)`` and ``gcd(I + J) = gcd(gcd I, gcd J)``
in a UFD; ``Delta_j(diag)`` is the product of the first ``j`` pivots once
pairwise (gcd, lcm) replacement has made them a divisibility chain.  The
chain keeps the gcds but not the ideals (``diag(t1 - 1, t2 - 1)`` has
``Delta_1 = 1``, yet ``I_1`` vanishes at ``(1, 1)``), so only ``char_poly``
reads it.  The scans and ``constructions.in_support`` count ranks instead:
unimodular operations stay invertible at every torus point, so there
``rank A = #{j : a_j != 0} + rank B``.  A point lies in ``V(E_{i-1})``, the
zeros of the ``k``-minors for ``k = n - i + 1``, exactly when ``rank A < k``:
with ``z`` pivots nonzero there, when every ``(k - z)``-minor of ``B``
vanishes (always when ``k - z`` exceeds the size of ``B``, never when
``k - z <= 0``).

The peel sorts its pivots by total degree span, the sum over the variables
of the greatest minus the least exponent.  Span adds under multiplication,
so a divisor never comes after its multiple (an associate, of equal span,
may come either side).  Each pivot is checked once for dividing the next,
which cuts the pivots into runs ``a_1 | ... | a_m`` (``_runs``).  On the
torus ``a | b`` puts ``V(a)`` inside ``V(b)``, so at a point where ``a_t`` is
nonzero so are ``a_1 .. a_t``, and where ``a_t`` vanishes so do ``a_t ..
a_m``: ``_zeros`` counts a run's nonzero pivots by testing one and
crediting or dropping the rest, and on a fully peeled chain one test per
point settles the rank.  ``_chain`` reads the same runs: pivots that form
one run are a chain already, with no (gcd, lcm) pass.

Minors of the residual are shared: each is a Laplace expansion along its
first row, memoised on its (row subset, column subset), so one table of
sub-minors serves all ``C(n,k) * C(m,k)`` minors of an ideal instead of
``k!`` products each.  The table (``Presentation.minors`` fills it), the
peel and the chain live as long as the presentation (in the CLI, as long as
its decoded-input cache keeps it), serve every index and every op, go with
it into pickles and copies, and take no part in ``==``, ``hash``, ``repr``
or the fields.  An op builds only the minors its answer needs, one at a
time in ``_minors``' order, and stops once the answer is settled (a gcd
of 1, a vanishing test once no point is left where every minor so far
vanishes).

Vanishing at torsion points is decided in integers: each ideal generator is
scaled by the lcm of its denominators (which does not change where it
vanishes) and compiled once to ``(exponents, coefficient)`` pairs; at a
level-N point its value is summed by power of ``zeta_N`` into a ``P`` of
degree below N.  ``P(zeta_N) = 0`` iff ``P * M = 0`` modulo ``x^N - 1`` for
``M = prod (x^(N/p) - 1)`` over the primes ``p | N``, since ``x^N - 1`` is
the product of the ``Phi_d``, ``d | N``, and ``M`` is zero at each
``zeta_d`` with ``d < N`` but not at ``zeta_N``.  ``in_support`` runs this
test at its one point.  A scan runs it once per orbit of ``(Z/N)^x`` acting
on numerators by ``n -> u*n``, and the verdict holds on the whole orbit:
the coefficients (of the pivots and the residual too) are rational, so a
generator's value at ``u*n`` is ``sigma_u`` of its value at ``n``, where
``sigma_u: zeta_N -> zeta_N^u`` is a field automorphism of ``Q(zeta_N)``,
and an automorphism sends only zero to zero.  The orbits come from a
per-process table keyed by ``(level, nvars)`` (``_orbits``), read only once
the grid passes ``check_grid``, so a scan is ``_zeros`` on the orbits' first
points and one pass over the grid's index-to-orbit tuple.  It builds no
point and answers with lexicographic grid indices, which the CLI renders
through one label list per level.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, combinations, compress, product
from math import gcd as int_gcd, lcm
from operator import mul, sub

from . import laurent_ring
from .errors import DimensionError, LimitError, ParseError, Record, SchemaError, _set
from .errors import fields, integers, load_json, moved
from .exact_kernel import prime_divisors
from .laurent_ring import (
    LaurentPoly,
    check_grid,
    divide_exact,
    gcd,
    gcd_all,
    normalize_unit,
    parse_poly,
)

__getattr__ = moved(
    __name__, "IdealGenerators elementary_ideal fitting_variety_scan support_scan")


class Presentation(Record):
    """Presentation matrix of a module: ``generators`` rows, ``relations`` columns.

    ``matrix`` is a tuple of generator rows, each a tuple of LaurentPoly.
    """

    _fields = ("nvars", "generators", "relations", "matrix")

    def __init__(self, nvars: int, generators: int, relations: int, matrix: tuple):
        if len(matrix) != generators:
            raise DimensionError("matrix must have one row per generator")
        for row in matrix:
            if len(row) != relations:
                raise DimensionError("matrix must have one column per relation")
            for entry in row:
                if entry.nvars != nvars:
                    raise DimensionError("matrix entry has wrong variable count")
        _set(self, "nvars", nvars)
        _set(self, "generators", generators)
        _set(self, "relations", relations)
        _set(self, "matrix", matrix)

    @cached_property
    def _minor_memo(self) -> dict:
        """Every minor built so far, by its (rows, cols) index tuples."""
        return {}

    @cached_property
    def _peeled(self) -> tuple:
        """``(pivots, rest)``: the entries split off as 1 x 1 blocks, by
        increasing total degree span, and the residual presentation (the
        presentation itself when none splits)."""
        rows, pivots = self.matrix, []
        while True:
            order = sorted((len(a.terms), r, c)
                           for r, row in enumerate(rows) for c, a in enumerate(row) if a)
            for _, r, c in order:
                top = rows[r]
                a = top[c]
                # a / a is 1, and row r's own quotient is never read.
                if all(divide_exact(x, a) is not None for x in top[:c] + top[c + 1 :]):
                    others = rows[:r] + rows[r + 1 :]
                    col = [divide_exact(row[c], a) for row in others]
                    if None not in col:
                        break
            else:
                break
            pivots.append(a)
            rows = tuple(
                tuple(x - q * y if q and y else x
                      for j, (x, y) in enumerate(zip(row, top)) if j != c)
                for row, q in zip(others, col))
        if not pivots:
            return (), self
        n = len(pivots)
        pivots.sort(key=lambda a: sum(map(sub, *laurent_ring.exponent_box(a))))
        return tuple(pivots), Presentation(
            self.nvars, self.generators - n, self.relations - n, rows)

    @cached_property
    def _runs(self) -> tuple:
        """The pivots cut into runs ``a_1 | a_2 | ... | a_m`` of consecutive
        divisors, each pivot checked once against the next."""
        runs = []
        for a in self._peeled[0]:
            if runs and divide_exact(a, runs[-1][-1]) is not None:
                runs[-1].append(a)
            else:
                runs.append([a])
        return tuple(map(tuple, runs))

    @cached_property
    def _chain(self) -> tuple:
        """The products ``c_1 ... c_j`` for ``j = 0 .. r`` (the first is 1) of
        the pivots, normalized and made a divisibility chain ``c_1 | c_2 |
        ...``: they are one already when they form one run, and (gcd, lcm)
        replacement makes them one otherwise; built once, and only read after."""
        chain = [normalize_unit(a) for a in self._peeled[0]]
        if len(self._runs) > 1:
            for i, j in combinations(range(len(chain)), 2):
                a, b = chain[i], chain[j]
                if divide_exact(b, a) is None:
                    g = gcd(a, b)
                    chain[i], chain[j] = g, normalize_unit(a * divide_exact(b, g))
        return tuple(accumulate(
            chain, lambda p, c: c if p.is_one else p if c.is_one else p * c,
            initial=LaurentPoly.one(self.nvars)))

    def minors(self, rows, cols) -> LaurentPoly:
        """``det(rows, cols)`` of sorted index tuples, by Laplace expansion
        along the first row; every sub-minor is computed once and kept."""
        memo = self._minor_memo
        found = memo.get((rows, cols))
        if found is None:
            top = self.matrix[rows[0]]
            if len(rows) == 1:
                found = top[cols[0]]
            else:
                # One sum for every term, its keys in the order that adding
                # the terms one at a time would leave them in.
                terms = {}
                for j, c in enumerate(cols):
                    if top[c]:
                        term = top[c] * self.minors(rows[1:], cols[:j] + cols[j + 1 :])
                        for e, v in term.terms.items():
                            v = terms.pop(e, 0) + (-v if j % 2 else v)
                            if v:
                                terms[e] = v
                if type(sum(terms.values())) is not int:  # a Fraction; two may sum to an int
                    terms = laurent_ring._ints(terms)
                found = LaurentPoly._make(self.nvars, terms)
            memo[rows, cols] = found
        return found


def _minors(pres: Presentation, i: int):
    """The i-th elementary ideal's generators, each built when asked for."""
    n, m = pres.generators, pres.relations
    if i >= n:
        yield LaurentPoly.one(pres.nvars)
    elif n - i <= m:
        for rsel in combinations(range(n), n - i):
            for csel in combinations(range(m), n - i):
                minor = pres.minors(rsel, csel)
                if minor:
                    yield minor


def char_poly(pres: Presentation, i: int) -> LaurentPoly:
    """Normalized gcd of the i-th elementary ideal (0 for the zero ideal,
    1 for the full ring): ``Delta_k = gcd_j(c_1...c_j * Delta_{k-j}(rest))``
    for ``k = n - i``, largest ``j`` first, where ``Delta_{k-j}(rest)`` can be nonzero."""
    (pivots, rest), k = pres._peeled, max(pres.generators - i, 0)
    prefixes, least = pres._chain, max(k - min(rest.generators, rest.relations), 0)

    def terms():
        for j in range(min(k, len(pivots)), least - 1, -1):
            d = gcd_all(_minors(rest, rest.generators - k + j), pres.nvars)
            if d:
                p = prefixes[j]
                yield d if p.is_one else p if d.is_one else p * d

    return gcd_all(terms(), pres.nvars)


def _vanishing(gens, level: int, candidates):
    """The candidate numerators of level-N points where all ``gens`` vanish;
    each generator is compiled and tested only where those before it vanish."""
    *steps, last = [level // p for p in prime_divisors(level)] or [0]
    for g in gens:
        den = lcm(*(c.denominator for c in g.terms.values()))
        terms = [(e, c.numerator * (den // c.denominator)) for e, c in g.terms.items()]
        kept = []
        for nums in candidates:
            powers = [0] * level
            for exps, c in terms:
                powers[-sum(map(mul, exps, nums)) % level] += c
            # Multiply by x^s - 1 mod x^N - 1 for each s = N/p but the last;
            # times the last, the product is zero iff the list has period s.
            for s in steps:
                powers = list(map(sub, powers[-s:] + powers[:-s], powers))
            if (powers[last:] == powers[:-last]) if last else not powers[0]:
                kept.append(nums)
        candidates = kept
        if not candidates:
            break
    return candidates


def _zeros(pres: Presentation, i: int, level: int, candidates) -> list:
    """The candidate numerators where every generator of the (i-1)-st
    elementary ideal vanishes, that is where ``rank < k = n - i + 1``: with
    ``z`` pivots nonzero at a point, where the ``(k - z)``-minors of the
    residual all vanish.

    Each run ``a_1 | ... | a_m`` of pivots is walked down from ``a_t``, ``t =
    min(m, k - z)``: where ``a_t`` is nonzero so are ``a_1 .. a_t``, and where
    it vanishes so do ``a_t .. a_m``.  A point leaves the walk once ``k - z``
    is settled: at most 0 (out), or more than the size of the residual plus
    the pivots left untested (in)."""
    rest = pres._peeled[1]
    size = min(rest.generators, rest.relations)
    left = len(pres._peeled[0])  # pivots in this run and the runs after it
    need = dict.fromkeys(candidates, pres.generators - i + 1)  # k - z
    for run in pres._runs:
        m = len(run)
        starts = {}  # t -> the candidates that test a_t first
        for nums, k in need.items():
            if 0 < k <= size + left:
                starts.setdefault(min(m, k), []).append(nums)
        left -= m
        walk = []
        for t in range(m, 0, -1):
            walk += starts.get(t, ())
            if not walk:
                continue
            zeros = set(_vanishing((run[t - 1],), level, walk))
            for nums in walk:
                if nums not in zeros:
                    need[nums] -= t
            walk = [nums for nums in walk if nums in zeros and need[nums] <= size + left + t - 1]
    groups = {}
    for nums, k in need.items():
        groups.setdefault(k, []).append(nums)
    return [nums for k, group in groups.items() if k > 0
            for nums in _vanishing(_minors(rest, rest.generators - k), level, group)]


MAX_ORBIT_TABLES = 16
"""Orbit tables (``_orbits``) a process keeps, the most recently used."""


@lru_cache(maxsize=MAX_ORBIT_TABLES)
def _orbits(level: int, nvars: int) -> tuple:
    """``(reps, orbit_of)`` for a level-N grid that ``check_grid`` passed: the
    first grid point of each ``(Z/N)^x`` orbit, in grid order, and for each
    lexicographic grid index the number of its orbit in ``reps``."""
    units = {}  # m -> the units of Z/m
    number = {}  # numerators -> the number of their orbit
    reps = []
    for nums in product(range(level), repeat=nvars):
        if nums not in number:
            # u*nums mod N depends only on u mod m, and every unit mod m
            # lifts to a unit mod N.
            m = level // int_gcd(level, *nums)
            if m not in units:
                units[m] = [u for u in range(1, m + 1) if int_gcd(u, m) == 1]
            k = len(reps)
            reps.append(nums)
            for u in units[m]:
                number[tuple(u * n % level for n in nums)] = k
    return tuple(reps), tuple(map(number.__getitem__, product(range(level), repeat=nvars)))


def _scan(pres: Presentation, i: int, level: int) -> list[int]:
    """Lexicographic indices of the level-N points where every generator of the
    (i-1)-st elementary ideal vanishes, in increasing order; the grid is
    checked first, also for the full ring, and one point per orbit is
    decided, the orbits read from the process's table for ``(level, nvars)``."""
    check_grid(level, pres.nvars)
    reps, orbit_of = _orbits(level, pres.nvars)
    zeros = set(_zeros(pres, i, level, reps))
    hit = [nums in zeros for nums in reps]
    return list(compress(range(len(orbit_of)), map(hit.__getitem__, orbit_of)))


# ---------------------------------------------------------------------------
# Presentation files.


MAX_DEGREE_SPAN = 64
"""Largest spread ``max - min`` of one variable's exponents in one entry; the
gcd and the cyclotomic factoring of ``charpoly`` work one degree at a time."""

MAX_TERMS = 64
"""Most terms one presentation entry may have."""


def presentation_from_dict(data: dict, path: str = "") -> Presentation:
    nvars, n, m, raw = fields(data, path, "nvars", "generators", "relations", "matrix")
    integers(nvars, f"{path}/nvars", 1)
    if nvars > (cap := laurent_ring.MAX_NVARS):
        raise LimitError(f"{path}/nvars: {nvars} is more than the limit of {cap}")
    if not (type(n) is int and n >= 0 and type(m) is int and m >= 0):
        raise SchemaError(f"{path}/generators", "counts must be non-negative integers")
    if not isinstance(raw, list) or len(raw) != n:
        raise SchemaError(f"{path}/matrix", f"expected {n} generator rows")
    rows = []
    for i, raw_row in enumerate(raw):
        if not isinstance(raw_row, list) or len(raw_row) != m:
            raise SchemaError(f"{path}/matrix/{i}", f"expected {m} relation entries")
        row = []
        for j, text in enumerate(raw_row):
            here = f"{path}/matrix/{i}/{j}"
            try:
                entry = parse_poly(str(text), nvars)
            except (ParseError, DimensionError) as exc:
                raise SchemaError(here, str(exc)) from exc
            if len(entry.terms) > MAX_TERMS:
                raise LimitError(
                    f"{here}: {len(entry.terms)} terms, more than the limit of "
                    f"{MAX_TERMS}"
                )
            span = max(map(sub, *laurent_ring.exponent_box(entry)), default=0)
            if span > MAX_DEGREE_SPAN:
                raise LimitError(
                    f"{here}: degree span {span} is more than the limit of {MAX_DEGREE_SPAN}")
            row.append(entry)
        rows.append(tuple(row))
    return Presentation(nvars, n, m, tuple(rows))


def presentation_from_json(data: bytes) -> Presentation:
    return presentation_from_dict(load_json(data))
