"""Independent answers for the benchmark's output checker.

Nothing here imports alexinv.  Scenarios are read from their JSON files,
presentations come with the U*D*V construction that produced them, and every
answer is recomputed with separate code (integer admissibility tests, a
Fraction rank, dict polynomials), so a defect in the library cannot pass by
agreeing with itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import lcm

# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent tuple: Fraction}.


def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_one(nvars: int) -> dict:
    return {(0,) * nvars: 1}


def binomial(exps) -> dict:
    """``t^e - 1`` for a nonzero exponent vector ``e``."""
    exps = tuple(exps)
    return {exps: 1, (0,) * len(exps): -1}


def format_poly(p: dict) -> str:
    """Text in the polynomial grammar of presentation files."""
    if not p:
        return "0"
    parts = []
    for exps in sorted(p):
        c = Fraction(p[exps])
        factors = [f"t{j + 1}^{e}" for j, e in enumerate(exps) if e]
        mag = abs(c)
        head = [] if factors and mag == 1 else [str(mag)]
        parts.append(("-" if c < 0 else "+") + "*".join(head + factors))
    return "".join(parts).lstrip("+")


def _terms(text: str):
    """Split at each sign that is not part of an exponent, keeping signs."""
    start = 0
    for i, ch in enumerate(text):
        if ch in "+-" and i > 0 and text[i - 1] != "^":
            yield text[start:i]
            start = i
    yield text[start:]


def parse_poly(text: str, nvars: int) -> dict:
    """Parse the expanded form the CLI prints (its ``format_poly`` output)."""
    text = text.replace(" ", "")
    if text == "0":
        return {}
    out: dict = {}
    for term in _terms(text):
        sign = -1 if term.startswith("-") else 1
        coeff = Fraction(sign)
        exps = [0] * nvars
        for factor in term.lstrip("+-").split("*"):
            if factor.startswith("t"):
                name, _, power = factor.partition("^")
                index = int(name[1:]) - 1 if len(name) > 1 else 0
                exps[index] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def parse_factored(text: str) -> dict:
    """Expand a univariate factored report such as ``(t-1)^2*(t^5-1)``."""
    result = poly_one(1)
    depth, start, pieces = 0, 0, []
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "*" and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    for piece in pieces:
        power = 1
        if piece.startswith("(") and ")^" in piece:
            piece, _, exponent = piece.rpartition("^")
            power = int(exponent)
        inner = piece[1:-1] if piece.startswith("(") else piece
        factor = parse_poly(inner, 1)
        for _ in range(power):
            result = poly_mul(result, factor)
    return result


def same_up_to_unit(p: dict, q: dict) -> bool:
    """True iff ``p = c * t^a * q`` for a nonzero rational ``c``."""
    if not p or not q:
        return not p and not q
    if len(p) != len(q):
        return False
    nvars = len(next(iter(p)))

    def normal(poly):
        mins = [min(e[j] for e in poly) for j in range(nvars)]
        shifted = {
            tuple(x - m for x, m in zip(e, mins)): Fraction(c)
            for e, c in poly.items()
        }
        lead = shifted[max(shifted)]
        return {e: c / lead for e, c in shifted.items()}

    return normal(p) == normal(q)


def cyclotomic(n: int) -> dict:
    """The n-th cyclotomic polynomial in one variable, by dividing
    ``t^n - 1`` by the cyclotomic factors of the proper divisors of n."""
    p = binomial((n,))
    for d in range(1, n):
        if n % d == 0:
            p = divide_univariate(p, cyclotomic(d))
    return p


def divide_univariate(p: dict, q: dict) -> dict:
    """Exact quotient of univariate polynomials; raises if q does not divide p."""
    rem = dict(p)
    out: dict = {}
    (dq,), lead = max(q.items())
    while rem:
        (dr,), c = max(rem.items())
        if dr < dq:
            raise ArithmeticError("inexact division")
        term = {(dr - dq,): Fraction(c) / lead}
        out = poly_add(out, term)
        rem = poly_add(rem, poly_mul(term, q), -1)
    return out


def vanishes(factors, numerators, level: int) -> bool:
    """Whether some ``t^e - 1`` in ``factors`` vanishes at the level-N
    torsion point with the given numerators: ``e . k = 0 (mod N)``."""
    return any(
        sum(e * k for e, k in zip(exps, numerators)) % level == 0
        for exps in factors
    )


# ---------------------------------------------------------------------------
# Known answers of a U*D*V presentation.


class PresentationAnswer:
    """Answers fixed by construction for ``U * diag(d_1..d_n) * V``.

    ``chain[j]`` lists the exponent vectors of the binomial factors of
    ``d_{j+1}``; the chain is cumulative, so ``d_1 | d_2 | ... | d_n``.
    ``U`` and ``V`` are unimodular, so the elementary ideals are those of the
    diagonal matrix: ``Delta_i = d_1 ... d_{n-i}`` and a torsion point lies on
    ``V(E_i)`` iff ``d_{n-i}`` vanishes there.
    """

    def __init__(self, nvars: int, generators: int, relations: int, chain):
        self.nvars = nvars
        self.n = generators
        self.m = relations
        self.chain = [tuple(tuple(e) for e in d) for d in chain]

    def charpoly(self, i: int) -> dict:
        if i >= self.n:
            return poly_one(self.nvars)
        if self.n - i > self.m:
            return {}
        result = poly_one(self.nvars)
        for d in self.chain[: self.n - i]:
            for exps in d:
                result = poly_mul(result, binomial(exps))
        return result

    def vanishing_points(self, i: int, level: int) -> list[tuple[int, ...]]:
        """Numerators of the level-N torsion points on ``V(E_i)``."""
        if i >= self.n:
            return []
        if self.n - i > self.m:
            return list(product(range(level), repeat=self.nvars))
        factors = self.chain[self.n - i - 1]
        return [
            k
            for k in product(range(level), repeat=self.nvars)
            if vanishes(factors, k, level)
        ]


# ---------------------------------------------------------------------------
# Scenarios: admissible search and twisted cohomology dimensions.


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                f = f / head[col]
                rows[r] = [x - f * y for x, y in zip(rows[r], head)]
        rank += 1
    return rank


class ScenarioAnswer:
    """Twisted cohomology of a scenario file, recomputed from its JSON."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        self.path = path
        self.name = data["name"]
        self.components = data["components"]
        self.degrees = list(data["degrees"])
        alg = data["algebra"]
        self.top = alg["top_degree"]
        self.basis = [list(alg["basis"][str(p)]) for p in range(self.top + 1)]
        degree_of = {
            label: p for p, labels in enumerate(self.basis) for label in labels
        }
        products = {}
        for entry in alg.get("products", []):
            vec = {
                v["basis"]: Fraction(v["coeff"])
                for v in entry["value"]
                if Fraction(v["coeff"])
            }
            products[(entry["left"], entry["right"])] = vec
        for (a, b), vec in list(products.items()):
            if degree_of[b] == 1 and (b, a) not in products:
                products[(b, a)] = {k: -v for k, v in vec.items()}
        self.products = products
        system = data["residue_system"]
        self.nparams = system["nparams"]
        self.labels = [row["label"] for row in system["rows"]]
        self.rows = [tuple(row["coeffs"]) for row in system["rows"]]
        self.omega_map = [[Fraction(x) for x in row] for row in data["omega_map"]]
        self.max_shift = data.get("max_shift")
        infinity = data.get("milnor", {}).get("include_infinity", True)
        self.milnor_order = sum(self.degrees) + (1 if infinity else 0)
        self._dot_tables: dict = {}
        self._memo: dict = {}

    def betti(self) -> list[int]:
        return [len(b) for b in self.basis]

    def effective_bound(self, bound: int) -> int:
        return bound if self.max_shift is None else min(bound, self.max_shift)

    def residues(self, alpha) -> list[Fraction]:
        return [sum(c * a for c, a in zip(row, alpha)) for row in self.rows]

    def is_admissible(self, alpha) -> bool:
        return not any(v > 0 and v.denominator == 1 for v in self.residues(alpha))

    def search(self, beta, bound: int):
        """First admissible ``beta + k``, with shifts ``k`` in the box
        ordered by total absolute shift and then lexicographically, or None.

        Works on numerators over the common denominator ``L`` of ``beta``: a
        residue ``v / L`` is a positive integer iff ``v > 0`` and
        ``L | v``."""
        bound = self.effective_bound(bound)
        beta = [Fraction(b) for b in beta]
        den = lcm(*(b.denominator for b in beta))
        base = [sum(c * int(b * den) for c, b in zip(row, beta)) for row in self.rows]
        if bound not in self._dot_tables:
            self._dot_tables[bound] = [
                (k, [sum(c * x for c, x in zip(row, k)) for row in self.rows])
                for k in sorted(
                    product(range(-bound, bound + 1), repeat=self.nparams),
                    key=lambda k: (sum(map(abs, k)), k),
                )
            ]
        for k, dots in self._dot_tables[bound]:
            if all(
                not (v > 0 and v % den == 0)
                for v in (b + den * d for b, d in zip(base, dots))
            ):
                return tuple(b + x for b, x in zip(beta, k))
        return None

    def dims(self, alpha) -> tuple[int, ...]:
        """Dimensions of ``(A, omega ^ .)`` at the one-form of ``alpha``."""
        ones = self.basis[1]
        omega = [
            sum(a * row[j] for a, row in zip(alpha, self.omega_map))
            for j in range(len(ones))
        ]
        ranks = []
        for p in range(self.top):
            index = {label: i for i, label in enumerate(self.basis[p + 1])}
            columns = []
            for v in self.basis[p]:
                col = [Fraction(0)] * len(index)
                for u, w in zip(ones, omega):
                    if not w:
                        continue
                    image = {u: 1} if p == 0 else self.products.get((u, v), {})
                    for label, c in image.items():
                        col[index[label]] += w * c
                columns.append(col)
            ranks.append(_rank(columns))
        ranks.append(0)
        return tuple(
            len(self.basis[p]) - ranks[p] - (ranks[p - 1] if p else 0)
            for p in range(self.top + 1)
        )

    def twisted(self, beta, bound: int):
        """``(alpha, dims)`` for the residue classes ``beta``, or None when
        the search box holds no admissible representative."""
        key = (tuple(Fraction(b) for b in beta), self.effective_bound(bound))
        if key not in self._memo:
            alpha = self.search(key[0], bound)
            self._memo[key] = None if alpha is None else (alpha, self.dims(alpha))
        return self._memo[key]
