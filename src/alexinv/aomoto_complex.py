"""Finite graded-commutative cohomology algebras and the wedge differential.

An algebra is described by an ordered basis in each degree (degree 0 is
spanned by the unit element) and by structure constants for wedging a
degree-1 basis element with any other basis element.  Wedging with the unit
is scalar multiplication and is built in; omitted products are zero.

The differential of the complex attached to a one-form ``w`` in degree one is
``v -> w ^ v``.  ``IntegerDifferential`` holds it for every one-form of a
linear family at once, as integer matrices after clearing denominators, and
computes its cohomology dimensions by exact integer rank.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import (
    AlgebraInvalidError,
    DimensionError,
    InconsistentDifferentialError,
    Record,
    SchemaError,
    _set,
    fields,
    integers,
    moved,
)
from .exact_kernel import integer_rank, parse_rational
from .laurent_ring import LaurentPoly, divide_exact

ProductTable = dict  # (left label, right label) -> {target label: Fraction}

__getattr__ = moved(__name__, "OneForm cohomology_dims differential_matrix wedge")


class GradedAlgebra(Record):
    """Graded algebra with explicit structure constants.

    ``basis[p]`` is the ordered label tuple of degree ``p``; ``products``
    maps a (degree-1 label, any label) pair to the target coefficient vector,
    stored sparsely by target label.  Missing mirror entries of degree-1 by
    degree-1 products are filled in with the antisymmetric value; explicitly
    supplied entries are kept verbatim so that validation can catch
    inconsistent input.  ``_where`` maps each label to its (degree, index)
    and is no field.  ``products`` is a dict, so the algebra has no hash.
    """

    _fields = ("top_degree", "basis", "products")
    __hash__ = None

    def __init__(self, top_degree: int, basis: tuple, products: ProductTable):
        basis = tuple(tuple(labels) for labels in basis)
        if len(basis) != top_degree + 1:
            raise DimensionError("need one basis tuple per degree 0..top_degree")
        where = {}
        for p, labels in enumerate(basis):
            for i, label in enumerate(labels):
                if label in where:
                    raise ValueError(f"duplicate basis label {label!r}")
                where[label] = (p, i)
        normalized = {}
        for (left, right), vec in products.items():
            for label in (left, right):
                if label not in where:
                    raise ValueError(f"product references unknown label {label!r}")
            vec = {k: c for k, v in vec.items() if (c := Fraction(v))}
            for target in vec:
                if target not in where:
                    raise ValueError(f"product targets unknown label {target!r}")
            normalized[(left, right)] = vec
        # Fill antisymmetric mirrors for degree-1 pairs that were not given.
        ones = basis[1] if top_degree >= 1 else ()
        for a in ones:
            for b in ones:
                if (a, b) in normalized and (b, a) not in normalized:
                    normalized[(b, a)] = {
                        k: -v for k, v in normalized[(a, b)].items()
                    }
        _set(self, "top_degree", top_degree)
        _set(self, "basis", basis)
        _set(self, "_where", where)
        _set(self, "products", normalized)

    def dim(self, p: int) -> int:
        if 0 <= p <= self.top_degree:
            return len(self.basis[p])
        return 0

    def degree_of(self, label: str) -> int:
        return self._where[label][0]

    def wedge_pair(self, one_label: str, other_label: str) -> dict:
        """Structure vector of (degree-1 element) ^ (any basis element)."""
        if self.degree_of(other_label) == 0:
            return {one_label: Fraction(1)}
        return self.products.get((one_label, other_label), {})


def validate_algebra(algebra: GradedAlgebra) -> list[str]:
    """Check graded-commutativity invariants; returns violation strings.

    Checks, exhaustively over basis elements: antisymmetry of degree-1 by
    degree-1 products, vanishing squares of degree-1 elements, and
    ``u ^ (u ^ v) = 0`` for every degree-1 ``u`` and basis element ``v``.
    """
    violations = []
    if algebra.top_degree < 1:
        return violations
    ones = algebra.basis[1]
    for a in ones:
        square = algebra.products.get((a, a), {})
        if square:
            violations.append(f"square is nonzero: ({a}, {a}, degree 1)")
    for i, a in enumerate(ones):
        for b in ones[i + 1 :]:
            ab = algebra.products.get((a, b), {})
            ba = algebra.products.get((b, a), {})
            mirror = {k: -v for k, v in ab.items()}
            if ba != mirror:
                violations.append(f"antisymmetry fails: ({a}, {b}, degree 1)")
    for u in ones:
        for p in range(0, algebra.top_degree - 1):
            for v in algebra.basis[p]:
                first = algebra.wedge_pair(u, v)
                acc: dict = {}
                for mid, c in first.items():
                    for target, d in algebra.wedge_pair(u, mid).items():
                        acc[target] = acc.get(target, Fraction(0)) + c * d
                if any(acc.values()):
                    violations.append(
                        f"u^(u^v) is nonzero: ({u}, {v}, degree {p})"
                    )
    return violations


MAX_RANK_MEMO = 4096
"""Most ranks one ``IntegerDifferential`` keeps (about 0.75 MB when full)."""

MAX_CERTIFICATE_TERMS = 64
"""Most terms an entry may have while a rank certificate is built; a degree
whose elimination meets a larger one gets no certificate."""


def rank_certificate(tensor, nparams: int):
    """The rank ``r`` of ``D(a) = sum_i a_i N_i`` over ``Q(a)``, where entry
    ``(t, j)`` of ``N_i`` is ``tensor[t][j][i]``, and one of its ``r x r``
    minors that is not identically zero.

    Returns ``(r, rows, cols, minor)``: the minor is on the rows ``rows`` and
    columns ``cols`` of ``D``, as integer ``(exponents, coefficient)`` pairs
    of a polynomial in ``a``.  Every ``(r+1)``-minor is identically zero, so
    ``rank D(a) = r`` wherever the minor is nonzero.  Fraction-free Bareiss
    elimination over ``Z[a]`` (each entry it makes is a minor of ``D``, and
    its last pivot is the one returned); None when an entry has more than
    ``MAX_CERTIFICATE_TERMS`` terms.  When ``r = 0`` the minor is the empty
    one, the constant 1.
    """
    cap = MAX_CERTIFICATE_TERMS
    units = [tuple(int(i == k) for i in range(nparams)) for k in range(nparams)]
    rows = []
    for t, tensor_row in enumerate(tensor):
        row = [
            LaurentPoly._make(nparams, {units[i]: c for i, c in enumerate(cell) if c})
            for cell in tensor_row
        ]
        if any(row):
            if max(len(x.terms) for x in row) > cap:
                return None
            rows.append((t, row))
    found, previous, cols = 0, None, []
    for c in range(len(tensor[0]) if tensor else 0):
        candidates = [i for i in range(found, len(rows)) if rows[i][1][c]]
        if not candidates:
            continue
        # The sparsest pivot keeps the entries, and the minor, small.
        pivot = min(candidates, key=lambda i: len(rows[i][1][c].terms))
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found][1]
        p = top[c]
        kept = rows[: found + 1]
        for t, row in rows[found + 1 :]:
            f = row[c]
            new = row[: c + 1]
            for x, y in zip(row[c + 1 :], top[c + 1 :]):
                if f and y:
                    x = p * x - f * y
                elif x:
                    x = p * x
                if x and previous is not None:
                    # A quotient of at most cap terms times the divisor has
                    # at most cap * len(divisor) terms.
                    if len(x.terms) > cap * len(previous.terms):
                        return None
                    x = divide_exact(x, previous)
                    if x is None:
                        raise ArithmeticError("a Bareiss step did not divide exactly")
                if len(x.terms) > cap:
                    return None
                new.append(x)
            if any(new[c + 1 :]):
                kept.append((t, new))
        rows = kept
        previous = p
        cols.append(c)
        found += 1
        if found == len(rows):
            break
    if not found:  # the empty minor is 1
        return 0, (), (), (((0,) * nparams, 1),)
    minor = tuple(previous.terms.items())
    return found, tuple(sorted(t for t, _ in rows[:found])), tuple(cols), minor


class IntegerDifferential:
    """The differentials of ``(A, w ^ .)`` for the one-forms
    ``w = sum_i a_i * omega_map[i]``, as integer-linear functions of ``a``.

    ``D_p(a) = sum_i a_i N_{p,i}``, where ``N_{p,i}`` is wedging with the
    one-form ``omega_map[i]`` from degree p to p+1, cleared of denominators by
    one positive factor per degree; a positive rescaling of a matrix changes
    neither its rank nor whether it is zero.  ``D_{p+1}(a) D_p(a)`` is the
    quadratic form ``sum_{i<=j} a_i a_j Q_{p,ij}`` with
    ``Q_{p,ii} = N_{p+1,i} N_{p,i}`` and
    ``Q_{p,ij} = N_{p+1,i} N_{p,j} + N_{p+1,j} N_{p,i}``; only its nonzero
    entries are kept, so the d*d check is free on a graded-commutative
    algebra.

    Each degree's rank certificates are built with the differential: the
    rank ``r_p`` of ``D_p`` over ``Q(a)`` and up to three distinct nonzero
    ``r_p x r_p`` minors, ``M_p(a)`` from ``rank_certificate`` and those it
    gives for ``D_p`` with its columns reversed and with its rows reversed.
    Every larger minor is identically zero, so ``rank D_p(a) = r_p``
    wherever any of these minors is nonzero.  Elsewhere, on the zero set of
    all of them or in a degree without a certificate, ``D_p`` is linear in
    ``a``, so ``rank D_p(c * a) = rank D_p(a)`` for every nonzero ``c``: each
    such rank is kept under its degree and the direction ``a // gcd(a)``, and
    computed once per direction (up to ``MAX_RANK_MEMO`` entries; the memo is
    emptied when full).  The memo ``ranks`` is the only state that a call
    changes.
    """

    def __init__(self, algebra: GradedAlgebra, omega_map):
        self.betti = betti_vector(algebra)
        self.ranks = {}  # (degree, direction) -> rank of D_degree
        nparams = len(omega_map)
        ones = algebra.basis[1] if algebra.top_degree >= 1 else ()
        # tensors[p][t][j]: entry (t, j) of every N_{p,i}, as a tuple over i.
        # Only the cells that a product writes are summed and scaled; every
        # other cell is one shared zero tuple.
        self.tensors = []
        zero = (0,) * nparams
        for p in range(algebra.top_degree):
            index = {label: t for t, label in enumerate(algebra.basis[p + 1])}
            acc = {}  # (t, j) -> the cell's sums over i
            for u_index, u in enumerate(ones):
                weights = [
                    (i, row[u_index]) for i, row in enumerate(omega_map) if row[u_index]
                ]
                for j, v in enumerate(algebra.basis[p]):
                    for label, s in algebra.wedge_pair(u, v).items():
                        cell = acc.setdefault((index[label], j), [0] * nparams)
                        for i, w in weights:
                            cell[i] += w * s
            scale = lcm(*(c.denominator for cell in acc.values() for c in cell))
            tensor = [[zero] * algebra.dim(p) for _ in algebra.basis[p + 1]]
            for (t, j), cell in acc.items():
                tensor[t][j] = tuple(c.numerator * scale // c.denominator for c in cell)
            self.tensors.append(tensor)
        # squares: per nonzero entry of any D_{p+1} D_p, in order of p, the
        # pair (p, its (i, j, Q_{p,ij}) terms).
        self.squares = []
        for p in range(algebra.top_degree - 1):
            outer, inner = self.tensors[p + 1], self.tensors[p]
            for out_row, col in product(outer, range(algebra.dim(p))):
                # Only an m where both factors are nonzero adds to the entry.
                factors = [(x, inner[m][col]) for m, x in enumerate(out_row)
                           if any(x) and any(inner[m][col])]
                if not factors:
                    continue
                # pair[i][j]: this entry of N_{p+1,i} N_{p,j}.
                pair = [
                    [sum(x[i] * y[j] for x, y in factors) for j in range(nparams)]
                    for i in range(nparams)
                ]
                terms = [
                    (i, j, pair[i][j] + pair[j][i] if i < j else pair[i][i])
                    for i in range(nparams)
                    for j in range(i, nparams)
                ]
                terms = [term for term in terms if term[2]]
                if terms:
                    self.squares.append((p, terms))
        # minors[p]: the rank r_p of D_p and, each once and as _factored
        # gives them, the terms of M_p and of the minors that
        # rank_certificate gives for D_p with its columns reversed and with
        # its rows reversed; or None when D_p has no certificate.
        self.minors = []
        for tensor in self.tensors:
            cert = rank_certificate(tensor, nparams)
            if cert is not None:
                flipped = ([row[::-1] for row in tensor], tensor[::-1])
                certs = [cert] + [rank_certificate(t, nparams) for t in flipped]
                cert = cert[0], tuple(dict.fromkeys(_factored(c[3]) for c in certs if c))
            self.minors.append(cert)

    def dims_many(self, points, degrees=None) -> list[tuple[int, ...]]:
        """A tuple of dimensions for ``degrees`` (default: all, ``0 .. top``) at
        each integer vector in ``points``: :meth:`check_squares`, then ``b_p -
        rank D_p - rank D_{p-1}`` from :meth:`rank_column`, each degree's
        ranks computed once."""
        if not points:
            return []
        if degrees is None:
            degrees = range(len(self.betti))
        columns, size = list(zip(*points)), len(points)
        self.check_squares(columns, size)
        ranks, dims = {}, []
        for p in degrees:
            for q in (p - 1, p):
                if q not in ranks:
                    ranks[q] = self.rank_column(q, columns, size)
            dims.append([self.betti[p] - x - y for x, y in zip(ranks[p], ranks[p - 1])])
        return list(zip(*dims)) if dims else [()] * size

    def check_squares(self, columns, size: int) -> None:
        """Checks at every one of the ``size`` points with coordinate columns
        ``columns`` that consecutive differentials compose to zero in every
        degree; when a point fails, the error names the lowest degree where
        the first failing point fails."""
        # (index, degree) of the first point that fails; squares come in
        # order of degree, so a later entry failing there is no lower.
        failing = (size, None)
        for p, terms in self.squares:
            values = [0] * size
            for i, j, q in terms:
                values = [v + q * x * y for v, x, y in zip(values, columns[i], columns[j])]
            k = next((k for k, v in enumerate(values) if v), size)
            if k < failing[0]:
                failing = k, p
        if failing[1] is not None:
            raise InconsistentDifferentialError(
                f"wedging twice with the one-form is nonzero from degree {failing[1]}"
            )

    def rank_column(self, q: int, columns, size: int) -> list[int]:
        """The rank of ``D_q`` at each of the ``size`` points with coordinate
        columns ``columns``; the missing ``D_{-1}`` and ``D_top`` are zero.

        Degree ``q``'s first minor is evaluated over whole columns, and each
        later minor only at the points where those before it vanish; only the
        points where every minor vanishes, and all points of a degree without
        one, go one by one through the memo.
        """
        tensors, memo = self.tensors, self.ranks
        if not 0 <= q < len(tensors):
            return [0] * size
        generic, minors = self.minors[q] or (0, ())
        ranks, todo = [generic] * size, range(size)
        for terms in minors:
            # Each minor only where every one before it vanishes.
            sub = columns if len(todo) == size else [
                [column[k] for k in todo] for column in columns]
            values = _minor_column(terms, sub, len(todo))
            if 0 not in values:
                todo = ()
                break
            todo = [k for k, v in zip(todo, values) if not v]
        for k in todo:
            a = [column[k] for column in columns]
            g = gcd(*a)
            direction = tuple(a) if g <= 1 else tuple([x // g for x in a])
            rank = memo.get((q, direction))
            if rank is None:
                rank = integer_rank(
                    [[sum(map(mul, cell, a)) for cell in row] for row in tensors[q]]
                )
                if len(memo) >= MAX_RANK_MEMO:
                    memo.clear()
                memo[q, direction] = rank
            ranks[k] = rank
        return ranks


def _factored(minor) -> tuple:
    """A minor's terms, sorted, as ``_minor_column`` reads them; negated when
    the first coefficient is negative, since only its zero set is read."""
    minor = sorted(minor)
    sign = 1 if minor[0][1] > 0 else -1
    return tuple((sign * c, tuple(i for i, k in enumerate(e) for _ in range(k))) for e, c in minor)


def _minor_column(terms, columns, size) -> list:
    """The values of a minor, given by ``terms`` as ``(coefficient, the index
    of each variable once per power)`` pairs, at each of the ``size`` points
    whose coordinate columns are ``columns``.  Each term and variable adds one
    ``map`` over a column; they are chained, so one list is built."""
    total = repeat(0, size)
    for c, factors in terms:
        term = repeat(c, size)
        for i in factors:
            term = map(mul, term, columns[i])
        total = map(add, total, term)
    return list(total)


def betti_vector(algebra: GradedAlgebra) -> tuple[int, ...]:
    return tuple(algebra.dim(p) for p in range(algebra.top_degree + 1))


# ---------------------------------------------------------------------------
# JSON schema.


def algebra_from_dict(data: dict, path: str = "/algebra") -> GradedAlgebra:
    top, raw_basis = fields(data, path, "top_degree", "basis")
    integers(top, f"{path}/top_degree", 0)
    if not isinstance(raw_basis, dict):
        raise SchemaError(f"{path}/basis", "must map degree strings to label lists")
    basis = []
    for p in range(top + 1):
        key = str(p)
        if key not in raw_basis:
            raise SchemaError(f"{path}/basis/{key}", "missing degree")
        labels = raw_basis[key]
        if not isinstance(labels, list) or not all(
            isinstance(x, str) for x in labels
        ):
            raise SchemaError(f"{path}/basis/{key}", "must be a list of strings")
        basis.append(tuple(labels))
    if len(basis[0]) != 1:
        raise SchemaError(f"{path}/basis/0", "degree 0 must have exactly one element")
    degree: dict = {}
    for p, labels in enumerate(basis):
        for label in labels:
            degree[label] = p
    if len(degree) != sum(len(labels) for labels in basis):
        raise SchemaError(f"{path}/basis", "duplicate basis label")

    products: ProductTable = {}
    raw_products = data.get("products", [])
    if not isinstance(raw_products, list):
        raise SchemaError(f"{path}/products", "must be a list")
    for k, item in enumerate(raw_products):
        here = f"{path}/products/{k}"
        left, right, value = fields(item, here, "left", "right", "value")
        for side, label in (("left", left), ("right", right)):
            if not isinstance(label, str) or label not in degree:
                raise SchemaError(f"{here}/{side}", f"unknown basis label {label!r}")
        if not isinstance(value, list):
            raise SchemaError(f"{here}/value", "must be a list")
        vec = {}
        for t, entry in enumerate(value):
            if not isinstance(entry, dict):
                raise SchemaError(f"{here}/value/{t}", "must be an object")
            target = entry.get("basis")
            if not isinstance(target, str) or target not in degree:
                raise SchemaError(
                    f"{here}/value/{t}/basis", f"unknown basis label {target!r}"
                )
            try:
                coeff = parse_rational(entry.get("coeff", "1"))
            except ValueError as exc:
                raise SchemaError(f"{here}/value/{t}/coeff", str(exc)) from exc
            if degree[target] != degree[left] + degree[right]:
                raise SchemaError(
                    f"{here}/value/{t}/basis",
                    "target degree must equal the sum of factor degrees",
                )
            if coeff:
                vec[target] = vec[target] + coeff if target in vec else coeff
        if degree[left] == 1:
            key = (left, right)
        elif degree[right] == 1:
            # Store under the degree-1-first convention with the graded sign.
            sign = -1 if degree[left] % 2 else 1
            key = (right, left)
            vec = {t: sign * c for t, c in vec.items()}
        else:
            raise SchemaError(f"{here}", "one factor must have degree 1")
        if key in products:
            raise SchemaError(f"{here}", f"duplicate product for {key}")
        products[key] = vec
    return GradedAlgebra(top, tuple(basis), products)


def ensure_valid(algebra: GradedAlgebra) -> None:
    violations = validate_algebra(algebra)
    if violations:
        raise AlgebraInvalidError(violations)
