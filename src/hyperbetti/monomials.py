"""Exponent-vector monomial arithmetic and generators of ideal powers.

Monomials are dense exponent vectors over a fixed polynomial ring
K[x1..xn].  Ideals are presented by minimal generating sets, and the
generators of a power I^t come from one walk over its factorization
tuples: plain tuples of ints that record how a degree-t product splits
over the base generators.  The walk and `products` form exponent tuples
that are valid by construction, so they skip the public constructor's
copy and checks (`_monomial`), and the walk drops redundant products on
the tuples before any monomial is built, through the antichain filter
that `minimal_generators`, and so `MonomialIdeal`, also use.
"""

from __future__ import annotations

from itertools import compress
from math import comb
from operator import add, itemgetter, le

from .errors import DimensionError, DomainError, check_budget


class Monomial:
    """A monomial x1^e1 * ... * xn^en stored as its exponent vector."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        self.exps = tuple(exps)
        if min(self.exps, default=0) < 0:
            raise DomainError(f"negative exponent in {self.exps}")
        self.degree = sum(self.exps)

    @property
    def n(self):
        return len(self.exps)

    def _check_ring(self, other):
        if len(self.exps) != len(other.exps):
            raise DimensionError(
                f"monomials in {len(self.exps)} and {len(other.exps)} variables")

    def divides(self, other):
        self._check_ring(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __mul__(self, other):
        self._check_ring(other)
        return _monomial(tuple(map(add, self.exps, other.exps)))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial({self.exps})"

    def __str__(self):
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


def _monomial(exps):
    """The Monomial of an exponent tuple that is valid by construction: no copy, no scan."""
    mono = object.__new__(Monomial)
    mono.exps = exps
    mono.degree = sum(exps)
    return mono


def _antichain(rows):
    """The distinct exponent tuples `rows` less every one strictly divisible by another, in
    their order.

    Each degree is tested only against the survivors of strictly smaller
    degree: a proper divisor has smaller degree, and a tuple dropped as
    redundant has a surviving divisor of its own.  So a set of one degree
    needs no divisibility test at all.
    """
    degrees = list(map(sum, rows))
    if len(set(degrees)) < 2:
        return rows
    by_degree = {}
    for row, degree in zip(rows, degrees):
        by_degree.setdefault(degree, []).append(row)
    kept = []
    for degree in sorted(by_degree):
        smaller = tuple(kept)
        kept += [g for g in by_degree[degree]
                 if not smaller or not any(all(map(le, h, g)) for h in smaller)]
    return rows if len(kept) == len(rows) else list(filter(set(kept).__contains__, rows))


def minimal_generators(monomials):
    """Deduplicate and drop every monomial strictly divisible by another.

    First-occurrence order of the survivors is preserved; the result is an
    antichain under divisibility.  An empty input gives an empty output.
    """
    mons = list(monomials)
    for g in mons[1:]:
        mons[0]._check_ring(g)
    rows = [g.exps for g in mons]
    kept = _antichain(list(dict.fromkeys(rows)))
    if len(kept) == len(mons):
        return mons
    first = dict(zip(rows[::-1], mons[::-1]))  # each exponent tuple's first monomial
    return list(map(first.__getitem__, kept))


class MonomialIdeal:
    """A monomial ideal presented by its minimal generating set."""

    __slots__ = ("n", "generators", "_hash", "_shifted")

    def __init__(self, n, generators):
        gens = tuple(generators)
        for g in gens:
            if g.n != n:
                raise DimensionError(f"generator {g!r} not in {n} variables")
        minimal = minimal_generators(gens)  # shorter only on a repeated or redundant generator
        if len(minimal) < len(gens):
            if len(set(gens)) < len(gens):
                raise DomainError("duplicate generators")
            g = next(g for g in gens if g not in minimal)
            raise DomainError(f"generating set not minimal: {g} is redundant")
        self.n = n
        self.generators = gens
        self._hash = None  # computed on first use: every cache lookup hashes the ideal
        self._shifted = None  # the support complexes' key pass, set by the first of them

    def truncate(self, k):
        """The subideal generated by the first k generators."""
        if not 0 <= k <= len(self.generators):
            raise DomainError(f"cannot keep first {k} of {len(self.generators)} generators")
        return MonomialIdeal(self.n, self.generators[:k])

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.n == other.n and self.generators == other.generators)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.generators))
        return self._hash

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, generators={list(map(str, self.generators))})"


def power_generators(ideal, t):
    """Minimal generators of the t-th power, with their factorization tuples.

    One walk lists the factorization tuples as the count vectors of t
    generator indices, in descending order, at O(m) per vector.  More than
    DEFAULT_MAX_FACES of them, C(m+t-1, t) for m generators, raise
    ResourceCapError before any is built.  Each count vector gives its
    product's exponent vector from the nonzero exponents of its generators
    alone; redundant products are dropped on the exponent tuples
    (`_antichain`), and a Monomial is built only for each survivor.

    Distinct tuples can collide on the same monomial, and one product of t
    generators can strictly divide another; both effects are eliminated.
    One representative tuple is kept per surviving monomial: the earliest
    balanced tuple (no multiplicity above ceil(t/2)) if the class has one,
    else the earliest overall.  Pairs come back in descending order of their
    tuple.
    """
    if t < 1:
        raise DomainError(f"power must be >= 1, got t={t}")
    gens = ideal.generators
    if not gens:
        raise DomainError("ideal has no generators")
    m = len(gens)
    check_budget(comb(m + t - 1, t), f"factorization tuples of {m} generators at power {t}")
    bound = (t + 1) // 2
    nonzero = [list(compress(enumerate(g.exps), g.exps)) for g in gens]  # (i, e) for e > 0
    reps = {}  # product exponent vector -> (representative tuple, balanced)
    counts = [t] + [0] * (m - 1)
    while True:
        b = tuple(counts)
        exps = [0] * ideal.n
        for pairs, c in zip(nonzero, b):
            if c:
                for i, e in pairs:
                    exps[i] += e * c
        exps = tuple(exps)
        balanced = max(b) <= bound
        if exps not in reps or (balanced and not reps[exps][1]):
            reps[exps] = (b, balanced)
        # the next vector: one unit moves from the last nonzero count before
        # the final one to the next position, and the final count with it
        j = m - 2
        while j >= 0 and not counts[j]:
            j -= 1
        if j < 0:
            break
        rest, counts[-1] = counts[-1], 0
        counts[j] -= 1
        counts[j + 1] = rest + 1
    return sorted(((reps[exps][0], _monomial(exps)) for exps in _antichain(list(reps))),
                  key=itemgetter(0), reverse=True)


def products(ideal, tuples):
    """(tuple, monomial) per factorization tuple over the ideal's generators,
    the product as power_generators computes it."""
    nonzero = [list(compress(enumerate(g.exps), g.exps)) for g in ideal.generators]
    pairs = []
    for b in tuples:
        exps = [0] * ideal.n
        for gen, c in zip(nonzero, b):
            if c:
                for i, e in gen:
                    exps[i] += e * c
        pairs.append((b, _monomial(tuple(exps))))
    return tuple(pairs)
