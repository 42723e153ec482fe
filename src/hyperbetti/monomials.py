"""Exponent-vector monomial arithmetic and generators of ideal powers.

Monomials are dense exponent vectors over a fixed polynomial ring
K[x1..xn].  Ideals are presented by minimal generating sets, and the
generators of a power I^t come from one walk over its factorization
tuples: plain tuples of ints that record how a degree-t product splits
over the base generators.
"""

from __future__ import annotations

from math import comb

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
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

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


def minimal_generators(monomials):
    """Deduplicate and drop every monomial strictly divisible by another.

    First-occurrence order of the survivors is preserved; the result is an
    antichain under divisibility.  An empty input gives an empty output.

    Each degree is tested only against the survivors of strictly smaller
    degree: a proper divisor has smaller degree, and a monomial dropped as
    redundant has a surviving divisor of its own.  So a set of one degree
    needs no divisibility test at all.
    """
    mons = list(monomials)
    for g in mons[1:]:
        mons[0]._check_ring(g)
    unique = list(dict.fromkeys(mons))
    by_degree = {}
    for g in unique:
        by_degree.setdefault(g.degree, []).append(g)
    kept = []
    for degree in sorted(by_degree):
        smaller = tuple(kept)
        kept += [g for g in by_degree[degree]
                 if not smaller or not any(h.divides(g) for h in smaller)]
    return unique if len(kept) == len(unique) else list(filter(set(kept).__contains__, unique))


class MonomialIdeal:
    """A monomial ideal presented by its minimal generating set."""

    __slots__ = ("n", "generators", "_hash")

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
    alone, and a Monomial is built only once per distinct product.

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
    nonzero = [[(i, e) for i, e in enumerate(g.exps) if e] for g in gens]
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
    tuple_of = {Monomial(exps): b for exps, (b, _) in reps.items()}
    survivors = [(tuple_of[mono], mono) for mono in minimal_generators(tuple_of)]
    survivors.sort(key=lambda pair: pair[0], reverse=True)
    return survivors


def products(ideal, tuples):
    """(tuple, monomial) per factorization tuple over the ideal's generators,
    the product as power_generators computes it."""
    nonzero = [[(i, e) for i, e in enumerate(g.exps) if e] for g in ideal.generators]
    pairs = []
    for b in tuples:
        exps = [0] * ideal.n
        for gen, c in zip(nonzero, b):
            if c:
                for i, e in gen:
                    exps[i] += e * c
        pairs.append((b, Monomial(exps)))
    return tuple(pairs)
