"""Exponent-vector monomial arithmetic and generators of ideal powers.

Monomials are dense exponent vectors over a fixed polynomial ring
K[x1..xn].  Ideals are presented by minimal generating sets, and the
generators of a power I^t are derived from factorization tuples: each
tuple records how a degree-t product splits over the base generators.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import DimensionError, DomainError


class Monomial:
    """A monomial x1^e1 * ... * xn^en stored as its exponent vector."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        self.exps = tuple(exps)
        if any(e < 0 for e in self.exps):
            raise DomainError(f"negative exponent in {self.exps}")
        self.degree = sum(self.exps)

    @classmethod
    def one(cls, n):
        return cls((0,) * n)

    @classmethod
    def from_support(cls, n, vertices):
        """Squarefree monomial with exponent one at each 1-based vertex."""
        exps = [0] * n
        for v in vertices:
            exps[v - 1] = 1
        return cls(exps)

    @property
    def n(self):
        return len(self.exps)

    def _check_ring(self, other):
        if len(self.exps) != len(other.exps):
            raise DimensionError(
                f"monomials in {len(self.exps)} and {len(other.exps)} variables")

    def lcm(self, other):
        """Componentwise maximum of the exponent vectors."""
        self._check_ring(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def divides(self, other):
        self._check_ring(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __mul__(self, other):
        self._check_ring(other)
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, k):
        if k < 0:
            raise DomainError(f"negative power {k}")
        return Monomial(tuple(e * k for e in self.exps))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __lt__(self, other):
        return self.exps < other.exps

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


class ExponentTuple:
    """How a degree-t product factors over m base generators.

    Entry k is the multiplicity of generator k; the total is the power t.
    Tuples are ordered so that larger leading entries come first:
    (2,0) < (1,1) < (0,2).
    """

    __slots__ = ("entries", "total")

    def __init__(self, entries):
        self.entries = tuple(entries)
        if any(e < 0 for e in self.entries):
            raise DomainError(f"negative multiplicity in {self.entries}")
        self.total = sum(self.entries)

    def sort_key(self):
        return tuple(-e for e in self.entries)

    def __eq__(self, other):
        return isinstance(other, ExponentTuple) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"ExponentTuple({self.entries})"


def enumerate_tuples(m, t):
    """All length-m tuples of nonnegative integers summing to t, in order.

    The order puts larger leading entries first, so for m = 3 and t = 1 the
    result is the standard basis (1,0,0), (0,1,0), (0,0,1).
    """
    if m < 1:
        raise DomainError(f"need at least one generator, got m={m}")
    if t < 1:
        raise DomainError(f"power must be >= 1, got t={t}")
    # sorted index multisets in lexicographic order give the count vectors
    # with larger leading entries first
    out = []
    for combo in combinations_with_replacement(range(m), t):
        entries = [0] * m
        for k in combo:
            entries[k] += 1
        out.append(ExponentTuple(entries))
    return out


def tuple_product(generators, tup):
    """The monomial prod_k generators[k]^tup[k]."""
    gens = list(generators)
    if len(gens) != len(tup.entries):
        raise DimensionError(
            f"{len(gens)} generators vs tuple of length {len(tup.entries)}")
    exps = [0] * len(gens[0].exps)
    for g, mult in zip(gens, tup.entries):
        if mult:
            for i, e in enumerate(g.exps):
                exps[i] += e * mult
    return Monomial(exps)


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
    kept = set()
    for degree in sorted(by_degree):
        smaller = tuple(kept)
        kept.update(g for g in by_degree[degree] if not any(h.divides(g) for h in smaller))
    return [g for g in unique if g in kept]


class MonomialIdeal:
    """A monomial ideal presented by its minimal generating set."""

    __slots__ = ("n", "generators")

    def __init__(self, n, generators):
        gens = tuple(generators)
        for g in gens:
            if g.n != n:
                raise DimensionError(f"generator {g!r} not in {n} variables")
        if len(set(gens)) != len(gens):
            raise DomainError("duplicate generators")
        minimal = set(minimal_generators(gens))
        for g in gens:
            if g not in minimal:
                raise DomainError(f"generating set not minimal: {g} is redundant")
        self.n = n
        self.generators = gens

    def truncate(self, k):
        """The subideal generated by the first k generators."""
        if not 0 <= k <= len(self.generators):
            raise DomainError(f"cannot keep first {k} of {len(self.generators)} generators")
        return MonomialIdeal(self.n, self.generators[:k])

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.n == other.n and self.generators == other.generators)

    def __hash__(self):
        return hash((self.n, self.generators))

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, generators={list(map(str, self.generators))})"


def power_generators(ideal, t):
    """Minimal generators of the t-th power, with their factorization tuples.

    Distinct tuples can collide on the same monomial, and one product of t
    generators can strictly divide another; both effects are eliminated.
    One representative tuple is kept per surviving monomial: the earliest
    balanced tuple (no multiplicity above ceil(t/2)) if the class has one,
    else the earliest overall.  Pairs come back ordered by their tuple.
    """
    if t < 1:
        raise DomainError(f"power must be >= 1, got t={t}")
    gens = ideal.generators
    if not gens:
        raise DomainError("ideal has no generators")
    bound = (t + 1) // 2
    reps = {}
    for b in enumerate_tuples(len(gens), t):
        mono = tuple_product(gens, b)
        balanced = max(b.entries) <= bound
        if mono not in reps or (balanced and not reps[mono][1]):
            reps[mono] = (b, balanced)
    survivors = [(reps[mono][0], mono) for mono in minimal_generators(reps)]
    survivors.sort(key=lambda pair: pair[0].sort_key())
    return survivors
