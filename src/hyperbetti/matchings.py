"""Edge-family classification and the matching-type invariants.

A family of edges has type (i, j): i edges covering j vertices.  The
classification flags follow the standard combinatorial notions: a
matching is pairwise disjoint; a self matching has no member inside the
union of the others; a semi-induced matching has no outside edge inside
the union; induced and self-semi-induced combine these.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DomainError, check_budget
from .hypergraph import _edges_by_least_used_vertex

KINDS = ("matching", "self_matching", "semi_induced", "self_semi_induced", "induced")


@dataclass(frozen=True)
class FamilyClassification:
    is_matching: bool
    is_self_matching: bool
    is_semi_induced: bool
    is_self_semi_induced: bool
    is_induced: bool
    family_type: tuple[int, int]

    def has_kind(self, kind):
        """The flag of one of KINDS."""
        return getattr(self, "is_" + kind)


def _classify_indices(hypergraph, idx, near):
    """The flags of the family idx; near[k] lists the edges indexed at edge k's vertices."""
    masks = [hypergraph.edges[k] for k in idx]
    union = 0
    seen_multi = 0
    for mask in masks:
        seen_multi |= union & mask
        union |= mask
    once_only = union & ~seen_multi
    is_matching = seen_multi == 0
    is_self = all(mask & once_only for mask in masks)
    # an edge inside the union is indexed at a vertex of one of the family's edges
    chosen = set(idx)
    is_semi = all(i in chosen or hypergraph.edges[i] | union != union
                  for k in idx for i in near[k])
    return FamilyClassification(
        is_matching=is_matching,
        is_self_matching=is_self,
        is_semi_induced=is_semi,
        is_self_semi_induced=is_self and is_semi,
        is_induced=is_matching and is_semi,
        family_type=(len(idx), union.bit_count()),
    )


def families(hypergraph, kind=None, size_cap=None):
    """Yield (indices, classification) for every nonempty family up to size_cap.

    Families come in deterministic order: by size, then lexicographically.
    The semi-induced flags are not monotone under adding edges, so every
    subset is classified at completion rather than pruned.  More than
    DEFAULT_MAX_FACES subsets to visit raise ResourceCapError before any
    is classified.
    """
    if kind is not None and kind not in KINDS:
        raise DomainError(f"unknown family kind {kind!r}; choose one of {KINDS}")
    m = hypergraph.num_edges
    cap = m if size_cap is None else min(size_cap, m)
    check_budget(sum(comb(m, size) for size in range(1, cap + 1)),
                 "edge families to classify")
    index = _edges_by_least_used_vertex(hypergraph._vertices)
    near = [[i for v in vertices for i in index.get(v, ())] for vertices in hypergraph._vertices]
    for size in range(1, cap + 1):
        for idx in combinations(range(m), size):
            cls = _classify_indices(hypergraph, idx, near)
            if kind is None or cls.has_kind(kind):
                yield idx, cls


def count_families(hypergraph, kind, size, union_size=None):
    """Exact number of families of the given kind and size (and union size).

    It filters the families() walk up to that size, so the walk's budget
    covers every size from 1 up.
    """
    if size < 1:
        raise DomainError(f"family size must be >= 1, got {size}")
    return sum(1 for idx, cls in families(hypergraph, kind, size_cap=size)
               if len(idx) == size
               and (union_size is None or cls.family_type[1] == union_size))


@dataclass(frozen=True)
class InvariantReport:
    """Maxima over all edge families; None when no family of a kind exists.

    The *_number fields are maximum family sizes i; the *_excess fields are
    maximum values of j - i over families of type (i, j).  When a size cap
    truncated the enumeration (exhaustive=False) the values are lower bounds.
    """

    matching_number: int | None
    induced_matching_number: int | None
    induced_matching_excess: int | None
    self_semi_induced_number: int | None
    self_semi_induced_excess: int | None
    semi_induced_excess: int | None
    exhaustive: bool


def invariants(hypergraph, size_cap=None):
    """Exact matching invariants by exhaustive family enumeration."""
    exhaustive = size_cap is None or size_cap >= hypergraph.num_edges
    return invariants_of(families(hypergraph, size_cap=size_cap), exhaustive)


def invariants_of(walk, exhaustive):
    """Matching invariants folded from (indices, classification) pairs.

    `walk` is what families() yields; `exhaustive` says whether it covered
    every family size.
    """
    best = {
        "matching_number": None,
        "induced_matching_number": None,
        "induced_matching_excess": None,
        "self_semi_induced_number": None,
        "self_semi_induced_excess": None,
        "semi_induced_excess": None,
    }

    def raise_to(key, value):
        if best[key] is None or value > best[key]:
            best[key] = value

    for _, cls in walk:
        i, j = cls.family_type
        if cls.is_matching:
            raise_to("matching_number", i)
        if cls.is_induced:
            raise_to("induced_matching_number", i)
            raise_to("induced_matching_excess", j - i)
        if cls.is_self_semi_induced:
            raise_to("self_semi_induced_number", i)
            raise_to("self_semi_induced_excess", j - i)
        if cls.is_semi_induced:
            raise_to("semi_induced_excess", j - i)
    return InvariantReport(exhaustive=exhaustive, **best)
