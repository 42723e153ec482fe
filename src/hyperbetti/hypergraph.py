"""Simple hypergraphs with bitmask edges, their edge ideals, and JSON I/O.

Vertices are the integers 1..n; each edge is stored as a bitmask with
bit v-1 for vertex v, so unions, intersections and containment checks
are single integer operations.
"""

from __future__ import annotations

import json

from .errors import ValidationError
from .monomials import Monomial, MonomialIdeal


def _mask_vertices(mask):
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


# Vertex numbers and counts must be exactly `int`: JSON true/false arrive as
# bool, which isinstance() would accept as 1 and 0.

def _reject_vertex(v, n):
    if type(v) is not int:
        raise ValidationError(f"vertex {v!r} is not an integer")
    raise ValidationError(f"vertex {v!r} out of range 1..{n}")


class Hypergraph:
    """A simple hypergraph: edges are incomparable vertex sets of size >= 2."""

    __slots__ = ("n", "edges", "labels")

    def __init__(self, n, edges, labels=None):
        if type(n) is not int or n < 0:
            raise ValidationError(f"vertex count must be a nonnegative integer, got {n!r}")
        masks = []
        for edge in edges:
            vertices = list(edge)
            mask = 0
            for v in vertices:
                if type(v) is not int or not 1 <= v <= n:
                    _reject_vertex(v, n)
                bit = 1 << (v - 1)
                if mask & bit:
                    raise ValidationError(f"duplicate vertex {v} in edge {sorted(vertices)}")
                mask |= bit
            if mask.bit_count() < 2:
                raise ValidationError(f"edge {sorted(vertices)} has fewer than two vertices")
            masks.append(mask)
        for i, a in enumerate(masks):
            for k in range(i + 1, len(masks)):
                b = masks[k]
                if a == b:
                    raise ValidationError(f"duplicate edge {list(_mask_vertices(a))}")
                if a | b == b:
                    raise ValidationError(
                        f"edge {list(_mask_vertices(a))} contained in {list(_mask_vertices(b))}")
                if a | b == a:
                    raise ValidationError(
                        f"edge {list(_mask_vertices(b))} contained in {list(_mask_vertices(a))}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValidationError(f"expected {n} labels, got {len(labels)}")
        self.n = n
        self.edges = tuple(masks)
        self.labels = labels

    @property
    def num_edges(self):
        return len(self.edges)

    def edge_vertices(self, k):
        return _mask_vertices(self.edges[k])

    def edge_sets(self):
        return tuple(_mask_vertices(mask) for mask in self.edges)

    def edge_size(self, k):
        return self.edges[k].bit_count()

    def uniform_size(self):
        """The common edge size d, or None when edges have mixed sizes."""
        sizes = {mask.bit_count() for mask in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def union_mask(self, indices):
        mask = 0
        for k in indices:
            mask |= self.edges[k]
        return mask

    def induced(self, vertices):
        """The subhypergraph on the given vertices, keeping original indices.

        Edges are exactly those contained in the vertex set; vertices keep
        their numbering, so vertices outside the set simply occur in no edge.
        """
        wmask = 0
        for v in vertices:
            if type(v) is not int or not 1 <= v <= self.n:
                _reject_vertex(v, self.n)
            wmask |= 1 << (v - 1)
        kept = [_mask_vertices(mask) for mask in self.edges if mask | wmask == wmask]
        return Hypergraph(self.n, kept, self.labels)

    def __eq__(self, other):
        return (isinstance(other, Hypergraph)
                and self.n == other.n
                and self.edges == other.edges
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self.edges, self.labels))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, edges={[list(e) for e in self.edge_sets()]})"

    def to_dict(self):
        data = {"n": self.n, "edges": [list(e) for e in self.edge_sets()]}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValidationError("hypergraph data must be a JSON object")
        if "n" not in data or "edges" not in data:
            raise ValidationError('hypergraph data needs "n" and "edges" keys')
        edges, labels = data["edges"], data.get("labels")
        if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
            raise ValidationError('"edges" must be an array of vertex arrays')
        if not isinstance(labels, (list, type(None))):
            raise ValidationError('"labels" must be an array')
        return cls(data["n"], edges, labels)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{path}: invalid JSON ({e})") from e
            except UnicodeDecodeError as e:
                raise ValidationError(f"{path}: not UTF-8 ({e})") from e
            except RecursionError as e:
                raise ValidationError(f"{path}: JSON nested too deeply to parse") from e
        return cls.from_dict(data)


def edge_ideal(hypergraph):
    """The squarefree monomial ideal with one generator per edge, in edge order."""
    gens = [Monomial.from_support(hypergraph.n, hypergraph.edge_vertices(k))
            for k in range(hypergraph.num_edges)]
    return MonomialIdeal(hypergraph.n, gens)
