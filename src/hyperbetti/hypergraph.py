"""Simple hypergraphs with bitmask edges, their edge ideals, and JSON I/O.

Vertices are the integers 1..n; each edge is stored as a bitmask with
bit v-1 for vertex v, so unions, intersections and containment checks
are single integer operations.
"""

from __future__ import annotations

import json

from .errors import ValidationError, check_budget
from .monomials import Monomial, MonomialIdeal


def _edges_by_least_used_vertex(edges):
    """{vertex v: indices of the edges (vertex tuples) indexed at v}, each edge at its
    least-used vertex.  An edge inside another edge or inside a union of edges has that
    vertex there too, so only the edges indexed at an edge's own vertices are tested
    against it: on a star, only itself.  Over DEFAULT_MAX_FACES tests are refused."""
    uses = {}
    for vertices in edges:
        for v in vertices:
            uses[v] = uses.get(v, 0) + 1
    index = {}
    tests = 0  # each edge indexed at v is tested against the uses(v) edges through v
    for k, vertices in enumerate(edges):
        v = min(vertices, key=uses.__getitem__)
        tests += uses[v]
        index.setdefault(v, []).append(k)
    check_budget(tests, "edge containment tests")
    return index


class Hypergraph:
    """A simple hypergraph: edges are incomparable vertex sets of size >= 2."""

    __slots__ = ("n", "edges", "labels", "_vertices", "_uniform", "_hash")

    def __init__(self, n, edges, labels=None):
        # vertex numbers and counts must be exactly `int`: JSON true/false
        # arrive as bool, which isinstance() would accept as 1 and 0
        if type(n) is not int or n < 0:
            raise ValidationError(f"vertex count must be a nonnegative integer, got {n!r}")
        masks = []
        edge_vertices = []
        sizes = set()
        for edge in edges:
            vertices = tuple(edge)
            digits = bytearray(1)  # the mask's bytes, lowest first: no big-int shift per vertex
            for v in vertices:
                if type(v) is not int:
                    raise ValidationError(f"vertex {v!r} is not an integer")
                if not 1 <= v <= n:
                    raise ValidationError(f"vertex {v!r} out of range 1..{n}")
                byte, bit = (v - 1) >> 3, 1 << (v - 1 & 7)
                if byte >= len(digits):
                    digits += bytes(byte + 1 - len(digits))
                elif digits[byte] & bit:
                    raise ValidationError(f"duplicate vertex {v} in edge {sorted(vertices)}")
                digits[byte] |= bit
            if len(vertices) < 2:
                raise ValidationError(f"edge {sorted(vertices)} has fewer than two vertices")
            masks.append(int.from_bytes(digits, "little"))
            edge_vertices.append(vertices)
            sizes.add(len(vertices))
        # the first offending pair (i, k), i < k, is the one reported
        index = _edges_by_least_used_vertex(edge_vertices)
        first = min(((min(i, k), max(i, k)) for k, vertices in enumerate(edge_vertices)
                     for v in vertices for i in index.get(v, ())
                     if i != k and masks[i] | masks[k] == masks[k]), default=None)
        if first is not None:
            a, b = (masks[k] for k in first)
            va, vb = (sorted(edge_vertices[k]) for k in first)
            if a == b:
                raise ValidationError(f"duplicate edge {va}")
            if a | b == b:
                raise ValidationError(f"edge {va} contained in {vb}")
            raise ValidationError(f"edge {vb} contained in {va}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValidationError(f"expected {n} labels, got {len(labels)}")
        self.n = n
        self.edges = tuple(masks)
        self.labels = labels
        self._vertices = tuple(edge_vertices)  # each edge's vertices, as given
        self._uniform = sizes.pop() if len(sizes) == 1 else None
        self._hash = None  # computed on first use: cache keys and check gates hash it

    @property
    def num_edges(self):
        return len(self.edges)

    def edge_sets(self):
        return tuple(tuple(sorted(vertices)) for vertices in self._vertices)

    def edge_size(self, k):
        return self.edges[k].bit_count()

    def uniform_size(self):
        """The common edge size d, or None when edges have mixed sizes (or there are none)."""
        return self._uniform

    def __eq__(self, other):
        return (isinstance(other, Hypergraph)
                and self.n == other.n
                and self.edges == other.edges
                and self.labels == other.labels)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.edges, self.labels))
        return self._hash

    def __repr__(self):
        return f"Hypergraph(n={self.n}, edges={[list(e) for e in self.edge_sets()]})"

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
    """The squarefree monomial ideal with one generator per edge, in edge order.

    A generator's exponent vector is its edge mask read bit by bit, vertex 1
    first.  More than DEFAULT_MAX_FACES exponent entries in all raise
    ResourceCapError before any vector is built.
    """
    n, masks = hypergraph.n, hypergraph.edges
    check_budget(n * len(masks), f"exponent entries for the edge ideal in {n} variables")
    # one pass over the binary digits; shifting the mask once per vertex
    # would cost time quadratic in n
    gens = [Monomial(map(int, reversed(format(mask, f"0{n}b")))) for mask in masks]
    return MonomialIdeal(n, gens)
