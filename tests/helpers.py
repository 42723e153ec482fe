"""Independent oracles used by the tests, kept apart from the library code."""

from fractions import Fraction
from itertools import combinations_with_replacement

from hyperbetti.errors import DimensionError, DomainError
from hyperbetti.monomials import Monomial, MonomialIdeal


def fraction_rank(rows):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank]
        for r in range(rank + 1, nr):
            f = m[r][c] / lead[c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], lead)]
        rank += 1
    return rank


def gf_rank(rows, p):
    """Rank over GF(p) via sympy's domain matrices."""
    from sympy import GF, Matrix
    from sympy.polys.matrices import DomainMatrix
    if not rows or not rows[0]:
        return 0
    return DomainMatrix.from_Matrix(Matrix([list(r) for r in rows])).convert_to(GF(p)).rank()


def hochster_betti(hypergraph, rank=fraction_rank):
    """Betti table of R/I(H) by Hochster's formula, as {(i, j): beta}.

    beta_{i,W}(R/I) = dim H~_{|W|-i-1}(Delta_W), where Delta is the
    independence complex of H (the vertex sets containing no edge) and
    Delta_W its restriction to W; beta_{i,j} sums this over |W| = j
    (Herzog-Hibi, Monomial Ideals, Thm 8.1.1).  Every vertex subset W is
    visited and its reduced simplicial homology is computed from plain
    boundary matrices, so nothing is shared with the library's complexes
    or ranks; `rank` picks the field.
    """
    n = hypergraph.n
    edges = [sum(1 << (v - 1) for v in edge) for edge in hypergraph.edge_sets()]
    entries = {}
    for w in range(1 << n):
        support = [v for v in range(n) if w >> v & 1]
        # faces of Delta_W by size, as sorted vertex tuples; size 0 is the empty face
        faces = [[] for _ in range(len(support) + 1)]
        for s in range(1 << len(support)):
            face = tuple(v for k, v in enumerate(support) if s >> k & 1)
            mask = sum(1 << v for v in face)
            if not any(e & mask == e for e in edges):
                faces[len(face)].append(face)
        # down[s] is the rank of the boundary from s-vertex faces to (s-1)-vertex ones
        down = [0] * (len(support) + 2)
        for s in range(1, len(support) + 1):
            row_of = {face: r for r, face in enumerate(faces[s - 1])}
            matrix = [[0] * len(faces[s]) for _ in faces[s - 1]]
            for c, face in enumerate(faces[s]):
                for k in range(s):
                    matrix[row_of[face[:k] + face[k + 1:]]][c] = (-1) ** k
            down[s] = rank(matrix)
        for s in range(len(support) + 1):
            # reduced homology in dimension s-1 sits at i = |W| - s, j = |W|
            h = len(faces[s]) - down[s] - down[s + 1]
            if h:
                key = (len(support) - s, len(support))
                entries[key] = entries.get(key, 0) + h
    return entries


def survivor_oracle(cx, i, j):
    """Certain and possible survivor sets at (i, j), by searching extensions.

    Reads only cx.faces and cx.degree.  An (i-1)-face of degree j whose
    every vertex removal changes the degree qualifies.  Its flat extensions
    are the faces with one more vertex and the same degree.  It is certain
    when it has none, and possible when every flat extension keeps the
    degree after removing one of the face's own vertices.
    """
    upper = set(cx.faces.get(i, ()))
    vertices = {v for (v,) in cx.faces.get(0, ())}
    certain, possible = set(), set()
    for face in cx.faces.get(i - 1, ()):
        if cx.degree(face) != j:
            continue
        if any(cx.degree(face[:k] + face[k + 1:]) == j for k in range(len(face))):
            continue
        flat = []
        for v in vertices - set(face):
            ext = tuple(sorted(face + (v,)))
            if ext in upper and cx.degree(ext) == j:
                flat.append(ext)
        if not flat:
            certain.add(face)
        if all(any(cx.degree(tuple(x for x in ext if x != u)) == j for u in face)
               for ext in flat):
            possible.add(face)
    return certain, possible


def support_facets_oracle(tuples, t):
    """Facets of the support complex by testing every tuple at every position.

    Spread facet i holds the tuples with entry i at most t-1 and every
    other entry at most ceil(t/2); concentrated facet i those with entry i
    at least t-1.  Costs O(m^2) per tuple.
    """
    m = len(tuples[0])
    s = (t + 1) // 2
    spread = [tuple(idx for idx, b in enumerate(tuples)
                    if b[i] <= t - 1
                    and all(e <= s for k, e in enumerate(b) if k != i))
              for i in range(m)]
    concentrated = [tuple(idx for idx, b in enumerate(tuples) if b[i] >= t - 1)
                    for i in range(m)]
    return spread + concentrated


def brute_power_products(ideal, t):
    """Every product of exactly t generators, as a list with repetitions."""
    out = []
    for combo in combinations_with_replacement(ideal.generators, t):
        prod = combo[0]
        for g in combo[1:]:
            prod = prod * g
        out.append(prod)
    return out


def disjoint_ideal(m):
    """The ideal (x1, ..., xm): no two products of t of its generators
    collide or divide each other, so every factorization tuple survives."""
    return MonomialIdeal(m, [Monomial(int(i == k) for i in range(m)) for k in range(m)])


def multiply_tuple(generators, tup):
    """prod_k generators[k]^tup[k], one Monomial multiplication at a time."""
    prod = Monomial((0,) * generators[0].n)
    for g, mult in zip(generators, tup, strict=True):
        for _ in range(mult):
            prod = prod * g
    return prod


def brute_minimal_power_generators(ideal, t):
    """Minimal generators of the t-th power, computed without factorization tuples."""
    products = set(brute_power_products(ideal, t))
    return {p for p in products
            if not any(q != p and q.divides(p) for q in products)}


class MatrixNN:
    """A small dense matrix of nonnegative integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(r) for r in entries)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise DimensionError(f"ragged rows of widths {sorted(widths)}")
        for r in rows:
            for x in r:
                if not isinstance(x, int) or x < 0:
                    raise DomainError(f"entries must be nonnegative integers, got {x!r}")
        self.rows = len(rows)
        self.cols = widths.pop() if widths else 0
        self.entries = rows

    def mul(self, other):
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for r in range(self.rows):
            row = self.entries[r]
            out.append(tuple(sum(row[k] * other.entries[k][c] for k in range(self.cols))
                             for c in range(other.cols)))
        return MatrixNN(out)

    def column(self, j):
        return tuple(self.entries[r][j] for r in range(self.rows))

    def column_sums(self):
        return tuple(sum(self.column(j)) for j in range(self.cols))

    def __eq__(self, other):
        return isinstance(other, MatrixNN) and self.entries == other.entries

    def __repr__(self):
        return f"MatrixNN({[list(r) for r in self.entries]})"


def incidence_matrix(hypergraph):
    """The n x m 0/1 matrix with entry (v, k) = 1 iff vertex v lies in edge k."""
    return MatrixNN([
        [1 if hypergraph.edges[k] >> (v - 1) & 1 else 0
         for k in range(hypergraph.num_edges)]
        for v in range(1, hypergraph.n + 1)
    ])


def generator_matrix(ideal):
    """The n x m matrix whose columns are the generator exponent vectors."""
    return MatrixNN([
        [g.exps[v] for g in ideal.generators]
        for v in range(ideal.n)
    ])


def tuple_matrix(tuples):
    """The m x p matrix whose columns are the given factorization tuples."""
    tups = list(tuples)
    if not tups:
        raise DomainError("no tuples")
    m = len(tups[0])
    return MatrixNN([[b[r] for b in tups] for r in range(m)])


def max_vector(matrix, columns):
    """Rowwise maxima over the selected columns; repeats collapse."""
    cols = sorted(set(columns))
    if not cols:
        raise DomainError("empty column selection")
    for c in cols:
        if not 0 <= c < matrix.cols:
            raise DomainError(f"column {c} out of range 0..{matrix.cols - 1}")
    return tuple(max(row[c] for c in cols) for row in matrix.entries)
