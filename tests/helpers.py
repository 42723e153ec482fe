"""Independent oracles used by the tests, kept apart from the library code."""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, permutations
from operator import or_

from hyperbetti.errors import DimensionError, DomainError, ResourceCapError, format_count
from hyperbetti.matchings import FamilyClassification
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
        for s, h in enumerate(_reduced_homology(faces, rank)):
            # reduced homology in dimension s-1 sits at i = |W| - s, j = |W|
            if h:
                key = (len(support) - s, len(support))
                entries[key] = entries.get(key, 0) + h
    return entries


def _reduced_homology(faces, rank):
    """dim H~_{s-1} for each face size s of a complex, from its faces by size
    as sorted tuples (size 0 is the empty face) and plain boundary matrices."""
    # down[s] is the rank of the boundary from s-vertex faces to (s-1)-vertex ones
    down = [0] * (len(faces) + 1)
    for s in range(1, len(faces)):
        row_of = {face: r for r, face in enumerate(faces[s - 1])}
        matrix = [[0] * len(faces[s]) for _ in faces[s - 1]]
        for c, face in enumerate(faces[s]):
            for k in range(s):
                matrix[row_of[face[:k] + face[k + 1:]]][c] = (-1) ** k
        down[s] = rank(matrix)
    return [len(faces[s]) - down[s] - down[s + 1] for s in range(len(faces))]


def survivor_oracle(cx, i, j):
    """Certain and possible survivor sets at (i, j), by searching extensions,
    and the upper and lower flags, by degree search: the oracle of
    `betti.survivor_face_sets`, whose counts are the sizes of these sets.

    Reads only cx.faces and cx.degree.  An (i-1)-face of degree j whose
    every vertex removal changes the degree qualifies.  Its flat extensions
    are the faces with one more vertex and the same degree.  It is certain
    when it has none, and possible when every flat extension keeps the
    degree after removing one of the face's own vertices.  upper holds when
    every (i-1)-face of degree j qualifies, lower when no i-face of degree
    j has two codimension-one subfaces of degree j.
    """
    above = set(cx.faces.get(i, ()))
    vertices = {v for (v,) in cx.faces.get(0, ())}
    certain, possible, upper = set(), set(), True
    for face in cx.faces.get(i - 1, ()):
        if cx.degree(face) != j:
            continue
        if any(cx.degree(face[:k] + face[k + 1:]) == j for k in range(len(face))):
            upper = False
            continue
        flat = []
        for v in vertices - set(face):
            ext = tuple(sorted(face + (v,)))
            if ext in above and cx.degree(ext) == j:
                flat.append(ext)
        if not flat:
            certain.add(face)
        if all(any(cx.degree(tuple(x for x in ext if x != u)) == j for u in face)
               for ext in flat):
            possible.add(face)
    lower = all(sum(cx.degree(ext[:k] + ext[k + 1:]) == j for k in range(len(ext))) < 2
                for ext in above if cx.degree(ext) == j)
    return certain, possible, upper, lower


def lyubeznik_oracle(monomials):
    """The admissible sets of Lyubeznik's complex on the monomials, in their
    order, as sorted index tuples, by testing the definition on every subset.

    {i_1 < ... < i_k} is admissible when, for every s, no monomial with an
    index q < i_s divides the lcm of i_s, ..., i_k.  Exponent vectors only;
    at most 10 monomials, so at most 1024 subsets.
    """
    exps = [mono.exps for mono in monomials]
    if len(exps) > 10:
        raise DomainError(f"{len(exps)} monomials, more than the oracle's 10")

    def admissible(face):
        for s, i in enumerate(face):
            lcm = tuple(map(max, zip(*(exps[k] for k in face[s:]))))
            if any(all(a <= b for a, b in zip(exps[q], lcm)) for q in range(i)):
                return False
        return True

    return {face for k in range(len(exps) + 1)
            for face in combinations(range(len(exps)), k) if admissible(face)}


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


def _minimal(exponents):
    """The exponent tuples among the given ones that no other one divides."""
    exponents = set(exponents)
    return frozenset(a for a in exponents
                     if not any(b != a and all(map(int.__le__, b, a)) for b in exponents))


@lru_cache(maxsize=None)
def _k_polynomial(gens):
    """{degree: coefficient} of the K-polynomial of R/I, I generated by the
    frozen set `gens` of minimal exponent tuples, by Bigatti pivoting.

    Pairwise coprime generators give prod (1 - z^deg g).  Otherwise x is the
    variable in most generators with two or more variables, e the median of
    x's exponents over those generators, and K(I) = K(I + x^e) + z^e K(I : x^e).
    A pure power x^a in I is a generator, so every generator that has x and
    another variable has x-exponent below a, and so has e: x^e is not in I,
    both ideals are larger than I, and the recursion ends.
    """
    supports = [sum(1 << v for v, a in enumerate(g) if a) for g in gens]
    if sum(map(int.bit_count, supports)) == reduce(or_, supports, 0).bit_count():
        poly = {0: 1}
        for g in gens:
            poly = _add(poly, _shift(poly, sum(g), -1))
        return poly
    mixed = [g for g, support in zip(gens, supports) if support.bit_count() > 1]
    n = len(mixed[0])
    x = max(range(n), key=lambda v: (sum(1 for g in mixed if g[v]), -v))
    exps = sorted(g[x] for g in mixed if g[x])
    e = exps[len(exps) // 2]
    power = tuple(e if v == x else 0 for v in range(n))
    quotient = (tuple(max(a - e, 0) if v == x else a for v, a in enumerate(g)) for g in gens)
    return _add(_k_polynomial(_minimal(gens | {power})),
                _shift(_k_polynomial(_minimal(quotient)), e, 1))


def _shift(poly, e, sign):
    """sign * z^e * poly."""
    return {d + e: sign * c for d, c in poly.items()}


def _add(p, q):
    """p + q, without zero coefficients."""
    out = dict(p)
    for d, c in q.items():
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


def _power_exponents(hypergraph, t):
    """The minimal generators of I^t as exponent tuples: the minimal products
    of every t of the edges' 0/1 exponent vectors."""
    n = hypergraph.n
    edges = [tuple(int(v + 1 in edge) for v in range(n)) for edge in hypergraph.edge_sets()]
    return _minimal(tuple(map(sum, zip(*combo)))
                    for combo in combinations_with_replacement(edges, t))


def hilbert_numerator(hypergraph, t):
    """{j: coefficient of z^j} of the K-polynomial of R/I^t, the numerator of
    its Hilbert series over (1 - z)^n, zero coefficients left out.

    For every j it equals sum_i (-1)^i beta_{i,j}(R/I^t), over every field.
    The generators of I^t come from `_power_exponents`; the polynomial
    from Bigatti's pivoting on exponent tuples (Bigatti, J. Pure Appl.
    Algebra 119, 1997), memoized on the frozen minimal generating set.
    Nothing is shared with the library's monomials, complexes or kernel.

    Blind spots: the alternating sum is fixed by the face counts per label
    degree, so it sees no rank error in the kernel, nor a wrong complex
    with the right counts; and entries whose signs cancel in one degree
    stay hidden, as GF(2)'s torsion beta_{3,6} = beta_{4,6} = 1 does on
    the 6-vertex RP^2 ideal.
    """
    return dict(_k_polynomial(_power_exponents(hypergraph, t)))  # the memoized dict stays unshared


def koszul_betti(hypergraph, t, rank=fraction_rank, max_faces=1 << 13):
    """Betti table of R/I^t by upper Koszul simplicial complexes, as {(i, j): beta}.

    beta_{i,b}(I^t) = dim H~_{i-1}(K^b), where K^b is the complex of the
    squarefree F inside supp b with x^(b - F) in I^t (Miller-Sturmfels,
    Combinatorial Commutative Algebra, Thm 1.34), and it vanishes off the
    lcm lattice of I^t's generators.  So beta_{i+1,j}(R/I^t) sums dim
    H~_{i-1}(K^b) over the lattice elements b of degree j, and (0, 0) is
    1.  The reduced homology comes from the augmented chain complex, so
    H~_{-1}(K^b) is 1 exactly when K^b is the empty face alone.  The
    generators come from `_power_exponents` and the lattice is their
    closure under joins, all as exponent tuples.  As in `hochster_betti`,
    nothing is shared with the library's monomials, complexes or kernel;
    `rank` picks the field.  More than `max_faces` subsets of the lattice
    elements' supports raise ResourceCapError before any homology is taken.
    """
    n = hypergraph.n
    gens = _power_exponents(hypergraph, t)
    lattice, frontier = set(gens), set(gens)
    while frontier:
        frontier = {tuple(map(max, a, g)) for a in frontier for g in gens} - lattice
        lattice |= frontier
    cost = sum(1 << sum(1 for a in b if a) for b in lattice)
    if cost > max_faces:
        raise ResourceCapError(f"{cost} Koszul faces, over the cap of {max_faces}")
    entries = {(0, 0): 1}
    for b in lattice:
        support = [v for v in range(n) if b[v]]
        # faces of K^b by size, as sorted tuples of variables; size 0 is the empty face
        faces = [[] for _ in range(len(support) + 1)]
        for size in range(len(support) + 1):
            for face in combinations(support, size):
                rest = tuple(a - (v in face) for v, a in enumerate(b))
                if any(all(map(int.__le__, g, rest)) for g in gens):
                    faces[size].append(face)
        for s, h in enumerate(_reduced_homology(faces, rank)):
            # H~_{s-1}(K^b) is beta_{s,b}(I^t), which is beta_{s+1,b}(R/I^t)
            if h:
                key = (s + 1, sum(b))
                entries[key] = entries.get(key, 0) + h
    return entries


def alternating_sums(entries):
    """{j: sum_i (-1)^i beta_{i,j}} of a Betti table's entries, zero sums left out."""
    sums = {}
    for (i, j), beta in entries.items():
        sums[j] = sums.get(j, 0) + (-1) ** i * beta
    return {j: c for j, c in sums.items() if c}


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
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} "
                                 f"by {other.rows}x{other.cols}")
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


def labelled_complex_oracle(vertices, facets, max_faces):
    """The faces of a LabelledComplex by a per-face submask walk over exponent tuples.

    Returns (label_id, labels, degrees, masks): {face mask: label id}, the
    lcm exponent tuples by id, their sums, and {dimension: masks in build
    order}.  Each facet's submasks are walked
    in increasing order; a new one gets the join of its label without the
    lowest vertex with that vertex's label, memoized by (label id, vertex).
    Raises ResourceCapError with the library's messages.
    """
    vertex_labels = [mono.exps for _, mono in vertices]
    canonical = []
    for facet in facets:
        mask = sum(1 << v for v in set(facet))
        if mask and mask not in canonical:
            canonical.append(mask)
    for size in map(int.bit_count, canonical):
        if size >= max_faces.bit_length():
            raise ResourceCapError(
                f"facet with {size} vertices yields {format_count(1 << size)} faces, "
                f"over the cap of {max_faces}")
    labels = [(0,) * (len(vertex_labels[0]) if vertex_labels else 0)]
    degrees = [0]
    ids = {labels[0]: 0}
    join = {}
    label_id = {0: 0}
    masks = {-1: [0]}
    for facet in canonical:
        sub = 0
        while True:
            sub = (sub - facet) & facet
            if not sub:
                break
            if sub in label_id:
                continue
            low = sub & -sub
            key = (label_id[sub ^ low], low.bit_length() - 1)
            if key not in join:
                exps = tuple(map(max, labels[key[0]], vertex_labels[key[1]]))
                if exps not in ids:
                    ids[exps] = len(labels)
                    labels.append(exps)
                    degrees.append(sum(exps))
                join[key] = ids[exps]
            label_id[sub] = join[key]
            masks.setdefault(sub.bit_count() - 1, []).append(sub)
            if len(label_id) > max_faces:
                raise ResourceCapError(f"complex exceeds the cap of {max_faces} faces")
    return label_id, labels, degrees, masks


def assert_numbering(cx):
    """Every face of a LabelledComplex has its own number below the face count,
    and within each size the numbers increase with the mask.

    The Betti kernel relies on the second: its scan claims the lowest-bit
    label-keeping removal, the largest subface mask, as a column's largest
    row, and its eliminator takes the largest row number.
    """
    numbers = [number for faces in cx._index for number in faces.values()]
    assert sorted(numbers) == list(range(cx.face_count)) == list(range(len(cx._lids)))
    for faces in cx._index:
        in_mask_order = [faces[mask] for mask in sorted(faces)]
        assert in_mask_order == sorted(in_mask_order)


def classify_oracle(hypergraph, idx):
    """The flags of the edge family idx, testing every outside edge against its union."""
    def union_of(masks):
        union = 0
        for mask in masks:
            union |= mask
        return union

    masks = [hypergraph.edges[k] for k in idx]
    union = union_of(masks)
    is_matching = sum(mask.bit_count() for mask in masks) == union.bit_count()
    is_self = all(mask & ~union_of(masks[:k] + masks[k + 1:]) for k, mask in enumerate(masks))
    is_semi = all(hypergraph.edges[k] & ~union
                  for k in range(hypergraph.num_edges) if k not in idx)
    return FamilyClassification(
        is_matching=is_matching,
        is_self_matching=is_self,
        is_semi_induced=is_semi,
        is_self_semi_induced=is_self and is_semi,
        is_induced=is_matching and is_semi,
        family_type=(len(idx), union.bit_count()),
    )


def edge_conflict_oracle(edges):
    """The constructor's message for the first pair i < k of equal or nested
    edges (vertex lists), by testing every pair; None when there is none."""
    sets = [frozenset(e) for e in edges]
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            if a == b:
                return f"duplicate edge {sorted(a)}"
            if a < b:
                return f"edge {sorted(a)} contained in {sorted(b)}"
            if b < a:
                return f"edge {sorted(b)} contained in {sorted(a)}"
    return None


def _edges_by_lowest_vertex(masks):
    """{vertex v: indices of the edge masks whose lowest vertex is v}, vertex 1 at bit 0."""
    starting = {}
    for k, mask in enumerate(masks):
        starting.setdefault((mask & -mask).bit_length(), []).append(k)
    return starting


def nested_pair_by_lowest_vertex(edges):
    """The first pair (i, k), i < k, of equal or nested edges (vertex lists), or None.

    The lowest-vertex scan: an edge inside another has its lowest vertex
    there, so each edge is tested against the edges that start at one of
    its vertices.  It is quadratic on a star, where every edge starts at
    the centre.
    """
    masks = [sum(1 << (v - 1) for v in set(edge)) for edge in edges]
    starting = _edges_by_lowest_vertex(masks)
    return min(((min(i, k), max(i, k)) for k, edge in enumerate(edges)
                for v in set(edge) for i in starting.get(v, ())
                if i != k and masks[i] | masks[k] == masks[k]), default=None)


def semi_induced_by_lowest_vertex(hypergraph, idx):
    """Whether no edge outside the family idx lies inside its union, by the
    lowest-vertex scan: only the edges starting at a vertex of the union
    are tested."""
    starting = _edges_by_lowest_vertex(hypergraph.edges)
    union = 0
    for k in idx:
        union |= hypergraph.edges[k]
    rest = union
    while rest:
        low = rest & -rest
        rest ^= low
        if not all(k in idx or hypergraph.edges[k] | union != union
                   for k in starting.get(low.bit_length(), ())):
            return False
    return True


def canonical_edges(hypergraph):
    """The least sorted edge list over all relabellings of the vertices: two
    hypergraphs are isomorphic, up to isolated vertices, exactly when these agree."""
    edges = hypergraph.edge_sets()
    return min(tuple(sorted(tuple(sorted(p[v - 1] for v in edge)) for edge in edges))
               for p in permutations(range(1, hypergraph.n + 1)))


def unread(obj, name):
    """True when the slot `name` of obj is not set yet, read from its class's slot descriptor
    so that no __getattr__ builds it."""
    slot = next(vars(klass)[name] for klass in type(obj).__mro__ if name in vars(klass))
    try:
        slot.__get__(obj)
    except AttributeError:
        return True
    return False
