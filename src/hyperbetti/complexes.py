"""Labelled simplicial complexes that support resolutions of ideal powers.

Two constructions: the full simplex on the minimal generators of I^t
(Taylor), and a much smaller support complex whose facets either
concentrate the power on one generator or spread it in a balanced way
(`faridi` on the command line).  Faces carry lcm labels, and the label
degrees drive all homological computations downstream.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DimensionError, DomainError, ResourceCapError
from .monomials import power_generators

DEFAULT_MAX_FACES = 1 << 20


def _simplex_faces(k):
    """The face count 2^k of a k-vertex simplex, for an error message.

    It is written in decimal unless the decimal has more digits than
    Python will print (4300 by default); then it is written as 2^k.
    """
    try:
        return str(1 << k)
    except ValueError:
        return f"2^{k}"


class LabelledComplex:
    """Simplicial complex on labelled vertices, closed under subsets.

    vertices[k] is a (factorization tuple, monomial) pair; a face is a
    sorted tuple of vertex indices.  Every face stores the exponent vector
    of the lcm of its vertex labels, whose degree is the face degree.
    """

    __slots__ = ("vertices", "faces", "_exps", "_degrees", "_slices")

    def __init__(self, vertices, facets, max_faces=DEFAULT_MAX_FACES):
        self.vertices = tuple(vertices)
        nvars = len(self.vertices[0][1].exps) if self.vertices else 0
        for _, mono in self.vertices:
            if len(mono.exps) != nvars:
                raise DimensionError("vertex labels in different rings")
        # empty and repeated facets are dropped, first occurrence order kept
        canonical = [f for f in dict.fromkeys(tuple(sorted(set(facet))) for facet in facets) if f]
        if max_faces is not None:
            for f in canonical:
                if len(f) >= max_faces.bit_length():
                    raise ResourceCapError(
                        f"facet with {len(f)} vertices yields {_simplex_faces(len(f))} faces, "
                        f"over the cap of {max_faces}")
        labels = [mono.exps for _, mono in self.vertices]
        exps = {(): (0,) * nvars}
        by_dim = {-1: [()]}
        for facet in canonical:
            for size in range(1, len(facet) + 1):
                bucket = by_dim.setdefault(size - 1, [])
                for face in combinations(facet, size):
                    if face not in exps:
                        # the prefix face[:-1] is a subset of this facet one vertex
                        # smaller, so the size loop has already labelled it
                        exps[face] = tuple(map(max, exps[face[:-1]], labels[face[-1]]))
                        bucket.append(face)
                        if max_faces is not None and len(exps) > max_faces:
                            raise ResourceCapError(
                                f"complex exceeds the cap of {max_faces} faces")
        self.faces = {d: tuple(sorted(fs)) for d, fs in sorted(by_dim.items())}
        self._exps = exps
        self._degrees = {face: sum(e) for face, e in exps.items()}
        self._slices = {}

    @property
    def dim(self):
        return max(self.faces)

    @property
    def face_count(self):
        return len(self._exps)

    def faces_of_dim(self, d):
        return self.faces.get(d, ())

    def label_exps(self, face):
        return self._exps[face]

    def degree(self, face):
        return self._degrees[face]

    def degree_slices(self, d):
        """Faces of dimension d grouped by degree: {degree: (faces...)}."""
        if d not in self._slices:
            groups = {}
            for face in self.faces_of_dim(d):
                groups.setdefault(self._degrees[face], []).append(face)
            self._slices[d] = {j: tuple(fs) for j, fs in sorted(groups.items())}
        return self._slices[d]

    def __eq__(self, other):
        return (isinstance(other, LabelledComplex)
                and self.vertices == other.vertices
                and self.faces == other.faces)

    def __repr__(self):
        sizes = {d: len(fs) for d, fs in self.faces.items()}
        return f"LabelledComplex({len(self.vertices)} vertices, faces by dim {sizes})"


def taylor_complex(gens, max_faces=DEFAULT_MAX_FACES):
    """The full simplex on the given (tuple, monomial) generator pairs."""
    gens = list(gens)
    if not gens:
        raise DomainError("no generators")
    if len({mono for _, mono in gens}) != len(gens):
        raise DomainError("generators must be distinct")
    m = len(gens)
    if max_faces is not None and m >= max_faces.bit_length():
        raise ResourceCapError(
            f"simplex on {m} vertices has {_simplex_faces(m)} faces, over the cap of {max_faces}")
    return LabelledComplex(gens, [tuple(range(m))], max_faces)


def _support_facets(tuples, t):
    """Facet vertex sets of the support complex, as index tuples.

    Per generator position i there are two candidate facets over the given
    tuples: the spread faces (entry i at most t-1, every other entry at most
    ceil(t/2)) and the concentrated faces (entry i at least t-1).  Empty and
    repeated facets are left for LabelledComplex to drop.

    Membership in spread facet i depends only on entry i and on the set
    of entries above ceil(t/2), so one pass places every tuple.
    """
    m = len(tuples[0])
    s = (t + 1) // 2
    spread = [[] for _ in range(m)]
    concentrated = [[] for _ in range(m)]
    for idx, b in enumerate(tuples):
        big = [k for k, e in enumerate(b) if e > s]
        for i, e in enumerate(b):
            if e <= t - 1 and (not big or big == [i]):
                spread[i].append(idx)
            if e >= t - 1:
                concentrated[i].append(idx)
    return [tuple(f) for f in spread + concentrated]


def faridi_complex(ideal, t, max_faces=DEFAULT_MAX_FACES):
    """The induced support complex on the minimal generators of the t-th power.

    Vertices are the surviving representative tuples from power_generators,
    in tuple order; faces are the subsets lying inside a spread or
    concentrated facet.  For t = 1 every concentrated facet is the whole
    vertex set, so the result is the Taylor simplex.
    """
    gens = power_generators(ideal, t)
    facets = _support_facets([b for b, _ in gens], t)
    return LabelledComplex(gens, facets, max_faces)
