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


def _expand_facets(facets, max_faces):
    """All subsets of the given facets (sorted index tuples), deduplicated.

    Returns the face set as a dict keyed by face (insertion order is by
    facet, then by subset size); includes the empty face.  Raises when the
    running count would exceed max_faces.
    """
    canonical = []
    seen = set()
    for facet in facets:
        f = tuple(sorted(set(facet)))
        if f and f not in seen:
            seen.add(f)
            canonical.append(f)
    if max_faces is not None:
        for f in canonical:
            if len(f) >= max_faces.bit_length():
                raise ResourceCapError(
                    f"facet with {len(f)} vertices yields {1 << len(f)} faces, over the cap of {max_faces}")
    faces = {(): None}
    for facet in canonical:
        for size in range(1, len(facet) + 1):
            for face in combinations(facet, size):
                if face not in faces:
                    faces[face] = None
                    if max_faces is not None and len(faces) > max_faces:
                        raise ResourceCapError(
                            f"complex exceeds the cap of {max_faces} faces")
    return faces


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
        exps = {(): (0,) * nvars}
        for face in _expand_facets(facets, max_faces):
            if face:
                # _expand_facets inserts the prefix face[:-1] (same facet, one
                # vertex fewer) before the face, so its label is already here
                exps[face] = tuple(map(max, exps[face[:-1]], self.vertices[face[-1]][1].exps))
        degrees = {face: sum(e) for face, e in exps.items()}
        by_dim = {}
        for face in exps:
            by_dim.setdefault(len(face) - 1, []).append(face)
        self.faces = {d: tuple(sorted(fs)) for d, fs in sorted(by_dim.items())}
        self._exps = exps
        self._degrees = degrees
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

    def extensions(self, face):
        """Faces obtained from this one by adding a single vertex."""
        members = set(face)
        out = []
        for v in range(len(self.vertices)):
            if v in members:
                continue
            cand = tuple(sorted(face + (v,)))
            if cand in self._exps:
                out.append(cand)
        return out

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
            f"simplex on {m} vertices has {1 << m} faces, over the cap of {max_faces}")
    return LabelledComplex(gens, [tuple(range(m))], max_faces)


def _support_facets(tuples, t):
    """Facet vertex sets of the support complex, as index tuples.

    Per generator position i there are two candidate facets over the given
    tuples: the spread faces (entry i at most t-1, every other entry at most
    ceil(t/2)) and the concentrated faces (entry i at least t-1).  Empty and
    duplicate facets are dropped, first occurrence order kept.
    """
    if not tuples:
        return []
    m = len(tuples[0].entries)
    s = (t + 1) // 2
    facets = []
    for i in range(m):
        spread = tuple(idx for idx, b in enumerate(tuples)
                       if b.entries[i] <= t - 1
                       and all(e <= s for k, e in enumerate(b.entries) if k != i))
        if spread:
            facets.append(spread)
    for i in range(m):
        concentrated = tuple(idx for idx, b in enumerate(tuples)
                             if b.entries[i] >= t - 1)
        if concentrated:
            facets.append(concentrated)
    seen = set()
    out = []
    for f in facets:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


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
