"""Labelled simplicial complexes that support resolutions of ideal powers.

Two constructions: the full simplex on the minimal generators of I^t
(Taylor), and a much smaller support complex whose facets either
concentrate the power on one generator or spread it in a balanced way
(`faridi` on the command line).  Faces carry lcm labels: downstream, a
label decides which boundary terms a face keeps, and its degree only
grades the result.

Inside a complex a face is the int bitmask of its vertex indices and its
label is the small int id of an interned lcm exponent vector, so the
Betti kernel in `betti` works on ints alone.  At the public API a face
is a sorted tuple of vertex indices, built from its mask on each call.
"""

from __future__ import annotations

from .errors import (DEFAULT_MAX_FACES, DimensionError, DomainError, ResourceCapError,
                     format_count)
from .monomials import power_generators


def _mask_of(face):
    """The bitmask of a collection of vertex indices, repeats allowed."""
    mask = 0
    for v in face:
        mask |= 1 << v
    return mask


def _vertices_of(mask):
    """The sorted vertex tuple of a face mask."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


class LabelledComplex:
    """Simplicial complex on labelled vertices, closed under subsets.

    vertices[k] is a (factorization tuple, monomial) pair.  A face is kept
    as the bitmask with bit k set for each vertex k: `_label_id` maps every
    face mask to the id of its label, the exponent vector of the lcm of its
    vertex labels, `_labels` lists the distinct labels by id, and `_masks`
    buckets the masks by dimension.  Two faces have the same label exactly
    when they have the same id.

    At the API (`faces`, `faces_of_dim`, `degree_slices`, `label_exps`,
    `degree`) a face is a sorted tuple of vertex indices; these tuples are
    built from the masks when asked for and are not kept.
    """

    __slots__ = ("vertices", "_label_id", "_labels", "_masks", "_slices")

    def __init__(self, vertices, facets, max_faces=DEFAULT_MAX_FACES):
        self.vertices = tuple(vertices)
        nvars = len(self.vertices[0][1].exps) if self.vertices else 0
        for _, mono in self.vertices:
            if len(mono.exps) != nvars:
                raise DimensionError("vertex labels in different rings")
        # empty and repeated facets are dropped, first occurrence order kept
        canonical = [f for f in dict.fromkeys(map(_mask_of, facets)) if f]
        for size in map(int.bit_count, canonical):
            if size >= max_faces.bit_length():
                raise ResourceCapError(
                    f"facet with {size} vertices yields {format_count(1 << size)} faces, "
                    f"over the cap of {max_faces}")
        vertex_labels = [mono.exps for _, mono in self.vertices]
        labels = [(0,) * nvars]
        ids = {labels[0]: 0}  # label -> id
        join = {}  # (label id, vertex) -> id of the lcm of that label and the vertex's
        label_id = {0: 0}
        masks = {-1: [0]}
        for facet in canonical:
            sub = 0
            while True:
                # submasks in increasing order: the mask without its lowest
                # bit is a smaller submask, so it is already labelled
                sub = (sub - facet) & facet
                if not sub:
                    break
                if sub in label_id:
                    continue
                low = sub & -sub
                key = (label_id[sub ^ low], low.bit_length() - 1)
                lid = join.get(key)
                if lid is None:
                    exps = tuple(map(max, labels[key[0]], vertex_labels[key[1]]))
                    lid = join[key] = ids.setdefault(exps, len(labels))
                    if lid == len(labels):
                        labels.append(exps)
                label_id[sub] = lid
                masks.setdefault(sub.bit_count() - 1, []).append(sub)
                if len(label_id) > max_faces:
                    raise ResourceCapError(
                        f"complex exceeds the cap of {max_faces} faces")
        self._label_id = label_id
        self._labels = labels
        self._masks = masks
        self._slices = {}

    @property
    def dim(self):
        return max(self._masks)

    @property
    def face_count(self):
        return len(self._label_id)

    @property
    def faces(self):
        """{dimension: faces of that dimension}, in increasing dimension."""
        return {d: self.faces_of_dim(d) for d in sorted(self._masks)}

    def faces_of_dim(self, d):
        return tuple(sorted(map(_vertices_of, self._masks.get(d, ()))))

    def label_exps(self, face):
        return self._labels[self._label_id[_mask_of(face)]]

    def degree(self, face):
        return sum(self.label_exps(face))

    def _degree_masks(self, d):
        """Face masks of dimension d grouped by degree, in increasing degree."""
        if d not in self._slices:
            degrees = [sum(exps) for exps in self._labels]
            groups = {}
            for mask in self._masks.get(d, ()):
                groups.setdefault(degrees[self._label_id[mask]], []).append(mask)
            self._slices[d] = dict(sorted(groups.items()))
        return self._slices[d]

    def degree_slices(self, d):
        """Faces of dimension d grouped by degree: {degree: (faces...)}."""
        return {j: tuple(sorted(map(_vertices_of, masks)))
                for j, masks in self._degree_masks(d).items()}

    def __eq__(self, other):
        return (isinstance(other, LabelledComplex)
                and self.vertices == other.vertices
                and self._label_id.keys() == other._label_id.keys())

    def __repr__(self):
        sizes = {d: len(ms) for d, ms in sorted(self._masks.items())}
        return f"LabelledComplex({len(self.vertices)} vertices, faces by dim {sizes})"


def taylor_complex(gens, max_faces=DEFAULT_MAX_FACES):
    """The full simplex on the given (tuple, monomial) generator pairs."""
    gens = list(gens)
    if not gens:
        raise DomainError("no generators")
    if len({mono for _, mono in gens}) != len(gens):
        raise DomainError("generators must be distinct")
    m = len(gens)
    if m >= max_faces.bit_length():
        raise ResourceCapError(
            f"simplex on {m} vertices has {format_count(1 << m)} faces, "
            f"over the cap of {max_faces}")
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
