"""Labelled simplicial complexes that support resolutions of ideal powers.

Three constructions: the full simplex on the minimal generators of I^t
(Taylor), Lyubeznik's subcomplex of it, and a much smaller support
complex whose facets either concentrate the power on one generator or
spread it in a balanced way (`faridi` on the command line).  Faces carry
lcm labels: downstream, a label decides which boundary terms a face
keeps, and its degree only grades the result.

Inside a complex a face is the int bitmask of its vertex indices and its
label is the small int id of an interned lcm label, so the Betti kernel
in `betti` works on ints alone; a label-free index per facet set, shared
by every complex on it, numbers the faces, and one flat list of label ids
by face number is the only store of the labels, beside one degree per
id.  A build interns labels as unary codes: exponent e is e ones in a
fixed-width field per variable, so the lcm of two labels is the OR of
their codes and a degree is a bit count; no complex keeps a code.  At the
public API a face is a sorted tuple of vertex indices.

Faces and label ids compare exponents one variable at a time, so each
construction is memoized by its generator count, t and exponent columns
less their minimum (`_shifted`).  With the signature, which of those
columns repeat, a label's degree is a kept one plus t times the change in
the summed column minima, so a support, Taylor or Lyubeznik hit takes its
degrees from the shape and builds its vertices and label ids only when
they are read (`_shape_hit`).  A refusal does not depend on the signature
and is shared by all of them.  The support and Lyubeznik complexes of I^t
are keyed by I's own columns, before the generators of I^t are walked.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import partial, reduce
from itertools import chain, compress, count, repeat
from operator import contains, eq, itemgetter, or_
from struct import pack
from threading import Lock

from .errors import (DEFAULT_MAX_FACES, DimensionError, DomainError, ResourceCapError,
                     check_budget, format_count)
from .monomials import power_generators, products

_MEMO_FACES = 1 << 16  # faces held by all memo entries, so their pairings pack in 16 bits
_MEMO_BYTES = 1 << 19  # bytes held by all memoized pairings, survivor records and shapes
# sorted facet masks -> (face count, blocks, index, pairings), and ("lyubeznik", r, exponent
# columns) -> (face count, (lids, recipe), index, pairings), kept while within _MEMO_FACES;
# pairings maps (labelling, char) to the Betti kernel's counts and (labelling, "survivors")
# to the survivor pass's records
_skeletons = {}
# ("faridi", m, t, columns, signature), ("lyubeznik", m, t, columns, signature) and ("taylor",
# r, columns, signature) -> (bytes, facet sizes, skeleton or Lyubeznik key, tuples, labelling,
# degrees), and ("faridi", m, t, columns) or ("taylor", r, columns) -> (bytes, facet sizes,
# None, cap) for a refusal, shared by every signature (see `_shape_hit`); pairings and shapes
# are kept while within _MEMO_BYTES
_shapes = {}
_held = 0  # the bytes that all pairings and shapes hold, each labelling once
_memo_lock = Lock()  # held to test either bound and add an entry or a pairing


def _mask_of(face):
    """The bitmask of a collection of vertex indices, repeats allowed."""
    mask = 0
    for v in face:
        mask |= 1 << v
    return mask


def _vertices_of(mask):
    """The sorted indices of the set bits of a mask.

    One pass over the binary digits, lowest first: shifting the mask once
    per bit would cost time quadratic in its length.  The trailing "b"
    and "0" of the reversed "0b..." prefix are never "1".
    """
    return tuple(compress(count(), map("1".__eq__, reversed(bin(mask)))))


def _unary_codes(vertices):
    """The vertex labels as unary codes of w bits per variable.

    A code holds variable i in bits i * w .. (i + 1) * w - 1, exponent e
    as e ones; w is the largest vertex exponent, at least 1.  The binary
    digits of all codes are joined in one string from one field string per
    exponent that occurs.  A code over 2^20 64-bit words is refused before
    any is built.
    """
    nvars = len(vertices[0][1].exps) if vertices else 0
    for _, mono in vertices:
        if len(mono.exps) != nvars:
            raise DimensionError("vertex labels in different rings")
    vertex_labels = [mono.exps for _, mono in vertices]
    exponents = set().union(*vertex_labels)
    width = max(exponents | {1})
    _check_width(nvars, width)
    fields = {e: "0" * (width - e) + "1" * e for e in exponents}
    digits = "".join(map(fields.__getitem__, chain.from_iterable(map(reversed, vertex_labels))))
    size = nvars * width
    return [int(digits[k * size:(k + 1) * size] or "0", 2) for k in range(len(vertex_labels))]


def _check_width(nvars, width):
    # at most as many words as an exponent tuple at the edge ideal's cap
    check_budget(-(-nvars * width // 64), "64-bit words per label code")


def _shifted(rows):
    """((columns, flag), signature, lift) of exponent rows, one per generator, in one pass.

    The memo key (columns, flag) holds the distinct columns (one variable's
    exponents, row by row) less their minimum, nonzero, sorted and joined in
    one tuple.  A zero row is a generator 1, whose faces can share the empty
    face's label id; the columns tell it from unshifted nonzero rows, and
    the flag from a row that the shift made zero (a generator dividing all
    others).  The signature tells which of the sorted nonzero columns equal
    the one before, so with the key it is their multiset, and the lift is
    the sum of the minima: with the key they fix every label's degree
    (`_shape_hit`).
    """
    columns = sorted(zip(*rows))
    lift = 0
    if not all(map(contains, columns, repeat(0))):  # nothing to shift: one C-level test
        lows = list(map(min, columns))
        lift = sum(lows)
        columns = sorted([tuple(map(low.__rsub__, c)) if low else c
                          for low, c in zip(lows, columns)])
    flag = bool(lift) and (0,) * len(columns) in zip(*columns)  # a row zero after the shift
    del columns[:bisect_right(columns, (0,) * len(rows))]  # the zero columns sort first
    return ((tuple(chain.from_iterable(dict.fromkeys(columns))), flag),
            tuple(map(eq, columns, columns[1:])), lift)


def _replay_recipe(recipe, vertex_codes):
    """Label codes by id from a recipe of flat (parent id, vertex) pairs, one per id after 0:
    the OR of that parent's code and that vertex's."""
    codes = [0]
    pairs = iter(recipe)
    for lid, v in zip(pairs, pairs):
        codes.append(codes[lid] | vertex_codes[v])
    return codes


def _replay(blocks, labelling):
    """Each face's label id by number, from a labelling replayed on its skeleton's blocks.

    Each block joins its distinct parent ids, in the order its set takes
    them, with the ids the labelling lists next.  A Lyubeznik entry's
    labelling is empty and its blocks are (lids, recipe): its key fixes
    every id.
    """
    if not labelling:
        return blocks[0]
    lids, joins = [0], iter(memoryview(labelling).cast("H"))
    for _, parents in blocks:
        parent_ids = parents(lids)
        step = dict(zip(set(parent_ids), joins))
        lids += map(step.__getitem__, parent_ids)
    return lids


def _u16(values):
    """Ints below 2^16 as native 16-bit bytes, the layout of array("H")."""
    return pack(f"{len(values)}H", *values)


def _over_cap(max_faces):
    return ResourceCapError(f"complex exceeds the cap of {max_faces} faces")


def _refuse_facets(sizes, max_faces):
    """Refuse the first of the facet sizes whose faces alone exceed max_faces."""
    for size in sizes:
        if size >= max_faces.bit_length():
            raise ResourceCapError(
                f"facet with {size} vertices yields {format_count(1 << size)} faces, "
                f"over the cap of {max_faces}")


def _picker(at):
    """itemgetter of the increasing positions `at`, a slice when they are consecutive."""
    if at[-1] - at[0] + 1 == len(at):
        return itemgetter(slice(at[0], at[-1] + 1))
    return itemgetter(*at)


def _index_of(masks, top):
    """index[k], {mask: number} of the faces with k <= top vertices, numbered by place in masks."""
    index = [{} for _ in range(top + 1)]
    for number, mask in enumerate(masks):
        index[mask.bit_count()][mask] = number
    return index


def _memoized(key, build, max_faces):
    """The memo's entry under key, else build()'s with a new pairings dict.

    A new entry is kept while all entries hold at most _MEMO_FACES faces;
    one not kept comes back with pairings None.  An entry over max_faces was
    kept under a larger cap, and is refused with a fresh build's message.
    """
    entry = _skeletons.get(key)
    if entry is None:
        entry = *build(), {}
        with _memo_lock:  # another thread may have kept this key first
            held = sum(kept[0] for kept in _skeletons.values())
            if key in _skeletons or held + entry[0] <= _MEMO_FACES:
                return _skeletons.setdefault(key, entry)
        return (*entry[:3], None)
    if entry[0] > max_faces:
        raise _over_cap(max_faces)
    return entry


def _keep_shape(key, entry):
    """Keep (its bytes, ...) under key, in place of a refusal there, while all pairings and
    shapes hold at most _MEMO_BYTES bytes; the complete entry then under key, or None."""
    global _held
    with _memo_lock:
        kept = _shapes.get(key, (0, None, None))
        size = entry[0] - kept[0]
        if kept[2] is None and _held + size <= _MEMO_BYTES:
            _shapes[key] = kept = entry
            _held += size
        return None if kept[2] is None else kept


def _keep_complete(shape, sizes, source, tuples, labelling, degrees):
    """Keep a complete entry (`_shape_hit`) under (*key, signature) of the shape (key, signature,
    t * lift), its label degrees less t * lift, but the empty face's id 0, packed in 16 bits
    where they fit; the complete entry then kept there, or None."""
    key, signature, lift = shape
    lowered = [0, *map(lift.__rsub__, degrees[1:])]
    lowered = array("H", _u16(lowered)) if max(lowered) < 1 << 16 else array("I", lowered)
    nbytes = (len(signature) + sizes.itemsize * len(sizes) + len(tuples) + len(labelling)
              + lowered.itemsize * len(lowered))
    return _keep_shape((*key, signature), (nbytes, sizes, source, tuples, labelling, lowered))


def _shape_hit(shape, rows, t, max_faces, vertices_of):
    """The complex memoized under a shape (key, signature, t * lift), refused as a fresh build
    would be, or None.

    A key fixes the facets, the skeleton and every label id, and with the
    signature (`_shifted`) every label's degree less t * lift: adding a to a
    column adds t * a to every nonempty label's degree.  The complete entry
    under (*key, signature) keeps the facet sizes in first-occurrence order,
    the skeleton's key (it is read only while that skeleton is kept), the
    factorization tuples one byte each, the labelling and those degrees.  A
    Lyubeznik complex of I^t (`lyubeznik_power_complex`) keeps no facet
    sizes, its Lyubeznik key for the skeleton's, an empty labelling and no
    refusal.  A hit sets only `_degrees`, and `_Replayed` builds the
    vertices (vertices_of(tuples)) and label ids when they are read.  It
    refuses mixed rings at once, and misses when the label-code budget on t
    times the rows' largest exponent, at least the width of a fresh build's
    codes, is exceeded: a fresh build decides.  A refusal, kept under the
    key alone and so shared by every signature, keeps the facet sizes and
    the cap the skeleton exceeded (0 if none): a larger cap misses.
    Refusals come in a build's order: facets, label-code budget, face count.
    """
    key, signature, lift = shape
    entry = _shapes.get((*key, signature)) or _shapes.get(key)
    if entry is None:
        return None
    _, sizes, facets, *rest = entry
    _refuse_facets(sizes, max_faces)
    if len(set(map(len, rows))) > 1:
        raise DimensionError("vertex labels in different rings")
    try:
        _check_width(len(rows[0]), t * max({1}.union(*rows)))
    except ResourceCapError:
        return None  # codes perhaps over the budget: a fresh build decides
    if facets is None:
        if max_faces > rest[0]:
            return None  # a larger cap: a fresh build decides
        raise _over_cap(max_faces)
    skeleton = _skeletons.get(facets)
    if skeleton is None:
        return None
    tuples, labelling, lowered = rest
    count, blocks, index, pairings = skeleton
    if count > max_faces:
        raise _over_cap(max_faces)
    cx = object.__new__(_Replayed)
    cx._source, cx._blocks = partial(vertices_of, tuples), blocks
    degrees = [d + lift for d in lowered] if lift else list(lowered)
    degrees[0] = 0
    cx._store(index, degrees, (pairings, labelling), True)
    return cx


def _skeleton(facets, max_faces):
    """(face count, blocks, index): the faces of the given facet masks, without labels.

    Faces are listed (see `LabelledComplex`) in increasing mask order, where
    the faces with top vertex v follow one another: blocks[i] is (v, picker of
    their parents' numbers, a parent being the face without v).  One pass over
    the union's vertices adds v to every subset of its links (its facets, cut
    below v): to every face so far when a link holds all the vertices so far.
    """
    masks, blocks, below = [0], [], 0  # below: the vertices so far
    for v in _vertices_of(reduce(or_, facets, 0)):
        bit, start = 1 << v, len(masks)
        links = {facet & below for facet in facets if facet & bit}
        if below in links:
            if 2 * start > max_faces:
                raise _over_cap(max_faces)
            parents, positions = masks, range(start)
        else:
            parents = set()
            for link in links:
                subsets = [0]
                for u in _vertices_of(link):
                    subsets += list(map((1 << u).__or__, subsets))
                parents.update(subsets)
                if start + len(parents) > max_faces:
                    raise _over_cap(max_faces)
            parents = sorted(parents)
            positions = list(map(partial(bisect_left, masks), parents))
        blocks.append((v, _picker(positions)))
        masks += list(map(bit.__or__, parents))
        below |= bit
    return len(masks), blocks, _index_of(masks, max(map(int.bit_count, facets), default=0))


class LabelledComplex:
    """Simplicial complex on labelled vertices, closed under subsets.

    vertices[k] is a (factorization tuple, monomial) pair.  A face is the
    bitmask with bit k set for each vertex k; its number is its place in its
    builder's face list, which holds each size in increasing mask order, as
    the Betti kernel needs.  `_index[k]` maps the masks with k bits to face
    numbers, and `_lids[n]`, the one store of labels, is face n's label id
    (the lcm of its vertex labels; equal ids, equal labels), and
    `_degrees[i]` is label i's degree.  A label matters downstream only
    through the faces that share it and its degree, so a build interns the
    labels as unary codes (`_unary_codes`; a code over 2^20 64-bit words is
    refused before any is built) and keeps neither codes nor exponents:
    `label_exps` takes the lcm of a face's vertex labels when asked.

    Which faces there are depends on the facets alone, so the label-free
    skeleton (`_skeleton`) and its index are memoized by the sorted facet
    masks, up to `_MEMO_FACES` faces in all.  Each complex only labels it:
    per top vertex v, each distinct label id of the parents is joined with
    v's label once, and the faces with v take the joined ids of their parents.

    A memoized skeleton also keeps what `betti` computes from its labellings
    alone, in one dict: the kernel's pairing under (labelling, char) and the
    survivor records under (labelling, "survivors") (`_pairing`, `_keep`).
    `_memo` is (that dict, labelling): the joined ids as 16-bit bytes, block
    by block in the order each block takes its distinct parent ids.
    Replaying it on the skeleton gives back every face's label id, and the
    ids give it, so two complexes on one skeleton have equal
    labellings exactly when their faces have equal ids.  Exponents do not
    enter: doubling them all keeps the labelling.  The one memo rule: a
    complex has a `_memo` exactly when its face source is kept: the skeleton
    for support and Taylor complexes, the exponent columns for Lyubeznik
    complexes, whose key fixes every label id, so their labelling is b"".
    A shape is read only while its face source is kept, and a complex from
    it (`_shape_hit`), support, Taylor or Lyubeznik, builds its vertices and
    `_lids` when first read, so a query that finds its pairing or its
    survivor records reads only `_degrees`.  A labelling is counted against
    `_MEMO_BYTES` once: by the kept shape that holds it (`_shared`), else by
    each pairing or survivor record set kept under it.

    At the API (`faces`, `label_exps`, `degree`) a face is a sorted tuple
    of vertex indices; these tuples are built from the masks when asked for
    and are not kept.
    """

    __slots__ = ("vertices", "_index", "_lids", "_degrees", "_slices", "_memo", "_shared")

    def __init__(self, vertices, facets, max_faces=DEFAULT_MAX_FACES):
        self._build(tuple(vertices), facets, max_faces)

    def _build(self, vertices, facets, max_faces, shape=None, tuples=b""):
        """Label the facets' skeleton; under a shape (key, signature, t * lift) (see
        `_shape_hit`), keep the shape with its kept skeleton, or keep its refusal."""
        # empty and repeated facets are dropped, first occurrence order kept
        canonical = [f for f in dict.fromkeys(map(_mask_of, facets)) if f]
        sizes = array("I", map(int.bit_count, canonical))
        cap = 0  # a refusal before the skeleton says nothing of the face count
        try:
            _refuse_facets(sizes, max_faces)
            vertex_codes = _unary_codes(vertices)
            key, cap = tuple(sorted(canonical)), max_faces
            skeleton = _memoized(key, partial(_skeleton, key, max_faces), max_faces)
        except ResourceCapError:
            if shape is not None:
                _keep_shape(shape[0], (sizes.itemsize * len(sizes), sizes, None, cap))
            raise
        _, blocks, index, pairings = skeleton
        codes = [0]
        ids = {0: 0}  # label code -> id
        lids = [0]  # label id of each face, by face number
        joins = []  # each block's joined ids, in the order its step takes them: the labelling
        for v, parents in blocks:
            code = vertex_codes[v]
            parent_ids = parents(lids)
            step = {}  # label id -> id of its join with v
            for lid in set(parent_ids):
                joined = codes[lid] | code
                if joined not in ids:
                    ids[joined] = len(codes)
                    codes.append(joined)
                step[lid] = ids[joined]
            joins += step.values()
            lids += map(step.__getitem__, parent_ids)
        degrees = list(map(int.bit_count, codes))
        memo = kept = None
        if pairings is not None:
            memo = pairings, _u16(joins)  # ids fit in 16 bits on a kept skeleton
            if shape is not None:
                kept = _keep_complete(shape, sizes, key, tuples, memo[1], degrees)
                memo = memo if kept is None else (pairings, kept[4])  # its labelling, held once
        self.vertices, self._lids = vertices, lids
        self._store(index, degrees, memo, kept is not None)

    def _store(self, index, degrees, memo=None, shared=False):
        """Keep index[k], {mask: face number} of the k-vertex faces, and the label degrees by
        id; shared: a kept shape holds the labelling."""
        self._index = index
        self._degrees = degrees
        self._slices = {}  # degree groups by dimension, and "survivors" (see `betti`)
        self._memo, self._shared = memo, shared

    def _pairing(self, key):
        """The ints memoized for this complex's labelling under key, or None: the Betti
        kernel's counts over GF(char) (Q for 0) under char, the survivor records under
        "survivors"."""
        return self._memo and self._memo[0].get((self._memo[1], key))

    def _keep(self, key, values):
        """Memoize flat ints below 2^16 (`_pairing`) under key in 16 bits, if this complex has
        a `_memo` and the pairings stay within _MEMO_BYTES."""
        global _held
        if self._memo is None:
            return
        pairings, labelling = self._memo
        kept = array("H", _u16(values))  # a bytes initializer is copied, not parsed per int
        size = kept.itemsize * len(kept) + (not self._shared) * len(labelling)
        with _memo_lock:  # another thread may have kept them first
            if (_held + size <= _MEMO_BYTES
                    and pairings.setdefault((labelling, key), kept) is kept):
                _held += size

    @property
    def dim(self):
        return len(self._index) - 2

    @property
    def face_count(self):
        return sum(map(len, self._index))

    @property
    def faces(self):
        """{dimension: faces of that dimension, sorted}, in increasing dimension."""
        return {k - 1: tuple(sorted(map(_vertices_of, masks)))
                for k, masks in enumerate(self._index)}

    def _size(self, k):
        """{mask: face number} of the faces with k vertices, empty if there are none."""
        return self._index[k] if 0 <= k < len(self._index) else {}

    def label_exps(self, face):
        """The face's label, the lcm of its vertex labels, as an exponent tuple."""
        mask = _mask_of(face)
        self._size(mask.bit_count())[mask]  # a KeyError for a face not in the complex
        labels = [self.vertices[v][1].exps for v in _vertices_of(mask)]
        nvars = len(self.vertices[0][1].exps) if self.vertices else 0
        return tuple(map(max, zip((0,) * nvars, *labels)))

    def degree(self, face):
        mask = _mask_of(face)
        return self._degrees[self._lids[self._size(mask.bit_count())[mask]]]

    def _degree_groups(self, d):
        """Face masks of dimension d grouped by degree, in increasing degree."""
        if d not in self._slices:
            groups, degrees, lids = {}, self._degrees, self._lids
            for mask, number in self._size(d + 1).items():
                groups.setdefault(degrees[lids[number]], []).append(mask)
            self._slices[d] = dict(sorted(groups.items()))
        return self._slices[d]

    def __eq__(self, other):
        return (isinstance(other, LabelledComplex)
                and self.vertices == other.vertices
                and [f.keys() for f in self._index] == [f.keys() for f in other._index])

    def __repr__(self):
        sizes = {k - 1: len(faces) for k, faces in enumerate(self._index)}
        return f"LabelledComplex({len(self.vertices)} vertices, faces by dim {sizes})"


class _Replayed(LabelledComplex):
    """A complex from a shape hit (`_shape_hit`), which builds what it was not given when
    first read: its vertices from `_source`, and its `_lids` by replaying its labelling on its
    skeleton's blocks (`_replay`; a Lyubeznik complex's are kept); a subclass, so that no other
    complex pays for `__getattr__`."""

    __slots__ = ("_blocks", "_source")

    def __getattr__(self, name):
        if name == "vertices":
            self.vertices = self._source()
        elif name == "_lids":
            self._lids = _replay(self._blocks, self._memo[1])
        else:
            raise AttributeError(name)
        return getattr(self, name)


def _generators(gens):
    """The given (tuple, monomial) generator pairs as a tuple, refused if none or repeated."""
    gens = tuple(gens)
    if not gens:
        raise DomainError("no generators")
    if len({mono for _, mono in gens}) != len(gens):
        raise DomainError("generators must be distinct")
    return gens


def taylor_complex(gens, max_faces=DEFAULT_MAX_FACES):
    """The full simplex on the given (tuple, monomial) generator pairs, memoized by r and
    its exponent columns less their minimum (see `lyubeznik_complex` and `_shape_hit`)."""
    gens = _generators(gens)
    rows = [mono.exps for _, mono in gens]
    key, signature, lift = _shifted(rows)
    shape = ("taylor", len(gens), key), signature, lift
    cx = _shape_hit(shape, rows, 1, max_faces, lambda tuples: gens)
    if cx is None:
        cx = object.__new__(LabelledComplex)
        cx._build(gens, [range(len(gens))], max_faces, shape)
    return cx


def _admissible(vertex_codes, max_faces):
    """(face count, (lids, recipe), index) of Lyubeznik's complex on the vertex codes, where
    recipe holds flat (parent label id, generator) pairs, one per label id after 0."""
    r = len(vertex_codes)

    def first_divisor(code):
        return next((q for q, c in enumerate(vertex_codes) if c | code == code), r)

    codes = [0]
    ids = {0: 0}  # label code -> id
    first = [first_divisor(0)]  # label id -> index of the first generator dividing it
    joins = [{} for _ in vertex_codes]  # per generator: label id -> id of the joined label
    recipe = []  # flat (parent id, generator) pairs
    masks, lids, tests, start = [0], [0], 0, 0  # faces by number; the last size's from start
    while start < len(masks):
        fronts = [(mask, lid, (mask & -mask).bit_length() - 1 if mask else r)
                  for mask, lid in zip(masks[start:], lids[start:])]
        start = len(masks)
        tests += sum(low for _, _, low in fronts)
        check_budget(tests, f"front-extension tests on {r} generators")
        for mask, lid, low in fronts:
            for i in range(low):
                step = joins[i]
                new = step.get(lid)
                if new is None:
                    joined = codes[lid] | vertex_codes[i]
                    new = step[lid] = ids.setdefault(joined, len(codes))
                    if new == len(codes):
                        codes.append(joined)
                        first.append(first_divisor(joined))
                        recipe += lid, i
                if first[new] == i:
                    masks.append(mask | 1 << i)
                    lids.append(new)
                    if len(lids) > max_faces:
                        raise _over_cap(max_faces)
    return len(masks), (lids, array("I", recipe)), _index_of(masks, masks[-1].bit_count())


def lyubeznik_complex(gens, max_faces=DEFAULT_MAX_FACES):
    """Lyubeznik's subcomplex of the simplex on the given (tuple, monomial)
    generator pairs, in the order given.

    A set {i_1 < ... < i_k} is admissible when, for every s, no generator
    g_q with q < i_s divides lcm(g_{i_s}, ..., g_{i_k}).  With lcm labels
    the admissible sets support a free resolution of the ideal for any
    order of the generators (Lyubeznik 1988), so their table is the
    simplex's.  They are enumerated by front extension, one size at a
    time: {i} | F with i < min F is admissible exactly when F is and no
    g_q with q < i divides its lcm.  Each label keeps the index of the
    first generator that divides it, found once when the label is
    interned, so the front test is that index being i.

    The front-extension tests of each size, min F for every face F one size
    down, are counted against the fixed budget before they run, and the face
    cap is tested per face.  Faces are listed (see `LabelledComplex`) as
    added, each size in increasing mask order: F1 < F2 one size down gives
    F1 | 1 << i1 < F2 | 1 << i2, as F2's top bit not in F1 is above min F1.

    Admissibility, label equality and first divisors compare exponents one
    variable at a time, so faces and label ids depend only on r and the
    exponent columns (one variable's exponents over the generators, in the
    given order): permuting, repeating or adding a zero variable keeps them,
    and so does one in every generator, none being 1.  That key (`_shifted`)
    memoizes the complex (see `LabelledComplex`) with a label recipe, replayed
    on each complex's own codes for its degrees, as they change.
    """
    return _lyubeznik(_generators(gens), max_faces)


def _lyubeznik(vertices, max_faces, shape=None, tuples=None):
    """Lyubeznik's complex on the vertices (`lyubeznik_complex`); under a shape (key, signature,
    t * lift), also kept as a shape with the factorization tuples, while its key is kept."""
    vertex_codes = _unary_codes(vertices)  # refuses mixed rings before zip cuts them
    key = "lyubeznik", len(vertices), _shifted([mono.exps for _, mono in vertices])[0]
    _, (lids, recipe), index, pairings = _memoized(
        key, partial(_admissible, vertex_codes, max_faces), max_faces)
    cx = object.__new__(LabelledComplex)
    degrees = list(map(int.bit_count, _replay_recipe(recipe, vertex_codes)))
    if pairings is not None and shape is not None:
        _keep_complete(shape, array("I"), key, tuples, b"", degrees)
    cx.vertices, cx._lids = vertices, lids
    cx._store(index, degrees, None if pairings is None else (pairings, b""))
    return cx


def lyubeznik_power_complex(ideal, t, generators, max_faces=DEFAULT_MAX_FACES):
    """Lyubeznik's complex on the minimal generators of the t-th power, in the order of
    power_generators(ideal, t): the support complex's vertices, which generators() gives,
    called only on a miss.

    Its faces and label ids depend only on r and the shifted exponent
    columns of that list (`lyubeznik_complex`), which m, t and the key of
    I's generators fix, as do the factorization tuples: the columns of I^t
    are the tuples' combinations of I's, and adding a to a column of I adds
    t * a to its column of I^t.  So for t < 256 it is memoized as a shape
    under ("lyubeznik", m, t, key) beside the support complex's, pointing at
    its Lyubeznik key, with its label degrees less t * lift under its
    signature (`_shape_hit`): a hit walks no generators and builds no
    monomial or label id until one is read.  A refusal is not kept; the next query
    builds again and refuses as this one did.
    """
    shape = _power_shape("lyubeznik", ideal, t)
    cx = shape and _shape_hit(shape, [g.exps for g in ideal.generators], t, max_faces,
                              partial(_power_vertices, ideal))
    if cx is None:
        vertices = generators()
        cx = _lyubeznik(tuple(vertices), max_faces, shape,
                        shape and bytes(chain.from_iterable(b for b, _ in vertices)))
    return cx


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

    The walk, the facets and the label ids depend only on m, t and the key
    of I's generators (`_shifted`, `lyubeznik_complex`), which memoizes the
    complex or its refusal before the walk (`_shape_hit`), for t < 256.
    """
    shape = _power_shape("faridi", ideal, t)
    cx = shape and _shape_hit(shape, [g.exps for g in ideal.generators], t, max_faces,
                              partial(_power_vertices, ideal))
    if cx is None:
        vertices = power_generators(ideal, t)
        tuples = [b for b, _ in vertices]
        cx = object.__new__(LabelledComplex)
        cx._build(tuple(vertices), _support_facets(tuples, t), max_faces, shape,
                  shape and bytes(chain.from_iterable(tuples)))
    return cx


def _power_shape(kind, ideal, t):
    """The shape (key, signature, t * lift) of the kind's complex on I^t, keyed by
    (kind, m, t, key of I's generators), or None for t >= 256, whose tuples do not fit a byte.
    The key pass does not depend on t or the kind, so it runs once per ideal and is kept on it."""
    if t >= 256:
        return None
    if ideal._shifted is None:
        ideal._shifted = _shifted([g.exps for g in ideal.generators])
    key, signature, lift = ideal._shifted
    return (kind, len(ideal.generators), t, key), signature, t * lift


def _power_vertices(ideal, tuples):
    """The (tuple, monomial) generators of a power from its tuples, m bytes each."""
    return products(ideal, zip(*[iter(tuples)] * len(ideal.generators)))
