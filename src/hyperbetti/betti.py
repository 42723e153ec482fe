"""Graded Betti numbers, regularity, and homology-survivor bounds.

The reduced boundary map keeps only the terms of the simplicial boundary
whose subface has the face's own lcm label, so every boundary matrix is
block-diagonal by lcm label (the lcm-lattice view of Gasharov-Peeva-Welker,
1999); the label's degree only grades the result.
`graded_betti` reduces each dimension's boundary in one pass, which pairs
each pivot column with its pivot row; no step mixes labels, so a pair
never crosses labels, and each Betti number counts the faces of its
dimension and degree that no reduction pairs.
All ranks come from one exact sparse eliminator, the lowest-row column
reduction with clearing (Chen-Kerber, 2011), that takes the
characteristic as a parameter: entries are reduced mod p for a prime
characteristic, and the rationals are never replaced by a modular
shortcut.  Every step divides by the pivot entry, in one code path for
both fields.

Each dimension is one loop over the complex's index of its faces, which
gives each face mask with its number, the key of its label id and of its
row.  A face cleared by the pass above is skipped; the others scan their
vertex removals up to the first label-keeping one, the column's largest
row, and a fresh row is claimed with no entry carried along.  A column
is built, and its pivot entry inverted, only when a reduction first
needs it (as Ripser does, Bauer 2021), and a face whose column is empty
or reduces to zero is counted as unpaired on the spot.

The pairing depends on the labelled complex only through which faces
share a label, so `graded_betti` memoizes its unpaired counts on the
memo entry in `complexes` (see there and `LabelledComplex`) and grades
them by each complex's own degrees, the only store a pairing hit reads.
The survivor bounds read only which faces share a label too: one scan of
every face's vertex removals gives a complex's survivor records by face
size and label id (`_survivor_records`), memoized beside its pairings
under the same rule and byte bound, and graded by its own degrees into
bounds kept on it beside its degree groups (`survivor_face_sets`).  The
module keeps no memo of its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .complexes import _mask_of, _vertices_of
from .errors import DomainError

# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson-Webster 2017); larger characteristics are refused.
MAX_CHARACTERISTIC = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n <= MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=16)  # a raised DomainError is not cached
def validate_characteristic(char):
    if char > MAX_CHARACTERISTIC:
        raise DomainError(f"characteristic {char} exceeds the supported maximum "
                          f"{MAX_CHARACTERISTIC}")
    if char != 0 and not _is_prime(char):
        raise DomainError(f"characteristic must be 0 or a prime, got {char}")


def _reduce(v, key, pivots, built, build, char):
    """One column through the exact eliminator, over Q (char 0) or GF(char).

    v is the column as a fresh dict from int row keys to integer entries,
    nonzero (mod char), and key names it.  pivots maps each pivot row to
    the key of the column that pivots there.  While v's largest row key r
    is a pivot row, the pivot column at r times b/a is subtracted from v,
    where b is v's entry at r and a the pivot's, so its largest key drops;
    entries are reduced mod char as they are computed.  A v left nonzero
    becomes the pivot at its largest key and True is returned; False means
    it reduced to zero.  char must already be validated.

    built maps a pivot row to its column and the inverse of its entry
    there, from the first reduction that uses it: a pivot claimed
    without its column is built then by build(key), and the inverse taken
    from the built column (+-1 is its own inverse in every field, else
    pow mod char or an exact Fraction).  A subtraction that leaves row r
    in v can only come from a wrong inverse, and raises rather than loop.
    """
    while v:
        r = max(v)
        if r not in pivots:
            pivots[r] = key
            built[r] = v, None
            return True
        col, inv = built.get(r) or (build(pivots[r]), None)
        if inv is None:
            a = col[r]
            inv = a if a == 1 or a == -1 else pow(a, -1, char) if char else Fraction(1, a)
            built[r] = col, inv
        b = v[r] * inv
        for row, x in col.items():
            y = v.get(row, 0) - b * x
            if char:
                y %= char
            if y:
                v[row] = y
            else:
                v.pop(row, None)
        if r in v:
            raise ArithmeticError(f"reduction by the pivot at row {r} left that row nonzero")
    return False


def integer_rank(rows, char=0):
    """Rank of a dense integer matrix over Q (char 0) or over GF(char)."""
    validate_characteristic(char)
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    pivots, built = {}, {}
    for c in range(width):
        column = {r: row[c] for r, row in enumerate(rows) if (row[c] % char if char else row[c])}
        _reduce(column, c, pivots, built, None, char)  # every pivot here is built
    return len(pivots)


class BettiTable:
    """Sparse graded Betti table of a quotient ring R/J.

    Keys are (homological index, internal degree); absent means zero.
    Index 0 always holds the single entry (0, 0) -> 1; index i >= 1 counts
    the degree-j generators of the i-th free module.
    """

    __slots__ = ("entries", "power", "char")

    def __init__(self, entries, power=None, char=0):
        for (i, j), value in entries.items():
            if value <= 0:
                raise DomainError(
                    f"stored Betti numbers must be positive, got {(i, j)} -> {value}")
        self.entries = dict(entries)
        self.power = power
        self.char = char

    def betti(self, i, j):
        return self.entries.get((i, j), 0)

    def ideal_betti(self, s, r):
        """Same table in the ideal convention: generators of the ideal sit at index 0."""
        return self.betti(s + 1, r)

    def regularity(self):
        """reg(R/J) = max { j - i : beta_{i,j} != 0 }, in the quotient convention.

        For J != 0 the ideal's own regularity reg(J) is one more.
        """
        if not self.entries:
            raise DomainError("empty Betti table has no regularity")
        return max(j - i for (i, j) in self.entries)

    def items_sorted(self):
        return sorted(self.entries.items())

    def to_json_dict(self):
        return {
            "convention": "R/I^t",
            "t": self.power,
            "char": self.char,
            "entries": [{"i": i, "j": j, "beta": b} for (i, j), b in self.items_sorted()],
            "reg": self.regularity(),
        }

    def __eq__(self, other):
        return (isinstance(other, BettiTable)
                and self.entries == other.entries and self.char == other.char)

    def __repr__(self):
        return f"BettiTable({dict(self.items_sorted())})"


class BoundaryMatrix(NamedTuple):
    """The label-preserving boundary in one homological index and degree."""

    index: int
    degree: int
    rows: tuple
    cols: tuple
    entries: tuple


def _boundary_column(cx, face):
    """Boundary terms of a face mask whose subface keeps its label, as {subface number: sign}.

    The subfaces are face ^ bit for the set bits of the mask, lowest first;
    removing the k-th vertex (0-based, in sorted order) has sign (-1)^(k+1).
    A subface keeps its term exactly when it has the face's label id, that
    is, when both sit at the same element of the lcm lattice.
    """
    lids, index = cx._lids, cx._index
    own, rows = lids[index[face.bit_count()][face]], index[face.bit_count() - 1]
    column, sign, rest = {}, -1, face
    while rest:
        bit = rest & -rest
        rest ^= bit
        row = rows[face ^ bit]
        if lids[row] == own:
            column[row] = sign
        sign = -sign
    return column


def reduced_boundary(cx, i, j):
    """Dense matrix of the reduced boundary map at homological index i, degree j.

    Columns are the (i-1)-dimensional faces with label degree j, rows the
    (i-2)-dimensional ones, and the entries are the label-keeping terms of
    the simplicial boundary.  `graded_betti` does not build these; they
    are the plain per-degree view of the same map.
    """
    if i < 1:
        raise DomainError(f"homological index must be >= 1, got {i}")
    cols, rows = (tuple(sorted(map(_vertices_of, cx._degree_groups(d).get(j, ()))))
                  for d in (i - 1, i - 2))
    entries = [[0] * len(cols) for _ in rows]
    row_pos = {cx._size(i - 1)[_mask_of(face)]: r for r, face in enumerate(rows)}
    for c, face in enumerate(cols):
        for sub, sign in _boundary_column(cx, _mask_of(face)).items():
            entries[row_pos[sub]][c] = sign
    return BoundaryMatrix(i, j, rows, cols, tuple(tuple(r) for r in entries))


def _pairs(cx, char):
    """The pairing of each dimension's boundary, from the top dimension down.

    Yields (d, pivots, unpaired) for each dimension d: pivots maps each
    pivot row, a (d-1)-face number, to the mask of the d-face whose column
    pivots there; unpaired counts by label id the d-faces neither in pivots
    nor cleared.  Faces come from the complex's index, in its order.
    """
    index, lids = cx._index, cx._lids
    build = partial(_boundary_column, cx)
    above = {}
    for d in range(cx.dim, -1, -1):
        rows = index[d]
        pivots, built, unpaired = {}, {}, {}
        for face, number in index[d + 1].items():
            if number in above:
                continue
            own = lids[number]
            rest = face
            while rest:
                bit = rest & -rest
                row = rows[face ^ bit]
                if lids[row] == own:
                    break
                rest ^= bit
            else:
                unpaired[own] = unpaired.get(own, 0) + 1
                continue
            if row not in pivots:
                pivots[row] = face
            elif not _reduce(build(face), face, pivots, built, build, char):
                unpaired[own] = unpaired.get(own, 0) + 1
        yield d, pivots, unpaired
        above = pivots


def graded_betti(cx, char=0, power=None):
    """Betti table of the quotient supported on the given complex.

    The boundary of each dimension is reduced in one pass (`_pairs`),
    which pairs some of its faces, a pivot column with its pivot row one
    dimension down, and counts the rest by label as it meets them.  The
    Betti number at i = d + 1 and degree j counts the d-faces of degree j
    left unpaired: n(d, j) faces less rank(d, j), the pivot columns among
    them (a pivot row has its column's label), less rank(d + 1, j), the
    pivot rows among them.  This is the persistence pairing
    (Edelsbrunner-Letscher-Zomorodian 2002).

    Dimensions run from the top down so that each pass can skip the
    columns that are pivot rows one dimension up ("clearing"): the reduced
    pivot column of such a row is a cycle whose largest row is that row,
    so the cleared column lies in the span of the columns with smaller
    masks and rank(d, j) is unchanged without it.  A cleared face is never
    a column, so the pivot columns and the pivot rows are disjoint.  Only
    the pairs of the dimension in hand and of the one above are kept.

    The pass reads only the face index, the label ids and the
    characteristic, so its unpaired counts are memoized under (labelling,
    char) on the complex's memo entry, as 16-bit (i, label id, count)
    triples, by the rule of `LabelledComplex` that `_pairing` and `_keep`
    apply.  A skeleton fixes the index, and the labelling every face's
    label id; a Lyubeznik complex's exponent columns fix both, and its
    labelling is empty.  So two complexes with one key have the same
    store and the same pairing: the memo is exact.  Degrees are not in it: computed and
    memoized triples go through one loop that grades them by the complex's
    own `_degrees`, as a hit is for an ideal with every exponent doubled.
    New triples are kept only while all pairings hold at most `_MEMO_BYTES`
    bytes of labellings and counts; past that, a table is computed and not
    kept.  The characteristic is validated first, also on a hit.
    """
    validate_characteristic(char)
    counts = cx._pairing(char)
    if counts is None:
        counts = []
        for d, _, unpaired in _pairs(cx, char):
            for label, count in unpaired.items():
                counts += d + 1, label, count
        cx._keep(char, counts)
    degrees = cx._degrees
    entries = {(0, 0): 1}
    triples = iter(counts)
    for i, label, count in zip(triples, triples, triples):
        key = i, degrees[label]
        entries[key] = entries.get(key, 0) + count
    return BettiTable(entries, power=power, char=char)


class SurvivorBounds(NamedTuple):
    """Which survivor bounds apply at one (i, j), and the certain and possible counts."""

    upper: bool
    lower: bool
    certain: int
    possible: int


def _survivor_records(cx):
    """The survivor pass's flat (size << 2 | flags, label id, certain, possible) records, one
    per face size and label id, sizes from the top down.

    An (i-1)-face qualifies when every vertex removal changes its label.  It
    is a certain survivor when no one-vertex extension keeps the label, and
    possible when every label-keeping extension keeps it also after removing
    one of the face's own vertices.  One scan of every face's vertex
    removals, from the top size down, marks each label-keeping removal's row
    extended, and a face's only one also stuck, in a bytearray by face
    number, so a face is marked before it is read; a qualifying face is
    counted certain if not extended and possible if not stuck.  Flag 1: some
    face of the size and label has a label-keeping removal; flag 2: some
    face has two.
    """
    index, lids = cx._index, cx._lids
    marks = bytearray(len(lids))  # by face number: 1 extended, 3 also stuck
    records = []
    for k in range(len(index) - 1, -1, -1):
        rows = index[k - 1]  # the empty face has no rows to read
        tally = {}  # label id -> [flags, certain, possible]
        for face, number in index[k].items():
            own = lids[number]
            entry = tally.get(own) or tally.setdefault(own, [0, 0, 0])
            kept, rest = 0, face  # each label-keeping removal marks its row extended
            while rest:
                bit = rest & -rest
                rest ^= bit
                row = rows[face ^ bit]
                if lids[row] == own:
                    marks[row] |= 1
                    kept += 1
                    last = row
            if not kept:
                entry[1] += not marks[number]
                entry[2] += marks[number] < 3
            elif kept == 1:  # the only one marks its row stuck
                entry[0] |= 1
                marks[last] = 3
            else:
                entry[0] = 3
        for own, (flags, certain, possible) in tally.items():
            records += k << 2 | flags, own, certain, possible
    return records


def survivor_face_sets(cx):
    """The survivor bounds as {(i, j): SurvivorBounds} in increasing (i, j), a key for each
    size i and degree j of a face, kept in the complex's `_slices`.

    Over the (i-1)-faces of degree j (see `_survivor_records`), upper: every
    one qualifies; lower: no i-face of degree j has two label-keeping
    removals.  Then certain <= Betti number if lower, and Betti number <=
    possible if upper.

    The records read only the face index and which faces share a label id,
    as the Betti kernel's pairing does, so they are memoized beside it under
    (labelling, "survivors"), by the same rule and within the same
    `_MEMO_BYTES` (`graded_betti`).  Degrees are not in them: computed and
    memoized records go through one loop that groups them by the complex's
    own `_degrees` (a label-keeping removal has the face's degree, as has
    one size down), so a hit reads no label id.
    """
    if "survivors" in cx._slices:
        return cx._slices["survivors"]
    records = cx._pairing("survivors")
    if records is None:
        records = _survivor_records(cx)
        cx._keep("survivors", records)
    degrees = cx._degrees
    tally = [{} for _ in cx._index]  # by size: degree -> [upper, lower, certain, possible]
    fields = iter(records)
    for head, own, certain, possible in zip(fields, fields, fields, fields):
        k, degree = head >> 2, degrees[own]
        groups = tally[k]
        entry = groups.get(degree) or groups.setdefault(degree, [True, True, 0, 0])
        entry[2] += certain
        entry[3] += possible
        if head & 1:
            entry[0] = False
        if head & 2:
            tally[k - 1].setdefault(degree, [True, True, 0, 0])[1] = False
    cx._slices["survivors"] = {(k, degree): SurvivorBounds(*entry)
                               for k, groups in enumerate(tally)
                               for degree, entry in sorted(groups.items())}
    return cx._slices["survivors"]


def bound_applicability(cx, i, j):
    """The survivor bounds at (i, j); at a degree no (i-1)-face has, both apply to none."""
    return survivor_face_sets(cx).get((i, j)) or SurvivorBounds(True, True, 0, 0)
