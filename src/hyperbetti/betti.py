"""Graded Betti numbers, regularity, and homology-survivor bounds.

The reduced boundary map keeps only the terms of the simplicial boundary
whose subface has the face's own lcm label, so every boundary matrix is
block-diagonal by lcm label (the lcm-lattice view of Gasharov-Peeva-Welker,
1999); the label's degree only grades the result.
`graded_betti` reduces each dimension's boundary in one pass; since no
step mixes labels, each pivot row counts toward its own label's degree.
All ranks come from one exact sparse eliminator, the lowest-row column
reduction with clearing (Chen-Kerber, 2011), that takes the
characteristic as a parameter: entries are reduced mod p for a prime
characteristic, and the rationals are never replaced by a modular
shortcut.  Every step divides by the pivot entry, in one code path for
both fields.

A column enters the eliminator as its largest row key and the entry
there, found by scanning the face's vertex removals only up to the
first label-keeping one; the whole sparse column is built only when a
reduction needs it (as Ripser does, Bauer 2021).  Most columns land on
a fresh pivot row and are never built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .complexes import _mask_of, _vertices_of
from .errors import DomainError, InvariantError

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


def validate_characteristic(char):
    if char > MAX_CHARACTERISTIC:
        raise DomainError(f"characteristic {char} exceeds the supported maximum "
                          f"{MAX_CHARACTERISTIC}")
    if char != 0 and not _is_prime(char):
        raise DomainError(f"characteristic must be 0 or a prime, got {char}")


def _pivot_rows(columns, build, char):
    """Pivot rows of an exact elimination over Q (char 0) or GF(char).

    Their number is the rank of the matrix with the given columns.  Each
    nonzero column arrives as (row, entry, key): row is its largest row key
    and entry the integer there, nonzero (mod char), and build(key) returns
    the whole column as a fresh dict from int row keys to such integers.
    char must already be validated.

    Lowest-row reduction: a column whose row is not yet a pivot row becomes
    the pivot there as it is, and is not built until a later reduction
    uses it.  Only a column whose row is already a pivot row is built;
    while its largest row key r is a pivot row, the pivot column at r
    times b/a is subtracted from it, where b is its entry at r and a the
    pivot's, so its largest key drops.  A column left nonzero becomes the
    pivot at its largest key.  Each pivot keeps the inverse of its entry
    (itself for +-1, in every field; else pow mod char or an exact
    Fraction), and entries are reduced mod char as they are computed.
    The pivot rows are those of reducing every column built: a column
    whose row is fresh becomes the pivot there unreduced either way, and
    over GF(char) the inverse -1 of an entry -1 equals char - 1 once
    entries are reduced mod char.
    """
    pivots = {}  # row -> (key, inverse of the pivot's entry in that row)
    built = {}  # row -> pivot column, once built (a reduced pivot always is)
    for r, a, key in columns:
        if r in pivots:
            v = build(key)
            while v and (r := max(v)) in pivots:
                k, inv = pivots[r]
                col = built.get(r)
                if col is None:
                    col = built[r] = build(k)
                b = v[r] * inv
                for row, x in col.items():
                    y = v.get(row, 0) - b * x
                    if char:
                        y %= char
                    if y:
                        v[row] = y
                    else:
                        v.pop(row, None)
            if not v:
                continue
            a = v[r]
            built[r] = v
        if a == 1 or a == -1:
            inv = a
        else:
            inv = pow(a, -1, char) if char else Fraction(1, a)
        pivots[r] = (key, inv)
    return set(pivots)


def integer_rank(rows, char=0):
    """Rank of a dense integer matrix over Q (char 0) or over GF(char)."""
    validate_characteristic(char)
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    columns = [{r: row[c] for r, row in enumerate(rows) if (row[c] % char if char else row[c])}
               for c in range(width)]
    return len(_pivot_rows([(r := max(v), v[r], v) for v in columns if v], dict, char))


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
                raise DomainError(f"stored Betti numbers must be positive, got {(i, j)} -> {value}")
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
    """Boundary terms of a face mask whose subface keeps its label, as {subface mask: sign}.

    The subfaces are face ^ bit for the set bits of the mask, lowest first;
    removing the k-th vertex (0-based, in sorted order) has sign (-1)^(k+1).
    A subface keeps its term exactly when it has the face's label id, that
    is, when both sit at the same element of the lcm lattice.
    """
    label_id = cx._label_id
    own = label_id[face]
    column = {}
    sign = -1
    rest = face
    while rest:
        bit = rest & -rest
        rest ^= bit
        if label_id[face ^ bit] == own:
            column[face ^ bit] = sign
        sign = -sign
    return column


def _lowest_removal(label_id, face):
    """(row, sign) of the largest row key in a face mask's boundary column, or None.

    It is the first label-keeping removal that `_boundary_column` meets,
    the lowest bit whose subface keeps the face's label id, so the scan
    stops there without building the column; None means it is empty.
    """
    own = label_id[face]
    sign = -1
    rest = face
    while rest:
        bit = rest & -rest
        if label_id[face ^ bit] == own:
            return face ^ bit, sign
        rest ^= bit
        sign = -sign
    return None


def reduced_boundary(cx, i, j):
    """Dense matrix of the reduced boundary map at homological index i, degree j.

    Columns are the (i-1)-dimensional faces with label degree j, rows the
    (i-2)-dimensional ones, and the entries are the label-keeping terms of
    the simplicial boundary.  `graded_betti` does not build these; they
    are the plain per-degree view of the same map.
    """
    if i < 1:
        raise DomainError(f"homological index must be >= 1, got {i}")
    cols = cx.degree_slices(i - 1).get(j, ())
    rows = cx.degree_slices(i - 2).get(j, ())
    entries = [[0] * len(cols) for _ in rows]
    row_pos = {_mask_of(face): r for r, face in enumerate(rows)}
    for c, face in enumerate(cols):
        for sub, sign in _boundary_column(cx, _mask_of(face)).items():
            entries[row_pos[sub]][c] = sign
    return BoundaryMatrix(i, j, rows, cols, tuple(tuple(r) for r in entries))


def graded_betti(cx, char=0, power=None):
    """Betti table of the quotient supported on the given complex.

    With n(d, j) the d-faces of degree j and rank(d, j) the rank of the
    boundary from them to the (d-1)-faces, the Betti number at i = d + 1
    is n(d, j) - rank(d, j) - rank(d + 1, j).  The boundary of each
    dimension is reduced in one pass; a pivot row has its column's label,
    so rank(d, j) counts the pivot rows of degree j.

    Dimensions run from the top down so that each pass can skip the
    columns that are pivot rows one dimension up ("clearing"): the reduced
    pivot column of such a row is a cycle whose largest row is that row,
    so the cleared column lies in the span of the columns with smaller
    masks and rank(d, j) is unchanged without it.  Only the faces of one
    dimension and the pivot rows of the one above are kept at a time.
    """
    validate_characteristic(char)
    label_id = cx._label_id
    degrees = [sum(exps) for exps in cx._labels]
    entries = {(0, 0): 1}
    cleared = set()  # pivot rows one dimension up, all d-faces
    build = partial(_boundary_column, cx)
    for d in range(cx.dim, -1, -1):
        faces = cx._masks[d]
        rows = _pivot_rows([(*low, face) for face in faces if face not in cleared
                            and (low := _lowest_removal(label_id, face))], build, char)
        totals = {}
        for masks, step in ((faces, 1), (rows, -1), (cleared, -1)):
            for face in masks:
                j = degrees[label_id[face]]
                totals[j] = totals.get(j, 0) + step
        for j, value in totals.items():
            if value < 0:
                raise InvariantError(f"negative Betti number beta[{d + 1}, {j}] = {value}")
            if value:
                entries[d + 1, j] = value
        cleared = rows
    return BettiTable(dict(sorted(entries.items())), power=power, char=char)


def survivor_face_sets(cx, i, j):
    """Faces certain / possible to survive as homology generators at (i, j).

    A face of dimension i-1 and degree j qualifies at all only when every
    vertex removal changes its label.  It is a certain survivor when no
    one-vertex extension keeps the label; it stays possible when every
    label-keeping extension also keeps the label after removing one of the
    face's own vertices.  certain <= actual survivors <= possible.

    The label-keeping extensions of a face F are the i-faces of degree j
    whose label-keeping boundary column holds F, and such an extension is
    recoverable exactly when its column holds a second face.
    """
    columns = [_boundary_column(cx, ext) for ext in cx._degree_masks(i).get(j, ())]
    extended = {face for column in columns for face in column}
    stuck = {face for column in columns if len(column) == 1 for face in column}
    candidates = [face for face in cx._degree_masks(i - 1).get(j, ())
                  if _lowest_removal(cx._label_id, face) is None]
    return ({_vertices_of(face) for face in candidates if face not in extended},
            {_vertices_of(face) for face in candidates if face not in stuck})


class BoundApplicability(NamedTuple):
    """Which of the survivor-set bounds on a Betti number are valid at (i, j)."""

    upper: bool
    lower: bool


def bound_applicability(cx, i, j):
    """Check the hypotheses under which the survivor sets bound the Betti number.

    upper: every (i-1)-face of degree j has all vertex removals label-changing,
    so the Betti number is at most the number of possible survivors.
    lower: no i-dimensional face of degree j has two label-equal subfaces of
    codimension one, so the Betti number is at least the number of certain
    survivors.
    """
    upper = all(_lowest_removal(cx._label_id, face) is None
                for face in cx._degree_masks(i - 1).get(j, ()))
    lower = all(len(_boundary_column(cx, ext)) <= 1
                for ext in cx._degree_masks(i).get(j, ()))
    return BoundApplicability(upper, lower)
