"""Shift classes: orbits, canonical representatives, class predicates.

Two matrices code the same interweaving when a shift pair carries one
onto the other, so a weaving structure *is* an orbit of the shift
action.  Each orbit is identified by its canonical representative, the
lexicographically least member.

Every orbit question here is answered by one anchored walk on row
words, the idea the census loop's minimality scan uses
(:mod:`interweave.enumeration`).  The n column rotations of the row
tuple (the :mod:`interweave.transforms` word rotation) hold the top row
of every shift image: image (k, l) is column rotation l with its rows
rotated up k.  The least word among them, ``top``, is the first row of
the canonical form, so only the images anchored on it, the pairs (k, l)
whose top row is ``top``, are built as tuples; the canonical form is
the least of them.  The pairs that carry a matrix onto its canonical
form make up one coset of its stabilizer, so the orbit size is n**2
divided by the number of anchored images equal to the canonical form.
A matrix is canonical when its first row is ``top`` and no anchored
image is smaller; that test bails on the first smaller image.  A tuple
lies in the orbit exactly when it equals one of the images anchored on
its own first row, which is how both symmetry flags are tested.  Only
:func:`orbit`, which returns them all, builds all n**2 images.  Images
are compared as plain tuples, so :class:`BitMatrix` appears only in the
results.

Three predicates describe a class:

* weavable — every row and every column mixes 0s and 1s, i.e. the
  matrix codes a fabric that physically hangs together;
* self-mirror — the class contains its own mirror image;
* rotation-stable — the class survives a quarter turn, so the fabric
  keeps its mechanics when rotated 90 degrees.

The last two are well defined on classes (not just on single matrices)
because mirroring and rotating commute with the shift action up to
re-indexing; the test suite checks that class invariance explicitly.
Both are defined only for weavable matrices: the standalone predicates
raise :class:`NotInterweavingError` otherwise, while :func:`classify`
reports them as False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bitmatrix import BitMatrix
from .transforms import reverse_words, rotate90_words, rotate_words


class NotInterweavingError(ValueError):
    """Predicate evaluated on a matrix with a one-colour row or column."""


@dataclass(frozen=True)
class ClassRecord:
    """One shift class: canonical representative, size, predicate flags."""

    canonical: BitMatrix
    orbit_size: int
    is_interweaving: bool
    self_mirror: bool
    rotation_stable: bool


def _rotations(rows: tuple, n: int) -> list[tuple[int, ...]]:
    """The n column rotations of ``rows``: entry l has each word rotated right l."""
    # Entry 0 is ``rows`` itself, so a record whose canonical form is a
    # row rotation of the input reuses its word objects, no copies.
    return [rows, *(rotate_words(rows, l, n) for l in range(1, n))]


def _anchored(rotations, top: int, n: int) -> Iterator[tuple[int, ...]]:
    """Row words of the shift images whose top row is ``top``, repeats included."""
    for rows in rotations:
        if top in rows:
            # Each row rotation is one slice of the doubled tuple, which
            # holds ``top`` again at n past each anchor.
            doubled = rows + rows
            k = rows.index(top)
            while k < n:
                yield doubled[k : k + n]
                k = doubled.index(top, k + 1)


def _is_image(t: tuple, rotations, n: int) -> bool:
    """True iff the row tuple ``t`` is a shift image of the matrix whose
    column rotations are ``rotations``."""
    return t in _anchored(rotations, t[0], n)


def orbit(a: BitMatrix) -> set[BitMatrix]:
    """All distinct shift images of ``a``; between 1 and n**2 matrices."""
    n = a.n
    images = set()
    for rows in _rotations(a.rows, n):
        rows += rows
        images.update(rows[k : k + n] for k in range(n))
    # The images' words are ``a``'s, moved, so they are not checked again.
    return set(map(BitMatrix._unchecked, images))


def canonical(a: BitMatrix) -> BitMatrix:
    """Lexicographically least member of the orbit of ``a``.

    Constant on orbits and idempotent; the minimum is unique because
    the row-tuple order is total.
    """
    rotations = _rotations(a.rows, a.n)
    return BitMatrix(min(_anchored(rotations, min(map(min, rotations)), a.n)))


def is_canonical(a: BitMatrix) -> bool:
    """True iff no shift image of ``a`` is lexicographically smaller.

    Short-circuits on the first smaller image found.
    """
    rows = a.rows
    # Image (k, 0) puts row k on top, so a smaller row rules a out
    # before the rotations are built.
    if rows[0] != min(rows):
        return False
    rotations = _rotations(rows, a.n)
    top = min(map(min, rotations))
    return rows[0] == top and all(map(rows.__le__, _anchored(rotations, top, a.n)))


def is_weavable(a: BitMatrix) -> bool:
    """True iff every row and every column has at least one 0 and one 1.

    Exactly these matrices code physically realizable fabrics.  Row
    words must avoid 0 and the all-ones word; the OR over all rows must
    light every column and the AND must clear every column.  A 1x1
    matrix can never qualify.
    """
    full = (1 << a.n) - 1
    ored = 0
    anded = full
    for word in a.rows:
        if word == 0 or word == full:
            return False
        ored |= word
        anded &= word
    return ored == full and anded == 0


def is_self_mirror(a: BitMatrix) -> bool:
    """True iff the class of ``a`` contains the mirror image of ``a``.

    Defined on weavable matrices only; raises
    :class:`NotInterweavingError` otherwise.
    """
    if not is_weavable(a):
        raise NotInterweavingError(
            "self-mirror is defined only for weavable matrices"
        )
    return _is_image(reverse_words(a.rows, a.n), _rotations(a.rows, a.n), a.n)


def is_rotation_stable(a: BitMatrix) -> bool:
    """True iff the class of ``a`` contains ``a`` rotated a quarter turn.

    Defined on weavable matrices only; raises
    :class:`NotInterweavingError` otherwise.
    """
    if not is_weavable(a):
        raise NotInterweavingError(
            "rotation-stable is defined only for weavable matrices"
        )
    return _is_image(rotate90_words(a.rows, a.n), _rotations(a.rows, a.n), a.n)


def classify(a: BitMatrix) -> ClassRecord:
    """Full class report for ``a`` from a single anchored walk.

    A class contains a matrix's mirror (or quarter turn) exactly when
    that transform of any member lands inside the orbit, so both flags
    are orbit-membership tests here.  For non-weavable matrices the
    flags are reported as False rather than raising.
    """
    n = a.n
    rows = a.rows
    rotations = _rotations(rows, n)
    images = list(_anchored(rotations, min(map(min, rotations)), n))
    least = min(images)
    weavable = is_weavable(a)
    return ClassRecord(
        canonical=BitMatrix(least),
        orbit_size=n * n // images.count(least),
        is_interweaving=weavable,
        self_mirror=weavable and _is_image(reverse_words(rows, n), rotations, n),
        rotation_stable=weavable and _is_image(rotate90_words(rows, n), rotations, n),
    )
