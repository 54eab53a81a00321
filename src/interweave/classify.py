"""Shift classes: orbits, canonical representatives, class predicates.

Two matrices code the same interweaving when a shift pair carries one
onto the other, so a weaving structure *is* an orbit of the shift
action.  Each orbit is identified by its canonical representative, the
lexicographically least member.

Every orbit question here is answered by one walk over the n**2 shift
images on row words: a word rotation for the columns, a tuple rotation
for the rows.  Images are compared and collected as plain tuples, so
:class:`BitMatrix` appears only in the results.  Canonicity of a matrix
streams the walk and bails on the first smaller image.

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
from .transforms import mirror, rotate90, rotate_words


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


def _images(a: BitMatrix) -> Iterator[tuple[int, ...]]:
    """Row words of all n**2 shift images of ``a``, repeats included."""
    n = a.n
    for l in range(n):
        # Unrotated, the images reuse a's own word objects, so a record
        # whose canonical form is a row rotation of a holds no copies.
        rows = rotate_words(a.rows, l, n) if l else a.rows
        for k in range(n):
            yield rows[k:] + rows[:k]


def orbit(a: BitMatrix) -> set[BitMatrix]:
    """All distinct shift images of ``a``; between 1 and n**2 matrices."""
    return {BitMatrix(rows) for rows in set(_images(a))}


def canonical(a: BitMatrix) -> BitMatrix:
    """Lexicographically least member of the orbit of ``a``.

    Constant on orbits and idempotent; the minimum is unique because
    the row-tuple order is total.
    """
    return BitMatrix(min(_images(a)))


def is_canonical(a: BitMatrix) -> bool:
    """True iff no shift image of ``a`` is lexicographically smaller.

    Short-circuits on the first smaller image found.
    """
    return all(image >= a.rows for image in _images(a))


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
    return mirror(a).rows in set(_images(a))


def is_rotation_stable(a: BitMatrix) -> bool:
    """True iff the class of ``a`` contains ``a`` rotated a quarter turn.

    Defined on weavable matrices only; raises
    :class:`NotInterweavingError` otherwise.
    """
    if not is_weavable(a):
        raise NotInterweavingError(
            "rotation-stable is defined only for weavable matrices"
        )
    return rotate90(a).rows in set(_images(a))


def classify(a: BitMatrix) -> ClassRecord:
    """Full class report for ``a`` from a single walk over its images.

    A class contains a matrix's mirror (or quarter turn) exactly when
    that transform of any member lands inside the orbit, so both flags
    are orbit-membership tests here.  For non-weavable matrices the
    flags are reported as False rather than raising.
    """
    images = set(_images(a))
    weavable = is_weavable(a)
    return ClassRecord(
        canonical=BitMatrix(min(images)),
        orbit_size=len(images),
        is_interweaving=weavable,
        self_mirror=weavable and mirror(a).rows in images,
        rotation_stable=weavable and rotate90(a).rows in images,
    )
