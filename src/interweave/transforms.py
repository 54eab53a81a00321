"""Cyclic-shift action and symmetry transforms.

Sliding a weave's pattern window does not change the fabric: moving the
first row to the last place, or the last column to the first place, any
number of times, yields a matrix coding the same interweaving.  Both
moves are multiplications by powers of the full-cycle permutation
matrix (:func:`shift_matrix`): left multiplication shifts rows up,
right multiplication shifts columns right.  Together they act as the
group Z_n x Z_n, and the orbits of that action are the shift classes.

The shift functions here rotate the packed representation directly —
a tuple rotation for rows, an n-bit word rotation for columns — which
is O(n) words per action instead of the O(n^2) of an actual product.
The product form is exercised as an oracle in the test suite.

Column rotation, bit reversal and the quarter turn each have one
kernel on row words (:func:`rotate_words`, :func:`reverse_words`,
:func:`rotate90_words`), shared by the functions below and by the
census engine in :mod:`interweave.enumeration`.  Bit reversal is one
byte-table lookup per byte of the word, and the quarter turn is the
transpose kernel that :mod:`interweave.bitmatrix` owns, read bottom-up.

:func:`mirror` (reverse column order; right multiplication by the
anti-diagonal :func:`reversal_matrix`) and :func:`rotate90` (quarter
turn counterclockwise) are *not* part of the shift action; they define
the self-mirror and rotation-stable class predicates in
:mod:`interweave.classify`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .bitmatrix import BitMatrix, transpose_words


class ShiftPair(NamedTuple):
    """Exponent pair (k, l) indexing one shift: rows up k, columns right l.

    Values are interpreted modulo the matrix order, so any non-negative
    exponents are valid.
    """

    k: int
    l: int


def shift_matrix(n: int) -> BitMatrix:
    """Full-cycle permutation matrix: ones at (i, i+1 mod n).

    Its n-th boolean power is the identity; left multiplication moves
    every row up one place, right multiplication moves every column
    right one place.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return BitMatrix(tuple(1 << (n - 1 - (i + 1) % n) for i in range(n)))


def reversal_matrix(n: int) -> BitMatrix:
    """Anti-diagonal permutation matrix; an involution under the product.

    Right multiplication reverses the column order, i.e. produces the
    mirror image.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return BitMatrix(tuple(1 << i for i in range(n)))


def rotate_rows_up(a: BitMatrix, k: int) -> BitMatrix:
    """Move the first row to the last place, k times (k reduced mod n)."""
    if k < 0:
        raise ValueError(f"shift count must be non-negative, got {k}")
    k %= a.n
    return BitMatrix(a.rows[k:] + a.rows[:k])


def rotate_cols(a: BitMatrix, l: int) -> BitMatrix:
    """Move the last column to the first place, l times (l reduced mod n).

    Each row word rotates right by l within its n bits.
    """
    if l < 0:
        raise ValueError(f"shift count must be non-negative, got {l}")
    l %= a.n
    if l == 0:
        return a
    return BitMatrix(rotate_words(a.rows, l, a.n))


def act(a: BitMatrix, g: ShiftPair) -> BitMatrix:
    """Apply the shift pair g = (k, l): rows up k, then columns right l.

    This is the full Z_n x Z_n action; two matrices code the same
    interweaving exactly when one is an image of the other under some
    shift pair.
    """
    k, l = g
    return rotate_cols(rotate_rows_up(a, k), l)


def mirror(a: BitMatrix) -> BitMatrix:
    """Mirror image: column order reversed (each row word bit-reversed).

    Equals the boolean product with :func:`reversal_matrix` on the
    right.  Applying it twice restores the original.
    """
    return BitMatrix(reverse_words(a.rows, a.n))


def rotate90(a: BitMatrix) -> BitMatrix:
    """Quarter turn counterclockwise: entry (i, j) becomes a(j, n-1-i).

    Equals the composition of mirror and transpose; four applications
    restore the original.
    """
    return BitMatrix(rotate90_words(a.rows, a.n))


def rotate_words(words, l: int, n: int) -> tuple:
    """Each n-bit word rotated right by l places, for 0 <= l < n."""
    mask = (1 << n) - 1
    r = n - l
    return tuple([(w >> l | w << r) & mask for w in words])


@lru_cache(maxsize=None)
def _reversed_bytes() -> tuple:
    """256-entry table: entry b is the byte b with its bit order reversed."""
    return tuple(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse_words(words, n: int) -> tuple:
    """Each n-bit word with its bit order reversed, for 1 <= n <= 32.

    The word is reversed as a 32-bit word, one table lookup per byte
    with the byte order swapped (Warren, *Hacker's Delight*, 2nd ed.,
    section 7-1), and then shifted down past the 32 - n reversed
    padding bits.
    """
    rev = _reversed_bytes()
    pad = 32 - n
    return tuple([
        (rev[w & 255] << 24 | rev[w >> 8 & 255] << 16 | rev[w >> 16 & 255] << 8
         | rev[w >> 24]) >> pad
        for w in words
    ])


def rotate90_words(rows, n: int) -> tuple:
    """Row words of the quarter-turn image: entry (i, j) <- (j, n-1-i).

    Row i of the quarter turn is row n-1-i of the transpose, so this is
    the transpose kernel with its rows read bottom-up.
    """
    return transpose_words(rows, n)[::-1]
