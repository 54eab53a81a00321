"""Per-order lookup tables of the census loop, built on first use.

Every table is indexed by row words or holds sets of them.  A set of
row words is a bitset, an int with bit w standing for word w (Knuth,
TAOCP 4A, 7.1.3), so a whole set of last rows is filtered with one AND
and counted with one popcount.  The tables are built from the word
kernels of :mod:`interweave.transforms` and cached per order, read-only.
The symmetric tables hold the matrices the quarter turn or the mirror
maps to a shift of themselves, as walked: they canonicalise nothing,
and the census loop ANDs each head's entry with its canonical weavable
last rows.  The quarter turn's table is built once per order and cached
the same way; the mirror's is built, not cached, per (first, second)
row prefix by the task that reads it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product
from math import gcd

from .transforms import reverse_words, rotate90_words, rotate_words


@lru_cache(maxsize=None)
def _shift_tables(n):
    """Per-order lookup tables of the census loop, indexed by row word.

    ``rotl[l][w]`` is w rotated right by l places, ``least[w]`` the least
    rotation of w, ``anchors[w]`` the rotations l, ascending, with
    ``rotl[l][w] == least[w]``: more than one exactly when w is periodic,
    and ``brev[w]`` w with its n bits reversed.  Built once per order and
    process; the tuples are read-only.
    """
    words = range(1 << n)
    rotl = tuple(rotate_words(words, l, n) for l in range(n))
    least = tuple(min(col) for col in zip(*rotl))
    anchors = tuple(
        tuple(l for l in range(n) if rotl[l][w] == least[w]) for w in words
    )
    return rotl, least, anchors, reverse_words(words, n)


def _bitset(words):
    """The bitset of ``words``: bit w set for each word w."""
    bits = 0
    for w in words:
        bits |= 1 << w
    return bits


@lru_cache(maxsize=None)
def _bit_tables(n):
    """Per-order bitset tables of the census loop, sets of row words as
    ints with bit w standing for word w.

    ``covers[m]`` holds the words that set every bit of m, ``misses[m]``
    those that set none, ``below[l][x]`` the words w with
    ``rotl[l][w] < x``, and ``under[l]`` and ``fixed[l]`` those with
    ``rotl[l][w]`` below and equal to w.  Built once per order and
    process; the tuples are read-only.
    """
    rotl = _shift_tables(n)[0]
    words = range(1 << n)
    covers = tuple(_bitset(w for w in words if w & m == m) for m in words)
    misses = tuple(_bitset(w for w in words if not w & m) for m in words)
    below = tuple(
        tuple(_bitset(w for w in words if rl[w] < x) for x in words) for rl in rotl
    )
    under = tuple(_bitset(w for w in words if rl[w] < w) for rl in rotl)
    fixed = tuple(_bitset(w for w in words if rl[w] == w) for rl in rotl)
    return covers, misses, below, under, fixed


def _head_table(matrices):
    """The row-word tuples ``matrices`` as a table: the head of each
    tuple, its first n - 1 rows, maps to the bitset of the last rows
    that complete one."""
    table = {}
    for rows in matrices:
        head = rows[:-1]
        table[head] = table.get(head, 0) | 1 << rows[-1]
    return table


def _mirror_fixed_points(n, first, second):
    """The matrices the mirror maps to a shift (k, l) of themselves, for
    every shift, whose rows 0 and 1 are ``first`` and ``second`` where
    the shift lets them be chosen, and whose rows all rotate to nothing
    below ``first``.

    With refl(w) = ``rotl[-l][brev[w]]``, an involution, such a matrix
    has row i + k = refl(row i): one word per cycle of i -> i + k, and
    the cycle alternates it with its reflection, which must be the word
    itself when the cycle is odd.  Rows 0 and 1 start cycles 0 and 1,
    so they are the first two words chosen; with one cycle, row 1
    follows from row 0 and only row 0 is chosen, so row 1 may differ
    from ``second``.
    """
    rotl, least, _, brev = _shift_tables(n)
    for l in range(n):
        refl = [rotl[-l][v] for v in brev]
        pool = [w for w, v in enumerate(refl) if least[w] >= first <= least[v]]
        selfs = [w for w in pool if refl[w] == w]
        for k in range(n):
            d = gcd(n, k)  # cycles, each of m rows
            m = n // d
            words = selfs if m % 2 else pool
            # Row c + j*k of cycle c is entry j*d + c of the run that
            # alternates the chosen words and their reflections.
            at = [0] * n
            for j in range(m):
                for c in range(d):
                    at[(c + j * k) % n] = j * d + c
            pinned = [[w] if w in words else [] for w in (first, second)[:d]]
            for chosen in product(*pinned, *[words] * (d - 2)):
                run = (chosen + tuple([refl[w] for w in chosen])) * m
                yield tuple([run[i] for i in at])


def _turn_fixed_points(n):
    """The matrices the quarter turn maps to a shift (k, l) of
    themselves, for every shift.

    Such a matrix is fixed by the cell permutation that turns and then
    shifts back by (k, l), so it is constant on each cycle of that
    permutation, and every choice of a constant per cycle is one.  The
    cycles are walked on one-cell matrices with the word kernels.
    """
    zero = (0,) * n
    for k, l in product(range(n), repeat=2):
        cycles = []  # the row words of each cycle's cells
        seen = set()
        for i in range(n):
            for j in range(n):
                cell = zero[:i] + (1 << j,) + zero[i + 1 :]
                cycle = []
                while cell not in seen:
                    seen.add(cell)
                    cycle.append(cell)
                    turned = rotate_words(rotate90_words(cell, n), -l % n, n)
                    cell = turned[-k:] + turned[:-k]
                if cycle:
                    cycles.append(tuple(map(sum, zip(*cycle))))
        for bits in range(1 << len(cycles)):
            yield tuple(map(sum, zip(zero, *_select(cycles, bits))))


def _mirror_table(n, first, second):
    """The mirror's fixed points of the prefix (first, second), as
    :func:`_mirror_fixed_points` walks them, in a table: the head of
    each row-word tuple, its first n - 1 rows, maps to the bitset of the
    last rows that complete one.

    A class is self-mirror exactly when some member A has mirror(A) =
    g(A) for a shift g.  Then every member is a fixed point of the cell
    permutation g^-1 mirror for some g (the fixed-point view of the
    Cauchy-Frobenius lemma; de Bruijn, "Polya's theory of counting",
    1964), the canonical tuple too, and the table holds every fixed
    point with the prefix whose rows, like the generator's, rotate to
    nothing below ``first``.  So the census loop, which ANDs a
    head's entry with the head's canonical weavable last rows, keeps
    exactly its self-mirror classes; nothing here is canonicalised.
    Where one cycle of rows leaves row 1 to follow from row 0, the
    table also holds a few heads of other prefixes.  No filter drops
    them: the loop never looks them up, and at order 2, where the head
    is row 0 alone, the loop's only last row is the prefix's row 1.  A
    zero first row never weaves.  Not cached: a prefix's task builds its
    table once.
    """
    if not first:
        return {}
    return _head_table(_mirror_fixed_points(n, first, second))


@lru_cache(maxsize=None)
def _turn_table(n):
    """The quarter turn's fixed points of order n that the census loop
    can build, row 0 a necklace and no row rotating below it, as a table
    like :func:`_mirror_table`'s.

    Each member of a rotation-stable class is a fixed point of the
    quarter turn followed by some shift, the canonical tuple too, so
    the census loop's AND with a head's canonical weavable last rows
    keeps exactly the head's rotation-stable classes.  The other fixed
    points would only take room.  Cached per order; the table is
    read-only.
    """
    least = _shift_tables(n)[1]
    points = _turn_fixed_points(n)
    return _head_table(p for p in points if min(least[w] for w in p) == p[0])


# Maps the binary digits of a bitset to the bytes 0 and 1.
_DIGIT_FLAGS = str.maketrans("01", "\0\1")


def _select(items, bits):
    """The items at the set bits of the bitset ``bits``, in order: item w
    when bit w is set.  ``items`` must cover the highest set bit."""
    return compress(items, format(bits, "b").translate(_DIGIT_FLAGS)[::-1].encode())
