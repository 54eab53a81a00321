"""Per-order lookup tables of the census loop, built on first use.

Every table is indexed by row words or holds sets of them.  A set of
row words is a bitset, an int with bit w standing for word w (Knuth,
TAOCP 4A, 7.1.3), so a whole set of last rows is filtered with one AND
and counted with one popcount.  The tables are built from the word
kernels of :mod:`interweave.transforms` and cached per order, read-only.
The symmetric tables hold the matrices the mirror or the quarter turn
maps to a shift of themselves whose rows come from the prefix's pool,
the tuples the census builds.  They canonicalise nothing: the census
loop walks each table's heads, each with its entry as its last rows,
and its own scans keep the canonical weavable tuples, the symmetric
classes.  At order 5 the interweaving prefixes' tables hold 2 275 and
145 tuples.
Both come from the cycles of the cell permutation "word kernel, then
shift back", filed under their top rows and cached per order, kernel
and shift; the kernel sees each one-cell matrix once per order, and
index arithmetic does the shifts.  Rows 0 and 1 of a fixed point tell
which shifts admit a prefix, so an index per order and kernel lists
each prefix's admitting shifts: at order 5, 167 of the 5 250 prefix,
kernel and shift triples.  The task of each (first, second) row prefix
builds its tables from those shifts row by row, as the census loop
builds its tuples, not cached, and drops them after the prefix.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product
from operator import add

from .transforms import rotate_words


@lru_cache(maxsize=None)
def _shift_tables(n):
    """Per-order lookup tables of the census loop, indexed by row word.

    ``rotl[l][w]`` is w rotated right by l places, ``least[w]`` the least
    rotation of w, ``anchors[w]`` the rotations l, ascending, with
    ``rotl[l][w] == least[w]``: more than one exactly when w is periodic.
    Built once per order and process; the tuples are read-only.
    """
    words = range(1 << n)
    rotl = tuple(rotate_words(words, l, n) for l in range(n))
    least = tuple(min(col) for col in zip(*rotl))
    anchors = tuple(
        tuple(l for l in range(n) if rotl[l][w] == least[w]) for w in words
    )
    return rotl, least, anchors


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


@lru_cache(maxsize=None)
def _cells(n, kernel):
    """Where the word kernel ``kernel`` sends each cell: for cell
    ``n * i + j``, the bit j of row i, the index of the one cell set in
    ``kernel`` of the matrix that sets that cell alone.  Each of the n**2
    one-cell matrices goes through the kernel once per order and kernel;
    the tuple is read-only.
    """
    image = []
    for i, j in product(range(n), repeat=2):
        words = kernel((0,) * i + (1 << j,) + (0,) * (n - 1 - i), n)
        row = next(r for r, w in enumerate(words) if w)
        image.append(n * row + words[row].bit_length() - 1)
    return tuple(image)


@lru_cache(maxsize=None)
def _cycles(n, kernel, k, l):
    """The cycles of the cell permutation that applies ``kernel``, the
    word kernel :func:`~interweave.transforms.reverse_words` or
    :func:`~interweave.transforms.rotate90_words`, and then shifts back
    by (k, l), each as the row words of its cells, filed under its top
    row: n tuples, the i-th holding the cycles whose first set row is i.

    The matrices the kernel maps to their shift (k, l) are those the
    permutation fixes, the unions of its cycles (de Bruijn, "Polya's
    theory of counting", 1964).  The shift back moves row i to row
    i + k and bit j to bit j + l, mod n, so the permutation is the
    kernel's cell map (:func:`_cells`) and index arithmetic.  The cycles
    are walked from the cells in row-major order, which meets each cycle
    first at its top row.  Cached per order, kernel and shift; the
    tuples are read-only.
    """
    image = _cells(n, kernel)
    tops = tuple([] for _ in range(n))
    seen = [False] * (n * n)
    for start in range(n * n):
        if seen[start]:
            continue
        words = [0] * n
        cell = start
        while not seen[cell]:
            seen[cell] = True
            i, j = divmod(cell, n)
            words[i] |= 1 << j
            i, j = divmod(image[cell], n)
            cell = (i + k) % n * n + (j + l) % n
        tops[start // n].append(tuple(words))
    return tuple(map(tuple, tops))


def _unions(cycles, n):
    """The row words of the union of each subset of ``cycles``."""
    unions = [(0,) * n]
    for c in cycles:
        unions += [tuple(map(add, u, c)) for u in unions]
    return unions


@lru_cache(maxsize=None)
def _admitting(n, kernel):
    """The shifts that admit each prefix: for every (first, second) with a
    necklace first row other than 0 and a second row that rotates to
    nothing below it, the ``(tops, base)`` of each shift (k, l), in
    order, that has a fixed point starting with those rows, where
    ``tops`` is its :func:`_cycles` and ``base`` the row words of the
    cycles filed under rows 0 and 1 that such a point sets.

    A cycle filed under row 0 or 1 has a cell there, and rows 0 and 1 of
    distinct cycles are disjoint, so each prefix a shift admits is set
    by exactly one subset of those cycles: the index holds every subset
    of the cycles filed under row 0 whose row 0 is a necklace, joined
    with every subset of those filed under row 1.  Cached per order and
    kernel; the dict and its tuples are read-only.
    """
    least = _shift_tables(n)[1]
    index = {}
    for k, l in product(range(n), repeat=2):
        tops = _cycles(n, kernel, k, l)
        twos = _unions(tops[1], n)
        for ones in _unions(tops[0], n):
            first = ones[0]
            if not first or least[first] != first:
                continue
            for extra in twos:
                if least[ones[1] + extra[1]] >= first:
                    base = tuple(map(add, ones, extra))
                    index.setdefault(base[:2], []).append((tops, base))
    return {prefix: tuple(shifts) for prefix, shifts in index.items()}


def _symmetric_table(n, kernel, first, second, pool):
    """The matrices ``kernel`` maps to a shift of themselves, over all n**2
    shifts, that the census loop builds with its prefix (first, second)
    and its row pool, the bitset ``pool`` of the words its later rows are
    drawn from: rows 0 and 1 are the prefix, and every later row is in
    the pool.  As a table: the head of each row-word tuple, its first
    n - 1 rows, maps to the bitset of the last rows that complete one.

    A class is self-mirror (rotation-stable) exactly when the mirror
    (the quarter turn) maps some member to a shift of itself.  Then
    every member, the canonical tuple too, is a fixed point of the
    kernel followed by some shift back, so a walk of the table through
    the census loop, each head with its entry as its last rows, keeps
    exactly its symmetric classes; nothing here is canonicalised.  The
    table holds no tuple the census does not build, so a walk of it
    examines exactly its tuples.

    Per shift, a fixed point is a union of the :func:`_cycles`, built
    row by row as the census loop builds its tuples (Read, "Every one a
    winner", 1978).  Rows 0 and 1 decide the cycles filed under them, so
    only the shifts that admit the prefix are visited, each from the
    cycles it sets there (:func:`_admitting`).  Each later row adds the
    cycles filed under it to every point so far; the row is then final,
    and the points whose row is not in the pool are dropped.  The cycles
    filed under the last row lie in it alone, so each point's last rows
    are one bitset, worked out once per shift and value.  A zero first
    row never weaves, and no shift admits it.  Not cached: a prefix's
    task builds its tables once.
    """
    table = {}
    for tops, base in _admitting(n, kernel).get((first, second), ()):
        points = [base]
        for i in range(2, n - 1):
            for c in tops[i]:
                points += [tuple(map(add, w, c)) for w in points]
            points = [w for w in points if pool >> w[i] & 1]
        # At n = 2 the last row is row 1, already decided.
        lasts = [0]
        for c in tops[-1] if n > 2 else ():
            lasts += [x + c[-1] for x in lasts]
        memo = {}  # last-row bits a point sets -> its last-row bitset
        for w in points:
            bits = memo.get(w[-1])
            if bits is None:
                bits = memo[w[-1]] = _bitset(w[-1] + x for x in lasts) & pool
            if bits:
                table[w[:-1]] = table.get(w[:-1], 0) | bits
    return table


# Maps the binary digits of a bitset to the bytes 0 and 1.
_DIGIT_FLAGS = str.maketrans("01", "\0\1")


def _select(items, bits):
    """The items at the set bits of the bitset ``bits``, in order: item w
    when bit w is set.  ``items`` must cover the highest set bit."""
    return compress(items, format(bits, "b").translate(_DIGIT_FLAGS)[::-1].encode())
