"""Per-order lookup tables of the census loop, built on first use.

Every table is indexed by row words or holds sets of them.  A set of
row words is a bitset, an int with bit w standing for word w (Knuth,
TAOCP 4A, 7.1.3), so a whole set of last rows is filtered with one AND
and counted with one popcount.  The tables are built from the word
kernels of :mod:`interweave.transforms` and cached per order, read-only;
the window gate's tables are cached per first row and fill in as the
census loop asks for them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

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


# Weight c[p] of the 2x2 window pattern p = top << 2 | bottom, its two
# 2-bit row words.  Any fixed weights keep the gate sound.  At orders 4
# and 5 these let through exactly the classes whose window histogram the
# transform fixes, and up to order 8 every sum stays under 2**26 in
# absolute value, one CPython int digit.
_WINDOW_WEIGHTS = tuple((p + 1) ** 5 for p in range(16))


@lru_cache(maxsize=None)
def _window_tables(n):
    """The window gate's mirror and quarter-turn tables for order n,
    indexed by ``u << n | v``.

    Entry ``u << n | v`` of the mirror table is the sum of
    ``c[p] - c[mirror(p)]`` over the n cyclic 2x2 windows p of the row
    pair (u, v), columns (j, j + 1 mod n), with c = ``_WINDOW_WEIGHTS``;
    the quarter-turn table likewise.  ``rotl[l]`` brings each window
    into the low two bits of both words, and the ``transforms`` kernels
    mirror and turn it as a matrix of two 2-bit rows.
    """
    rotl = _shift_tables(n)[0]
    c = _WINDOW_WEIGHTS
    tables = []
    for kernel in (reverse_words, rotate90_words):
        delta = []
        for p in range(16):
            top, bottom = kernel((p >> 2, p & 3), 2)
            delta.append(c[p] - c[top << 2 | bottom])
        tables.append(
            tuple(
                sum(delta[(rl[u] & 3) << 2 | rl[v] & 3] for rl in rotl)
                for u in range(1 << n)
                for v in range(1 << n)
            )
        )
    return tuple(tables)


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


class _GateTables(dict):
    """The window gate's tables for the heads that start with ``first``,
    built per last head row u on first use: ``gates[u]`` is a pair of
    dicts, mirror and quarter turn, each mapping a window sum s to the
    bitset of the last rows w whose pairs (u, w) and (w, first) add up
    to s, for w over the words a head of ``first`` can hold."""

    def __init__(self, n, first):
        super().__init__()
        least = _shift_tables(n)[1]
        self.n, self.first = n, first
        self.words = [w for w in range(first, 1 << n) if least[w] >= first]

    def __missing__(self, u):
        n, first = self.n, self.first
        tables = []
        for win in _window_tables(n):
            gate = {}
            for w in self.words:
                s = win[u << n | w] + win[w << n | first]
                gate[s] = gate.get(s, 0) | 1 << w
            tables.append(gate)
        self[u] = tables = tuple(tables)
        return tables


# Only the latest first row's tables are kept, and a new first row's
# start empty, so they never add to the memory of the previous ones.
_gate_tables = lru_cache(maxsize=1)(_GateTables)


# Maps the binary digits of a bitset to the bytes 0 and 1.
_DIGIT_FLAGS = str.maketrans("01", "\0\1")


def _select(items, bits):
    """The items at the set bits of the bitset ``bits``, in order: item w
    when bit w is set.  ``items`` must cover the highest set bit."""
    return compress(items, format(bits, "b").translate(_DIGIT_FLAGS)[::-1].encode())
