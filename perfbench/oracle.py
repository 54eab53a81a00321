"""Naive 2-D classification, independent of the ``interweave`` package.

A matrix is a list of 0/1 rows.  Shifts, the mirror and the quarter turn
move rows and cells literally, and a matrix is compared through its
cells read row by row, which orders matrices exactly as their tuples of
row words are ordered.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple


class OracleRecord(NamedTuple):
    canonical: tuple
    orbit_size: int
    is_interweaving: bool
    self_mirror: bool
    rotation_stable: bool


def to_grid(words, n: int) -> list:
    return [[w >> (n - 1 - j) & 1 for j in range(n)] for w in words]


def to_words(grid) -> tuple:
    return tuple(int("".join(map(str, row)), 2) for row in grid)


def _key(grid) -> tuple:
    return tuple(chain.from_iterable(grid))


def shifted(grid, k: int, l: int) -> list:
    """Rows moved up k places, then columns moved right l places."""
    rows = grid[k:] + grid[:k]
    return [row[-l:] + row[:-l] if l else list(row) for row in rows]


def mirrored(grid) -> list:
    return [row[::-1] for row in grid]


def quarter_turned(grid) -> list:
    """Entry (i, j) becomes entry (j, n-1-i) of the original."""
    n = len(grid)
    return [[grid[j][n - 1 - i] for j in range(n)] for i in range(n)]


def weavable(grid) -> bool:
    return all(0 in line and 1 in line for line in chain(grid, zip(*grid)))


def _orbit(grid) -> set:
    n = len(grid)
    return {_key(shifted(grid, k, l)) for k in range(n) for l in range(n)}


def classify(words) -> OracleRecord:
    grid = to_grid(words, len(words))
    orbit = _orbit(grid)
    least = min(orbit)
    n = len(grid)
    ok = weavable(grid)
    return OracleRecord(
        canonical=to_words([least[i * n : (i + 1) * n] for i in range(n)]),
        orbit_size=len(orbit),
        is_interweaving=ok,
        self_mirror=ok and _key(mirrored(grid)) in orbit,
        rotation_stable=ok and _key(quarter_turned(grid)) in orbit,
    )


def is_canonical(words) -> bool:
    grid = to_grid(words, len(words))
    return _key(grid) == min(_orbit(grid))
