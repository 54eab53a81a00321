"""Packed square binary matrices.

An n-by-n matrix of 0/1 entries is stored as n row words: bit (n-1-j)
of word i holds entry (i, j), so a row word written in binary reads the
same as the matrix row left to right.

    0 1 0
    0 0 1   <->  (2, 1, 4)
    1 0 0

Elementwise boolean operations then cost one machine instruction per
row instead of one per cell, the boolean matrix product reduces to
word-AND tests against the transposed right factor, and lexicographic
comparison of two matrices is a plain tuple comparison of row words.

Transposition is one table kernel, :func:`transpose_words`, the
byte-wise bit-matrix transpose (Warren, *Hacker's Delight*, 2nd ed.,
section 7-3); the quarter turn in :mod:`interweave.transforms` is the
same kernel read bottom-up.

Values are immutable and hashable; every operation returns a new
matrix, which keeps them safe to share between worker processes.
Orders run from 1 to 32 so a row always fits one unsigned word.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import index
from typing import Iterable, Iterator

MAX_ORDER = 32


@lru_cache(maxsize=None)
def _spread(n: int) -> tuple:
    """256-entry table for order n: entry b has bit i of b at bit i*n."""
    return tuple(
        sum(1 << i * n for i in range(8) if b >> i & 1) for b in range(256)
    )


def transpose_words(rows, n: int) -> tuple:
    """Row words of the transpose: entry (i, j) <- (j, i), for 1 <= n <= 32.

    Bit c of row j (entry (j, n-1-c)) goes to bit c*n + n-1-j of one
    n*n-bit word, one table lookup, shift and OR per byte of the row.
    Lane c of that word is then column n-1-c read top to bottom, so the
    lanes from the top down are the transposed rows.
    """
    spread = _spread(n)
    t = 0
    for k in range(0, n, 8):
        s = k * n + n
        for w in rows:
            s -= 1
            t |= spread[w >> k & 255] << s
    mask = (1 << n) - 1
    return tuple([t >> s & mask for s in range(n * (n - 1), -1, -n)])


@total_ordering
class BitMatrix:
    """Square binary matrix, one packed word per row.

    Construct from row words (``BitMatrix((2, 1, 4))``), from a 2-D
    grid of 0/1 cells (:meth:`from_bits`), or via the :meth:`zeros` /
    :meth:`identity` factories.  Row words out of ``[0, 2**n - 1]`` are
    rejected, never masked, and so are words that are not integers.
    """

    __slots__ = ("n", "rows")

    n: int
    rows: tuple[int, ...]

    def __init__(self, rows: Iterable[int]):
        rows = tuple(rows)
        n = len(rows)
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")
        limit = (1 << n) - 1
        converted = False
        for i, word in enumerate(rows):
            # An int passes as it is; bool and NumPy integers convert.
            if word.__class__ is not int:
                converted = True
                try:
                    word = index(word)
                except TypeError:
                    raise TypeError(
                        f"row {i}: word {word!r} is not an integer"
                    ) from None
            if not 0 <= word <= limit:
                raise ValueError(
                    f"row {i}: word {word} outside [0, {limit}] for order {n}"
                )
        self.n = n
        # Converted words are kept as ints, so results carry no bool or
        # NumPy words and flags.
        self.rows = tuple(map(index, rows)) if converted else rows

    @classmethod
    def _unchecked(cls, rows: tuple) -> "BitMatrix":
        """The matrix of the tuple ``rows`` without checking its words:
        for row words known to be in range, such as those of a valid
        matrix or of the census's row pool."""
        a = object.__new__(cls)
        a.n = len(rows)
        a.rows = rows
        return a

    @classmethod
    def zeros(cls, n: int) -> "BitMatrix":
        return cls((0,) * n)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        """Identity matrix: neutral element of the boolean product."""
        return cls(tuple(1 << (n - 1 - i) for i in range(n)))

    @classmethod
    def from_bits(cls, grid: Iterable[Iterable[int]]) -> "BitMatrix":
        """Build from a 2-D iterable of 0/1 cells (row-major); must be square."""
        words = []
        widths = []
        for bits in grid:
            word = 0
            width = 0
            for b in bits:
                if b not in (0, 1):
                    raise ValueError(f"cell value {b!r} is not 0 or 1")
                word = (word << 1) | b
                width += 1
            words.append(word)
            widths.append(width)
        n = len(words)
        for i, width in enumerate(widths):
            if width != n:
                raise ValueError(f"row {i} has {width} cells, expected {n}")
        return cls(words)

    def to_bits(self) -> list[list[int]]:
        """Unpack into a row-major 2-D list of 0/1 cells."""
        n = self.n
        return [[word >> (n - 1 - j) & 1 for j in range(n)] for word in self.rows]

    # -- cell and row access ------------------------------------------------

    def get(self, i: int, j: int) -> int:
        """Entry (i, j) as 0 or 1."""
        self._check_index(i, j)
        return self.rows[i] >> (self.n - 1 - j) & 1

    def set(self, i: int, j: int, value: int) -> "BitMatrix":
        """New matrix with entry (i, j) set to ``value`` (0 or 1)."""
        self._check_index(i, j)
        bit = 1 << (self.n - 1 - j)
        word = self.rows[i] | bit if value else self.rows[i] & ~bit
        return BitMatrix(self.rows[:i] + (word,) + self.rows[i + 1 :])

    def row(self, i: int) -> int:
        """Row i as its packed word."""
        if not 0 <= i < self.n:
            raise IndexError(f"row index {i} out of range for order {self.n}")
        return self.rows[i]

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i}, {j}) out of range for order {self.n}")

    def _check_same_order(self, other: "BitMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"order mismatch: {self.n} vs {other.n}")

    # -- elementwise boolean algebra ----------------------------------------

    def __and__(self, other: "BitMatrix") -> "BitMatrix":
        """Elementwise conjunction."""
        if not isinstance(other, BitMatrix):
            return NotImplemented
        self._check_same_order(other)
        return BitMatrix(tuple(a & b for a, b in zip(self.rows, other.rows)))

    def __or__(self, other: "BitMatrix") -> "BitMatrix":
        """Elementwise disjunction."""
        if not isinstance(other, BitMatrix):
            return NotImplemented
        self._check_same_order(other)
        return BitMatrix(tuple(a | b for a, b in zip(self.rows, other.rows)))

    def __invert__(self) -> "BitMatrix":
        """Elementwise negation; high bits of each word stay zero."""
        limit = (1 << self.n) - 1
        return BitMatrix(tuple(word ^ limit for word in self.rows))

    # -- boolean matrix product ----------------------------------------------

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        """Boolean matrix product: entry (i, j) is 1 iff some k has
        self(i, k) = other(k, j) = 1.

        Row i of the result comes from AND-testing row i against each
        row of ``other.transpose()``, so the whole product needs n**2
        word operations rather than the n**3 of the cell-by-cell sum.
        """
        if not isinstance(other, BitMatrix):
            return NotImplemented
        self._check_same_order(other)
        cols = other.transpose().rows
        n = self.n
        out = []
        for ra in self.rows:
            word = 0
            bit = 1 << (n - 1)
            for rb in cols:
                if ra & rb:
                    word |= bit
                bit >>= 1
            out.append(word)
        return BitMatrix(out)

    def __pow__(self, exponent: int) -> "BitMatrix":
        """Repeated boolean product; exponent 0 gives the identity."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = BitMatrix.identity(self.n)
        for _ in range(exponent):
            result = result @ self
        return result

    def transpose(self) -> "BitMatrix":
        """Matrix with entry (i, j) equal to self(j, i)."""
        return BitMatrix(transpose_words(self.rows, self.n))

    # -- order and identity ---------------------------------------------------

    def __lt__(self, other: "BitMatrix") -> bool:
        """Lexicographic order on row-word tuples.

        Comparing matrices of different orders is undefined and raises,
        rather than returning a sentinel.
        """
        if not isinstance(other, BitMatrix):
            return NotImplemented
        self._check_same_order(other)
        return self.rows < other.rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows!r})"

    def __str__(self) -> str:
        n = self.n
        return "\n".join(format(word, f"0{n}b") for word in self.rows)
