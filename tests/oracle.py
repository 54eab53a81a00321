"""Naive reference implementations used as test oracles.

Everything here works on plain 2-D tuples of 0/1 ints and follows the
textbook definitions directly: elementwise loops, the triple-loop
boolean product, orbits built by literally moving rows and columns
around.  Deliberately unoptimized and deliberately independent of the
package's packed-word representation; the grid<->word converters below
re-derive the bit convention from scratch.
"""

from functools import lru_cache


def words_to_grid(words, n):
    """Unpack row words into a grid; bit (n-1-j) of word i is cell (i, j)."""
    return tuple(
        tuple((word >> (n - 1 - j)) & 1 for j in range(n)) for word in words
    )


def grid_to_words(grid):
    words = []
    for row in grid:
        word = 0
        for cell in row:
            word = word * 2 + cell
        words.append(word)
    return tuple(words)


# -- elementwise algebra ------------------------------------------------------

def op_and(a, b):
    return tuple(tuple(x & y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def op_or(a, b):
    return tuple(tuple(x | y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def op_not(a):
    return tuple(tuple(1 - x for x in row) for row in a)


def op_transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def op_product(a, b):
    """Boolean matrix product, cell by cell by the defining disjunction."""
    n = len(a)
    return tuple(
        tuple(
            1 if any(a[i][k] and b[k][j] for k in range(n)) else 0
            for j in range(n)
        )
        for i in range(n)
    )


def int_product(a, b):
    """Arithmetic (integer) matrix product, for 0/1-pattern comparisons."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def op_lex_less(a, b):
    """Row-major cell scan; equivalent to comparing row-word tuples."""
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if x != y:
                return x < y
    return False


# -- shifts and symmetries ----------------------------------------------------

def rot_rows(a, k):
    """First row to last place, k times."""
    k %= len(a)
    return tuple(a[k:] + a[:k])


def rot_cols(a, l):
    """Last column to first place, l times."""
    n = len(a)
    l %= n
    if l == 0:
        return tuple(a)
    return tuple(row[-l:] + row[:-l] for row in a)


def images(a):
    """All n**2 shift images, deduplicated."""
    n = len(a)
    return {rot_cols(rot_rows(a, k), l) for k in range(n) for l in range(n)}


def canonical_grid(a):
    return min(images(a))


def mirror_grid(a):
    return tuple(row[::-1] for row in a)


def rot90_grid(a):
    """Quarter turn counterclockwise: out[i][j] = a[j][n-1-i]."""
    n = len(a)
    return tuple(tuple(a[j][n - 1 - i] for j in range(n)) for i in range(n))


def is_weavable_grid(a):
    """Every row and every column holds at least one 0 and at least one 1."""
    n = len(a)
    for row in a:
        if all(row) or not any(row):
            return False
    for j in range(n):
        col = [row[j] for row in a]
        if all(col) or not any(col):
            return False
    return True


def perm_grid(perm):
    """Permutation matrix grid: row i has its single 1 in column perm[i]."""
    n = len(perm)
    return tuple(
        tuple(1 if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )


def all_grids(n):
    """Every n-by-n binary grid; 2**(n*n) of them, keep n tiny."""
    cells = n * n
    for packed in range(1 << cells):
        yield tuple(
            tuple((packed >> (i * n + j)) & 1 for j in range(n))
            for i in range(n)
        )


def partition_by_class(n):
    """Map canonical grid -> orbit size, over all of B_n.

    Returns a fresh dict; the walk over B_n runs once per order and
    process, since several tests share it and order 4 takes seconds.
    """
    return dict(_partition_by_class(n))


@lru_cache(maxsize=None)
def _partition_by_class(n):
    sizes = {}
    for grid in all_grids(n):
        rep = canonical_grid(grid)
        if rep not in sizes:
            sizes[rep] = len(images(rep))
    return sizes


def burnside_grid_count(n):
    """Class count over B_n via fixed points, cycle count done naively.

    Walks the index torus explicitly instead of using the gcd/lcm
    closed form, so it is an independent check of the fast formula.
    """
    total = 0
    cells = n * n
    for k in range(n):
        for l in range(n):
            seen = set()
            cycles = 0
            for start in range(cells):
                if start in seen:
                    continue
                cycles += 1
                i, j = divmod(start, n)
                while (i * n + j) not in seen:
                    seen.add(i * n + j)
                    i = (i + k) % n
                    j = (j + l) % n
            total += 1 << cycles
    assert total % cells == 0
    return total // cells
