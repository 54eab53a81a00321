"""Shared hypothesis strategies and seeded matrix sets for matrix-valued
properties."""

import random

import hypothesis.strategies as st

from interweave import BitMatrix


def row_words(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1)


def matrices(n):
    """Random order-n BitMatrix."""
    return st.lists(row_words(n), min_size=n, max_size=n).map(BitMatrix)


def matrices_any(min_n=1, max_n=8):
    """Random BitMatrix of any order in [min_n, max_n]."""
    return st.integers(min_n, max_n).flatmap(matrices)


def matrix_pairs(min_n=1, max_n=8):
    """Two independent matrices of one shared order."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(matrices(n), matrices(n))
    )


def matrix_triples(min_n=1, max_n=6):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(matrices(n), matrices(n), matrices(n))
    )


# Orders on both sides of each byte boundary of a row word, up to the
# 32-bit limit; the transpose kernel reads rows a byte at a time.
BYTE_EDGE_ORDERS = (1, 7, 8, 9, 15, 16, 17, 24, 25, 31, 32)


def byte_edge_matrices(n, count=6):
    """All-ones, identity and ``count`` seeded random order-n matrices."""
    rng = random.Random(5000 + n)
    full = (1 << n) - 1
    out = [BitMatrix((full,) * n), BitMatrix.identity(n)]
    for _ in range(count):
        out.append(BitMatrix(rng.getrandbits(n) for _ in range(n)))
    return out
