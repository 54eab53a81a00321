"""The seeded ``classify_mix`` batch.

Base matrix ``b`` has its order in bucket ``b % 3`` of 3-8, 9-16 and
17-32, stepping through the bucket's orders in turn, and its kind from
a fixed cycle with these shares:

  random       40%  uniform cells; mostly large orbits
  twill        15%  one run of ones, stepped one column per row
  satin        15%  one interlacing per row, coprime step
  plain        10%  checkerboard (an even order next to the slot's)
  nonweavable  20%  uniform cells with one row or column forced constant

So every seed gives the same mix of orders and kinds, and the cost of a
round hardly depends on the seed; the seed draws the cells, run lengths,
steps and shifts.  Structured kinds are moved by a random shift pair, so
the program never sees them in canonical form.  Each base matrix then
enters the batch three times: as drawn, moved by a random shift pair,
and mirrored.  The twins let the checker test class invariance of every
output without classifying anything outside the timed loop.
"""

from __future__ import annotations

import random
from math import gcd
from typing import NamedTuple

BUCKETS = ((3, 8), (9, 16), (17, 32))
KINDS = ("random",) * 8 + ("twill", "satin", "nonweavable") * 3 + (
    "plain",
    "plain",
    "nonweavable",
)
BASES = 800


class Item(NamedTuple):
    words: tuple
    text: str
    base: int  # index of the base matrix
    twin: str  # "base", "shifted" or "mirrored"


def bucket_of(n: int) -> str:
    for lo, hi in BUCKETS:
        if lo <= n <= hi:
            return f"n{lo}-{hi}"
    raise ValueError(f"order {n} outside every bucket")


def shift_words(words, k: int, l: int) -> tuple:
    """Rows up k, then every row word rotated right by l within n bits."""
    n = len(words)
    full = (1 << n) - 1
    rows = words[k:] + words[:k]
    return tuple((w >> l | w << (n - l)) & full for w in rows) if l else rows


def mirror_words(words) -> tuple:
    n = len(words)
    return tuple(int(format(w, f"0{n}b")[::-1], 2) for w in words)


def _base(rng: random.Random, kind: str, n: int) -> tuple:
    full = (1 << n) - 1
    if kind == "twill":
        ones = rng.randrange(1, n)
        run = (1 << ones) - 1
        return tuple((run << i | run >> (n - i)) & full for i in range(n))
    if kind == "satin":
        steps = [s for s in range(2, n - 1) if gcd(s, n) == 1] or [1]
        s = rng.choice(steps)
        return tuple(1 << (n - 1 - (i * s) % n) for i in range(n))
    if kind == "plain":
        a = int("10" * (n // 2), 2)
        return tuple(a if i % 2 == 0 else a >> 1 for i in range(n))
    words = [rng.getrandbits(n) for _ in range(n)]
    if kind == "nonweavable":
        if rng.random() < 0.5:
            words[rng.randrange(n)] = rng.choice((0, full))
        else:
            bit = 1 << rng.randrange(n)
            value = rng.random() < 0.5
            words = [w | bit if value else w & ~bit for w in words]
    return tuple(words)


def batch(seed: int, bases: int = BASES) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for b in range(bases):
        lo, hi = BUCKETS[b % len(BUCKETS)]
        n = lo + (b // len(BUCKETS)) % (hi - lo + 1)
        kind = KINDS[b % len(KINDS)]
        if kind == "plain" and n % 2:
            n = n + 1 if n < hi else n - 1
        words = _base(rng, kind, n)
        if kind != "random" and kind != "nonweavable":
            words = shift_words(words, rng.randrange(n), rng.randrange(n))
        twins = (
            ("base", words),
            ("shifted", shift_words(words, rng.randrange(n), rng.randrange(n))),
            ("mirrored", mirror_words(words)),
        )
        for twin, w in twins:
            items.append(Item(w, " ".join(map(str, w)), b, twin))
    return items
