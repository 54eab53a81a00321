"""Census of shift classes: exhaustive generation plus a Burnside check.

One representative per class is produced by generating row tuples in
lexicographic order and keeping exactly those no shift pair can lower.
The generator is orderly in Read's sense ("Every one a winner", 1978):
it only builds tuples that can be canonical.  Shift (0, l) rotates the
first row alone into the top place, so a canonical first row is the
least of its own rotations, a necklace; shift (j, l) brings row j's
rotations to the top, so every later row's least rotation is at least
the first row.  First words that are not necklaces are skipped, and
every later row is drawn from the ascending list of words that pass the
second test, which keeps the tuples in lexicographic order.  At order 5
that is 1 421 875 candidates for 705 366 interweaving classes, against
5 273 999 if later rows were only kept at least the first.  Weavability
is tested before minimality because it is an O(n) word fold.

The scans are anchored: every shift image of a generated tuple starts
with a word no smaller than the first row, so the minimality scan
compares only the images that tie on it, from rows whose least rotation
is the first row at the rotations ("anchors") that carry them onto it.

The loop is split at the last row, which takes Read's idea one level
deeper: what the head (the first n - 1 rows) decides is decided once
per head, and its last rows are decided all at once, as a set.  A set
of row words is a bitset, an int with bit w standing for word w
(Knuth's bitwise tricks, TAOCP 4A, 7.1.3; 32 bits at order 5), so a set
is filtered with one AND and counted with one popcount.  The head's OR
and AND fix the bits a last row must set and clear, so the last rows
that complete a weavable tuple are two table lookups ANDed with the
prefix's row pool.  The minimality scan takes the same step two rows
earlier.  A head is a stem, its first n - 2 rows, and one row x, and
:func:`_stem_scan` decides the tuples of a stem at once, every x and
every last row.  It compares each anchored image on the rows that
involve stem rows only: if one is already smaller, every head of the
stem is rejected.  Otherwise the pair's last head row puts a rotation
of x against a stem row, so the x below it are one precomputed bitset
and exactly one x ties on.  A pair that ties on x meets the last row in
one row, where a rotation of the last row faces a head row: the last
rows below it are one precomputed bitset, and the one word that ties
is compared on alone, over rows that read only the stem, x and that
word.  The pairs anchored on x itself, when it is a rotation of the
first row, and those anchored on the last row are decided the same
way, and the prefix decides what it can of them for all its stems at
once (:func:`_prefix_pairs`): a pair anchored on x rejects the last
rows that a rotation puts below the second row, one bitset per x for
the whole prefix, and its stems compare only the one word it ties on.
So a stem hands each head its last-row rejects and ties as bitsets,
and no head runs a scan of its own.  At order 5 the census decides
2 275 stems and rejects 140 of them whole; the stems reject 7 796
heads with weavable last rows (127 666 of the 309 559 non-canonical
candidates) and decide 7 700 more past the prefix and the stem.

Every census run reads its heads' classes per stem fold.  A head that
its stem neither rejects nor decides past the prefix is quiet: its
classes are the last rows the prefix leaves alive outside the stem's
dead set, each with orbit n**2, and its weavable classes follow from
the fold of its rows.  :func:`_stem_sums`, the one place the fold is
written, keeps the classes of every x of a stem as bitsets: the census,
a count and a listing alike, keeps them once per stem fold, dead set
and prefix, and a walk, whose stems each have rows of their own, once
per stem.  Each stem takes off the x it rejects and, for the x it
decides, the classes their entries reject; a stem rejected whole adds
only its fitting rows.  The loop body runs only for orbits and
listing: over the heads that a pair ties on, and in a listing over
every head the stem does not reject.  At order 5 the census takes the
47 229 heads its stems do not reject, of 55 125, from 736 stem folds,
7 700 of them less their entries' rejects; a count runs the 30 that a
pair ties on through the body, a listing all 47 229.

The symmetric classes are found one way: by walking tables, not by
testing each class.  A class is self-mirror (rotation-stable) exactly
when the mirror (the quarter turn) maps some member onto a shift of
itself, and then every member, the canonical tuple too, is a fixed
point of the mirror (the quarter turn) followed by some shift.  The
tables of :mod:`interweave.tables` hold those fixed points whose rows
come from the prefix's pool, the tuples the census builds with the
prefix, mapping a head to the bitset of its fixed-point last rows
(:func:`~interweave.tables._symmetric_table`): one table per symmetry
and (first, second) prefix, built by the prefix's task from the cell
cycles of the shifts that admit the prefix and dropped after it.  A
walk runs the table's heads in order through the census's loop body,
:func:`_scan`, grouped by stem, each with its table entry as its last
rows, so the fold and the scans keep exactly the symmetric classes, in
lexicographic order, with nothing canonicalised and no set of seen
classes kept.  A walk is a run of its own, over one symmetry's tables,
and a census walks both tables of each of its prefixes: its ``m_bar``
and ``r_bar`` are the class counts of those walks.  Only the record
stream files the walks' classes by head, as its record flags, running
both walks before its census.  A ``mirror`` or ``rotation`` listing is
one walk run.  At order 5 the walks decide 205 stems of 576 heads and
examine the tables' 2 275 and 145 tuples for the 1 302 self-mirror and
74 rotation-stable classes of the 705 366; at order 6 they list the
586 060 self-mirror and 902 rotation-stable classes in about a second.

The minimality scan doubles as a stabilizer count: the shift pairs
whose image equals the matrix itself form its stabilizer, and the orbit
size is n**2 divided by that count.  This avoids materializing image
sets for millions of candidates; :func:`~interweave.classify.classify`
and the 2-D test oracle are the references, and the test suite
reconciles the loop with both.

Column rotation, bit reversal and the quarter turn are the word
kernels of :mod:`interweave.transforms`: the lookup tables
(:mod:`interweave.tables`) are built from them, so the library and the
census engine share one implementation of each.

The independent cross-check for the all-classes count is Burnside's
lemma over the shift group: pair (k, l) acting on the n-by-n index
torus fixes ``2**c`` matrices, where ``c`` is the number of cycles of
the translation, so the class count is the mean of ``2**c`` over all
n**2 pairs.  Exact integer arithmetic throughout — the ``2**(n*n)``
terms outgrow 64 bits from order 8 on.

Enumeration scales as roughly ``2**(n*(n-1))`` candidates.  Order 6,
2 105 231 424 candidates, must be requested explicitly via
``limit_override`` (the README records its last measured run); order
7, about 1.2e13 candidates, is refused.  The cap and the override hold
for the symmetric walks too: listing order 7 would need caps of their
own per filter, a change to the command line's contract.  Shards split
the work by row prefix: the units are the
(first, second) row pairs that pass the tests above, in lexicographic
order (105 at order 5), and shard i of t takes every t-th of them from
the i-th on.  Dealing them round-robin balances the shards without a
work estimate.  Shards merge by addition, so large runs parallelize
with no shared state.

The prefix is also the unit of every run.  :func:`_run_shards` runs
each prefix of its shard as one task, shard p of P where P is the prefix
count, which returns the prefix's report and its listing block.  With
one job the tasks run in this process; with more they run on forked
workers that take task indices from a pipe.  The classes of one prefix
form one contiguous run of the sorted listing, so the driver writes the
blocks in prefix order as they arrive and adds up the reports, without
sorting or comparing anything.  Memory follows the largest prefix
block, not the whole listing.  Progress, the merge and a failed prefix
take one path with or without workers.

The census loop, :func:`_census_loop`, hands on a stem's classes at
once: the stem's row words and, for each of its heads with a class, the
row n - 2, bitsets over the last row for the classes and the weavable
ones, and the few orbit sizes below n**2.  A prefix task joins the
stem's words once and writes each head's lines from a template, the
lines of its weavable bitset with a NUL where the head's words go,
built once per bitset and task, and it writes the stem's lines in one
call: at order 5 the listing takes 2 123 stems, whose 46 637 heads that
list a class share 2 031 templates, at most 40 per prefix.  So the
listing builds no ``BitMatrix`` and no ``ClassRecord``; only
:func:`enumerate_classes`, the library's record stream, walks the bits
and wraps each class in a record.
"""

from __future__ import annotations

import io
import itertools
import os
import time
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import and_, or_
from typing import Callable, NamedTuple, Optional

from .bitmatrix import BitMatrix
from .classify import ClassRecord
from .tables import _bit_tables, _bitset, _select, _shift_tables, _symmetric_table
from .transforms import reverse_words, rotate90_words

INTERWEAVINGS = "interweavings"
ALL = "all"
MODES = (INTERWEAVINGS, ALL)

# Every interweaving, the self-mirror ones, the rotation-stable ones.
LIST_FILTERS = ("all", "mirror", "rotation")
# The word kernel of each symmetric filter's table.
_KERNELS = {"mirror": reverse_words, "rotation": rotate90_words}

MAX_ENUM_ORDER = 6
# A full order-6 enumeration, 2 105 231 424 candidates, must be asked
# for explicitly.
OVERRIDE_ORDER = 6

MAX_BURNSIDE_ORDER = 16

class Shard(NamedTuple):
    """Partition slot: this run handles the (first, second) row prefixes
    whose position in lexicographic order is == index (mod total)."""

    index: int = 0
    total: int = 1


@dataclass(frozen=True)
class EnumConfig:
    """Enumeration parameters: order, mode, shard slot, size guard."""

    n: int
    mode: str = INTERWEAVINGS
    shard: Shard = Shard()
    limit_override: bool = False

    def __post_init__(self):
        if not 2 <= self.n <= MAX_ENUM_ORDER:
            raise ValueError(f"order must be in [2, {MAX_ENUM_ORDER}], got {self.n}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        shard = Shard(*self.shard)
        if shard.total < 1 or not 0 <= shard.index < shard.total:
            raise ValueError(f"invalid shard {shard.index}/{shard.total}")
        object.__setattr__(self, "shard", shard)
        if self.n >= OVERRIDE_ORDER and not self.limit_override:
            raise ValueError(
                f"order {self.n} enumeration must be asked for explicitly; "
                "pass limit_override to run it"
            )


@dataclass(frozen=True)
class CountReport:
    """Census of one run (or merged shards) for a single order.

    ``q_count`` counts weavable matrices (the sum of orbit sizes over
    interweaving classes); ``q_bar``/``m_bar``/``r_bar`` count
    interweaving, self-mirror and rotation-stable classes; ``b_bar``
    counts all shift classes and is present only for all-classes runs.
    Of the ``candidates_examined`` row tuples, ``rejected_weavability``
    failed the weavability fold (interweavings mode only) and
    ``rejected_minimality`` the minimality scan; the rest are the
    classes, ``q_bar`` (``b_bar`` in all mode).  The loop counts the
    candidates, the weavability rejects and the classes, and
    ``rejected_minimality`` is what they leave, so a count that adds up
    heads without scanning them needs no count of its own for it.
    ``m_bar`` and ``r_bar`` are the class counts of the walks of the
    shard's prefixes' mirror and quarter-turn tables, whose tuples are
    not candidates.
    A listing under the ``mirror`` or ``rotation`` filter walks only
    that symmetry's tables, instead of the census, so its report counts
    the symmetric classes only: ``q_bar`` is the number listed and
    ``q_count`` the sum of their orbit sizes, its candidates are the
    tuples the tables' entries hold, and of ``m_bar`` and ``r_bar`` the
    walked symmetry's equals ``q_bar`` and the other is 0.
    """

    n: int
    mode: str
    q_count: int
    q_bar: int
    m_bar: int
    r_bar: int
    b_bar: Optional[int]
    candidates_examined: int
    elapsed: float
    shard_total: int = 1
    shard_indices: frozenset = frozenset({0})
    rejected_weavability: int = 0
    rejected_minimality: int = 0


@lru_cache(maxsize=None)
def _prefixes(n, mode):
    """The (first, second) row prefixes of order n and ``mode`` in
    lexicographic order, each with the ascending words its later rows
    are drawn from.

    First rows are necklaces, and later rows rotate to nothing below the
    first.  One-colour rows never code a fabric, so interweavings skip
    them.  Built once per order, mode and process, like
    :func:`~interweave.tables._shift_tables`; the tuples are read-only.
    """
    least = _shift_tables(n)[1]
    top = (1 << n) - 1
    lo, hi = (1, top - 1) if mode == INTERWEAVINGS else (0, top)
    prefixes = []
    for first in range(lo, hi + 1):
        if least[first] != first:
            continue
        allowed = tuple(w for w in range(first, hi + 1) if least[w] >= first)
        prefixes.extend(((first, second), allowed) for second in allowed)
    return tuple(prefixes)


def _prefix_pairs(first, second, n):
    """What the prefix (first, second) decides of the pairs whose image
    meets the last row at its row 0 or 1: ``(dead, alive, anchored,
    turns)``.

    Pair (n - 1, l) brings the last row w to the top, and ties there
    only for the one word with ``rotl[l][w] == first``.  Row 1 of that
    image, ``rotl[l][first]``, meets the second row: below it, the word
    is rejected for every head of the prefix (the bitset ``dead``);
    equal to it, the pair ties on (its l in ``anchored``), and each stem
    decides it; above it, the pair decides nothing.  At order 2 the
    second row is the last row itself.

    Pair (n - 2, l), a turn pair, brings row n - 2, x, to the top, and
    ties there only for ``x = rotl[-l][first]``.  Row 1 of that image,
    ``rotl[l][w]``, meets the second row: the words below it,
    ``below[l][second]``, are rejected for every head of the prefix
    whose row n - 2 is x, once for all its stems, and ``alive[x]`` holds
    the last rows that no turn pair of x rejects so (every word for the
    other x).  One word w ties on: ``turns`` holds ``(x, n - 2,
    rotl[l], w, 0)`` for each pair, for :func:`_stem_scan` to compare w
    on.  At order 3 the second row is x itself, so only the pairs whose
    x is the second row hold; at order 2 x is the first row, whose pairs
    are (0, l).
    """
    rotl = _shift_tables(n)[0]
    below = _bit_tables(n)[2]
    alive = [-1] * (1 << n)
    dead = 0
    anchored, turns = [], []
    for l in range(n):
        t, v = rotl[-l][first], rotl[l][first]
        if v < second:
            dead |= 1 << t
        elif v == second:
            anchored.append(l)
        if n > 2:
            alive[t] &= ~below[l][second]
            turns.append((t, n - 2, rotl[l], rotl[-l][second], 0))
    return dead, alive, anchored, turns


def _stem_scan(stem, xs, first, anchored, turns, n):
    """The minimality scan of the tuples ``stem + (x, w)``, decided once
    per stem for every row n - 2, x, in ``xs`` and every last row w.
    ``anchored`` and ``turns`` are what the prefix decides of the pairs
    (n - 1, l) and (n - 2, l) (:func:`_prefix_pairs`).  Returns
    ``(rejects, dead, entries)``: the bitset of the x whose head some
    shift image already lowers, -1 (every x) when one does on stem rows
    alone; the bitset of the last rows rejected for every x; and for
    each x of which some pair decides more than that and the prefix's
    ``alive[x]``, ``[rejected, *tied]``: the bitsets of the last rows
    rejected, and per pair that ties on through the last row, of the
    last rows that pair fixes.

    Exact only on the tuples the generator builds: the first row is a
    necklace and every row's least rotation is at least the first.  Then
    the first row of image (k, l), ``rotl[l]`` of row k, never falls below
    the first row, and it ties exactly when that row's least rotation is
    the first row and l is one of its anchors.  Only those pairs are
    compared, word by word from the second row on.

    A pair (k, l) with 1 <= k <= n - 3 compares stem rows first: one
    already smaller rejects every head of the stem.  Otherwise row
    n - 2 - k puts ``rotl[l][x]`` against a stem row y: the x below are
    ``below[l][y]``, and one x ties on.  For that x the pair meets the
    last row at row n - 1 - k, where ``rotl[l][w]`` faces a head row z:
    the words below are rejected, and the one word ``rotl[-l][z]`` ties.
    The later rows read only the stem, x and that word, so it is
    compared on here, and so is the one word of each turn pair
    (n - 2, l), whose other rejects the prefix decides: its x gets an
    entry only when the comparison rejects the word or ties on it.  A
    pair (0, l) compares x and w with their own rotations: it rejects
    ``under[l]`` and ties ``fixed[l]`` on both.  A pair (n - 1, l) ties
    only at the last row ``rotl[-l][first]``: stem rows already smaller
    reject that word for every x, and otherwise row n - 2 puts a stem
    word y against x, an x above y rejects the word, and at x = y the
    image's last row decides.
    """
    rotl, least, anchors = _shift_tables(n)
    below, under, fixed = _bit_tables(n)[2:]
    rejects = dead = 0
    entries = {}
    ties = []  # the pairs (k, l) that tie on one x, as in ``turns``

    # At order 2 the stem is empty and the first row is row n - 2.
    for k, w in enumerate(stem or (first,)):
        if least[w] != first:
            continue
        for l in anchors[w]:
            if not (k or l):
                continue
            rl = rotl[l]
            for i in range(1, n - 2 - k):
                d = rl[stem[k + i]] - stem[i]
                if d:
                    if d < 0:
                        return -1, 0, {}
                    break
            else:
                if k:
                    y = stem[n - 2 - k]
                    rejects |= below[l][y]
                    x = rotl[-l][y]
                    z = (stem + (x,))[n - 1 - k]
                    ties.append((x, k, rl, rotl[-l][z], below[l][z]))
                else:
                    rejects |= under[l]
                    for x in _select(range(1 << n), fixed[l]):
                        entries.setdefault(x, [0]).append(fixed[l])
                        entries[x][0] |= under[l]
    for x, k, rl, w, rejected in itertools.chain(ties, turns):
        if x not in xs or rejects >> x & 1:
            continue
        # Image row i is rl of row k + i - n, the first row at i = n - k.
        rows = stem + (x, w)
        i = n - k
        d = rl[first] - rows[i]
        while not d and i < n - 1:
            i += 1
            d = rl[rows[k + i - n]] - rows[i]
        if rejected or d <= 0:
            entry = entries.setdefault(x, [0])
            entry[0] |= rejected | (d < 0) << w
            if not d:
                entry.append(1 << w)
    for l in anchored:
        rl = rotl[l]
        w = rotl[-l][first]
        for i in range(2, n - 2):
            d = rl[stem[i - 1]] - stem[i]
            if d:
                dead |= (d < 0) << w
                break
        else:
            y = rl[stem[-1]] if stem else first
            for x in range(y + 1, 1 << n):
                entries.setdefault(x, [0])[0] |= 1 << w
            if rl[y] < w:
                entries.setdefault(y, [0])[0] |= 1 << w
            elif rl[y] == w:
                entries.setdefault(y, [0]).append(1 << w)
    return rejects, dead, entries


def _stem_sums(ored, anded, one_colour, xs, dead, alive, n, weavable_mode):
    """The classes of the heads ``stem + (x,)`` of a stem with the fold
    ``ored`` and ``anded`` (``one_colour`` when it holds a 0 or all-ones
    row), for the rows x and pools of the dict ``xs``, were no pair to
    decide any of them past the prefix and the stem's dead set:
    ``(sums, quiet, held)``, where ``quiet[x]`` is the pair of bitsets of
    the classes and the weavable classes of x, ``sums`` is ``(fitted,
    b_bar, q_bar)`` summed over xs, and ``held`` is the bitset of xs.

    Such a head's classes are its last rows outside ``dead`` that the
    prefix leaves ``alive``, and its weavable classes are those among
    them that complete the fold of its rows.  This is the one place the
    census folds a head's rows: the classes depend only on the stem's
    fold, on ``dead`` and on x, so the census sums them once per stem
    fold, dead set and prefix, and a walk once per stem.
    """
    top = (1 << n) - 1
    covers, misses = _bit_tables(n)[:2]
    two_colour = (1 << top) - 2  # the words 1 .. top - 1
    fitted = b_bar = q_bar = held = 0
    quiet = {}
    for x, pool in xs.items():
        held |= 1 << x
        # A last row w completes the fold when it sets every bit the
        # head leaves clear and clears every bit it sets.
        fits = covers[top & ~(ored | x)] & misses[anded & x] & pool
        if weavable_mode:
            # The pool holds no 0 or all-ones word: every class weaves.
            classes = weavable = fits & alive[x] & ~dead
            fitted += fits.bit_count()
        else:
            classes = pool & alive[x] & ~dead
            # The fold rejects a 0 or all-ones row.
            weavable = 0 if one_colour or x == top else classes & fits & two_colour
            q_bar += weavable.bit_count()
        b_bar += classes.bit_count()
        quiet[x] = classes, weavable
    return (fitted, b_bar, b_bar if weavable_mode else q_bar), quiet, held


def _filer(found):
    """An ``emit`` that files each head's weavable classes in ``found``,
    ORed over the prefixes that share the head: at order 2 the head is
    the first row alone."""

    def emit(stem, heads):
        for x, classes, weavable, orbits in heads:
            head = stem + (x,)
            found[head] = found.get(head, 0) | weavable

    return emit


def _scan(n, weavable_mode, first, pairs, stems, emit, memo=None):
    """The census loop's one body, run over the heads ``stem + (x,)`` of
    the prefix with first row ``first`` and the decided ``pairs``
    (:func:`_prefix_pairs`): the stems in order, each with the dict of
    its rows n - 2, ascending, to the bitsets of the last rows to try
    after them.  Returns ``(fitted, b_bar, q_bar, short)``: the tuples
    whose head's fold they complete (read in interweavings mode only),
    the classes, the weavable classes and how far the weavable classes'
    orbits fall short of n**2, summed.  With ``emit`` given, each stem
    that keeps a head with classes goes to it once, as ``(stem, heads)``
    (see :func:`_census_loop`).

    Each stem is decided once by :func:`_stem_scan`, and its heads'
    classes come from :func:`_stem_sums`: from ``memo`` by stem fold and
    dead set when the stems share one dict of rows (the census), per
    stem otherwise (a walk).  The stem takes off the x it rejects and
    the last rows its entries reject, and a stem rejected whole adds
    only its fitting rows.  A head's stabilizer is 1 plus its entry's
    pairs that fix a class, so the body runs only for orbits and
    ``emit``: over the x on which a pair ties, and with ``emit`` over
    every x the stem does not reject, gathering the stem's heads for one
    call.  A count builds no heads.
    """
    top = (1 << n) - 1
    words = range(1 << n)
    nn = n * n
    prefix_dead, alive, anchored, turns = pairs
    fitted = b_bar = q_bar = short = 0
    for stem, xs in stems:
        rejects, dead, entries = _stem_scan(stem, xs, first, anchored, turns, n)
        dead |= prefix_dead
        stem_or, stem_and = reduce(or_, stem, 0), reduce(and_, stem, top)
        # The fold rejects a 0 or all-ones row; every later row is at
        # least the first, so only the first can be 0.
        one_colour = not first or top in stem
        key = stem_or, stem_and, one_colour, dead
        sums = None if memo is None else memo.get(key)
        if sums is None:
            sums = _stem_sums(
                stem_or, stem_and, one_colour, xs, dead, alive, n, weavable_mode
            )
            if memo is not None:
                memo[key] = sums
        (fitting, classes, weavable), quiet, held = sums
        fitted += fitting
        if rejects == -1:
            continue
        # Take off the x the stem rejects, and the last rows the entries
        # of the others reject.
        rejected = rejects & held
        for x in _select(words, rejected) if rejected else ():
            c, v = quiet[x]
            classes -= c.bit_count()
            weavable -= v.bit_count()
        kept = held & ~rejects
        tied = []
        for x, entry in entries.items():
            if kept >> x & 1:
                c, v = quiet[x]
                classes -= (c & entry[0]).bit_count()
                weavable -= (v & entry[0]).bit_count()
                if len(entry) > 1:
                    tied.append(x)
        b_bar += classes
        q_bar += weavable
        heads = []
        for x in (tied if emit is None else xs):
            if rejects >> x & 1:
                continue
            c, v = quiet[x]
            orbits = {}
            entry = entries.get(x)
            if entry is not None:
                c &= ~entry[0]
                v &= ~entry[0]
                if len(entry) > 1:  # stabilizer 1 and the pairs that fix w
                    fixed = [_select(words, tie & c) for tie in entry[1:]]
                    stabs = Counter(itertools.chain(*fixed))
                    orbits = {w: nn // (1 + stab) for w, stab in stabs.items()}
                    short += sum(nn - size for w, size in orbits.items() if v >> w & 1)
            if c and emit is not None:
                heads.append((x, c, v, orbits))
        if heads:
            emit(stem, heads)
    return fitted, b_bar, q_bar, short


def _walk_stems(n, kernel, first, second, pool):
    """The heads of the prefix's table of ``kernel`` in order, grouped by
    stem as :func:`_scan` takes them, each stem with the dict of its rows
    n - 2 to their table entries; and the number of tuples the table
    holds."""
    table = _symmetric_table(n, kernel, first, second, pool)
    heads = itertools.groupby(sorted(table), lambda head: head[:-1])
    stems = [(stem, {head[-1]: table[head] for head in group}) for stem, group in heads]
    return stems, sum(map(int.bit_count, table.values()))


def _census_loop(
    cfg: EnumConfig,
    emit: Optional[Callable[..., None]] = None,
    progress: Optional[Callable[[int], None]] = None,
    wanted: str = "all",
) -> CountReport:
    """The census of this shard's slice, handing the classes of each stem
    that has any to ``emit`` as ``(stem, heads)``, one call per stem.

    ``stem`` is the first n - 2 row words, and ``heads`` holds the heads
    ``stem + (x,)`` that have a class, as ``(x, classes, weavable,
    orbits)`` in ascending x.  The middle two are bitsets over the last
    row word w, bit w standing for the class whose canonical row-word
    tuple is ``stem + (x, w)``: the classes, and those among them that
    are weavable.  ``orbits`` maps the few classes whose orbit is
    smaller than n**2 to their orbit size, by last row word, and is
    empty unless a pair ties on the head.  Stems come in lexicographic
    order, so the classes do, taking each head's bits in ascending
    order; none are accumulated here.  In ``interweavings``
    mode only weavable classes are generated; in ``all`` mode every
    class is.  ``progress`` (if given) receives the running candidate
    count after each (first, second) row prefix.

    ``wanted``, a list filter, picks the one source of each prefix's
    heads, and :func:`_scan` is the one body they all run through.
    ``"mirror"`` and ``"rotation"`` walk the prefix's table of that
    symmetry, whose rows all come from the pool: its heads in order,
    each with its entry as its last rows.  Its weavable classes are then
    exactly the symmetric classes of the prefix, and the report counts
    them (see :class:`CountReport`).  ``"all"`` is the census: every
    head the row pool builds, each with the whole pool as its last rows.
    Its ``m_bar`` and ``r_bar`` are the ``q_bar`` of the walks of both
    tables of each of its prefixes, made with the prefix.

    Every source hands :func:`_scan` its heads by stem, a head without
    its row n - 2: the census each stem the row pool builds with the
    pool's words as its rows n - 2, a walk its table's heads grouped by
    stem.  The census, a count or a listing, passes a memo, so that its
    heads' classes are summed once per stem fold, dead set and prefix
    (:func:`_stem_sums`); a walk sums them per stem.  The prefix's pairs
    (:func:`_prefix_pairs`) are decided once, for the census and both its
    walks.
    """
    n = cfg.n
    weavable_mode = cfg.mode == INTERWEAVINGS
    index, total = cfg.shard
    kernel = _KERNELS.get(wanted)
    candidates = rejected_weavability = 0
    # How far the weavable classes' orbits fall short of n**2, summed.
    b_bar = q_bar = short = 0
    started = time.perf_counter()

    symmetric = dict.fromkeys(_KERNELS, 0)  # m_bar and r_bar
    # The prefixes are dealt round-robin to the shards.
    for prefix, allowed in _prefixes(n, cfg.mode)[index::total]:
        first, second = prefix
        pool_bits = 1 << second if n == 2 else _bitset(allowed)
        pairs = _prefix_pairs(first, second, n)
        # The census sums its heads by stem fold; a walk's stems each
        # have rows of their own.
        memo = {} if kernel is None else None
        if kernel is not None:  # a walk: the table's heads in order, by stem
            stems, held = _walk_stems(n, kernel, first, second, pool_bits)
        else:
            held = len(allowed) ** (n - 2)  # the tuples below
            # Below order 4 the prefix holds the stem and row n - 2 too.
            rows = allowed if n > 3 else prefix[n - 2 : n - 1]
            xs = dict.fromkeys(rows, pool_bits)
            mids = itertools.product(allowed, repeat=max(n - 4, 0))
            stems = ((prefix[: n - 2] + mid, xs) for mid in mids)
            # The census's symmetric classes are its prefix's walks'.
            for name, walked in _KERNELS.items():
                walk = _walk_stems(n, walked, first, second, pool_bits)[0]
                symmetric[name] += _scan(n, weavable_mode, first, pairs, walk, None)[2]
        fitted, classes, weavable, missing = _scan(
            n, weavable_mode, first, pairs, stems, emit, memo
        )
        candidates += held
        # Every tuple is a weavability reject until its head fits it.
        rejected_weavability += held - fitted if weavable_mode else 0
        b_bar += classes
        q_bar += weavable
        short += missing
        if progress is not None:
            progress(candidates)

    if kernel is not None:  # a walk counts its own symmetry only
        symmetric[wanted] = q_bar
    m_bar, r_bar = symmetric.values()
    return CountReport(
        n=n,
        mode=cfg.mode,
        q_count=n * n * q_bar - short,
        q_bar=q_bar,
        m_bar=m_bar,
        r_bar=r_bar,
        b_bar=b_bar if cfg.mode == ALL else None,
        candidates_examined=candidates,
        elapsed=time.perf_counter() - started,
        rejected_weavability=rejected_weavability,
        rejected_minimality=candidates - rejected_weavability - b_bar,
        shard_total=total,
        shard_indices=frozenset({index}),
    )


def enumerate_classes(
    cfg: EnumConfig,
    sink: Optional[Callable[[ClassRecord], None]] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> CountReport:
    """Produce one ClassRecord per shift class of this shard's slice.

    Records reach ``sink`` in lexicographic order of their canonical
    row tuples and are never accumulated here.  The record flags are
    read from the shard's symmetric heads, filed by two walk runs before
    the census, so memory follows the shard's symmetric heads and the
    largest prefix's tables, not the class count.  In
    ``interweavings`` mode only weavable classes are generated; in
    ``all`` mode every class is, and the weaving flags are filled per
    record.  ``progress`` (if given) receives the running candidate
    count after each (first, second) row prefix.
    """
    emit = None
    if sink is not None:
        nn = cfg.n * cfg.n
        # The two walks file the shard's symmetric classes by head.
        flags = ({}, {})
        for name, found in zip(_KERNELS, flags):
            _census_loop(cfg, _filer(found), wanted=name)

        def emit(stem, heads):
            for x, classes, weavable, orbits in heads:
                head = stem + (x,)
                mirror, rotation = (found.get(head, 0) for found in flags)
                for w in _select(range(1 << cfg.n), classes):
                    bit = 1 << w
                    sink(
                        ClassRecord(
                            BitMatrix._unchecked(head + (w,)),
                            orbits.get(w, nn),
                            bool(weavable & bit),
                            bool(mirror & bit),
                            bool(rotation & bit),
                        )
                    )

    return _census_loop(cfg, emit, progress)


def burnside_b_bar(n: int) -> int:
    """Number of shift classes of all n-by-n binary matrices, counted
    without enumerating anything.

    A shift pair (k, l) permutes matrix cells as a translation of the
    n-by-n index torus; it fixes ``2**c`` matrices where ``c`` is its
    cycle count, n**2 divided by the pair's order lcm(n/gcd(n,k),
    n/gcd(n,l)).  Averaging over the group gives the class count.
    """
    if not 2 <= n <= MAX_BURNSIDE_ORDER:
        raise ValueError(f"order must be in [2, {MAX_BURNSIDE_ORDER}], got {n}")
    cells = n * n
    total = 0
    for k in range(n):
        order_k = n // gcd(n, k)
        for l in range(n):
            order = lcm(order_k, n // gcd(n, l))
            total += 1 << (cells // order)
    count, remainder = divmod(total, cells)
    assert remainder == 0, "Burnside sum must be divisible by the group order"
    return count


def merge_reports(a: CountReport, b: CountReport) -> CountReport:
    """Combine reports of two disjoint shards of the same run.

    Counts add field-wise, elapsed takes the maximum (shards run in
    parallel), shard index sets union.  Commutative and associative.
    """
    if a.n != b.n:
        raise ValueError(f"cannot merge reports for orders {a.n} and {b.n}")
    if a.mode != b.mode:
        raise ValueError(f"cannot merge {a.mode!r} and {b.mode!r} reports")
    if a.shard_total != b.shard_total:
        raise ValueError(
            f"cannot merge shards of different partitions "
            f"({a.shard_total} vs {b.shard_total})"
        )
    if a.shard_indices & b.shard_indices:
        raise ValueError("cannot merge overlapping shards")
    return CountReport(
        n=a.n,
        mode=a.mode,
        q_count=a.q_count + b.q_count,
        q_bar=a.q_bar + b.q_bar,
        m_bar=a.m_bar + b.m_bar,
        r_bar=a.r_bar + b.r_bar,
        b_bar=None if a.b_bar is None else a.b_bar + b.b_bar,
        candidates_examined=a.candidates_examined + b.candidates_examined,
        elapsed=max(a.elapsed, b.elapsed),
        rejected_weavability=a.rejected_weavability + b.rejected_weavability,
        rejected_minimality=a.rejected_minimality + b.rejected_minimality,
        shard_total=a.shard_total,
        shard_indices=a.shard_indices | b.shard_indices,
    )


class _PrefixError(RuntimeError):
    """A prefix task failed, in this process or in a worker; names
    its prefix and chains the cause."""


def _prefix_worker(task):
    """Run one prefix, the task ``(cfg, wanted)``.  Return its report and
    its listing block: one tuple line per class listed under the list
    filter ``wanted``, or nothing when ``wanted`` is None.

    The census loop hands on a stem at a time (:func:`_census_loop`), so
    the stem's words are joined once.  A head's lines differ only in
    their last words, picked by its weavable bitset, and a prefix's
    heads share few such bitsets.  So the lines of a bitset are written
    once, as a template whose lines each start with a NUL, and each
    head's lines are its template with the NULs replaced by the stem's
    words and its row n - 2.  The stem's lines go to the block in one
    write.  The templates are kept by bitset for the task and dropped
    with it.
    """
    cfg, wanted = task
    if wanted is None:
        return _census_loop(cfg), ""
    # "all" lists every interweaving of the census; a symmetric filter
    # walks its table, whose interweavings are its classes.
    block = io.StringIO()
    words = [f"{w} " for w in range(1 << cfg.n)]
    ends = [f"\0{w}\n" for w in range(1 << cfg.n)]
    templates = {}  # weavable bitset -> its lines, each after a NUL

    def emit(stem, heads):
        text = "".join([words[w] for w in stem])
        lines = []
        for x, classes, weavable, orbits in heads:
            if weavable:
                template = templates.get(weavable)
                if template is None:
                    template = templates[weavable] = "".join(_select(ends, weavable))
                lines.append(template.replace("\0", text + words[x]))
        block.write("".join(lines))

    return _census_loop(cfg, emit, wanted=wanted), block.getvalue()


def _prefix_results(jobs: int, tasks: list):
    """``_prefix_worker``'s results over ``tasks``, in order.

    The builtin ``map`` runs the tasks in this process, unless ``jobs``
    workers can take two or more of them at once and ``os.fork`` exists:
    then :func:`interweave.workers.ordered_map` runs them on at most
    ``jobs`` forked workers, which inherit the tasks.  The workers start
    on the first ``next``.  At most ``2 * jobs`` tasks are handed out
    and not yet taken, so finished blocks wait in the parent only that
    many at a time.  A failed task raises in its turn, with the worker's
    traceback as its cause; a dead worker fails the first task in order
    without a result.  Closing the generator kills and reaps the
    workers, so no task starts after it.
    """
    if jobs < 2 or len(tasks) < 2 or not hasattr(os, "fork"):
        yield from map(_prefix_worker, tasks)
        return
    # Imported here: a one-process run neither compiles nor needs it.
    from .workers import ordered_map

    yield from ordered_map(_prefix_worker, tasks, jobs)


def _run_shards(
    cfg: EnumConfig,
    jobs: int = 1,
    wanted: Optional[str] = None,
    out=None,
    progress: Optional[Callable[[Shard, int], None]] = None,
) -> CountReport:
    """Run ``cfg``'s shard prefix by prefix; with a list filter ``wanted``,
    also write the listing, one tuple line per class in lexicographic
    order, to the text stream ``out``; the ``mirror`` and ``rotation``
    filters walk that symmetry's tables instead of the census, and the
    report counts what they walk (see :class:`CountReport`).
    ``progress(cfg.shard, candidates)`` fires after each (first, second)
    prefix with the running candidate count.

    Each prefix p of the shard is one task, run as shard p of P, where P
    is the prefix count, in this process or on at most ``jobs`` forked
    workers (see :func:`_prefix_results`).  Either way the parent writes
    each prefix's block and adds up its report in prefix order, and a
    task that fails, or whose worker dies, raises ``_PrefixError``
    naming its prefix.  No worker outlives the call, however it ends.
    The report's ``elapsed`` is the parent's wall time.  ``jobs`` below
    1, a ``wanted`` that is neither None nor one of ``LIST_FILTERS``, or
    a ``wanted`` with no ``out``, raises ``ValueError`` before any
    prefix runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if wanted not in (None, *LIST_FILTERS):
        raise ValueError(f"list filter must be one of {LIST_FILTERS}, got {wanted!r}")
    if wanted is not None and out is None:
        raise ValueError(f"a listing needs a text stream to write to, got out={out!r}")
    started = time.perf_counter()
    index, total = cfg.shard
    prefixes = _prefixes(cfg.n, cfg.mode)
    picked = range(index, len(prefixes), total)
    tasks = [(replace(cfg, shard=Shard(p, len(prefixes))), wanted) for p in picked]
    # Zero counts, labelled as none of the P prefixes.
    merged = CountReport(
        cfg.n, cfg.mode, 0, 0, 0, 0, 0 if cfg.mode == ALL else None, 0, 0.0,
        shard_total=len(prefixes), shard_indices=frozenset(),
    )
    # Closed on the way out, so a failed write does not wait for the
    # prefixes still queued.
    with closing(_prefix_results(jobs, tasks)) as results:
        for p in picked:
            try:
                report, block = next(results)
            except Exception as exc:
                first, second = prefixes[p][0]
                raise _PrefixError(
                    f"prefix {p} ({first} {second}) of order {cfg.n} failed: {exc}"
                ) from exc
            if wanted is not None:
                out.write(block)
            merged = merge_reports(merged, report)
            if progress is not None:
                progress(cfg.shard, merged.candidates_examined)
    return replace(
        merged,
        elapsed=time.perf_counter() - started,
        shard_total=total,
        shard_indices=frozenset({index}),
    )


def enumerate_sharded(
    n: int,
    mode: str = INTERWEAVINGS,
    shards: int = 1,
    jobs: Optional[int] = None,
    limit_override: bool = False,
    collect: Optional[str] = None,
):
    """Run a full census on ``jobs`` workers and label it as ``shards``
    merged slices.

    ``jobs`` defaults to ``min(shards, cpu_count)``; below 1 it raises
    ``ValueError``, as do ``shards`` below 1 and a ``collect`` that is
    neither None nor one of ``LIST_FILTERS``.  The run goes prefix by
    prefix through :func:`_run_shards`: in this process with one job, on
    forked workers with more.  Returns ``(report, rows)`` where ``rows``
    is the lexicographically sorted list of canonical row tuples listed
    under the list filter ``collect``, read back from the streamed
    listing, or None when ``collect`` is None.  With ``collect``
    ``"mirror"`` or ``"rotation"`` the run walks the symmetric tables,
    not the census, and the report counts the listed classes only (see
    :class:`CountReport`).
    """
    if shards < 1:
        raise ValueError(f"shard count must be positive, got {shards}")
    if jobs is None:
        jobs = min(shards, os.cpu_count() or 1)
    cfg = EnumConfig(n, mode, limit_override=limit_override)
    listing = None if collect is None else io.StringIO()
    report = replace(
        _run_shards(cfg, jobs, collect, listing),
        shard_total=shards,
        shard_indices=frozenset(range(shards)),
    )
    if listing is None:
        return report, None
    rows = [tuple(map(int, line.split())) for line in listing.getvalue().splitlines()]
    return report, rows
