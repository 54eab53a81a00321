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
per head, and only the last row is left per candidate.  The head's OR
and AND fix the bits a last row must set and clear, so the last rows
that complete a weavable tuple are one ascending sublist of the row
list, cached per prefix under those two masks.  The minimality scan has
two halves.  The head half, :func:`_head_scan`, compares each anchored
image on the rows that involve head rows only: if one is already
smaller, every last row of the head is rejected at once; otherwise the
pairs that still tie go to the last-row half, :func:`_last_row_scan`,
which resumes them at the first row drawn from the last row and adds
the pairs anchored on the last row itself.  At order 5 the head half
rejects 127 666 of the 309 559 non-canonical candidates, on 7 796 of
the 55 125 heads; a last row that gets past it resumes 0.18 tied pairs
on average, and two thirds of them compare nothing at all.

The symmetry pass is gated by an exact necessary condition.  Let H(A)
count A's n**2 cyclic 2x2 windows (rows i, i+1 and columns j, j+1, mod
n) by their 16 patterns.  A shift pair is a translation of the torus,
so H is constant on a class.  The mirror maps each window to the
mirrored window, so H(mirror A) is H(A) with its patterns permuted, and
the quarter turn likewise.  A class the mirror maps to itself therefore
has sum_p (c[p] - c[mirror p]) * H(A)[p] = 0 for any fixed weights c,
and the same holds for the quarter turn.  The sum splits over the n
cyclic row pairs, one table lookup each (:func:`_window_tables`); the
head's pairs are added up once per head, so a last row adds two.  Only
a class whose sum is 0 gets the exact test, :func:`_in_orbit`, which
makes every positive decision: at order 5 that is 29 154 classes for
the mirror and 5 750 for the quarter turn, of 705 366.  The exact test
is anchored too: it starts only from rows that are rotations of the
target's first row.

The minimality scan doubles as a stabilizer count: the shift pairs
whose image equals the matrix itself form its stabilizer, and the orbit
size is n**2 divided by that count.  This avoids materializing image
sets for millions of candidates; :func:`~interweave.classify.classify`
and the 2-D test oracle are the references, and the test suite
reconciles the loop with both.

Column rotation, bit reversal and the quarter turn are the word
kernels of :mod:`interweave.transforms`: the lookup tables are built
from them and the symmetry pass calls them, so the library and the
census engine share one implementation of each.

The independent cross-check for the all-classes count is Burnside's
lemma over the shift group: pair (k, l) acting on the n-by-n index
torus fixes ``2**c`` matrices, where ``c`` is the number of cycles of
the translation, so the class count is the mean of ``2**c`` over all
n**2 pairs.  Exact integer arithmetic throughout — the ``2**(n*n)``
terms outgrow 64 bits from order 8 on.

Enumeration scales as roughly ``2**(n*(n-1))`` candidates.  Order 6,
2 105 231 424 candidates and about 18 CPU minutes, is a long-running
job and must be requested explicitly via ``limit_override``; order 7,
about 1.2e13 candidates, is out of reach and refused.  Shards split the
work by row prefix: the units are the (first, second) row pairs that
pass the tests above, in lexicographic order (105 at order 5), and
shard i of t takes every t-th of them from the i-th on.  Dealing them
round-robin balances the shards without a work estimate.  Shards merge
by addition, so large runs parallelize with no shared state.

The prefix is also the unit of every run.  :func:`_run_shards` runs
each prefix of its shard as one task, shard p of P where P is the prefix
count, which returns the prefix's report and its listing block.  With
one job the tasks run in this process; with more they run on a process
pool.  The classes of one prefix form one contiguous run of the sorted
listing, so the driver writes the blocks in prefix order as they arrive
and adds up the reports, without sorting or comparing anything.  Memory
follows the largest prefix block, not the whole listing.  Progress, the
merge and a failed prefix take one path with or without a pool.

The census loop, :func:`_census_loop`, hands each class on as the row
words it already holds, with its orbit size and flags.  A prefix task
writes a listed class's line straight from those words, so the listing
builds no ``BitMatrix`` and no ``ClassRecord``; only
:func:`enumerate_classes`, the library's record stream, wraps each
class in a record.
"""

from __future__ import annotations

import io
import itertools
import os
import time
from contextlib import closing
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib.resources import files
from math import gcd, lcm
from typing import Callable, NamedTuple, Optional

from .bitmatrix import BitMatrix
from .classify import ClassRecord
from .formats import _format_words
from .transforms import reverse_words, rotate90_words, rotate_words

INTERWEAVINGS = "interweavings"
ALL = "all"
MODES = (INTERWEAVINGS, ALL)

# In the order of the census loop's flags: weavable, self-mirror,
# rotation-stable.
LIST_FILTERS = ("all", "mirror", "rotation")

MAX_ENUM_ORDER = 6
# Orders below this run in seconds; a full order-6 enumeration takes
# about 18 CPU minutes (24 sampled prefixes ran at 1.96 M candidates per
# CPU second, for 2 105 231 424 candidates) and must be asked for
# explicitly.
OVERRIDE_ORDER = 6

MAX_BURNSIDE_ORDER = 16

# verify_table() runs the all-classes enumeration only up to this order
# (seconds of work); beyond it the class count is covered by the exact
# Burnside value, keeping a full verify inside a few minutes.
ENUMERATED_B_BAR_MAX = 4

EXPECTED_DATA = "data/censuses.txt"


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
                f"order {self.n} enumeration is a long-running job; "
                "pass limit_override to run it anyway"
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
    classes, ``q_bar`` (``b_bar`` in all mode).
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


def _prefixes(cfg: EnumConfig, least):
    """The (first, second) row prefixes of ``cfg``'s order and mode in
    lexicographic order, each with the ascending words its later rows
    are drawn from.

    First rows are necklaces, and later rows rotate to nothing below the
    first.  One-colour rows never code a fabric, so interweavings skip
    them.
    """
    top = (1 << cfg.n) - 1
    lo, hi = (1, top - 1) if cfg.mode == INTERWEAVINGS else (0, top)
    prefixes = []
    for first in range(lo, hi + 1):
        if least[first] != first:
            continue
        allowed = [w for w in range(first, hi + 1) if least[w] >= first]
        prefixes.extend(((first, second), allowed) for second in allowed)
    return prefixes


def _head_scan(head, rotl, least, anchors, n):
    """The first half of the minimality scan of ``head + (w,)``, decided
    from the head, the first n - 1 rows, for every last row w at once.

    None if some shift image is already lexicographically smaller on the
    head rows alone; otherwise the anchored pairs (k, l) with k < n - 1
    that still tie there, each as ``(k, l, i0)``: rows 1 .. i0 - 1 of
    image (k, l) are head rows and equal the matrix's, and row
    i0 = n - 1 - k is the first one drawn from the last row.

    Exact only on the tuples the generator builds: rows[0] is a necklace
    and every row's least rotation is at least rows[0].  Then the first
    row of image (k, l), ``rotl[l][rows[k]]``, never falls below rows[0],
    and it ties exactly when ``least[rows[k]] == rows[0]`` and l is an
    anchor of rows[k].  Only those pairs are compared, word by word from
    the second row on.
    """
    r0 = head[0]
    tied = []
    for k in range(n - 1):
        w = head[k]
        if least[w] != r0:
            continue
        i0 = n - 1 - k
        for l in anchors[w]:
            if not (k or l):
                continue
            rl = rotl[l]
            for i in range(1, i0):
                v = rl[head[k + i]]
                ri = head[i]
                if v != ri:
                    if v < ri:
                        return None
                    break
            else:
                tied.append((k, l, i0))
    return tied


def _last_row_scan(rows, tied, rotl, least, anchors, n):
    """The second half of the minimality scan: 0 if some shift image of
    ``rows`` is lexicographically smaller, else the stabilizer size
    (count of shift pairs mapping the matrix to itself).

    ``tied`` is :func:`_head_scan` of ``rows[:-1]``.  Each of its pairs
    resumes at its row i0; the pairs anchored on the last row itself,
    (n - 1, l) for l an anchor of rows[-1] when its least rotation is
    rows[0], start at row 1.
    """
    w = rows[-1]
    if least[w] == rows[0]:
        tied = tied + [(n - 1, l, 1) for l in anchors[w]]
    stab = 1
    for k, l, i0 in tied:
        rl = rotl[l]
        for i in range(i0, n):
            j = k + i
            if j >= n:
                j -= n
            v = rl[rows[j]]
            ri = rows[i]
            if v != ri:
                if v < ri:
                    return 0
                break
        else:
            stab += 1
    return stab


def _in_orbit(rows, target, rotl, least, anchors, n):
    """Whether some shift image of ``rows`` equals ``target``.

    Image (k, l) starts with ``target[0]`` only if rows[k] is a rotation
    of it, i.e. ``least[rows[k]] == least[target[0]]``.  With b an anchor
    of target[0], the rotations carrying rows[k] onto target[0] are
    l = (a - b) % n for a in ``anchors[rows[k]]``; only those pairs are
    compared.  Exact for any row tuple.
    """
    t0 = target[0]
    key = least[t0]
    b = anchors[t0][0]
    for k in range(n):
        w = rows[k]
        if least[w] != key:
            continue
        for a in anchors[w]:
            rl = rotl[(a - b) % n]
            for i in range(1, n):
                j = k + i
                if j >= n:
                    j -= n
                if rl[rows[j]] != target[i]:
                    break
            else:
                return True
    return False


def _census_loop(
    cfg: EnumConfig,
    emit: Optional[Callable[..., None]] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> CountReport:
    """The census of this shard's slice, handing each class to ``emit``
    as ``(rows, orbit_size, weavable, self_mirror, rotation_stable)``,
    with ``rows`` its canonical row-word tuple.

    Classes come in lexicographic order of ``rows`` and are never
    accumulated here, so memory stays O(1) in the class count.  In
    ``interweavings`` mode only weavable classes are generated; in
    ``all`` mode every class is, and ``weavable`` is decided per class.
    ``progress`` (if given) receives the running candidate count after
    each (first, second) row prefix.
    """
    n = cfg.n
    top = (1 << n) - 1
    weavable_mode = cfg.mode == INTERWEAVINGS
    index, total = cfg.shard

    rotl, least, anchors, brev = _shift_tables(n)
    mwin, rwin = _window_tables(n)
    nn = n * n

    candidates = rejected_weavability = rejected_minimality = 0
    b_bar = q_bar = m_bar = r_bar = q_count = 0
    started = time.perf_counter()

    # The prefixes are dealt round-robin to the shards.
    for prefix, allowed in _prefixes(cfg, least)[index::total]:
        first = prefix[0]
        candidates += len(allowed) ** (n - 2)  # the tuples below
        if n == 2:  # the prefix is the whole tuple
            heads, pool = (prefix[:1],), prefix[1:]
        else:
            heads = (prefix + mid for mid in itertools.product(allowed, repeat=n - 3))
            pool = allowed
        fits = {}  # last rows that complete a weavable tuple, by (need, forbid)
        for head in heads:
            ored, anded = 0, top
            for w in head:
                ored |= w
                anded &= w
            # A last row w completes the fold when it sets every bit
            # the head leaves clear and clears every bit it sets.
            need, forbid = top & ~ored, anded
            if weavable_mode:
                lasts = fits.get((need, forbid))
                if lasts is None:
                    lasts = fits[need, forbid] = [
                        w for w in pool if w & need == need and not w & forbid
                    ]
                rejected_weavability += len(pool) - len(lasts)
            else:
                # The fold also rejects a 0 or all-ones row; every later
                # row is >= first, so only the first can be 0.
                lasts = pool
                two_colour = first != 0 and top not in head
            if not lasts:
                continue
            tied = _head_scan(head, rotl, least, anchors, n)
            if tied is None:
                rejected_minimality += len(lasts)
                continue
            # Window sums over the head's row pairs; each last row w
            # adds the pairs (head[-1], w) and (w, first).
            msum = rsum = 0
            u = head[0]
            for v in head[1:]:
                key = u << n | v
                msum += mwin[key]
                rsum += rwin[key]
                u = v
            u <<= n
            for w in lasts:
                # With no tied pair and no anchor on the last row, no
                # image ties on the first row: canonical, stabilizer 1.
                if tied or least[w] == first:
                    stab = _last_row_scan(head + (w,), tied, rotl, least, anchors, n)
                    if not stab:
                        rejected_minimality += 1
                        continue
                    orbit_size = nn // stab
                else:
                    orbit_size = nn
                b_bar += 1
                weavable = weavable_mode or (
                    two_colour and w != top and w & need == need and not w & forbid
                )
                mhit = rhit = False
                if weavable:
                    q_bar += 1
                    q_count += orbit_size
                    # Window gate: a symmetric class has a zero window sum.
                    wf = w << n | first
                    mgate = msum + mwin[u | w] + mwin[wf] == 0
                    rgate = rsum + rwin[u | w] + rwin[wf] == 0
                    if mgate or rgate:
                        rows = head + (w,)
                        mhit = mgate and _in_orbit(
                            rows, tuple([brev[v] for v in rows]), rotl, least, anchors, n
                        )
                        rhit = rgate and _in_orbit(
                            rows, rotate90_words(rows, n), rotl, least, anchors, n
                        )
                        m_bar += mhit
                        r_bar += rhit
                if emit is not None:
                    emit(head + (w,), orbit_size, weavable, mhit, rhit)
        if progress is not None:
            progress(candidates)

    return CountReport(
        n=n,
        mode=cfg.mode,
        q_count=q_count,
        q_bar=q_bar,
        m_bar=m_bar,
        r_bar=r_bar,
        b_bar=b_bar if cfg.mode == ALL else None,
        candidates_examined=candidates,
        elapsed=time.perf_counter() - started,
        rejected_weavability=rejected_weavability,
        rejected_minimality=rejected_minimality,
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
    row tuples and are never accumulated here, so memory stays O(1) in
    the class count.  In ``interweavings`` mode only weavable classes
    are generated; in ``all`` mode every class is, and the weaving
    flags are filled per record.  ``progress`` (if given) receives the
    running candidate count after each (first, second) row prefix.
    """
    emit = None
    if sink is not None:

        def emit(rows, *fields):
            sink(ClassRecord(BitMatrix(rows), *fields))

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
    """A prefix task failed, in this process or in a pool worker; names
    its prefix and chains the cause."""


def _prefix_worker(task):
    """Run one prefix, the task ``(cfg, wanted)``.  Return its report and
    its listing block: one tuple line per class listed under the list
    filter ``wanted``, or nothing when ``wanted`` is None."""
    cfg, wanted = task
    if wanted is None:
        return _census_loop(cfg), ""
    # The filter's flag among the loop's flags after the orbit size.
    # "all" lists every interweaving; the symmetry flags are False off
    # interweavings.
    pick = LIST_FILTERS.index(wanted) + 1
    block = io.StringIO()

    def emit(rows, *fields):
        if fields[pick]:
            block.write(_format_words(rows) + "\n")

    return _census_loop(cfg, emit), block.getvalue()


def _prefix_results(jobs: int, tasks: list):
    """``_prefix_worker``'s results over ``tasks``, in order.

    The builtin ``map`` runs the tasks in this process, unless ``jobs``
    workers can take two or more of them at once: then a pool of at most
    ``jobs`` processes runs them.  The pool starts on the first ``next``,
    so a pool that breaks while tasks are still being handed out fails
    there like any task.  Closing the generator cancels the tasks not
    yet started.
    """
    if jobs < 2 or len(tasks) < 2:
        yield from map(_prefix_worker, tasks)
        return
    # Imported here: the pool machinery would slow every CLI start.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(jobs, len(tasks))) as pool:
        yield from pool.map(_prefix_worker, tasks)


def _run_shards(
    cfg: EnumConfig,
    jobs: int = 1,
    wanted: Optional[str] = None,
    out=None,
    progress: Optional[Callable[[Shard, int], None]] = None,
) -> CountReport:
    """Run ``cfg``'s shard prefix by prefix; with a list filter ``wanted``,
    also write the listing, one tuple line per class in lexicographic
    order, to the text stream ``out``.  ``progress(cfg.shard, candidates)``
    fires after each (first, second) prefix with the running candidate
    count.

    Each prefix p of the shard is one task, run as shard p of P, where P
    is the prefix count, in this process or on a pool of at most ``jobs``
    workers (see :func:`_prefix_results`).  Either way the parent writes
    each prefix's block and adds up its report in prefix order, and a
    task that fails, or whose worker dies, raises ``_PrefixError``
    naming its prefix.  The report's ``elapsed`` is the parent's wall
    time.  ``jobs`` below 1 raises ``ValueError``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    started = time.perf_counter()
    index, total = cfg.shard
    prefixes = _prefixes(cfg, _shift_tables(cfg.n)[1])
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
    ``ValueError``.  The run goes prefix by prefix through
    :func:`_run_shards`: in this process with one job, on a process pool
    with more.  Returns ``(report, rows)`` where ``rows`` is the
    lexicographically sorted list of canonical row tuples listed under
    the list filter ``collect``, read back from the streamed listing, or
    None when ``collect`` is None.
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


# -- reference constants and verification -----------------------------------

EXPECTED_KEYS = ("q_count", "b_bar", "q_bar", "m_bar", "r_bar")


def load_expected(path: Optional[str] = None) -> dict:
    """Reference census constants as {(order, key): value}.

    Reads the packaged fixture by default, or any file in the same
    format: one ``order key value`` triple per line, blank lines and
    ``#`` comments ignored.  A malformed or repeated line raises
    ``ValueError`` naming its file and line.
    """
    if path is None:
        text = files("interweave").joinpath(EXPECTED_DATA).read_text()
        source = EXPECTED_DATA
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        source = path
    expected = {}
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"{source}:{lineno}: expected 'order key value', got {line!r}"
            )
        n_text, key, value_text = parts
        if key not in EXPECTED_KEYS:
            raise ValueError(f"{source}:{lineno}: unknown count key {key!r}")
        try:
            n, value = int(n_text), int(value_text)
        except ValueError:
            raise ValueError(
                f"{source}:{lineno}: order and value must be integers"
            ) from None
        if (n, key) in first_line:
            raise ValueError(
                f"{source}:{lineno}: order {n} {key} repeats line "
                f"{first_line[n, key]}"
            )
        first_line[n, key] = lineno
        expected[n, key] = value
    return expected


@dataclass(frozen=True)
class VerifyCell:
    """One compared census cell: expected vs computed, with the method."""

    n: int
    key: str
    method: str  # "enumerated" or "burnside"
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def verify_table(
    n_max: int,
    expected: Optional[dict] = None,
    jobs: Optional[int] = None,
) -> list[VerifyCell]:
    """Recompute the census for orders 2..n_max and diff every cell
    against the reference constants.

    Interweaving counts are always enumerated.  The all-classes count
    is enumerated up to order ``ENUMERATED_B_BAR_MAX`` and checked by
    the Burnside formula at every order, so the two independent methods
    confirm each other where both run.  Each census runs through
    :func:`_run_shards` on ``jobs`` workers (default 1; below 1 raises
    ``ValueError``).  Mismatches are reported in the returned cells,
    never raised.
    """
    if not 2 <= n_max <= 5:
        raise ValueError(f"n_max must be in [2, 5], got {n_max}")
    if expected is None:
        expected = load_expected()
    jobs = 1 if jobs is None else jobs
    cells = []

    def compare(n, key, method, actual):
        if (n, key) not in expected:
            raise ValueError(f"no expected constant for order {n} key {key!r}")
        cells.append(
            VerifyCell(
                n=n, key=key, method=method, expected=expected[n, key], actual=actual
            )
        )

    for n in range(2, n_max + 1):
        report = _run_shards(EnumConfig(n, INTERWEAVINGS), jobs)
        for key in ("q_count", "q_bar", "m_bar", "r_bar"):
            compare(n, key, "enumerated", getattr(report, key))
        if n <= ENUMERATED_B_BAR_MAX:
            all_report = _run_shards(EnumConfig(n, ALL), jobs)
            compare(n, "b_bar", "enumerated", all_report.b_bar)
        compare(n, "b_bar", "burnside", burnside_b_bar(n))
    return cells
