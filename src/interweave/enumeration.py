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
is the first row at the rotations ("anchors") that carry them onto it;
0.78 pairs per candidate at order 5, against n**2 - 1 = 24 probes.  The
symmetry pass likewise starts only from rows that are rotations of the
mirror's or quarter turn's first row.

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

Enumeration scales as roughly ``2**(n*(n-1))`` candidates, so orders 6
and up are long-running jobs and must be requested explicitly via
``limit_override``.  Shards split the work by row prefix: the units are
the (first, second) row pairs that pass the tests above, in
lexicographic order (105 at order 5), and shard i of t takes every t-th
of them from the i-th on.  Dealing them round-robin balances the shards
without a work estimate.  Shards merge by addition, so large runs
parallelize with no shared state.

Under a process pool the prefix is also the unit of work.  Each task
runs one prefix, as shard p of P where P is the prefix count, and
returns its report and its listing block.  The classes of one prefix
form one contiguous run of the sorted listing, so the parent writes the
blocks in prefix order as they arrive and adds up the reports, without
sorting or comparing anything.  The parent holds only blocks that finish
ahead of their turn, so memory follows the largest blocks, not the
whole listing.
"""

from __future__ import annotations

import io
import itertools
import os
import time
from contextlib import closing
from dataclasses import dataclass, replace
from importlib.resources import files
from math import gcd, lcm
from typing import Callable, NamedTuple, Optional

from .bitmatrix import BitMatrix
from .classify import ClassRecord
from .formats import format_tuple
from .transforms import reverse_words, rotate90_words, rotate_words

INTERWEAVINGS = "interweavings"
ALL = "all"
MODES = (INTERWEAVINGS, ALL)

LIST_FILTERS = ("all", "mirror", "rotation")

MAX_ENUM_ORDER = 8
# Orders below this run in seconds to minutes; from here on a full
# enumeration is a multi-hour job and must be asked for explicitly.
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


def _shift_tables(n):
    """Per-order lookup tables of the census loop, indexed by row word.

    ``rotl[l][w]`` is w rotated right by l places, ``least[w]`` the least
    rotation of w, and ``anchors[w]`` the rotations l, ascending, with
    ``rotl[l][w] == least[w]``: more than one exactly when w is periodic.
    """
    words = range(1 << n)
    rotl = [rotate_words(words, l, n) for l in range(n)]
    least = [min(col) for col in zip(*rotl)]
    anchors = [
        tuple(l for l in range(n) if rotl[l][w] == least[w]) for w in words
    ]
    return rotl, least, anchors


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


def _minimality_scan(rows, rotl, least, anchors, n):
    """0 if some shift image is lexicographically smaller, else the
    stabilizer size (count of shift pairs mapping the matrix to itself).

    Exact only on the tuples the generator builds: rows[0] is a necklace
    and every row's least rotation is at least rows[0].  Then the first
    row of image (k, l), ``rotl[l][rows[k]]``, never falls below rows[0],
    and it ties exactly when ``least[rows[k]] == rows[0]`` and l is an
    anchor of rows[k].  Only those pairs are compared, word by word from
    the second row on.
    """
    r0 = rows[0]
    stab = 1
    for k in range(n):
        w = rows[k]
        if least[w] != r0:
            continue
        for l in anchors[w]:
            if not (k or l):
                continue
            rl = rotl[l]
            for i in range(1, n):
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
    n = cfg.n
    top = (1 << n) - 1
    weavable_mode = cfg.mode == INTERWEAVINGS
    index, total = cfg.shard

    rotl, least, anchors = _shift_tables(n)
    brev = reverse_words(range(1 << n), n)
    nn = n * n

    candidates = 0
    b_bar = q_bar = m_bar = r_bar = q_count = 0
    started = time.perf_counter()

    # The prefixes are dealt round-robin to the shards.
    for prefix, allowed in _prefixes(cfg, least)[index::total]:
        first, second = prefix
        for tail in itertools.product(allowed, repeat=n - 2):
            candidates += 1
            rows = prefix + tail
            ored = first | second
            anded = first & second
            for w in tail:
                ored |= w
                anded &= w
            # In all mode the fold also rejects a 0 or all-ones row;
            # every later row is >= first, so only the first can be 0.
            weavable = (
                ored == top
                and anded == 0
                and (weavable_mode or first != 0 and top not in rows)
            )
            if not weavable and weavable_mode:
                continue
            stab = _minimality_scan(rows, rotl, least, anchors, n)
            if stab == 0:
                continue
            orbit_size = nn // stab
            b_bar += 1
            if weavable:
                q_bar += 1
                q_count += orbit_size
                mrows = tuple(brev[w] for w in rows)
                rrows = rotate90_words(rows, n)
                mhit = _in_orbit(rows, mrows, rotl, least, anchors, n)
                rhit = _in_orbit(rows, rrows, rotl, least, anchors, n)
                if mhit:
                    m_bar += 1
                if rhit:
                    r_bar += 1
            else:
                mhit = rhit = False
            if sink is not None:
                sink(
                    ClassRecord(
                        canonical=BitMatrix(rows),
                        orbit_size=orbit_size,
                        is_interweaving=weavable,
                        self_mirror=mhit,
                        rotation_stable=rhit,
                    )
                )
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
        shard_total=total,
        shard_indices=frozenset({index}),
    )


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
        shard_total=a.shard_total,
        shard_indices=a.shard_indices | b.shard_indices,
    )


def matches_list_filter(rec: ClassRecord, wanted: str) -> bool:
    """Whether ``rec`` is listed under the list filter ``wanted``, one of
    :data:`LIST_FILTERS`: every interweaving, or only the self-mirror or
    rotation-stable ones (both flags are False off interweavings)."""
    if wanted == "mirror":
        return rec.self_mirror
    if wanted == "rotation":
        return rec.rotation_stable
    return rec.is_interweaving


def _listing_sink(out, wanted: str) -> Callable[[ClassRecord], None]:
    """Sink that writes each record listed under ``wanted`` to the text
    stream ``out`` as one tuple line."""

    def sink(rec: ClassRecord):
        if matches_list_filter(rec, wanted):
            out.write(format_tuple(rec.canonical) + "\n")

    return sink


class _PrefixError(RuntimeError):
    """A pool task failed; names its prefix and chains the cause."""


def _prefix_worker(task):
    """Pool worker: run one prefix; return its report and its listing
    block (empty without a list filter)."""
    cfg, wanted = task
    block = io.StringIO()
    sink = None if wanted is None else _listing_sink(block, wanted)
    return enumerate_classes(cfg, sink), block.getvalue()


def _pool_results(workers: int, tasks: list):
    """``_prefix_worker``'s results over ``tasks``, in order, from a pool
    of ``workers`` processes.

    The pool starts on the first ``next``, so a pool that breaks while
    tasks are still being handed out fails there like any task.
    Closing the generator cancels the tasks not yet started.
    """
    # Imported here: the pool machinery would slow every CLI start.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        yield from pool.map(_prefix_worker, tasks)


def _run_shards(
    cfg: EnumConfig,
    jobs: int = 1,
    wanted: Optional[str] = None,
    out=None,
    progress: Optional[Callable[[Shard, int], None]] = None,
) -> CountReport:
    """Run ``cfg``'s shard; with a list filter ``wanted``, also write the
    listing, one tuple line per class in lexicographic order, to the text
    stream ``out``.  ``progress(cfg.shard, candidates)`` fires after each
    (first, second) prefix with the running candidate count.

    With ``jobs == 1`` the shard runs in-process and streams straight to
    ``out``.  Otherwise a pool of at most ``jobs`` workers, and no more
    than the shard has prefixes, runs one task per prefix in prefix
    order; the parent writes each prefix's block and adds up its report
    as it arrives, so output and progress are those of the in-process
    run.  The report's ``elapsed`` is then the parent's wall time.  A
    task that fails or whose worker dies raises ``_PrefixError``.
    """
    index, total = cfg.shard
    prefixes = _prefixes(cfg, _shift_tables(cfg.n)[1]) if jobs > 1 else ()
    picked = range(index, len(prefixes), total)
    if not picked:  # one job, or a shard without a prefix to hand out
        sink = None if wanted is None else _listing_sink(out, wanted)
        step = None if progress is None else lambda c: progress(cfg.shard, c)
        return enumerate_classes(cfg, sink, step)
    started = time.perf_counter()
    tasks = [(replace(cfg, shard=Shard(p, len(prefixes))), wanted) for p in picked]
    merged = None
    # Closed on the way out, so a failed write does not wait for the
    # prefixes still queued.
    with closing(_pool_results(min(jobs, len(tasks)), tasks)) as results:
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
            merged = report if merged is None else merge_reports(merged, report)
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

    ``jobs`` defaults to ``min(shards, cpu_count)``.  One job runs
    in-process; more run the (first, second) prefixes in a process pool
    (see :func:`_run_shards`).  Returns ``(report, rows)`` where ``rows``
    is the lexicographically sorted list of canonical row tuples matching
    ``collect`` ("all", "mirror" or "rotation"), read back from the
    streamed listing, or None when ``collect`` is None.
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
    confirm each other where both run.  Mismatches are reported in the
    returned cells, never raised.
    """
    if not 2 <= n_max <= 5:
        raise ValueError(f"n_max must be in [2, 5], got {n_max}")
    if expected is None:
        expected = load_expected()
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
        report, _ = enumerate_sharded(n, INTERWEAVINGS, jobs=jobs)
        compare(n, "q_count", "enumerated", report.q_count)
        compare(n, "q_bar", "enumerated", report.q_bar)
        compare(n, "m_bar", "enumerated", report.m_bar)
        compare(n, "r_bar", "enumerated", report.r_bar)
        if n <= ENUMERATED_B_BAR_MAX:
            all_report, _ = enumerate_sharded(n, ALL, jobs=jobs)
            compare(n, "b_bar", "enumerated", all_report.b_bar)
        compare(n, "b_bar", "burnside", burnside_b_bar(n))
    return cells
