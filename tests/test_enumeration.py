"""Census generation, the Burnside cross-check, shard merging, verify."""

import io
import itertools
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial, reduce
from operator import and_, or_

import pytest

import oracle
from interweave import enumeration
from interweave import (
    ALL,
    INTERWEAVINGS,
    BitMatrix,
    EnumConfig,
    Shard,
    VerifyCell,
    burnside_b_bar,
    classify,
    enumerate_classes,
    enumerate_sharded,
    format_tuple,
    is_canonical,
    is_weavable,
    load_expected,
    merge_reports,
    orbit,
    verify_table,
)
from interweave.enumeration import (
    LIST_FILTERS,
    MODES,
    _census_loop,
    _prefix_pairs,
    _PrefixError,
    _prefixes,
    _run_shards,
    _scan,
    _stem_scan,
)
from interweave.tables import (
    _admitting,
    _bit_tables,
    _bitset,
    _cells,
    _cycles,
    _select,
    _shift_tables,
    _symmetric_table,
)
from interweave.transforms import reverse_words, rotate90_words, rotate_words

SMALL_CENSUS = {
    # n: (q_count, b_bar, q_bar, m_bar, r_bar)
    2: (2, 7, 1, 1, 1),
    3: (102, 64, 14, 2, 2),
    4: (22874, 4156, 1446, 142, 18),
}


def _run(n, mode, **kwargs):
    records = []
    report = enumerate_classes(EnumConfig(n, mode, **kwargs), records.append)
    return report, records


# -- config validation -----------------------------------------------------------

def test_config_rejects_bad_orders():
    with pytest.raises(ValueError):
        EnumConfig(1)
    with pytest.raises(ValueError):
        EnumConfig(9)


def test_config_rejects_bad_mode_and_shard():
    with pytest.raises(ValueError):
        EnumConfig(3, "everything")
    with pytest.raises(ValueError):
        EnumConfig(3, shard=Shard(2, 2))
    with pytest.raises(ValueError):
        EnumConfig(3, shard=Shard(0, 0))


def test_large_orders_gated_behind_override():
    with pytest.raises(ValueError):
        EnumConfig(6)
    assert EnumConfig(6, limit_override=True).n == 6


def test_enumeration_is_capped_at_order_6():
    # Order 7 is about 1.2e13 candidates; the override does not reach it.
    assert enumeration.MAX_ENUM_ORDER == 6
    with pytest.raises(ValueError, match=r"order must be in \[2, 6\], got 7"):
        EnumConfig(7, limit_override=True)


# -- census values ------------------------------------------------------------------

@pytest.mark.parametrize("n", sorted(SMALL_CENSUS))
def test_interweavings_census(n):
    q_count, _, q_bar, m_bar, r_bar = SMALL_CENSUS[n]
    report, records = _run(n, INTERWEAVINGS)
    assert report.q_count == q_count
    assert report.q_bar == q_bar == len(records)
    assert report.m_bar == m_bar
    assert report.r_bar == r_bar
    assert report.b_bar is None


@pytest.mark.parametrize("n", sorted(SMALL_CENSUS))
def test_all_classes_census(n):
    q_count, b_bar, q_bar, m_bar, r_bar = SMALL_CENSUS[n]
    report, records = _run(n, ALL)
    assert report.b_bar == b_bar == len(records)
    assert (report.q_count, report.q_bar) == (q_count, q_bar)
    assert (report.m_bar, report.r_bar) == (m_bar, r_bar)


def test_order2_single_interweaving_record():
    report, records = _run(2, INTERWEAVINGS)
    (rec,) = records
    assert rec.canonical == BitMatrix((1, 2))
    assert rec.orbit_size == 2
    assert rec.is_interweaving and rec.self_mirror and rec.rotation_stable
    assert report.q_count == 2


def test_report_count_invariants():
    for n in sorted(SMALL_CENSUS):
        report, _ = _run(n, ALL)
        assert report.m_bar <= report.q_bar
        assert report.r_bar <= report.q_bar
        assert report.q_count <= 1 << (n * n)
        assert report.candidates_examined > 0
        assert report.elapsed >= 0


@pytest.mark.parametrize("n", (3, 4))
def test_records_are_sorted_canonical_and_mode_consistent(n):
    # Ties the inline weavability fold, the minimality scan and the
    # symmetry pass to the library's classify, record by record.
    for mode in (INTERWEAVINGS, ALL):
        _, records = _run(n, mode)
        rows = [rec.canonical.rows for rec in records]
        assert rows == sorted(rows)
        for rec in records:
            assert is_canonical(rec.canonical)
            assert rec.orbit_size == len(orbit(rec.canonical))
            if mode == INTERWEAVINGS:
                assert rec.is_interweaving
            else:
                assert rec.is_interweaving == is_weavable(rec.canonical)
            assert classify(rec.canonical) == rec


# -- brute-force equivalence ---------------------------------------------------------

@pytest.mark.parametrize("n", (2, 3, 4))
def test_matches_brute_force_partition(n):
    sizes = oracle.partition_by_class(n)
    assert sum(sizes.values()) == 1 << (n * n)

    _, records = _run(n, ALL)
    enumerated = {rec.canonical.rows: rec.orbit_size for rec in records}
    assert enumerated == {
        oracle.grid_to_words(rep): size for rep, size in sizes.items()
    }

    _, weavable_records = _run(n, INTERWEAVINGS)
    expected_weavable = {
        oracle.grid_to_words(rep) for rep in sizes if oracle.is_weavable_grid(rep)
    }
    assert {r.canonical.rows for r in weavable_records} == expected_weavable


def _least_rotation(word, n):
    mask = (1 << n) - 1
    return min((word >> l | word << (n - l)) & mask for l in range(n))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_necklace_prune_loses_no_representative(n):
    # Soundness of generating only tuples whose first word is a necklace
    # and whose later words rotate to nothing below it: every
    # brute-force canonical form passes both tests.
    for rep in oracle.partition_by_class(n):
        first, *later = oracle.grid_to_words(rep)
        assert _least_rotation(first, n) == first
        assert all(_least_rotation(w, n) >= first for w in later)


# -- anchored scans ---------------------------------------------------------------

def _rotations_by_string(word, n):
    """Rotation l -> word rotated right by l, via its binary string."""
    bits = format(word, f"0{n}b")
    return [int(bits[n - l :] + bits[: n - l], 2) for l in range(n)]


@pytest.mark.parametrize("n", range(2, 9))
def test_anchors_are_the_rotations_onto_the_least(n):
    _, least, anchors = _shift_tables(n)
    for w in range(1 << n):
        rotations = _rotations_by_string(w, n)
        assert least[w] == min(rotations)
        expected = {l for l in range(n) if rotations[l] == least[w]}
        assert anchors[w] and set(anchors[w]) == expected


def _census_stems(first, second, later, n):
    """The stems of the prefix (first, second) as the census loop walks
    them, each with the dict of its rows n - 2, every word of ``later``,
    to the bitset of ``later`` as their last rows.  Below order 4 the
    prefix holds the stem and row n - 2, and at order 2 the second row
    is the last row itself."""
    if n == 2:
        return [((), {first: 1 << second})]
    pool = _bitset(later)
    if n == 3:
        return [((first,), {second: pool})]
    xs = dict.fromkeys(later, pool)
    mids = itertools.product(later, repeat=n - 4)
    return [((first, second) + mid, xs) for mid in mids]


def _anchored_cases(stem, x, first, anchored, n):
    """Where x falls against the stem word y that row n - 2 of each
    anchored pair (n - 1, l) puts it against, for the pairs that tie on
    the stem rows: "below", "at" or "above"."""
    rotl = _shift_tables(n)[0]
    for l in anchored:
        rl = rotl[l]
        if all(rl[stem[i - 1]] == stem[i] for i in range(2, n - 2)):
            y = rl[stem[-1]] if stem else first
            yield "below" if x < y else "at" if x == y else "above"


@pytest.mark.parametrize("n", (2, 3, 4))
def test_last_row_bits_on_every_generated_shape(n):
    # Every tuple the generator could build, over the full word range,
    # decided per stem as the census loop decides it: the stem scan for
    # every row n - 2 and last row at once, then the body's bitsets per
    # head.  The body runs in all mode, so every head with a class is
    # handed on.
    least = _shift_tables(n)[1]
    words = range(1 << n)
    seen = {"stem": 0, "row": 0, "rejected": 0, "stabilized": 0}
    cases = {"below": 0, "at": 0, "above": 0}
    for first in words:
        if least[first] != first:
            continue
        later = [w for w in words if least[w] >= first]
        for second in later:
            pairs = _prefix_pairs(first, second, n)
            anchored, turns = pairs[2:]
            for stem, xs in _census_stems(first, second, later, n):
                rejects = _stem_scan(stem, xs, first, anchored, turns, n)[0]
                seen["stem"] += rejects == -1
                seen["row"] += sum(rejects >> x & 1 for x in xs)
                found = {}

                def emit(head, classes, weavable, orbits):
                    found[head] = classes, orbits

                _scan(n, False, first, pairs, [(stem, xs)], emit)
                for x, pool in xs.items():
                    head = stem + (x,)
                    classes, orbits = found.get(head, (0, {}))
                    if rejects >> x & 1:
                        assert head not in found, head
                    else:
                        for case in _anchored_cases(stem, x, first, anchored, n):
                            cases[case] += 1
                    for w in _select(words, pool):
                        grid = oracle.words_to_grid(head + (w,), n)
                        images = oracle.images(grid)
                        if classes >> w & 1:
                            assert min(images) == grid, head + (w,)
                            assert orbits.get(w, n * n) == len(images), head + (w,)
                            seen["stabilized"] += len(images) < n * n
                        else:
                            assert min(images) != grid, head + (w,)
                            seen["rejected"] += 1
                    assert all(classes >> w & 1 for w in orbits), head
    assert seen["rejected"] and seen["stabilized"], seen
    # Order 2 has no head pair to compare, and order 3 none on stem rows.
    assert (seen["row"] > 0) == (n > 2), seen
    assert (seen["stem"] > 0) == (n > 3), seen
    # Below order 4 x is the one word y; from order 4 on it falls on
    # every side of it.
    assert cases["at"] > 0, cases
    assert (cases["below"] > 0) == (cases["above"] > 0) == (n > 3), cases


@pytest.mark.parametrize("n", (2, 3, 4))
def test_scan_halves_on_every_generated_shape(n):
    # Every tuple the generator could build, over the full word range,
    # one tuple at a time: the stem scan decides from the first n - 2
    # rows alone, for every row n - 2 and last row, and the tuple's
    # class is its last row that the prefix leaves alive after its row
    # n - 2, outside the dead sets and the entry's rejects of its row
    # n - 2, with stabilizer 1 plus the entry's pairs that fix the last
    # row.
    least = _shift_tables(n)[1]
    words = range(1 << n)
    decided = {"stem": 0, "last row": 0, "turn": 0, "tied": 0}
    cases = {"below": 0, "at": 0, "above": 0}
    for first in words:
        if least[first] != first:
            continue
        later = [w for w in words if least[w] >= first]
        for mid in itertools.product(later, repeat=n - 2):
            head = (first,) + mid
            stem, x = head[:-1], head[-1]
            for w in later:
                rows = head + (w,)
                dead, alive, anchored, turns = _prefix_pairs(first, rows[1], n)
                scan = _stem_scan(stem, (x,), first, anchored, turns, n)
                rejects, stem_dead, entries = scan
                grid = oracle.words_to_grid(rows, n)
                images = oracle.images(grid)
                if rejects >> x & 1:
                    decided["stem"] += 1
                    assert min(images) != grid, rows
                    continue
                for case in _anchored_cases(stem, x, first, anchored, n):
                    cases[case] += 1
                rejected, *tied = entries.get(x, [0])
                if not alive[x] >> w & 1:
                    decided["turn"] += 1
                    assert min(images) != grid, rows
                elif (dead | stem_dead | rejected) >> w & 1:
                    decided["last row"] += 1
                    assert min(images) != grid, rows
                else:
                    stab = 1 + sum(tie >> w & 1 for tie in tied)
                    decided["tied"] += stab > 1
                    assert min(images) == grid, rows
                    assert n * n // stab == len(images), rows
    assert decided["last row"] > 0 and decided["tied"] > 0, decided
    # Order 2 has no head pair to compare, and no turn pair.
    assert (decided["stem"] > 0) == (decided["turn"] > 0) == (n > 2), decided
    assert cases["at"] > 0, cases
    assert (cases["below"] > 0) == (cases["above"] > 0) == (n > 3), cases


def test_order5_sends_few_heads_to_the_last_row_bits(monkeypatch):
    # Each stem decides the last rows of all its heads at once: the
    # order-5 census and its walks of the symmetric tables decide 2 480
    # stems, once each, of 55 701 heads, whether the run lists or
    # counts, and past the stem and the prefix their entries decide
    # 7 838 heads; no head calls a scan of its own.  A count's census
    # runs only the heads on which a pair ties through the loop body,
    # 30 of them, and takes the others from its stem-fold memo.
    real, real_scan = enumeration._stem_scan, enumeration._scan
    calls = {"stem": 0, "heads": 0, "decided": 0, "body": 0}
    counting = []  # whether each running scan is a count's census

    def stem_scan(stem, xs, *args):
        rejects, dead, entries = real(stem, xs, *args)
        decided = [x for x in entries if x in xs and not rejects >> x & 1]
        calls["stem"] += 1
        calls["heads"] += len(xs)
        calls["decided"] += len(decided)
        if counting[-1]:
            calls["body"] += sum(len(entries[x]) > 1 for x in decided)
        return rejects, dead, entries

    def scan(n, weavable_mode, first, pairs, stems, emit, memo=None):
        counting.append(emit is None and memo is not None)
        try:
            return real_scan(n, weavable_mode, first, pairs, stems, emit, memo)
        finally:
            counting.pop()

    monkeypatch.setattr(enumeration, "_stem_scan", stem_scan)
    monkeypatch.setattr(enumeration, "_scan", scan)
    for emit in (None, lambda *a: None):
        calls.update(stem=0, heads=0, decided=0, body=0)
        report = _census_loop(EnumConfig(5), emit)
        assert (report.q_bar, report.rejected_minimality) == (705366, 309559)
        body = 30 if emit is None else 0
        assert calls == {"stem": 2480, "heads": 55701, "decided": 7838, "body": body}


def test_order6_prefixes_match_brute_force():
    # The smallest order-6 prefixes, the last six, with three middle
    # rows each, and the nine of the periodic first row 27, three of
    # which anchor pairs on the last row, with four: their tuples are
    # every (first, second) + later rows, and the classes are exactly
    # the weavable canonical ones, in order.  A count of each equals its
    # scans.
    cfg = EnumConfig(6, limit_override=True)
    prefixes = _prefixes(6, INTERWEAVINGS)
    assert len(prefixes) == 384
    smallest = [p for p, (_, allowed) in enumerate(prefixes) if len(allowed) == 6]
    assert smallest == list(range(378, 384))
    periodic = [p for p, (prefix, _) in enumerate(prefixes) if prefix[0] == 27]
    assert periodic == list(range(369, 378))
    anchoring = [p for p in periodic if _prefix_pairs(*prefixes[p][0], 6)[2]]
    assert anchoring == [369, 371, 373]
    classes = 0
    for p in periodic + smallest:
        prefix, allowed = prefixes[p]
        expected, unweavable, not_canonical = [], 0, 0
        for mid in itertools.product(allowed, repeat=4):
            a = BitMatrix(prefix + mid)
            if not is_weavable(a):
                unweavable += 1
            elif not is_canonical(a):
                not_canonical += 1
            else:
                expected.append(classify(a))

        records = []
        shard = replace(cfg, shard=Shard(p, 384))
        report = enumerate_classes(shard, records.append)
        assert records == expected, p
        assert report.candidates_examined == len(allowed) ** 4
        assert report.rejected_weavability == unweavable
        assert report.rejected_minimality == not_canonical
        assert report.q_bar == len(records)
        assert report.q_count == sum(rec.orbit_size for rec in records)
        assert report.m_bar == sum(rec.self_mirror for rec in records)
        assert report.r_bar == sum(rec.rotation_stable for rec in records)
        _assert_count_equals_scans(shard)
        classes += len(records)
    assert classes > 0


def test_stem_scan_decides_order5_rejects_once_per_stem(monkeypatch):
    # A head whose shift image is already smaller rejects all of its
    # weavable last rows at once, and the stem scan rejects such heads
    # for every row n - 2 of their stem at once; at order 5 that is
    # 127 666 of the 309 559 minimality rejects.  A count's walks of the
    # symmetric tables reject heads too, and their weavable rows from the
    # pool add 1 016: the walks alone decide exactly that many.
    real = enumeration._scan
    least = _shift_tables(5)[1]
    decided = 0

    def counted(n, weavable_mode, first, pairs, stems, *rest):
        nonlocal decided
        stems = list(stems)
        anchored, turns = pairs[2:]
        for stem, xs in stems:
            rejects = _stem_scan(stem, xs, first, anchored, turns, n)[0]
            decided += sum(
                is_weavable(BitMatrix(stem + (x, w)))
                for x in xs
                if rejects >> x & 1
                for w in range(first, 1 << n)
                if least[w] >= first
            )
        return real(n, weavable_mode, first, pairs, stems, *rest)

    monkeypatch.setattr(enumeration, "_scan", counted)
    report = enumerate_classes(EnumConfig(5))
    assert report.q_bar == 705366
    assert report.rejected_minimality == 309559
    assert decided == 128682
    for wanted in ("mirror", "rotation"):
        _census_loop(EnumConfig(5), wanted=wanted)
    assert decided == 128682 + 1016


# -- quiet heads ----------------------------------------------------------------------

def _is_quiet(head, n):
    """True iff no shift image can tie ``head + (w,)`` past its first row:
    the first row is aperiodic and no later head row is a rotation of it."""
    least, anchors = _shift_tables(n)[1:]
    first = head[0]
    return len(anchors[first]) == 1 and all(least[w] != first for w in head[1:])


def _assert_count_equals_scans(cfg):
    # A count runs only the tied heads through the body; any run with an
    # emit runs every head the stems keep.  Everything but the time must
    # agree.
    count = replace(_census_loop(cfg), elapsed=0.0)
    assert count == replace(_census_loop(cfg, lambda *a: None), elapsed=0.0), cfg


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_count_of_each_prefix_equals_its_scans(n, mode):
    cfg = EnumConfig(n, mode)
    total = len(_prefixes(n, mode))
    for p in range(total):
        _assert_count_equals_scans(replace(cfg, shard=Shard(p, total)))


def test_count_of_quiet_order6_prefixes_equals_their_scans():
    # The quiet prefixes of first row 23, nine of its fifteen: the
    # smallest order-6 prefixes with quiet stems of two middle rows.
    cfg = EnumConfig(6, limit_override=True)
    prefixes = _prefixes(6, INTERWEAVINGS)
    quiet = [
        p for p, (prefix, _) in enumerate(prefixes)
        if prefix[0] == 23 and _is_quiet(prefix, 6)
    ]
    assert len(quiet) == 9
    for p in quiet:
        _assert_count_equals_scans(replace(cfg, shard=Shard(p, len(prefixes))))


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
@pytest.mark.parametrize("n", (3, 4))
def test_stem_sums_are_the_alive_weavable_pool_rows(n, mode):
    # Checked against the library's weavability fold: for every stem the
    # census builds and every row n - 2, x, each pool word w is a class
    # exactly when the prefix leaves it alive after x outside the dead
    # sets, and a weavable class exactly when the tuple weaves too.  The
    # sums count the bits, and in interweavings mode the fitting rows
    # are the pool words that complete a weavable tuple.
    weavable_mode = mode == INTERWEAVINGS
    top = (1 << n) - 1
    for (first, second), later in _prefixes(n, mode):
        dead, alive, anchored, turns = _prefix_pairs(first, second, n)
        for stem, xs in _census_stems(first, second, later, n):
            stem_dead = _stem_scan(stem, xs, first, anchored, turns, n)[1]
            fold = reduce(or_, stem), reduce(and_, stem), not first or top in stem
            sums, quiet, held = enumeration._stem_sums(
                *fold, xs, dead | stem_dead, alive, n, weavable_mode
            )
            assert quiet.keys() == xs.keys() and held == _bitset(xs)
            fitted = b_bar = q_bar = 0
            for x, pool in xs.items():
                classes = weavable = 0
                for w in _select(range(1 << n), pool):
                    weaves = is_weavable(BitMatrix(stem + (x, w)))
                    fitted += weaves
                    kept = alive[x] >> w & 1 and not (dead | stem_dead) >> w & 1
                    if kept and (weaves or not weavable_mode):
                        classes |= 1 << w
                        weavable |= weaves << w
                assert quiet[x] == (classes, weavable), (stem, x)
                b_bar += classes.bit_count()
                q_bar += weavable.bit_count()
            assert sums == (fitted if weavable_mode else 0, b_bar, q_bar), stem


# Stem folds and dead sets the census sums, over its prefixes, per order
# and mode.
STEM_SUMS = {
    (4, INTERWEAVINGS): 34,
    (5, INTERWEAVINGS): 736,
    (4, ALL): 55,
    (5, ALL): 1113,
}


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
def test_count_sums_quiet_heads_by_stem_fold(monkeypatch, mode):
    # The census sums the heads of every stem once per stem fold, dead
    # set and prefix, a count and a listing alike, and the walks of its
    # symmetric tables once per stem of their own.
    real_sums, real_scan = enumeration._stem_sums, enumeration._scan
    folds = []
    census = []  # whether each running scan is a census's

    def stem_sums(*args):
        if census[-1]:
            folds.append(args[:3] + args[4:5])
        return real_sums(*args)

    def scan(n, weavable_mode, first, pairs, stems, emit, memo=None):
        census.append(memo is not None)
        try:
            return real_scan(n, weavable_mode, first, pairs, stems, emit, memo)
        finally:
            census.pop()

    monkeypatch.setattr(enumeration, "_stem_sums", stem_sums)
    monkeypatch.setattr(enumeration, "_scan", scan)
    for n in (4, 5):
        cfg = EnumConfig(n, mode)
        for wanted in ("mirror", "rotation"):
            _census_loop(cfg, wanted=wanted)
        assert not folds
        prefixes = _prefixes(n, mode)
        summed = 0
        for p in range(len(prefixes)):
            shard = replace(cfg, shard=Shard(p, len(prefixes)))
            _census_loop(shard)
            counted = folds[:]
            assert len(set(counted)) == len(counted), (n, p)
            summed += len(counted)
            folds.clear()
            _census_loop(shard, lambda *a: None)
            assert folds == counted, (n, p)
            folds.clear()
        assert summed == STEM_SUMS[n, mode]


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
def test_phase_counts_add_up_in_count_list_and_walk_runs(mode):
    # The minimality rejects are what is left of the candidates after
    # the weavability rejects and the classes, in every kind of run.
    cfg = EnumConfig(4, mode)
    count = _run_shards(cfg)
    _assert_phase_counts_add_up(count, mode)
    assert count.rejected_minimality == (855 if mode == INTERWEAVINGS else 5115)
    for wanted in LIST_FILTERS:
        report = _run_shards(cfg, wanted=wanted, out=io.StringIO())
        _assert_phase_counts_add_up(report, mode)
        assert report.rejected_minimality >= 0
        if wanted == "all":
            assert replace(report, elapsed=0.0) == replace(count, elapsed=0.0)


# -- symmetric-class tables -------------------------------------------------------

def _entries(table):
    """The row-word tuples of a symmetric table: each head with each of
    its last rows."""
    for head, bits in table.items():
        for w in range(bits.bit_length()):
            if bits >> w & 1:
                yield head + (w,)


def _classes(table, prefix=()):
    """What the census loop keeps of ``table``: the canonical weavable
    tuples, of those that start with ``prefix``."""
    kept = []
    for rows in _entries(table):
        a = BitMatrix(rows)
        if rows[: len(prefix)] == prefix and is_weavable(a) and is_canonical(a):
            kept.append(rows)
    return kept


def _prefix_list(n, mode=INTERWEAVINGS):
    return [p for p, _ in _prefixes(n, mode)]


def _prefix_pools(n, mode=INTERWEAVINGS):
    """Each prefix of the order with the row pool the census loop hands
    its tables: the bitset of the words its later rows are drawn from,
    the second row alone at order 2."""
    for (first, second), allowed in _prefixes(n, mode):
        yield (first, second), 1 << second if n == 2 else _bitset(allowed)


# Each symmetry's word kernel and its oracle move.
SYMMETRIES = ((reverse_words, oracle.mirror_grid), (rotate90_words, oracle.rot90_grid))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_symmetric_tables_equal_the_oracle_classes(n):
    # Sound and complete per prefix and pool: a table holds exactly the
    # members of the oracle's symmetric classes that the census builds
    # with its prefix, every later row drawn from the pool, under the
    # interweaving pools (no all-ones row) and the all-classes pools.
    # The canonical tuple of every symmetric weavable class is one of
    # them.
    members = {kernel: set() for kernel, _ in SYMMETRIES}
    for rep in oracle.partition_by_class(n):
        images = oracle.images(rep)
        for kernel, move in SYMMETRIES:
            if move(rep) in images:
                members[kernel].update(map(oracle.grid_to_words, images))
    for mode, (kernel, _) in itertools.product(MODES, SYMMETRIES):
        for prefix, pool in _prefix_pools(n, mode=mode):
            table = set(_entries(_symmetric_table(n, kernel, *prefix, pool)))
            if not prefix[0]:  # a zero first row never weaves
                assert not table
                continue
            expected = {
                rows
                for rows in members[kernel]
                if rows[:2] == prefix and all(pool >> w & 1 for w in rows[2:])
            }
            assert table == expected, (mode, kernel.__name__, prefix)


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_record_flags_equal_the_oracle(n, mode):
    # The census takes its flags from the walks of the symmetric tables;
    # the 2-D oracle moves each canonical grid and canonicalises the
    # result.  A class is self-mirror (rotation-stable) when that gives
    # the grid back, and the flags are set on weavable classes only.
    _, records = _run(n, mode)
    flagged = {"mirror": 0, "rotation": 0}
    for rec in records:
        grid = oracle.words_to_grid(rec.canonical.rows, n)
        assert oracle.canonical_grid(grid) == grid
        weavable = oracle.is_weavable_grid(grid)
        for (_, move), name, flag in zip(
            SYMMETRIES, flagged, (rec.self_mirror, rec.rotation_stable)
        ):
            assert flag == (weavable and oracle.canonical_grid(move(grid)) == grid)
            flagged[name] += flag
    assert flagged == dict(zip(flagged, SMALL_CENSUS[n][3:]))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_only_the_record_stream_files_symmetric_classes(n, monkeypatch):
    # A count and a listing read no record flags and file nothing; the
    # record stream files each symmetry's classes in one walk run, over
    # all of its shard's prefixes (at order 5 every tenth, to keep it
    # quick).
    real = enumeration._filer
    built = []

    def counted(found):
        built.append(found)
        return real(found)

    monkeypatch.setattr(enumeration, "_filer", counted)
    for mode in (INTERWEAVINGS, ALL):
        built.clear()
        cfg = EnumConfig(n, mode, shard=Shard(0, 10 if n == 5 else 1))
        _run_shards(cfg)
        _run_shards(cfg, wanted="all", out=io.StringIO())
        assert not built, mode
        enumerate_classes(cfg, lambda record: None)
        assert len(built) == 2, mode


# The tuples the interweaving prefixes' tables hold, summed over the
# prefixes, per order: (mirror, quarter turn).  The order-6 mirror
# tables hold 1 072 040.
TABLE_SIZES = {2: (2, 1), 3: (5, 3), 4: (458, 41), 5: (2275, 145), 6: (None, 1925)}


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_symmetric_tables_count_the_packaged_m_bar_and_r_bar(n):
    # Order 6 counts the turn tables alone: the cheapest order-6 check
    # that the tables reach every rotation-stable class.  The sizes pin
    # what a walk's fold and scans would hide: a table that holds
    # tuples no pool test kept.
    expected = load_expected()
    prefixes = list(_prefix_pools(n))
    for (kernel, _), key, size in zip(SYMMETRIES, ("m_bar", "r_bar"), TABLE_SIZES[n]):
        if size is None:
            continue
        tables = [(_symmetric_table(n, kernel, *p, pool), p) for p, pool in prefixes]
        assert sum(bits.bit_count() for t, _ in tables for bits in t.values()) == size
        assert sum(len(_classes(t, p)) for t, p in tables) == expected[n, key]


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_each_walk_examines_exactly_its_table(n):
    # A walk reads its table as built: the candidates of each prefix's
    # walk are the tuples of that prefix's table.
    prefixes = list(_prefix_pools(n))
    for p, (prefix, pool) in enumerate(prefixes):
        cfg = EnumConfig(n, shard=Shard(p, len(prefixes)))
        for wanted, (kernel, _) in zip(("mirror", "rotation"), SYMMETRIES):
            table = _symmetric_table(n, kernel, *prefix, pool)
            report = _census_loop(cfg, wanted=wanted)
            held = sum(map(int.bit_count, table.values()))
            assert report.candidates_examined == held, (wanted, prefix)


def test_chiral_first_row_has_no_self_mirror_class():
    # 001011 (11) and its reversal 001101 (13) are order 6's only chiral
    # row necklaces.  A self-mirror class's row necklaces are closed
    # under reversal, so one starting with 13 would hold a row that
    # rotates to 11 < 13 and could not be canonical.  The other counts
    # pin first rows whose tables are quick to build.
    found = {}
    for prefix, pool in _prefix_pools(6):
        first = prefix[0]
        if first in (11, 13, 15, 23, 27, 31):
            table = _symmetric_table(6, reverse_words, *prefix, pool)
            kept = _classes(table, prefix)
            found[first] = found.get(first, 0) + len(kept)
    assert found == {11: 3563, 13: 0, 15: 672, 23: 795, 27: 32, 31: 4}


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_cycles_partition_the_cells_under_their_top_rows(n):
    # Every cell lies in exactly one cycle, and the cycles filed under
    # row i clear the rows above it and set row i.
    for (kernel, _), k, l in itertools.product(SYMMETRIES, range(n), range(n)):
        tops = _cycles(n, kernel, k, l)
        cells = [0] * n
        for i, group in enumerate(tops):
            for c in group:
                assert not any(c[:i]) and c[i], (kernel.__name__, k, l, i, c)
                assert not any(a & b for a, b in zip(cells, c))
                cells = [a | b for a, b in zip(cells, c)]
        assert cells == [(1 << n) - 1] * n


def _walked_cycles(n, kernel, k, l):
    """The cycles of "kernel, then shift back by (k, l)", walked on the
    one-cell matrices themselves: each cell goes through the kernel and
    the word rotation of every shift, as the reference for
    ``_cycles``."""
    tops = tuple([] for _ in range(n))
    seen = set()
    for i, j in itertools.product(range(n), repeat=2):
        cell = (0,) * i + (1 << j,) + (0,) * (n - 1 - i)
        cycle = []
        while cell not in seen:
            seen.add(cell)
            cycle.append(cell)
            moved = rotate_words(kernel(cell, n), -l % n, n)
            cell = moved[-k:] + moved[:-k]
        if cycle:
            tops[i].append(tuple(map(sum, zip(*cycle))))
    return tuple(map(tuple, tops))


@pytest.mark.parametrize("n", range(2, 8))
def test_cycles_equal_the_walk_over_one_cell_matrices(n):
    for (kernel, _), k, l in itertools.product(SYMMETRIES, range(n), range(n)):
        assert _cycles(n, kernel, k, l) == _walked_cycles(n, kernel, k, l), (k, l)


def _all_shift_table(n, kernel, first, second, pool):
    """The symmetric table of the prefix, built over all n**2 shifts, each
    tested on the cycles filed under rows 0 and 1, as the reference for
    ``_symmetric_table``."""
    if not first:
        return {}
    table = {}
    for k, l in itertools.product(range(n), repeat=2):
        tops = _cycles(n, kernel, k, l)
        cycles = tops[0] + tops[1]
        met = [c for c in cycles if not c[0] & ~first | c[1] & ~second]
        if (sum(c[0] for c in met), sum(c[1] for c in met)) != (first, second):
            continue
        points = [tuple(map(sum, zip((0,) * n, *met)))]
        for i in range(2, n - 1):
            for c in tops[i]:
                points += [tuple(a + b for a, b in zip(w, c)) for w in points]
            points = [w for w in points if pool >> w[i] & 1]
        lasts = [0]
        for c in tops[-1] if n > 2 else ():
            lasts += [x + c[-1] for x in lasts]
        for w in points:
            bits = _bitset(w[-1] + x for x in lasts) & pool
            if bits:
                table[w[:-1]] = table.get(w[:-1], 0) | bits
    return table


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_symmetric_tables_equal_the_all_shift_tables(n):
    # Each table visits only the shifts that admit its prefix, and holds
    # what a visit of all n**2 shifts finds, for every prefix and pool of
    # both modes.
    for mode, (kernel, _) in itertools.product(MODES, SYMMETRIES):
        for prefix, pool in _prefix_pools(n, mode=mode):
            expected = _all_shift_table(n, kernel, *prefix, pool)
            assert _symmetric_table(n, kernel, *prefix, pool) == expected, prefix


def test_order5_tables_visit_few_shifts():
    # The 105 order-5 prefixes' tables of both symmetries visit 167
    # shifts, those with a fixed point that starts with the prefix, of
    # the 5 250 (prefix, symmetry, shift) triples.
    visits = 0
    for kernel, _ in SYMMETRIES:
        shifts = [_cycles(5, kernel, k, l) for k, l in itertools.product(range(5), repeat=2)]
        for prefix, _ in _prefixes(5, INTERWEAVINGS):
            admitted = _admitting(5, kernel).get(prefix, ())
            assert all(base[:2] == prefix and tops in shifts for tops, base in admitted)
            visits += len(admitted)
    assert visits == 167


def test_tables_are_built_on_first_use_and_read_only():
    probe = (
        "import interweave.cli\n"
        "from interweave.tables import (\n"
        "    _admitting, _bit_tables, _cells, _cycles, _shift_tables,\n"
        ")\n"
        "print(*(f.cache_info().currsize for f in"
        " (_shift_tables, _bit_tables, _cells, _cycles, _admitting)))\n"
    )
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * 5
    assert _shift_tables(5) is _shift_tables(5)
    assert _bit_tables(5) is _bit_tables(5)
    assert _cells(5, reverse_words) is _cells(5, reverse_words)
    assert _cycles(5, rotate90_words, 1, 2) is _cycles(5, rotate90_words, 1, 2)
    assert _admitting(5, rotate90_words) is _admitting(5, rotate90_words)
    tables = (
        *_shift_tables(5), *_bit_tables(5), _cells(5, reverse_words),
        _cycles(5, reverse_words, 0, 0), *_admitting(5, reverse_words).values(),
    )
    for table in tables:
        assert isinstance(table, tuple)
    for n, (kernel, _) in itertools.product(range(2, 7), SYMMETRIES):
        for k, l in itertools.product(range(n), repeat=2):
            tops = _cycles(n, kernel, k, l)
            assert len(tops) == n and all(isinstance(g, tuple) for g in tops)
    # Nothing caches a symmetric table: each prefix's task builds its own.
    assert not hasattr(_symmetric_table, "cache_info")
    pool = dict(_prefix_pools(5))[1, 1]
    for kernel, _ in SYMMETRIES:
        table = _symmetric_table(5, kernel, 1, 1, pool)
        assert table and _symmetric_table(5, kernel, 1, 1, pool) is not table


def test_each_prefix_builds_its_symmetric_tables_once_per_run(tmp_path, monkeypatch):
    # In this process and on a pool, the task of a prefix builds each
    # table it reads once: a census both symmetries' tables, a walk only
    # the table it walks.  Forked workers inherit the patch and log each
    # build to the same file.
    real = enumeration._symmetric_table
    log = tmp_path / "built.txt"

    def logged(n, kernel, first, second, pool):
        with open(log, "a") as handle:
            handle.write(f"{kernel.__name__} {first} {second}\n")
        return real(n, kernel, first, second, pool)

    monkeypatch.setattr(enumeration, "_symmetric_table", logged)
    walked = {"mirror": (reverse_words,), "rotation": (rotate90_words,)}
    for (n, jobs), wanted in itertools.product(((5, 1), (4, 2)), (None, *walked)):
        log.write_text("")
        _run_shards(EnumConfig(n), jobs, wanted, io.StringIO())
        built = [line.split() for line in log.read_text().splitlines()]
        kernels = walked.get(wanted, (reverse_words, rotate90_words))
        assert len(built) == len(kernels) * (105 if n == 5 else 34)
        for kernel in kernels:
            prefixes = [(int(f), int(s)) for name, f, s in built if name == kernel.__name__]
            assert sorted(prefixes) == _prefix_list(n)


# -- Burnside oracle ------------------------------------------------------------------

def test_burnside_reference_values():
    assert burnside_b_bar(2) == 7
    assert burnside_b_bar(3) == 64
    assert burnside_b_bar(4) == 4156
    assert burnside_b_bar(5) == 1342208
    assert burnside_b_bar(6) == 1908897152


def test_burnside_agrees_with_enumeration():
    for n in (2, 3, 4):
        report, _ = _run(n, ALL)
        assert burnside_b_bar(n) == report.b_bar


def test_burnside_agrees_with_naive_torus_walk():
    for n in range(2, 9):
        assert burnside_b_bar(n) == oracle.burnside_grid_count(n)


def test_burnside_wide_orders_exact():
    # 2**(n*n) far exceeds 64 bits here; the result must stay exact.
    assert burnside_b_bar(9) > 1 << 74
    assert burnside_b_bar(9) * 81 == sum(
        1 << c for c in _torus_cycle_counts(9)
    )


def _torus_cycle_counts(n):
    from math import gcd, lcm

    for k in range(n):
        for l in range(n):
            order = lcm(n // gcd(n, k), n // gcd(n, l))
            yield (n * n) // order


def test_burnside_order_range():
    with pytest.raises(ValueError):
        burnside_b_bar(1)
    with pytest.raises(ValueError):
        burnside_b_bar(17)


# -- shard merging ---------------------------------------------------------------------

@pytest.mark.parametrize("total", (2, 3, 7, 10))
def test_two_shards_merge_to_unsharded_report(total):
    # Order 3 has 9 (first, second) row prefixes, so 10 shards leave one
    # empty and fewer leave none.
    whole, whole_records = _run(3, INTERWEAVINGS)
    parts = []
    part_rows = []
    for index in range(total):
        records = []
        report = enumerate_classes(
            EnumConfig(3, INTERWEAVINGS, shard=Shard(index, total)), records.append
        )
        parts.append(report)
        part_rows.extend(rec.canonical.rows for rec in records)

    merged = reduce(merge_reports, parts)
    assert merged.q_count == whole.q_count
    assert merged.q_bar == whole.q_bar
    assert merged.m_bar == whole.m_bar
    assert merged.r_bar == whole.r_bar
    assert merged.candidates_examined == whole.candidates_examined
    assert merged.shard_indices == set(range(total))
    assert sorted(part_rows) == [rec.canonical.rows for rec in whole_records]
    assert any(p.candidates_examined == 0 for p in parts) == (total == 10)


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_shards_partition_records_and_candidates(n, mode):
    whole, whole_records = _run(n, mode)
    whole_rows = [rec.canonical.rows for rec in whole_records]
    for total in range(1, 13):
        rows = []
        candidates = 0
        for index in range(total):
            report, records = _run(n, mode, shard=Shard(index, total))
            shard_rows = [rec.canonical.rows for rec in records]
            assert shard_rows == sorted(shard_rows)
            rows.extend(shard_rows)
            candidates += report.candidates_examined
        assert len(set(rows)) == len(rows), f"{total} shards overlap"
        assert sorted(rows) == whole_rows
        assert candidates == whole.candidates_examined


def _assert_phase_counts_add_up(report, mode):
    classes = report.q_bar if mode == INTERWEAVINGS else report.b_bar
    assert report.candidates_examined == (
        report.rejected_weavability + report.rejected_minimality + classes
    )
    if mode == ALL:  # all mode rejects nothing for weavability
        assert report.rejected_weavability == 0


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_phase_counters_add_up_to_the_candidates(n, mode):
    for total in range(1, 8):
        for index in range(total):
            report, _ = _run(n, mode, shard=Shard(index, total))
            _assert_phase_counts_add_up(report, mode)
    merged = _run_shards(EnumConfig(n, mode), jobs=2)
    _assert_phase_counts_add_up(merged, mode)
    if n == 4:  # both phases reject something here
        assert merged.rejected_minimality > 0
        assert (merged.rejected_weavability > 0) == (mode == INTERWEAVINGS)


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
@pytest.mark.parametrize("total", (2, 4))
def test_shards_balance_candidates(total, mode):
    counts = [
        enumerate_classes(
            EnumConfig(4, mode, shard=Shard(index, total))
        ).candidates_examined
        for index in range(total)
    ]
    assert max(counts) <= 1.1 * sum(counts) / total, counts


def test_merge_is_commutative():
    a = enumerate_classes(EnumConfig(3, ALL, shard=Shard(0, 2)))
    b = enumerate_classes(EnumConfig(3, ALL, shard=Shard(1, 2)))
    assert merge_reports(a, b) == merge_reports(b, a)


def test_merge_is_associative():
    a, b, c = (
        enumerate_classes(EnumConfig(3, INTERWEAVINGS, shard=Shard(i, 3)))
        for i in range(3)
    )
    assert merge_reports(merge_reports(a, b), c) == merge_reports(
        a, merge_reports(b, c)
    )


def test_merge_with_empty_shard_is_identity_on_counts():
    # Order 2 has 2 (first, second) row prefixes, so a 3-way split
    # leaves shard 2 empty; merging its all-zero report changes no counts.
    a = enumerate_classes(EnumConfig(2, INTERWEAVINGS, shard=Shard(0, 3)))
    b = enumerate_classes(EnumConfig(2, INTERWEAVINGS, shard=Shard(2, 3)))
    assert (b.q_bar, b.q_count, b.m_bar, b.r_bar) == (0, 0, 0, 0)
    merged = merge_reports(a, b)
    assert (merged.q_count, merged.q_bar) == (a.q_count, a.q_bar)


def test_merge_rejects_mismatches():
    r2 = enumerate_classes(EnumConfig(2, INTERWEAVINGS, shard=Shard(0, 2)))
    r2b = enumerate_classes(EnumConfig(2, INTERWEAVINGS, shard=Shard(1, 2)))
    r3 = enumerate_classes(EnumConfig(3, INTERWEAVINGS, shard=Shard(1, 2)))
    r2all = enumerate_classes(EnumConfig(2, ALL, shard=Shard(1, 2)))
    r2third = enumerate_classes(EnumConfig(2, INTERWEAVINGS, shard=Shard(1, 3)))
    with pytest.raises(ValueError):
        merge_reports(r2, r3)  # different orders
    with pytest.raises(ValueError):
        merge_reports(r2, r2all)  # different modes
    with pytest.raises(ValueError):
        merge_reports(r2, r2third)  # different partitions
    with pytest.raises(ValueError):
        merge_reports(r2, r2)  # overlapping shards
    assert merge_reports(r2, r2b).q_bar == 1


@pytest.mark.parametrize("wanted", LIST_FILTERS)
def test_enumerate_sharded_equals_single_run(wanted):
    whole, whole_rows = enumerate_sharded(3, INTERWEAVINGS, collect=wanted)
    sharded, sharded_rows = enumerate_sharded(
        3, INTERWEAVINGS, shards=3, jobs=2, collect=wanted
    )
    assert sharded.q_count == whole.q_count
    assert sharded.q_bar == whole.q_bar
    assert sharded.m_bar == whole.m_bar
    assert sharded.r_bar == whole.r_bar
    assert sharded_rows == whole_rows
    assert whole_rows == sorted(whole_rows)


def test_enumerate_sharded_collect_filters():
    _, mirror_rows = enumerate_sharded(3, INTERWEAVINGS, collect="mirror")
    _, rotation_rows = enumerate_sharded(3, INTERWEAVINGS, collect="rotation")
    assert len(mirror_rows) == 2
    assert len(rotation_rows) == 2


def test_failed_shard_raises_and_leaves_no_temp_files(tmp_path, monkeypatch):
    # Pool workers are forked, so they inherit the patched function.
    real = enumeration._census_loop

    def failing(cfg, *args, **kwargs):
        if cfg.shard.index == 1:
            raise RuntimeError("shard 1 failed")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(enumeration, "_census_loop", failing)
    with pytest.raises(RuntimeError, match="shard 1 failed"):
        enumerate_sharded(3, INTERWEAVINGS, shards=2, jobs=2, collect="all")
    assert not list(tmp_path.iterdir())


_PREFIX_WORKER = enumeration._prefix_worker


def _logged_prefix_task(log, task):
    """Run one prefix task after appending its prefix index to ``log``.
    Defined here, not in a test, so that a pool can pickle it."""
    with open(log, "a") as handle:
        handle.write(f"{task[0].shard.index}\n")
    return _PREFIX_WORKER(task)


def test_failed_write_cancels_pending_prefixes(tmp_path, monkeypatch):
    # Each forked worker logs the prefix task it starts; the parent's
    # first write fails, and the prefixes still queued must never start.
    started = tmp_path / "started.txt"

    class BrokenOut:
        def write(self, text):
            raise BrokenPipeError("reader went away")

    cfg = EnumConfig(4, INTERWEAVINGS)
    total = len(_prefixes(4, INTERWEAVINGS))
    assert total == 34
    monkeypatch.setattr(
        enumeration, "_prefix_worker", partial(_logged_prefix_task, started)
    )
    with pytest.raises(BrokenPipeError):
        _run_shards(cfg, 2, "all", BrokenOut())
    assert len(started.read_text().split()) < total // 2


def test_pool_hands_out_at_most_two_prefixes_per_job_ahead(tmp_path, monkeypatch):
    # Each forked worker logs the prefix task it starts; the parent
    # writes slowly, and no prefix may start more than 2 * jobs ahead of
    # the block being written.
    started = tmp_path / "started.txt"
    logged = partial(_logged_prefix_task, started)
    ahead = []  # prefixes started past the one being written

    class SlowOut:
        def write(self, text):
            time.sleep(0.05)
            ahead.append(len(started.read_text().split()) - len(ahead))

    monkeypatch.setattr(enumeration, "_prefix_worker", logged)
    _run_shards(EnumConfig(3, INTERWEAVINGS), 2, "all", SlowOut())
    assert len(ahead) == 9  # one block per prefix
    assert sorted(map(int, started.read_text().split())) == list(range(9))
    assert max(ahead) <= 4


def test_pool_broken_while_handing_out_tasks_names_a_prefix(monkeypatch):
    # A worker can die before the parent has handed out every task; the
    # pool then refuses the next one, and that must name a prefix too.
    real = ProcessPoolExecutor.submit
    calls = itertools.count()

    def submit(self, *args, **kwargs):
        if next(calls) == 2:
            raise BrokenProcessPool("A child process terminated abruptly")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    with pytest.raises(_PrefixError, match=r"^prefix 0 \(1 1\) of order 3 "):
        _run_shards(EnumConfig(3, INTERWEAVINGS), 2)


# The reference for a listing: each list filter's test on a record.
LISTED = {
    "all": lambda rec: rec.is_interweaving,
    "mirror": lambda rec: rec.self_mirror,
    "rotation": lambda rec: rec.rotation_stable,
}


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_prefix_driver_equals_enumerate_classes(n, mode, jobs):
    # The driver runs a shard prefix by prefix, in this process or on a
    # pool; one enumerate_classes call over the whole shard is the
    # reference.  Order 2 with 3 or 4 shards gives empty shards.
    empty_shards = 0
    for total in range(1, 5):
        for index in range(total):
            cfg = EnumConfig(n, mode, shard=Shard(index, total))
            records = []
            reference = replace(enumerate_classes(cfg, records.append), elapsed=0.0)
            empty_shards += reference.candidates_examined == 0
            assert replace(_run_shards(cfg, jobs), elapsed=0.0) == reference
            for wanted in LIST_FILTERS:
                out = io.StringIO()
                report = _run_shards(cfg, jobs, wanted, out)
                listed = [rec for rec in records if LISTED[wanted](rec)]
                assert out.getvalue() == "".join(
                    format_tuple(rec.canonical) + "\n" for rec in listed
                )
                if wanted == "all":
                    assert replace(report, elapsed=0.0) == reference
                    continue
                # A symmetric filter walks its table's heads: its report
                # counts the classes it lists, not the whole census.
                symmetric = reference.m_bar if wanted == "mirror" else reference.r_bar
                assert report.q_bar == len(listed) == symmetric
                # It builds only the table it walks, so the other
                # symmetry's count is 0.
                walked = (report.q_bar, 0) if wanted == "mirror" else (0, report.q_bar)
                assert (report.m_bar, report.r_bar) == walked
                assert report.q_count == sum(rec.orbit_size for rec in listed)
                classes = report.q_bar if mode == INTERWEAVINGS else report.b_bar
                assert report.candidates_examined == (
                    report.rejected_weavability + report.rejected_minimality + classes
                )
            assert reference.b_bar == (None if mode == INTERWEAVINGS else len(records))
    # Order 2 has 2 interweaving prefixes, so 2/3, 2/4 and 3/4 are empty.
    assert empty_shards == (3 if (n, mode) == (2, INTERWEAVINGS) else 0)


@pytest.mark.parametrize("mode", (INTERWEAVINGS, ALL))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_each_prefix_block_equals_its_formatted_records(n, mode):
    # A prefix task writes its lines from templates kept by last-row
    # bitset; the record stream formats every class on its own.  Both
    # must give the same lines, prefix by prefix, under every filter.
    # A canonical tuple ending in word 1 has every row 1 and never
    # weaves, so word 1 is checked where it is listed, in the heads.
    prefixes = _prefixes(n, mode)
    listed = {wanted: [] for wanted in LIST_FILTERS}
    for p in range(len(prefixes)):
        cfg = EnumConfig(n, mode, shard=Shard(p, len(prefixes)))
        records = []
        enumerate_classes(cfg, records.append)
        for wanted in LIST_FILTERS:
            lines = [
                format_tuple(rec.canonical) + "\n"
                for rec in records if LISTED[wanted](rec)
            ]
            assert enumeration._prefix_worker((cfg, wanted))[1] == "".join(lines)
            listed[wanted] += lines
    rows = [tuple(map(int, line.split())) for line in listed["all"]]
    assert any(row[-1] == (1 << n) - 2 for row in rows)
    if n > 2:
        assert any(1 in row[1:] for row in rows)
        assert all(listed[wanted] for wanted in LIST_FILTERS)


def test_listing_builds_no_records(monkeypatch):
    # The listing writes each line from the loop's row words: with the
    # record and matrix constructors refusing, every filter's listing
    # comes out as before.
    cfg = EnumConfig(4)
    reference = {}
    for wanted in LIST_FILTERS:
        out = io.StringIO()
        _run_shards(cfg, 1, wanted, out)
        reference[wanted] = out.getvalue()
    assert all(reference.values())

    def refuse(*args, **kwargs):
        raise AssertionError("the listing built a record or a matrix")

    monkeypatch.setattr(enumeration, "ClassRecord", refuse)
    monkeypatch.setattr(enumeration, "BitMatrix", refuse)
    for wanted in LIST_FILTERS:
        out = io.StringIO()
        _run_shards(cfg, 1, wanted, out)
        assert out.getvalue() == reference[wanted], wanted


@pytest.mark.parametrize("jobs", (1, 2))
def test_list_filter_is_checked_before_any_prefix_runs(jobs, monkeypatch):
    # A forked worker that ran a prefix would fail as _PrefixError.
    def refuse(*args, **kwargs):
        raise AssertionError("a prefix ran")

    monkeypatch.setattr(enumeration, "_census_loop", refuse)
    names = re.escape(str(LIST_FILTERS))
    with pytest.raises(ValueError, match=f"list filter must be one of {names}"):
        _run_shards(EnumConfig(3), jobs, "bogus", io.StringIO())
    with pytest.raises(ValueError, match=f"list filter must be one of {names}"):
        enumerate_sharded(3, jobs=jobs, collect="bogus")


@pytest.mark.parametrize("shards", (0, -1))
def test_enumerate_sharded_rejects_shards_below_one(shards):
    with pytest.raises(ValueError, match="shard count must be positive"):
        enumerate_sharded(3, shards=shards)


@pytest.mark.parametrize("jobs", (0, -1))
def test_library_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be positive"):
        _run_shards(EnumConfig(3), jobs)
    with pytest.raises(ValueError, match="jobs must be positive"):
        enumerate_sharded(3, jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be positive"):
        verify_table(3, jobs=jobs)


def test_progress_callback_runs():
    seen = []
    enumerate_classes(EnumConfig(3, INTERWEAVINGS), progress=seen.append)
    assert seen
    assert seen[-1] == 45  # candidates examined at order 3: 36 + 9
    assert seen == sorted(seen)


# -- expected constants and verify ---------------------------------------------------

def test_load_expected_packaged():
    expected = load_expected()
    for n, (q_count, b_bar, q_bar, m_bar, r_bar) in SMALL_CENSUS.items():
        assert expected[n, "q_count"] == q_count
        assert expected[n, "b_bar"] == b_bar
        assert expected[n, "q_bar"] == q_bar
        assert expected[n, "m_bar"] == m_bar
        assert expected[n, "r_bar"] == r_bar
    assert expected[5, "q_bar"] == 705366
    assert expected[6, "b_bar"] == 1908897152
    # Enumerated once and equal to the counting formula.
    assert expected[6, "q_count"] == 46959933962


def test_load_expected_diagnoses_bad_files(tmp_path):
    bad_shape = tmp_path / "shape.txt"
    bad_shape.write_text("2 q_count\n")
    with pytest.raises(ValueError, match="shape.txt:1"):
        load_expected(str(bad_shape))

    bad_key = tmp_path / "key.txt"
    bad_key.write_text("# fine\n2 zz_bar 7\n")
    with pytest.raises(ValueError, match="key.txt:2"):
        load_expected(str(bad_key))

    bad_value = tmp_path / "value.txt"
    bad_value.write_text("2 b_bar seven\n")
    with pytest.raises(ValueError, match="value.txt:1"):
        load_expected(str(bad_value))

    repeated = tmp_path / "repeated.txt"
    repeated.write_text("2 q_bar 999\n2 b_bar 7\n2 q_bar 1\n")
    with pytest.raises(ValueError, match="repeated.txt:3: .* repeats line 1"):
        load_expected(str(repeated))


def test_verify_table_passes_small_orders():
    cells = verify_table(3)
    assert cells
    assert all(isinstance(c, VerifyCell) and c.ok for c in cells)
    methods = {(c.n, c.key, c.method) for c in cells}
    assert (2, "b_bar", "burnside") in methods
    assert (2, "b_bar", "enumerated") in methods
    assert (3, "q_count", "enumerated") in methods


def test_verify_table_reports_mismatch_without_raising():
    expected = load_expected()
    expected[2, "q_bar"] = 999
    cells = verify_table(2, expected=expected)
    bad = [c for c in cells if not c.ok]
    assert len(bad) == 1
    assert (bad[0].n, bad[0].key, bad[0].actual) == (2, "q_bar", 1)


def test_verify_table_rejects_bad_n_max():
    with pytest.raises(ValueError):
        verify_table(1)
    with pytest.raises(ValueError):
        verify_table(6)


def test_verify_table_missing_constant_is_an_error():
    with pytest.raises(ValueError, match="q_count"):
        verify_table(2, expected={})
