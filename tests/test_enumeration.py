"""Census generation, the Burnside cross-check, shard merging, verify."""

import itertools
import random
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import reduce

import pytest

import oracle
from interweave import enumeration
from interweave import (
    ALL,
    INTERWEAVINGS,
    BitMatrix,
    EnumConfig,
    Shard,
    ShiftPair,
    act,
    burnside_b_bar,
    classify,
    enumerate_classes,
    enumerate_sharded,
    is_canonical,
    is_weavable,
    load_expected,
    merge_reports,
    mirror,
    orbit,
    rotate90,
    verify_table,
)
from interweave.enumeration import (
    LIST_FILTERS,
    VerifyCell,
    _in_orbit,
    _minimality_scan,
    _PrefixError,
    _prefixes,
    _run_shards,
    _shift_tables,
)

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
    assert EnumConfig(8, limit_override=True).n == 8


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


@pytest.mark.parametrize("n", (2, 3, 4))
def test_minimality_scan_on_every_generated_shape(n):
    # Every tuple the generator could build, over the full word range:
    # a necklace first row, later rows rotating to nothing below it.
    rotl, least, anchors = _shift_tables(n)
    words = range(1 << n)
    for first in words:
        if least[first] != first:
            continue
        later = [w for w in words if least[w] >= first]
        for tail in itertools.product(later, repeat=n - 1):
            rows = (first,) + tail
            grid = oracle.words_to_grid(rows, n)
            images = oracle.images(grid)
            stab = _minimality_scan(rows, rotl, least, anchors, n)
            if min(images) != grid:
                assert stab == 0, rows
            else:
                assert stab * len(images) == n * n, rows


@pytest.mark.parametrize("n", range(2, 9))
def test_in_orbit_agrees_with_the_orbit_set(n):
    rng = random.Random(6000 + n)
    rotl, least, anchors = _shift_tables(n)
    seen = set()
    for trial in range(40):
        a = BitMatrix(rng.getrandbits(n) for _ in range(n))
        # Every few trials, symmetrize so that mirror and quarter-turn
        # targets also land in the orbit at larger orders.
        if trial % 4 == 1:
            a = a | mirror(a)
        elif trial % 4 == 2:
            for _ in range(3):
                a = a | rotate90(a)
        members = orbit(a)
        image = act(a, ShiftPair(rng.randrange(n), rng.randrange(n)))
        unrelated = BitMatrix(rng.getrandbits(n) for _ in range(n))
        targets = {
            "image": image,
            "mirror": mirror(a),
            "quarter": rotate90(a),
            "unrelated": unrelated,
        }
        for kind, target in targets.items():
            hit = _in_orbit(a.rows, target.rows, rotl, least, anchors, n)
            assert hit == (target in members), (kind, a, target)
            seen.add((kind, hit))
    assert ("image", False) not in seen
    assert ("unrelated", False) in seen
    if n > 2:  # at order 2 every mirror image is a column shift
        assert {("mirror", True), ("mirror", False)} <= seen
        assert {("quarter", True), ("quarter", False)} <= seen


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
    real = enumeration.enumerate_classes

    def failing(cfg, *args, **kwargs):
        if cfg.shard.index == 1:
            raise RuntimeError("shard 1 failed")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(enumeration, "enumerate_classes", failing)
    with pytest.raises(RuntimeError, match="shard 1 failed"):
        enumerate_sharded(3, INTERWEAVINGS, shards=2, jobs=2, collect="all")
    assert not list(tmp_path.iterdir())


def test_failed_write_cancels_pending_prefixes(tmp_path, monkeypatch):
    # Each forked worker logs the prefix it starts; the parent's first
    # write fails, and the prefixes still queued must never start.
    real = enumeration.enumerate_classes
    started = tmp_path / "started.txt"

    def logged(cfg, *args, **kwargs):
        with open(started, "a") as handle:
            handle.write(f"{cfg.shard.index}\n")
        time.sleep(0.1)
        return real(cfg, *args, **kwargs)

    class BrokenOut:
        def write(self, text):
            raise BrokenPipeError("reader went away")

    cfg = EnumConfig(4, INTERWEAVINGS)
    total = len(_prefixes(cfg, _shift_tables(4)[1]))
    assert total == 34
    monkeypatch.setattr(enumeration, "enumerate_classes", logged)
    with pytest.raises(BrokenPipeError):
        _run_shards(cfg, 2, "all", BrokenOut())
    assert len(started.read_text().split()) < total // 2


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
