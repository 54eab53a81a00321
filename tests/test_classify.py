"""Orbits, canonical representatives and the class predicates."""

import random
from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

import oracle
from conftest import BYTE_EDGE_ORDERS, byte_edge_matrices, matrices_any
from interweave import (
    BitMatrix,
    NotInterweavingError,
    ShiftPair,
    act,
    canonical,
    classify,
    is_canonical,
    is_rotation_stable,
    is_self_mirror,
    is_weavable,
    mirror,
    orbit,
    rotate90,
    shift_matrix,
)


def _random_matrix(rng, n):
    top = (1 << n) - 1
    return BitMatrix(tuple(rng.randint(0, top) for _ in range(n)))


def _random_weavable(rng, n):
    while True:
        a = _random_matrix(rng, n)
        if is_weavable(a):
            return a


# -- orbits -------------------------------------------------------------------

def test_orbit_example_order2():
    assert orbit(BitMatrix((1, 2))) == {BitMatrix((1, 2)), BitMatrix((2, 1))}


def test_constant_matrix_has_singleton_orbit():
    for n in (1, 2, 3, 5):
        assert orbit(BitMatrix.zeros(n)) == {BitMatrix.zeros(n)}


@given(matrices_any())
def test_orbit_size_bounds(a):
    assert 1 <= len(orbit(a)) <= a.n * a.n


def test_orbits_partition_all_matrices_small_orders():
    # Orders 2 and 3: group all matrices by canonical form; the class
    # counts and the sum of orbit sizes must match the whole space.
    for n, expected_classes in ((2, 7), (3, 64)):
        sizes = {}
        for grid in oracle.all_grids(n):
            rep = canonical(BitMatrix(oracle.grid_to_words(grid)))
            sizes.setdefault(rep, len(orbit(rep)))
        assert len(sizes) == expected_classes
        assert sum(sizes.values()) == 1 << (n * n)


@given(matrices_any(max_n=6))
def test_orbit_matches_oracle_images(a):
    grid = oracle.words_to_grid(a.rows, a.n)
    expected = {
        BitMatrix(oracle.grid_to_words(img)) for img in oracle.images(grid)
    }
    assert orbit(a) == expected


def test_orbit_matches_oracle_images_at_order_32():
    # orbit builds its images from the matrix's own words without
    # checking them again; at the widest order they must still be the
    # oracle's, and each one a valid matrix.  The last input repeats
    # every fourth row and every eighth column, so its orbit is small.
    rng = random.Random(3232)
    inputs = [_random_matrix(rng, 32) for _ in range(3)]
    rows = tuple(rng.getrandbits(8) * 0x01010101 for _ in range(4))
    inputs.append(BitMatrix(rows * 8))
    for a in inputs:
        grid = oracle.words_to_grid(a.rows, a.n)
        expected = {
            BitMatrix(oracle.grid_to_words(img)) for img in oracle.images(grid)
        }
        images = orbit(a)
        assert images == expected
        assert all(img.n == 32 and BitMatrix(img.rows) == img for img in images)
    assert len(images) == 4 * 8


# -- canonical form -------------------------------------------------------------

def test_canonical_example_order2():
    assert canonical(BitMatrix((2, 1))) == BitMatrix((1, 2))


def test_canonical_of_shift_matrix_order3():
    # The orbit of the full-cycle matrix is its three boolean powers;
    # value frozen from the orbit-minimum oracle.
    p = shift_matrix(3)
    expected = oracle.canonical_grid(oracle.words_to_grid(p.rows, 3))
    assert oracle.grid_to_words(expected) == (1, 4, 2)
    assert canonical(p) == BitMatrix((1, 4, 2))


@given(matrices_any())
def test_canonical_idempotent_and_minimal(a):
    rep = canonical(a)
    assert canonical(rep) == rep
    assert all(not img < rep for img in orbit(a))


@given(matrices_any(max_n=6), st.integers(0, 10), st.integers(0, 10))
def test_canonical_constant_on_orbits(a, k, l):
    assert canonical(act(a, ShiftPair(k, l))) == canonical(a)


def test_is_canonical_examples():
    assert is_canonical(BitMatrix((1, 2)))
    assert not is_canonical(BitMatrix((2, 1)))


@given(matrices_any())
def test_is_canonical_agrees_with_orbit_minimum(a):
    rep = canonical(a)
    assert is_canonical(rep)
    assert is_canonical(a) == (a == rep)


@given(matrices_any())
def test_canonical_first_row_is_smallest(a):
    rep = canonical(a)
    assert all(rep.rows[0] <= word for word in rep.rows)


# -- weavability (membership in the fabric-coding set) ---------------------------

def test_weavable_examples():
    assert is_weavable(BitMatrix((1, 2)))
    assert not is_weavable(BitMatrix((0, 3)))      # zero row
    assert not is_weavable(BitMatrix((3, 3)))      # all-ones rows
    assert not is_weavable(BitMatrix((1, 1)))      # constant columns
    assert not is_weavable(BitMatrix((2, 1, 0)))   # zero row among good ones


def test_one_by_one_never_weavable():
    assert not is_weavable(BitMatrix((0,)))
    assert not is_weavable(BitMatrix((1,)))


def test_weavable_matches_oracle_exhaustive_order3():
    for grid in oracle.all_grids(3):
        a = BitMatrix(oracle.grid_to_words(grid))
        assert is_weavable(a) == oracle.is_weavable_grid(grid)


def test_weavable_matches_oracle_randomized():
    rng = random.Random(424242)
    for _ in range(100_000):
        n = rng.randint(1, 8)
        a = _random_matrix(rng, n)
        assert is_weavable(a) == oracle.is_weavable_grid(
            oracle.words_to_grid(a.rows, n)
        )


@given(matrices_any(max_n=6), st.integers(0, 10), st.integers(0, 10))
def test_weavable_closed_under_action(a, k, l):
    assert is_weavable(act(a, ShiftPair(k, l))) == is_weavable(a)


# -- class predicates ---------------------------------------------------------------

def test_predicates_require_weavable_input():
    for bad in (BitMatrix((0, 0)), BitMatrix((3, 3)), BitMatrix((1,))):
        with pytest.raises(NotInterweavingError):
            is_self_mirror(bad)
        with pytest.raises(NotInterweavingError):
            is_rotation_stable(bad)


def test_predicate_examples_order2():
    a = BitMatrix((1, 2))
    assert is_self_mirror(a)
    assert is_rotation_stable(a)


def test_census_order3_detail():
    # Of the 14 interweaving classes at order 3, exactly 2 are
    # self-mirror and exactly 2 rotation-stable.
    reps = set()
    for grid in oracle.all_grids(3):
        if oracle.is_weavable_grid(grid):
            reps.add(canonical(BitMatrix(oracle.grid_to_words(grid))))
    assert len(reps) == 14
    assert sum(is_self_mirror(rep) for rep in reps) == 2
    assert sum(is_rotation_stable(rep) for rep in reps) == 2


def test_predicates_are_class_functions_exhaustive():
    for n in (2, 3):
        for grid in oracle.all_grids(n):
            if not oracle.is_weavable_grid(grid):
                continue
            a = BitMatrix(oracle.grid_to_words(grid))
            sm, rs = is_self_mirror(a), is_rotation_stable(a)
            for k in range(n):
                for l in range(n):
                    b = act(a, ShiftPair(k, l))
                    assert is_self_mirror(b) == sm
                    assert is_rotation_stable(b) == rs


def test_predicates_are_class_functions_random():
    rng = random.Random(1302)
    for _ in range(300):
        n = rng.randint(2, 6)
        a = _random_weavable(rng, n)
        g = ShiftPair(rng.randint(0, n - 1), rng.randint(0, n - 1))
        assert is_self_mirror(act(a, g)) == is_self_mirror(a)
        assert is_rotation_stable(act(a, g)) == is_rotation_stable(a)


# -- classify -----------------------------------------------------------------------

def test_classify_example_order2():
    rec = classify(BitMatrix((1, 2)))
    assert rec.canonical == BitMatrix((1, 2))
    assert rec.orbit_size == 2
    assert rec.is_interweaving and rec.self_mirror and rec.rotation_stable


def test_classify_zero_matrix():
    rec = classify(BitMatrix((0, 0)))
    assert rec.orbit_size == 1
    assert not rec.is_interweaving
    assert not rec.self_mirror and not rec.rotation_stable


def test_classify_reversal_matrix_order3():
    # Flags frozen from the orbit oracle: the orbit of the reversal
    # matrix is its three column rotations; its mirror image is the
    # identity, which lies in a different class.
    grid = oracle.words_to_grid((1, 2, 4), 3)
    orb = oracle.images(grid)
    assert len(orb) == 3
    assert oracle.mirror_grid(grid) not in orb
    assert oracle.rot90_grid(grid) not in orb

    rec = classify(BitMatrix((1, 2, 4)))
    assert rec.canonical == BitMatrix((1, 2, 4))
    assert rec.orbit_size == 3
    assert rec.is_interweaving
    assert not rec.self_mirror
    assert not rec.rotation_stable


@given(matrices_any(min_n=2, max_n=6))
def test_classify_consistent_with_standalone_pieces(a):
    rec = classify(a)
    assert rec.canonical == canonical(a)
    assert rec.orbit_size == len(orbit(a))
    assert rec.is_interweaving == is_weavable(a)
    if rec.is_interweaving:
        assert rec.self_mirror == is_self_mirror(a)
        assert rec.rotation_stable == is_rotation_stable(a)
    else:
        assert not rec.self_mirror and not rec.rotation_stable


def _oracle_inputs():
    rng = random.Random(7171)
    for n in range(2, 7):
        for _ in range(40):
            yield _random_matrix(rng, n)
        for _ in range(10):
            yield _random_weavable(rng, n)
    for n in BYTE_EDGE_ORDERS:
        if 7 <= n <= 17:
            yield from byte_edge_matrices(n, count=2)


def _assert_matches_oracle(a):
    grid = oracle.words_to_grid(a.rows, a.n)
    images = oracle.images(grid)
    weavable = oracle.is_weavable_grid(grid)
    self_mirror = weavable and oracle.mirror_grid(grid) in images
    rotation_stable = weavable and oracle.rot90_grid(grid) in images
    rec = classify(a)
    assert oracle.words_to_grid(rec.canonical.rows, a.n) == min(images)
    assert rec.orbit_size == len(images)
    assert rec.is_interweaving == weavable
    assert rec.self_mirror == self_mirror
    assert rec.rotation_stable == rotation_stable
    if weavable:
        assert is_self_mirror(a) == self_mirror
        assert is_rotation_stable(a) == rotation_stable


def test_classify_matches_oracle_on_every_field():
    # classify, canonical and the predicates share one anchored walk
    # (the images whose top row is the least word, the idea of the
    # census loop's minimality scan) and read the orbit size off the
    # stabilizer count, so every field is checked against the 2-D
    # oracle's full image set instead.
    for a in _oracle_inputs():
        _assert_matches_oracle(a)


STRUCTURED_ORDERS = (18, 24, 32)


def _structured_grids(n):
    """Twill, satin, plain weave, all-ones, identity and a random grid
    with one constant column, each moved by a seeded shift pair and
    also mirrored.  They have the most anchored images (n**2 / 2 for
    the plain weave) and the largest stabilizers."""
    rng = random.Random(6100 + n)
    step = next(s for s in range(2, n) if gcd(s, n) == 1)
    column = rng.randrange(n)
    cells = {
        "twill": lambda i, j: (j - i) % n < n // 3,
        "satin": lambda i, j: j == i * step % n,
        "plain": lambda i, j: (i + j) % 2 == 0,
        "ones": lambda i, j: True,
        "identity": lambda i, j: i == j,
        "column": lambda i, j: j == column or rng.random() < 0.5,
    }
    for cell in cells.values():
        grid = tuple(tuple(int(cell(i, j)) for j in range(n)) for i in range(n))
        moved = oracle.rot_cols(oracle.rot_rows(grid, rng.randrange(n)), rng.randrange(n))
        for g in (moved, oracle.mirror_grid(moved)):
            yield BitMatrix(oracle.grid_to_words(g))


@pytest.mark.parametrize("n", STRUCTURED_ORDERS)
def test_classify_matches_oracle_on_structured_inputs(n):
    for a in _structured_grids(n):
        _assert_matches_oracle(a)


def _entry_point_inputs():
    for n in (1, 2, 3):
        for grid in oracle.all_grids(n):
            yield BitMatrix(oracle.grid_to_words(grid))
    for n in STRUCTURED_ORDERS:
        for a in _structured_grids(n):
            yield a
            yield canonical(a)


def test_is_canonical_and_orbit_agree_with_classify():
    for a in _entry_point_inputs():
        rec = classify(a)
        assert is_canonical(a) == (rec.canonical == a) == (canonical(a) == a)
        assert len(orbit(a)) == rec.orbit_size


def test_membership_flag_equals_canonical_equality():
    # The two formulations of the predicates (transform lands in the
    # orbit vs equal canonical forms) must agree.
    rng = random.Random(9090)
    for _ in range(300):
        n = rng.randint(2, 6)
        a = _random_weavable(rng, n)
        assert (mirror(a) in orbit(a)) == (canonical(a) == canonical(mirror(a)))
        assert (rotate90(a) in orbit(a)) == (canonical(a) == canonical(rotate90(a)))
