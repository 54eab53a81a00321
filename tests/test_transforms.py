"""Shift matrices, the group action, and the symmetry transforms.

The algebraic identities these functions rest on are all executable;
each gets checked exhaustively at small orders and randomly above.
"""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracle
from conftest import BYTE_EDGE_ORDERS, byte_edge_matrices, matrices_any
from interweave import (
    BitMatrix,
    ShiftPair,
    act,
    mirror,
    reversal_matrix,
    rotate90,
    rotate_cols,
    rotate_rows_up,
    shift_matrix,
)


def test_shift_matrix_row_words():
    assert shift_matrix(3).rows == (2, 1, 4)
    for n in range(2, 9):
        expected = tuple(1 << (n - 2 - i) for i in range(n - 1)) + (1 << (n - 1),)
        assert shift_matrix(n).rows == expected
    assert shift_matrix(1) == BitMatrix.identity(1)


def test_reversal_matrix_row_words():
    assert reversal_matrix(3).rows == (1, 2, 4)
    for n in range(1, 9):
        assert reversal_matrix(n).rows == tuple(1 << i for i in range(n))


def test_orders_must_be_positive():
    with pytest.raises(ValueError):
        shift_matrix(0)
    with pytest.raises(ValueError):
        reversal_matrix(0)


def test_shift_matrix_power_cycle():
    for n in range(1, 9):
        p = shift_matrix(n)
        e = BitMatrix.identity(n)
        assert p**n == e
        for t in range(1, n):
            assert p**t != e


def test_shift_matrix_power_periodic():
    for n in range(2, 7):
        p = shift_matrix(n)
        for k in range(0, 2 * n):
            assert p ** (k + n) == p**k


def test_reversal_is_symmetric_involution():
    for n in range(1, 9):
        s = reversal_matrix(n)
        assert s.transpose() == s
        assert s @ s == BitMatrix.identity(n)


def test_transpose_of_shift_matrix_is_last_power():
    for n in range(1, 9):
        p = shift_matrix(n)
        assert p.transpose() == p ** (n - 1)


def test_shift_reversal_commutation():
    for n in range(1, 9):
        p, s = shift_matrix(n), reversal_matrix(n)
        for l in range(n):
            assert (p**l) @ s == s @ (p ** (n - l))


# -- row and column rotations ------------------------------------------------

def test_rotation_identities_and_examples():
    a = BitMatrix((1, 2))
    assert rotate_rows_up(a, 0) == a
    assert rotate_rows_up(a, 2) == a
    assert rotate_rows_up(a, 1).rows == (2, 1)
    assert rotate_cols(a, 0) == a
    assert rotate_cols(a, 1).rows == (2, 1)


def test_negative_shift_counts_rejected():
    a = BitMatrix((1, 2))
    with pytest.raises(ValueError):
        rotate_rows_up(a, -1)
    with pytest.raises(ValueError):
        rotate_cols(a, -1)


@given(matrices_any(max_n=6), st.integers(0, 12), st.integers(0, 12))
def test_rotations_compose_additively(a, x, y):
    assert rotate_rows_up(rotate_rows_up(a, x), y) == rotate_rows_up(a, x + y)
    assert rotate_cols(rotate_cols(a, x), y) == rotate_cols(a, x + y)


@given(matrices_any(max_n=8), st.integers(0, 16))
def test_fast_shifts_equal_matrix_products(a, k):
    p = shift_matrix(a.n)
    assert rotate_rows_up(a, k) == (p**k) @ a
    assert rotate_cols(a, k) == a @ (p**k)


# -- the full action -----------------------------------------------------------

@given(matrices_any())
def test_act_identity(a):
    assert act(a, ShiftPair(0, 0)) == a


@given(matrices_any(max_n=6), st.integers(0, 10), st.integers(0, 10),
       st.integers(0, 10), st.integers(0, 10))
def test_act_is_an_action(a, k1, l1, k2, l2):
    once = act(act(a, ShiftPair(k1, l1)), ShiftPair(k2, l2))
    assert once == act(a, ShiftPair(k1 + k2, l1 + l2))


def test_act_equals_product_form_exhaustively_small():
    rng = random.Random(7)
    for n in range(1, 5):
        p = shift_matrix(n)
        top = (1 << n) - 1
        for _ in range(40):
            a = BitMatrix(tuple(rng.randint(0, top) for _ in range(n)))
            for k in range(n):
                for l in range(n):
                    assert act(a, ShiftPair(k, l)) == (p**k) @ a @ (p**l)


# -- mirror and quarter turn ------------------------------------------------------

def test_mirror_example_and_involution():
    assert mirror(BitMatrix((2, 1, 4))).rows == (2, 4, 1)


@given(matrices_any())
def test_mirror_involution(a):
    assert mirror(mirror(a)) == a


@given(matrices_any())
def test_mirror_is_right_product_with_reversal(a):
    assert mirror(a) == a @ reversal_matrix(a.n)


def test_mirror_matches_oracle_exhaustively_order3():
    for grid in oracle.all_grids(3):
        a = BitMatrix(oracle.grid_to_words(grid))
        assert mirror(a).rows == oracle.grid_to_words(oracle.mirror_grid(grid))


@pytest.mark.parametrize("n", BYTE_EDGE_ORDERS)
def test_mirror_matches_oracle_across_byte_boundaries(n):
    # The reversal kernel reads a row word a byte at a time.
    for a in byte_edge_matrices(n):
        grid = oracle.words_to_grid(a.rows, n)
        assert mirror(a).rows == oracle.grid_to_words(oracle.mirror_grid(grid))


def test_rotate90_example():
    assert rotate90(BitMatrix((2, 1, 4))).rows == (2, 4, 1)


def test_rotate90_of_identity_is_reversal():
    for n in range(1, 9):
        assert rotate90(BitMatrix.identity(n)) == reversal_matrix(n)


@given(matrices_any())
def test_rotate90_four_times_is_identity(a):
    assert rotate90(rotate90(rotate90(rotate90(a)))) == a


@given(matrices_any())
def test_rotate90_is_reversal_times_transpose(a):
    assert rotate90(a) == reversal_matrix(a.n) @ a.transpose()


@pytest.mark.parametrize("n", (1, 2, 3))
def test_rotate90_matches_oracle_exhaustively(n):
    for grid in oracle.all_grids(n):
        a = BitMatrix(oracle.grid_to_words(grid))
        assert rotate90(a).rows == oracle.grid_to_words(oracle.rot90_grid(grid))


@pytest.mark.parametrize("n", BYTE_EDGE_ORDERS)
def test_rotate90_matches_oracle_across_byte_boundaries(n):
    for a in byte_edge_matrices(n):
        grid = oracle.words_to_grid(a.rows, n)
        assert rotate90(a).rows == oracle.grid_to_words(oracle.rot90_grid(grid))


# -- products with permutation matrices equal arithmetic products ------------------

def test_boolean_times_permutation_equals_arithmetic_exhaustive_order3():
    perms = [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]
    for grid in oracle.all_grids(3):
        a = BitMatrix(oracle.grid_to_words(grid))
        for perm in perms:
            pg = oracle.perm_grid(perm)
            m = BitMatrix(oracle.grid_to_words(pg))
            assert (a @ m).to_bits() == [list(r) for r in oracle.int_product(grid, pg)]
            assert (m @ a).to_bits() == [list(r) for r in oracle.int_product(pg, grid)]


@settings(max_examples=80)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_boolean_times_permutation_equals_arithmetic_random(n, rng):
    top = (1 << n) - 1
    a_words = tuple(rng.randint(0, top) for _ in range(n))
    perm = list(range(n))
    rng.shuffle(perm)
    grid = oracle.words_to_grid(a_words, n)
    pg = oracle.perm_grid(tuple(perm))
    a = BitMatrix(a_words)
    m = BitMatrix(oracle.grid_to_words(pg))
    assert (a @ m).to_bits() == [list(r) for r in oracle.int_product(grid, pg)]
    assert (m @ a).to_bits() == [list(r) for r in oracle.int_product(pg, grid)]


# -- mirror commutes with the action up to re-indexing ------------------------------

def test_mirror_action_commutation_exhaustive_order3():
    for grid in oracle.all_grids(3):
        a = BitMatrix(oracle.grid_to_words(grid))
        for k in range(3):
            for l in range(3):
                lhs = mirror(act(a, ShiftPair(k, l)))
                rhs = act(mirror(a), ShiftPair(k, 3 - l))
                assert lhs == rhs


@given(matrices_any(min_n=2, max_n=6), st.integers(0, 7), st.integers(0, 7))
def test_mirror_action_commutation_random(a, k, l):
    n = a.n
    assert mirror(act(a, ShiftPair(k, l))) == act(mirror(a), ShiftPair(k, n - l % n))
