"""Packed-matrix algebra against frozen values and the naive oracle."""

import random

import pytest
from hypothesis import given, settings

import oracle
from conftest import (
    BYTE_EDGE_ORDERS,
    byte_edge_matrices,
    matrices_any,
    matrix_pairs,
    matrix_triples,
)
from interweave import BitMatrix, classify


# -- construction -------------------------------------------------------------

def test_row_word_encoding_reads_left_to_right():
    a = BitMatrix((2, 1, 4))
    assert a.to_bits() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_round_trip_words():
    a = BitMatrix((2, 1, 4))
    assert BitMatrix(a.rows) == a


def test_round_trip_bits():
    a = BitMatrix((13, 2, 7, 0))
    assert BitMatrix.from_bits(a.to_bits()) == a


def test_zero_matrix():
    assert BitMatrix.zeros(2).rows == (0, 0)


def test_order_out_of_range_rejected():
    with pytest.raises(ValueError):
        BitMatrix(())
    with pytest.raises(ValueError):
        BitMatrix((0,) * 33)


@pytest.mark.parametrize("rows", [(8, 0, 0), (0, -1, 0), (0, 0, 1 << 20)])
def test_row_word_out_of_range_rejected_not_masked(rows):
    with pytest.raises(ValueError):
        BitMatrix(rows)


@pytest.mark.parametrize("word", [1.5, 1.0, "1", None])
def test_row_word_that_is_not_an_integer_rejected(word):
    with pytest.raises(TypeError, match=r"^row 1: word .* is not an integer$"):
        BitMatrix((1, word, 2))


def test_bool_row_words_accepted():
    assert BitMatrix((True, 2)) == BitMatrix((1, 2))


class _Word:
    """An integer-like row word that is not an int, as NumPy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_converted_row_words_are_stored_as_ints():
    # Results of a matrix built from integer-like words carry plain ints
    # and bools, not the words' own types.
    a = BitMatrix((_Word(3), _Word(1), True))
    assert a.rows == (3, 1, 1)
    assert all(type(w) is int for w in a.rows)
    record = classify(a)
    assert all(type(w) is int for w in record.canonical.rows)
    flags = (record.is_interweaving, record.self_mirror, record.rotation_stable)
    assert all(type(flag) is bool for flag in flags)
    assert type(record.orbit_size) is int


def test_from_bits_rejects_ragged_and_nonbinary():
    with pytest.raises(ValueError):
        BitMatrix.from_bits([[0, 1], [1]])
    with pytest.raises(ValueError):
        BitMatrix.from_bits([[0, 2], [1, 0]])


# -- elementwise operations ----------------------------------------------------

def test_and_example():
    assert (BitMatrix((3, 0)) & BitMatrix((1, 3))).rows == (1, 0)


def test_or_example():
    assert (BitMatrix((3, 0)) | BitMatrix((1, 3))).rows == (3, 3)


def test_not_example():
    assert (~BitMatrix((2, 1, 4))).rows == (5, 6, 3)


def test_not_all_zero():
    assert (~BitMatrix((0, 0))).rows == (3, 3)


@given(matrices_any())
def test_and_or_idempotent_not_involutive(a):
    assert (a & a) == a
    assert (a | a) == a
    assert ~~a == a


@given(matrices_any())
def test_zero_is_and_annihilator_or_identity(a):
    zero = BitMatrix.zeros(a.n)
    assert (a & zero) == zero
    assert (a | zero) == a


@given(matrix_pairs())
def test_de_morgan(pair):
    a, b = pair
    assert ~(a & b) == (~a | ~b)


@given(matrix_pairs(max_n=8))
def test_elementwise_matches_oracle(pair):
    a, b = pair
    ga = oracle.words_to_grid(a.rows, a.n)
    gb = oracle.words_to_grid(b.rows, b.n)
    assert (a & b).to_bits() == [list(r) for r in oracle.op_and(ga, gb)]
    assert (a | b).to_bits() == [list(r) for r in oracle.op_or(ga, gb)]
    assert (~a).to_bits() == [list(r) for r in oracle.op_not(ga)]


def test_elementwise_matches_oracle_exhaustive_order2():
    mats = [BitMatrix((w0, w1)) for w0 in range(4) for w1 in range(4)]
    for a in mats:
        ga = oracle.words_to_grid(a.rows, 2)
        assert (~a).rows == oracle.grid_to_words(oracle.op_not(ga))
        for b in mats:
            gb = oracle.words_to_grid(b.rows, 2)
            assert (a & b).rows == oracle.grid_to_words(oracle.op_and(ga, gb))
            assert (a | b).rows == oracle.grid_to_words(oracle.op_or(ga, gb))
            assert (a @ b).rows == oracle.grid_to_words(oracle.op_product(ga, gb))
            assert (a < b) == oracle.op_lex_less(ga, gb)


# -- transpose and product -------------------------------------------------------

@given(matrices_any())
def test_transpose_involution(a):
    assert a.transpose().transpose() == a


@given(matrix_pairs(max_n=8))
def test_transpose_and_product_match_oracle(pair):
    a, b = pair
    ga = oracle.words_to_grid(a.rows, a.n)
    gb = oracle.words_to_grid(b.rows, b.n)
    assert a.transpose().rows == oracle.grid_to_words(oracle.op_transpose(ga))
    assert (a @ b).rows == oracle.grid_to_words(oracle.op_product(ga, gb))


@pytest.mark.parametrize("n", BYTE_EDGE_ORDERS)
def test_transpose_matches_oracle_across_byte_boundaries(n):
    for a in byte_edge_matrices(n):
        grid = oracle.words_to_grid(a.rows, n)
        assert a.transpose().rows == oracle.grid_to_words(oracle.op_transpose(grid))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_transpose_matches_oracle_exhaustively(n):
    for grid in oracle.all_grids(n):
        a = BitMatrix(oracle.grid_to_words(grid))
        assert a.transpose().rows == oracle.grid_to_words(oracle.op_transpose(grid))


@given(matrices_any())
def test_identity_neutral_for_product(a):
    e = BitMatrix.identity(a.n)
    assert a @ e == a
    assert e @ a == a


def test_all_ones_product_example():
    ones = BitMatrix((3, 3))
    assert (ones @ ones).rows == (3, 3)


def test_product_associative_on_random_triples():
    rng = random.Random(991)
    for _ in range(1000):
        n = rng.randint(1, 6)
        top = (1 << n) - 1
        a, b, c = (
            BitMatrix(tuple(rng.randint(0, top) for _ in range(n)))
            for _ in range(3)
        )
        assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=60)
@given(matrix_triples(max_n=5))
def test_product_associative_property(triple):
    a, b, c = triple
    assert (a @ b) @ c == a @ (b @ c)


def test_power_zero_is_identity():
    a = BitMatrix((1, 2))
    assert a**0 == BitMatrix.identity(2)
    with pytest.raises(ValueError):
        a ** -1


# -- lexicographic order ---------------------------------------------------------

def test_lex_examples():
    assert BitMatrix((1, 2)) < BitMatrix((2, 1))
    assert BitMatrix((2, 1)) < BitMatrix((2, 3))


@given(matrices_any())
def test_lex_irreflexive(a):
    assert not a < a


@given(matrix_pairs())
def test_lex_strict_total_order(pair):
    a, b = pair
    assert (a < b) + (b < a) + (a == b) == 1


@given(matrix_pairs())
def test_lex_comparisons_consistent(pair):
    a, b = pair
    assert (a <= b) == (a < b or a == b)
    assert (a > b) == (b < a)


def test_mismatched_orders_raise_not_sentinel():
    a, b = BitMatrix((1, 2)), BitMatrix((1, 2, 4))
    for op in (
        lambda: a < b,
        lambda: a & b,
        lambda: a | b,
        lambda: a @ b,
    ):
        with pytest.raises(ValueError):
            op()
    # Equality across orders is defined (False), never an error.
    assert a != b


# -- cell and row access -----------------------------------------------------------

def test_get_examples():
    p3 = BitMatrix((2, 1, 4))
    assert p3.get(0, 1) == 1
    assert p3.get(0, 0) == 0
    s3 = BitMatrix((1, 2, 4))
    assert s3.row(0) == 1


def test_set_get_round_trip():
    a = BitMatrix.zeros(3)
    for i in range(3):
        for j in range(3):
            assert a.set(i, j, 1).get(i, j) == 1
            assert a.set(i, j, 1).set(i, j, 0) == a


def test_index_out_of_range():
    a = BitMatrix((1, 2))
    for i, j in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            a.get(i, j)
        with pytest.raises(IndexError):
            a.set(i, j, 1)
    with pytest.raises(IndexError):
        a.row(2)


def test_hashable_and_usable_in_sets():
    assert len({BitMatrix((1, 2)), BitMatrix((1, 2)), BitMatrix((2, 1))}) == 2
