"""Matrix text forms and pattern renderings."""

import re

import pytest
from hypothesis import given

from conftest import matrices_any
from interweave import (
    BitMatrix,
    MatrixParseError,
    format_grid,
    format_tuple,
    mirror,
    parse_grid,
    parse_matrix,
    parse_tuple,
    render_chart,
    render_pbm,
)


def test_format_tuple():
    assert format_tuple(BitMatrix((2, 1, 4))) == "2 1 4"


def test_format_grid():
    assert format_grid(BitMatrix((2, 1, 4))) == "010\n001\n100"


@given(matrices_any())
def test_tuple_round_trip(a):
    assert parse_tuple(format_tuple(a)) == a


@given(matrices_any())
def test_grid_round_trip(a):
    assert parse_grid(format_grid(a)) == a


@given(matrices_any())
def test_parse_matrix_accepts_both_forms(a):
    assert parse_matrix(format_tuple(a)) == a
    if a.n > 1:
        assert parse_matrix(format_grid(a)) == a


def test_parse_tuple_diagnostics():
    with pytest.raises(MatrixParseError, match="word 2"):
        parse_tuple("1 x 4")
    with pytest.raises(MatrixParseError, match="word 2"):
        parse_tuple("1 -2 4")
    with pytest.raises(MatrixParseError, match="line 1"):
        parse_tuple("1 9 4")  # 9 > 2**3 - 1
    with pytest.raises(MatrixParseError):
        parse_tuple("   ")


def test_parse_grid_diagnostics():
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_grid("010\n0x1\n100")
    with pytest.raises(MatrixParseError, match="line 3"):
        parse_grid("010\n001\n10")
    with pytest.raises(MatrixParseError, match="line 1"):
        parse_grid("0101\n0011\n1000")  # 3 rows of width 4
    with pytest.raises(MatrixParseError):
        parse_grid("\n\n")
    # Square but too large: the BitMatrix error, placed on line 1.
    with pytest.raises(MatrixParseError, match=r"line 1: order must be in \[1, 32\]"):
        parse_grid("\n".join(["0" * 33] * 33))


def test_parse_grid_skips_blank_lines():
    assert parse_grid("01\n\n10\n") == BitMatrix((1, 2))


@pytest.mark.parametrize(
    "text, line",
    (
        ("\n01\n1x\n", 3),
        ("01\n\n\n1x", 4),
        ("\n\n010\n001\n10", 5),
        ("\n\n" + "\n".join(["0" * 33] * 33), 3),
    ),
)
def test_parse_grid_names_the_inputs_own_line(text, line):
    with pytest.raises(MatrixParseError, match=f"^line {line}: "):
        parse_grid(text)


@pytest.mark.parametrize(
    "text, message",
    (
        ("1_0 2 3 4", "line 1: word 1 ('1_0') is not a decimal integer"),
        ("+1 2", "line 1: word 1 ('+1') is not a decimal integer"),
        ("1 -0", "line 1: word 2 ('-0') is not a decimal integer"),
        # A fullwidth 2 and an Arabic-Indic 3, which int() reads.
        ("1 \uff12", "line 1: word 2 ('\uff12') is not a decimal integer"),
        ("1 2 \u0663", "line 1: word 3 ('\u0663') is not a decimal integer"),
        ("1 -2 4", "line 1: word 2 ('-2') is negative"),
    ),
)
def test_parse_tuple_takes_plain_ascii_digits_only(text, message):
    with pytest.raises(MatrixParseError, match=f"^{re.escape(message)}$"):
        parse_tuple(text)


def test_render_chart_example():
    assert render_chart(BitMatrix((1, 2))) == ".#\n#."


def test_render_pbm_example():
    text = render_pbm(BitMatrix((1, 2)))
    assert text.startswith("P1\n2 2\n")
    assert text == "P1\n2 2\n0 1\n1 0\n"


@given(matrices_any())
def test_pbm_bits_match_matrix(a):
    lines = render_pbm(a).splitlines()
    assert lines[0] == "P1"
    assert lines[1] == f"{a.n} {a.n}"
    bits = [[int(tok) for tok in line.split()] for line in lines[2:]]
    assert bits == a.to_bits()


@given(matrices_any())
def test_mirror_renders_reflected(a):
    flipped = [line[::-1] for line in render_chart(a).splitlines()]
    assert render_chart(mirror(a)).splitlines() == flipped
