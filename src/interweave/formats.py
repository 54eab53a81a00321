"""Text forms for matrices and woven patterns.

Machine interfaces use the tuple form: the n decimal row words on one
line, separated by single spaces.  The grid form spells each cell as a
'0'/'1' character, one row per line.  Parsers for both reject malformed
input with a diagnostic naming the offending line.

For humans and image tools there are two renderings of the pattern
itself: a drawdown chart ('#' where the warp passes over the weft, '.'
elsewhere) and the plain-text PBM bitmap format, which any netpbm-aware
viewer opens directly.
"""

from __future__ import annotations

from .bitmatrix import BitMatrix


class MatrixParseError(ValueError):
    """Input text does not encode a square binary matrix."""


def format_tuple(a: BitMatrix) -> str:
    """Row words as decimals on one line: ``'2 1 4'``."""
    return " ".join(map(str, a.rows))


def format_grid(a: BitMatrix) -> str:
    """'0'/'1' characters, one matrix row per line."""
    return str(a)


def parse_tuple(text: str) -> BitMatrix:
    """Parse the tuple form; the order is the number of words given."""
    tokens = text.split()
    if not tokens:
        raise MatrixParseError("line 1: no row words found")
    words = []
    for pos, token in enumerate(tokens, start=1):
        try:
            word = int(token)
        except ValueError:
            raise MatrixParseError(
                f"line 1: word {pos} ({token!r}) is not a decimal integer"
            ) from None
        if word < 0:
            raise MatrixParseError(f"line 1: word {pos} ({token!r}) is negative")
        words.append(word)
    try:
        return BitMatrix(words)
    except ValueError as exc:
        raise MatrixParseError(f"line 1: {exc}") from None


def parse_grid(text: str) -> BitMatrix:
    """Parse the grid form; must be square with only '0'/'1' cells."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixParseError("line 1: no grid rows found")
    n = len(lines)
    grid = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        bad = next((c for c in line if c not in "01"), None)
        if bad is not None:
            raise MatrixParseError(f"line {lineno}: invalid character {bad!r}")
        if len(line) != n:
            raise MatrixParseError(
                f"line {lineno}: {len(line)} cells for a {n}-row matrix"
            )
        grid.append([int(c) for c in line])
    try:
        return BitMatrix.from_bits(grid)
    except ValueError as exc:
        raise MatrixParseError(f"line 1: {exc}") from None


def parse_matrix(text: str) -> BitMatrix:
    """Parse either form: one line means tuple form, several mean grid."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) > 1:
        return parse_grid(text)
    return parse_tuple(text)


# Maps the grid form's cells to the drawdown chart's.
_CHART_CELLS = str.maketrans("01", ".#")


def render_chart(a: BitMatrix) -> str:
    """Drawdown chart: '#' marks warp over weft (1), '.' marks weft (0)."""
    return str(a).translate(_CHART_CELLS)


def render_pbm(a: BitMatrix) -> str:
    """Plain PBM (P1): header, dimensions, then one pattern row per line."""
    rows = "\n".join(" ".join(line) for line in str(a).splitlines())
    return f"P1\n{a.n} {a.n}\n{rows}\n"
