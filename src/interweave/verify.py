"""Reference census constants and the check of a recomputed census
against them, by enumeration and by the Burnside formula."""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files
from typing import Optional

from .enumeration import ALL, INTERWEAVINGS, EnumConfig, _run_shards, burnside_b_bar

EXPECTED_DATA = "data/censuses.txt"

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

    Interweaving counts are enumerated.  The all-classes count is both
    enumerated and checked by the Burnside formula, so the two
    independent methods confirm each other.  Each census runs through
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
        # Every b_bar gets two methods, enumeration and the exact
        # Burnside value; the order-5 all-classes census takes about
        # 0.6 CPU s.
        all_report = _run_shards(EnumConfig(n, ALL), jobs)
        compare(n, "b_bar", "enumerated", all_report.b_bar)
        compare(n, "b_bar", "burnside", burnside_b_bar(n))
    return cells
