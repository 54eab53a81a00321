"""Shift classes of square binary matrices — the census of weaving
interweavings.

A weave with period n is coded by an n-by-n binary matrix (1: warp over
weft); matrices differing only by cyclic row/column shifts code the
same fabric.  This package packs such matrices into row words, gives
each shift class a canonical representative, classifies classes as
interweavings / self-mirror / rotation-stable, and counts them — with
an independent Burnside-formula cross-check on the all-classes count.
"""

from .bitmatrix import MAX_ORDER, BitMatrix
from .classify import (
    ClassRecord,
    NotInterweavingError,
    canonical,
    classify,
    is_canonical,
    is_rotation_stable,
    is_self_mirror,
    is_weavable,
    orbit,
)
from .enumeration import (
    ALL,
    INTERWEAVINGS,
    CountReport,
    EnumConfig,
    Shard,
    burnside_b_bar,
    enumerate_classes,
    enumerate_sharded,
    merge_reports,
)
from .formats import (
    MatrixParseError,
    format_grid,
    format_tuple,
    parse_grid,
    parse_matrix,
    parse_tuple,
    render_chart,
    render_pbm,
)
from .transforms import (
    ShiftPair,
    act,
    mirror,
    reversal_matrix,
    rotate90,
    rotate_cols,
    rotate_rows_up,
    shift_matrix,
)
from .verify import VerifyCell, load_expected, verify_table

__version__ = "1.0.0"

__all__ = [
    "ALL",
    "BitMatrix",
    "ClassRecord",
    "CountReport",
    "EnumConfig",
    "INTERWEAVINGS",
    "MatrixParseError",
    "MAX_ORDER",
    "NotInterweavingError",
    "Shard",
    "ShiftPair",
    "VerifyCell",
    "act",
    "burnside_b_bar",
    "canonical",
    "classify",
    "enumerate_classes",
    "enumerate_sharded",
    "format_grid",
    "format_tuple",
    "is_canonical",
    "is_rotation_stable",
    "is_self_mirror",
    "is_weavable",
    "load_expected",
    "merge_reports",
    "mirror",
    "orbit",
    "parse_grid",
    "parse_matrix",
    "parse_tuple",
    "render_chart",
    "render_pbm",
    "reversal_matrix",
    "rotate90",
    "rotate_cols",
    "rotate_rows_up",
    "shift_matrix",
    "verify_table",
]
