"""Command line interface.

Subcommands:

* ``count``     census of shift classes for one order
* ``list``      canonical representatives, one tuple line each
* ``classify``  class report for a single matrix
* ``render``    drawdown chart or PBM bitmap for a single matrix
* ``verify``    recompute small-order censuses and diff them against
                the packaged reference constants

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error
or a failed prefix (in this process or in a worker).  A failed prefix
prints its error line, then the traceback of its cause; a failed
``list --out FILE`` removes FILE, so no truncated listing is left.
Counts print as exact integers with no grouping so output diffs cleanly
against the reference fixture.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from typing import Optional

from .classify import classify
from .enumeration import (
    ALL,
    INTERWEAVINGS,
    LIST_FILTERS,
    EnumConfig,
    Shard,
    _PrefixError,
    _run_shards,
)
from .formats import (
    MatrixParseError,
    format_tuple,
    parse_matrix,
    parse_tuple,
    render_chart,
    render_pbm,
)
from .verify import load_expected, verify_table


def _parse_shard(text: str) -> Shard:
    try:
        index_text, total_text = text.split("/", 1)
        shard = Shard(int(index_text), int(total_text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like INDEX/TOTAL, got {text!r}"
        ) from None
    if shard.total < 1 or not 0 <= shard.index < shard.total:
        raise argparse.ArgumentTypeError(f"invalid shard {text!r}")
    return shard


def _parse_jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interweave",
        description="Shift classes of square binary matrices "
        "(weaving interweavings): count, list, classify, render, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_enum_flags(p, with_mode):
        p.add_argument("--n", type=int, required=True, help="matrix order")
        if with_mode:
            p.add_argument(
                "--mode",
                choices=(INTERWEAVINGS, ALL),
                default=INTERWEAVINGS,
                help="census of interweavings only, or of all matrices",
            )
        p.add_argument(
            "--shard",
            type=_parse_shard,
            default=None,
            metavar="INDEX/TOTAL",
            help="run a single shard of the generation loop",
        )
        p.add_argument(
            "--jobs",
            type=_parse_jobs,
            default=None,
            metavar="J",
            help="run the (first, second) row prefixes in J worker "
            "processes; composes with --shard",
        )
        p.add_argument(
            "--limit-override",
            action="store_true",
            help="allow order 6 (see the README)",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="report candidates examined on stderr after each "
            "(first, second) row prefix",
        )

    count = sub.add_parser("count", help="print the census for one order")
    add_enum_flags(count, with_mode=True)

    lst = sub.add_parser(
        "list", help="print one canonical representative line per class"
    )
    add_enum_flags(lst, with_mode=False)
    lst.add_argument(
        "--filter",
        choices=LIST_FILTERS,
        default="all",
        help="restrict to self-mirror or rotation-stable classes",
    )
    lst.add_argument("--out", default=None, help="write lines here instead of stdout")

    cls = sub.add_parser("classify", help="class report for one matrix")
    _add_matrix_input(cls)

    render = sub.add_parser("render", help="render one matrix as a pattern")
    _add_matrix_input(render)
    render.add_argument(
        "--format",
        choices=("grid", "pbm"),
        default="grid",
        help="drawdown chart (grid) or portable bitmap (pbm)",
    )
    render.add_argument("--out", default=None, help="write here instead of stdout")

    verify = sub.add_parser(
        "verify", help="recompute censuses and compare with reference constants"
    )
    verify.add_argument(
        "--n-max", type=int, default=4, help="verify orders 2..N_MAX (2..5)"
    )
    verify.add_argument(
        "--expected",
        default=None,
        help="read reference constants from this file instead of the "
        "packaged fixture (lines of: order key value)",
    )
    verify.add_argument(
        "--jobs", type=_parse_jobs, metavar="J", help="run each census on J workers"
    )
    return parser


def _add_matrix_input(p):
    p.add_argument(
        "words",
        nargs="*",
        help="matrix in tuple form: the decimal row words, e.g. '1 2'",
    )
    p.add_argument(
        "--file",
        default=None,
        help="read the matrix (tuple or grid form) from this file",
    )


def _read_matrix(args):
    if args.file is not None:
        if args.words:
            raise ValueError("give the matrix inline or via --file, not both")
        with open(args.file, encoding="utf-8") as handle:
            return parse_matrix(handle.read())
    if not args.words:
        raise ValueError("no matrix given; pass row words or --file")
    return parse_tuple(" ".join(args.words))


def _print_progress(shard: Shard, candidates: int):
    print(
        f"shard {shard.index}/{shard.total}: {candidates} candidates examined",
        file=sys.stderr,
    )


def _enum_run(args, mode: str):
    """Config, worker count and progress reporter of a count or list run."""
    cfg = EnumConfig(args.n, mode, args.shard or Shard(), args.limit_override)
    progress = _print_progress if args.progress else None
    return cfg, args.jobs or 1, progress


def cmd_count(args) -> int:
    cfg, jobs, progress = _enum_run(args, args.mode)
    report = _run_shards(cfg, jobs, progress=progress)
    lines = [f"n: {report.n}", f"q_count: {report.q_count}"]
    if report.b_bar is not None:
        lines.append(f"b_bar: {report.b_bar}")
    lines += [
        f"q_bar: {report.q_bar}",
        f"m_bar: {report.m_bar}",
        f"r_bar: {report.r_bar}",
        f"candidates_examined: {report.candidates_examined}",
        f"elapsed: {report.elapsed:.3f}",
    ]
    print("\n".join(lines))
    return 0


def cmd_list(args) -> int:
    # Built first so a bad order is refused before --out is created.
    cfg, jobs, progress = _enum_run(args, INTERWEAVINGS)
    if not args.out:
        _run_shards(cfg, jobs, args.filter, sys.stdout, progress)
        return 0
    out = open(args.out, "w", encoding="utf-8")
    try:
        with out:
            _run_shards(cfg, jobs, args.filter, out, progress)
    except BaseException:
        # A run that fails leaves no truncated listing behind; a device
        # such as /dev/null, or a symlink, is left alone.
        if stat.S_ISREG(os.lstat(args.out).st_mode):
            os.remove(args.out)
        raise
    return 0


def cmd_classify(args) -> int:
    record = classify(_read_matrix(args))
    flags = (
        ("interweaving", record.is_interweaving),
        ("self_mirror", record.self_mirror),
        ("rotation_stable", record.rotation_stable),
    )
    print(f"order: {record.canonical.n}")
    print(f"canonical: {format_tuple(record.canonical)}")
    print(f"orbit_size: {record.orbit_size}")
    for name, value in flags:
        print(f"{name}: {'yes' if value else 'no'}")
    return 0


def cmd_render(args) -> int:
    matrix = _read_matrix(args)
    text = render_pbm(matrix) if args.format == "pbm" else render_chart(matrix) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    expected = load_expected(args.expected) if args.expected else None
    cells = verify_table(args.n_max, expected=expected, jobs=args.jobs)
    failures = 0
    for cell in cells:
        status = "PASS" if cell.ok else "FAIL"
        failures += not cell.ok
        print(
            f"n={cell.n} {cell.key:<8} {cell.method:<10} "
            f"expected {cell.expected:>12} computed {cell.actual:>12} {status}"
        )
    print(f"verify: {'FAIL' if failures else 'PASS'} "
          f"({len(cells) - failures}/{len(cells)} cells)")
    return 1 if failures else 0


COMMANDS = {
    "count": cmd_count,
    "list": cmd_list,
    "classify": cmd_classify,
    "render": cmd_render,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (MatrixParseError, ValueError, OSError, _PrefixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _PrefixError):
            # Imported here: only a failed run needs it.
            import traceback

            # The cause's own chain holds a worker's traceback.
            cause = exc.__cause__
            traceback.print_exception(
                type(cause), cause, cause.__traceback__, file=sys.stderr
            )
        return 2


if __name__ == "__main__":
    sys.exit(main())
