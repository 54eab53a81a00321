"""The command line surface, driven in-process through main()."""

import hashlib
import os
import random
import re
import subprocess
import sys

import pytest

from interweave import (
    canonical,
    enumeration,
    is_canonical,
    is_rotation_stable,
    is_self_mirror,
    load_expected,
    parse_tuple,
)
from interweave.cli import main
from interweave.enumeration import LIST_FILTERS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def block_to_dict(out):
    pairs = (line.split(": ", 1) for line in out.strip().splitlines())
    return {key: value for key, value in pairs}


def without_elapsed(out):
    return [line for line in out.splitlines() if not line.startswith("elapsed:")]


# -- count ---------------------------------------------------------------------

def test_count_interweavings_order4(capsys):
    code, out, _ = run(capsys, "count", "--n", "4")
    assert code == 0
    block = block_to_dict(out)
    assert block["n"] == "4"
    assert block["q_count"] == "22874"
    assert block["q_bar"] == "1446"
    assert block["m_bar"] == "142"
    assert block["r_bar"] == "18"
    assert "b_bar" not in block
    assert int(block["candidates_examined"]) > 0
    float(block["elapsed"])


def test_count_all_order2(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--mode", "all")
    assert code == 0
    assert block_to_dict(out)["b_bar"] == "7"


def test_count_key_order_is_stable(capsys):
    _, out, _ = run(capsys, "count", "--n", "3", "--mode", "all")
    keys = [line.split(":")[0] for line in out.strip().splitlines()]
    assert keys == [
        "n", "q_count", "b_bar", "q_bar", "m_bar", "r_bar",
        "candidates_examined", "elapsed",
    ]


def test_count_shards_merge_to_unsharded(capsys):
    whole = block_to_dict(run(capsys, "count", "--n", "3")[1])
    shard0 = block_to_dict(run(capsys, "count", "--n", "3", "--shard", "0/2")[1])
    shard1 = block_to_dict(run(capsys, "count", "--n", "3", "--shard", "1/2")[1])
    for key in ("q_count", "q_bar", "m_bar", "r_bar", "candidates_examined"):
        assert int(shard0[key]) + int(shard1[key]) == int(whole[key])


def test_count_parallel_jobs(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--jobs", "2")
    assert code == 0
    assert block_to_dict(out)["q_bar"] == "14"


def test_count_progress_on_stderr(capsys):
    code, _, err = run(capsys, "count", "--n", "2", "--progress")
    assert code == 0
    assert "candidates examined" in err


def test_count_progress_under_jobs_matches_in_process(capsys):
    _, single_out, single_err = run(capsys, "count", "--n", "3", "--progress")
    code, out, err = run(capsys, "count", "--n", "3", "--jobs", "2", "--progress")
    assert code == 0
    assert without_elapsed(out) == without_elapsed(single_out)
    assert err.splitlines() == single_err.splitlines()
    assert len(err.splitlines()) == 9  # one line per (first, second) prefix
    assert err.splitlines()[-1] == "shard 0/1: 45 candidates examined"


def test_filtered_list_progress_under_jobs_matches_in_process(capsys):
    argv = ("list", "--n", "4", "--filter", "mirror", "--progress")
    _, single_out, single_err = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert out == single_out
    assert err.splitlines() == single_err.splitlines()
    assert len(err.splitlines()) == 34  # one line per (first, second) prefix
    # The walk examines the tuples its table entries hold.
    assert err.splitlines()[-1] == "shard 0/1: 458 candidates examined"


def test_count_refuses_order6_without_override(capsys):
    code, _, err = run(capsys, "count", "--n", "6")
    assert code == 2
    assert "limit_override" in err


@pytest.mark.parametrize("command", ("count", "list"))
def test_shard_composes_with_jobs(capsys, command):
    argv = (command, "--n", "4", "--shard", "1/2")
    _, alone, _ = run(capsys, *argv)
    code, pooled, _ = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert without_elapsed(pooled) == without_elapsed(alone)


# A worker that dies kills itself on global prefix 1, (1 2) at order 3.
KILL_ON_PREFIX_1 = """
import os, signal, sys
from interweave import enumeration
from interweave.cli import main

real = enumeration._census_loop

def dying(cfg, *args, **kwargs):
    if cfg.shard.index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(cfg, *args, **kwargs)

enumeration._census_loop = dying  # forked workers inherit it
sys.exit(main(["count", "--n", "3", "--jobs", "2"]))
"""


def test_killed_worker_exits_2_naming_a_prefix():
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", KILL_ON_PREFIX_1],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    # The pool cannot tell which worker died, so the error names the
    # first prefix in order without a result: prefix 1, or prefix 0 if
    # it was still running when the pool broke.
    named = re.search(r"^error: prefix (\d) \((\d+) (\d+)\)", proc.stderr, re.M)
    assert named, proc.stderr
    assert named.groups() in {("0", "1", "1"), ("1", "1", "2")}


@pytest.mark.parametrize(
    "argv, n",
    (
        (("count", "--n", "3", "--jobs", "2"), 3),
        (("list", "--n", "3", "--jobs", "2"), 3),
        (("verify", "--n-max", "3", "--jobs", "2"), 2),
    ),
    ids=("count", "list", "verify"),
)
def test_failing_worker_exits_2_naming_its_prefix(capsys, monkeypatch, argv, n):
    real = enumeration._census_loop

    def failing(cfg, *args, **kwargs):
        if cfg.shard.index == 1:
            raise RuntimeError("worker failed")
        return real(cfg, *args, **kwargs)

    # Pool workers are forked, so they inherit the patched function.
    monkeypatch.setattr(enumeration, "_census_loop", failing)
    code, _, err = run(capsys, *argv)
    assert code == 2
    # Prefix 1 is (1 2) at orders 2 and 3 alike; the worker's traceback
    # follows the error line.
    first, rest = err.split("\n", 1)
    assert first == f"error: prefix 1 (1 2) of order {n} failed: worker failed"
    assert "\nRuntimeError: worker failed\n" in rest
    assert ", in failing\n" in rest


def test_unpicklable_worker_exception_exits_2_with_its_traceback(capsys, monkeypatch):
    # An exception holding a lambda cannot be pickled back to the parent;
    # its repr and the worker's traceback come back in its place.
    real = enumeration._census_loop

    def failing(cfg, *args, **kwargs):
        if cfg.shard.index == 1:
            raise RuntimeError("worker failed", lambda: None)
        return real(cfg, *args, **kwargs)

    # Pool workers are forked, so they inherit the patched function.
    monkeypatch.setattr(enumeration, "_census_loop", failing)
    code, out, err = run(capsys, "count", "--n", "3", "--jobs", "2")
    assert code == 2
    assert out == ""
    first, rest = err.split("\n", 1)
    assert first.startswith("error: prefix 1 (1 2) of order 3 failed: RuntimeError(")
    assert "'worker failed', <function " in first
    assert "\nRuntimeError: ('worker failed', <function " in rest
    assert ", in failing\n" in rest


@pytest.mark.parametrize("jobs", ((), ("--jobs", "2")), ids=("in-process", "jobs2"))
@pytest.mark.parametrize(
    "argv",
    (("count", "--n", "3"), ("list", "--n", "3"), ("verify", "--n-max", "3")),
    ids=("count", "list", "verify"),
)
def test_failed_prefix_exits_2_naming_it(capsys, monkeypatch, argv, jobs):
    # The census loop fails on the shift pairs of the order-3 prefix
    # (1, 2), prefix 1; a run with or without a pool takes the same
    # failure path.
    real = enumeration._prefix_pairs

    def failing(first, second, n):
        if (first, second, n) == (1, 2, 3):
            raise RuntimeError("census loop failed")
        return real(first, second, n)

    # Pool workers are forked, so they inherit the patched function.
    monkeypatch.setattr(enumeration, "_prefix_pairs", failing)
    code, _, err = run(capsys, *argv, *jobs)
    assert code == 2
    # The error line comes first, then the traceback of its cause.
    first, rest = err.split("\n", 1)
    assert first == "error: prefix 1 (1 2) of order 3 failed: census loop failed"
    assert "\nRuntimeError: census loop failed\n" in rest
    assert ", in failing\n" in rest


@pytest.mark.parametrize("jobs", ((), ("--jobs", "2")), ids=("in-process", "jobs2"))
def test_failed_list_leaves_no_out_file(capsys, monkeypatch, tmp_path, jobs):
    # Prefix 0's block is written before prefix 1 fails; the file that
    # holds it is removed, so exit 2 leaves no truncated listing.
    real = enumeration._prefix_pairs

    def failing(first, second, n):
        if (first, second, n) == (1, 2, 3):
            raise RuntimeError("census loop failed")
        return real(first, second, n)

    # Pool workers are forked, so they inherit the patched function.
    monkeypatch.setattr(enumeration, "_prefix_pairs", failing)
    target = tmp_path / "reps.txt"
    code, out, err = run(capsys, "list", "--n", "3", "--out", str(target), *jobs)
    assert code == 2
    assert out == ""
    assert err.startswith("error: prefix 1 (1 2) of order 3 failed:")
    assert not target.exists()


# Runs count, list and verify through main, with the extra arguments of
# the command line, and prints which pool modules they imported.
POOL_MODULES_AFTER_RUNS = """
import contextlib, io, sys
from interweave.cli import main

extra = sys.argv[1:]
runs = (["count", "--n", "4"], ["list", "--n", "4"], ["verify", "--n-max", "3"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + extra) for argv in runs]
assert codes == [0, 0, 0], codes
pool = ("concurrent.futures", "multiprocessing", "interweave.workers")
print(*(m for m in pool if m in sys.modules))
"""


@pytest.mark.parametrize(
    "jobs, imported",
    (((), ""), (("--jobs", "2"), "interweave.workers")),
    ids=("in-process", "jobs2"),
)
def test_in_process_runs_import_no_pool_machinery(jobs, imported):
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", POOL_MODULES_AFTER_RUNS, *jobs],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == imported


# Start-up cost: the records are NamedTuples, not dataclasses (which load
# inspect), and only load_expected reads package data.
STARTUP_FREE_OF = ("dataclasses", "inspect", "importlib.resources")


def test_import_loads_no_dataclasses_inspect_or_resources():
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    code = "import sys, interweave.cli; print(*set(sys.argv[1:]) & set(sys.modules))"
    proc = subprocess.run(
        # -S: without site, whose own imports (certifi's among them on
        # some hosts) would hide the package's.
        [sys.executable, "-S", "-c", code, *STARTUP_FREE_OF],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_bad_shard_spec_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--n", "3", "--shard", "nope"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_shard_out_of_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--n", "3", "--shard", "2/2"])
    assert excinfo.value.code == 2
    assert "invalid shard '2/2'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    (
        ("count", "--n", "3"),
        ("list", "--n", "3"),
        ("verify", "--n-max", "2"),
    ),
    ids=("count", "list", "verify"),
)
@pytest.mark.parametrize("jobs", ("0", "-4", "two"))
def test_jobs_not_a_positive_integer_is_usage_error(capsys, argv, jobs):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--jobs", jobs])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--jobs" in err


# -- list ----------------------------------------------------------------------

def test_list_order2(capsys):
    code, out, _ = run(capsys, "list", "--n", "2")
    assert code == 0
    assert out == "1 2\n"


def test_list_order3_sorted_canonical(capsys):
    _, out, _ = run(capsys, "list", "--n", "3")
    lines = out.splitlines()
    assert len(lines) == 14
    assert lines == sorted(lines, key=lambda s: [int(t) for t in s.split()])
    for line in lines:
        matrix = parse_tuple(line)
        assert is_canonical(matrix)
        assert canonical(matrix) == matrix


def test_list_mirror_filter(capsys):
    code, out, _ = run(capsys, "list", "--n", "3", "--filter", "mirror")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_list_rotation_filter(capsys):
    _, out, _ = run(capsys, "list", "--n", "3", "--filter", "rotation")
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("to_file", (False, True), ids=("stdout", "out"))
@pytest.mark.parametrize("wanted", LIST_FILTERS)
@pytest.mark.parametrize(
    "shard, jobs",
    ((None, 2), (None, 3), (None, 10), ("1/2", 2), ("2/3", 10)),
    ids=("2", "3", "10", "shard1of2-2", "shard2of3-10"),
)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_list_jobs_matches_streamed_output(
    capsys, tmp_path, n, shard, jobs, wanted, to_file
):
    # Order 2 has 2 prefixes and order 3 has 9, so 3 and 10 jobs are
    # more workers than prefixes, and shard 2/3 of order 2 has none.
    argv = ("list", "--n", str(n), "--filter", wanted)
    if shard is not None:
        argv += ("--shard", shard)
    _, streamed, _ = run(capsys, *argv)
    if to_file:
        target = tmp_path / "reps.txt"
        code, out, _ = run(capsys, *argv, "--jobs", str(jobs), "--out", str(target))
        assert out == ""
        parallel = target.read_text()
    else:
        code, parallel, _ = run(capsys, *argv, "--jobs", str(jobs))
    assert code == 0
    assert parallel == streamed


# sha256 and line count of `interweave list --n 5 --filter F`: the
# 705 366 interweaving classes, and the self-mirror and rotation-stable
# ones among them.
ORDER5_LISTINGS = {
    "all": ("772565c738b1cc8e325dc491076c7a2d5730c674a3665964aa2797d3268059a0", 705366),
    "mirror": ("ffbaae81f58aa598833441699216552f3d36df510c6b5472dfa1fd902fe26593", 1302),
    "rotation": ("b9cd0c62aad3d1148905b369c7aa7251caf30fad6320b8c2d92b788762b8f935", 74),
}


@pytest.mark.parametrize(
    "wanted, jobs",
    (
        ("all", ()),
        ("all", ("--jobs", "2")),
        ("mirror", ()),
        ("rotation", ()),
        ("mirror", ("--jobs", "2")),
        ("rotation", ("--jobs", "2")),
    ),
    ids=(
        "in-process", "jobs2", "mirror", "rotation", "mirror-jobs2", "rotation-jobs2",
    ),
)
def test_list_order5_digest(capsys, wanted, jobs):
    code, out, _ = run(capsys, "list", "--n", "5", "--filter", wanted, *jobs)
    assert code == 0
    digest, lines = ORDER5_LISTINGS[wanted]
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `interweave list --n 6 --limit-override --filter F`, each
# equal to the listing of a full order-6 enumeration, and the packaged
# count it must have.
ORDER6_LISTINGS = {
    "mirror": ("0fce4e15b19efa15aa969ab591109c6bb85fad1df4fb029d919e34b7555e1930", "m_bar"),
    "rotation": ("50d5426e2dd5fe6c2eeba493f8817bce2383af65f062854aa2244cffe669383a", "r_bar"),
}


@pytest.mark.parametrize(
    "wanted, symmetric, checked",
    (("mirror", is_self_mirror, 2000), ("rotation", is_rotation_stable, None)),
    ids=("mirror", "rotation"),
)
def test_list_order6_symmetric_classes(capsys, wanted, symmetric, checked):
    # The walk lists order 6 in seconds.  The library's anchored tests,
    # which use no cycle table, recheck every rotation-stable line and a
    # seeded sample of the self-mirror ones.
    argv = ("list", "--n", "6", "--limit-override", "--filter", wanted)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    digest, key = ORDER6_LISTINGS[wanted]
    lines = out.splitlines()
    assert len(lines) == load_expected()[6, key]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if checked is not None:
        lines = random.Random(6).sample(lines, checked)
    for line in lines:
        matrix = parse_tuple(line)
        assert is_canonical(matrix) and symmetric(matrix), line


def test_list_to_file(capsys, tmp_path):
    target = tmp_path / "reps.txt"
    code, out, _ = run(capsys, "list", "--n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "1 2\n"


def test_list_bad_order_creates_no_output_file(capsys, tmp_path):
    target = tmp_path / "f.txt"
    code, out, err = run(capsys, "list", "--n", "9", "--out", str(target))
    assert code == 2
    assert "error:" in err
    assert not target.exists()


def test_list_unwritable_output_path(capsys, tmp_path):
    code, _, err = run(capsys, "list", "--n", "2", "--out", str(tmp_path / "no" / "x"))
    assert code == 2
    assert "error:" in err


# -- classify --------------------------------------------------------------------

def test_classify_inline(capsys):
    code, out, _ = run(capsys, "classify", "1", "2")
    assert code == 0
    assert "canonical: 1 2" in out
    assert "orbit_size: 2" in out
    assert "interweaving: yes" in out
    assert "self_mirror: yes" in out
    assert "rotation_stable: yes" in out


def test_classify_inline_single_argument(capsys):
    code, out, _ = run(capsys, "classify", "1 2")
    assert code == 0
    assert "canonical: 1 2" in out


def test_classify_zero_matrix(capsys):
    _, out, _ = run(capsys, "classify", "0", "0")
    assert "interweaving: no" in out
    assert "orbit_size: 1" in out


def test_classify_all_ones(capsys):
    _, out, _ = run(capsys, "classify", "3", "3")
    assert "interweaving: no" in out


def test_classify_from_grid_file(capsys, tmp_path):
    source = tmp_path / "m.txt"
    source.write_text("010\n001\n100\n")
    code, out, _ = run(capsys, "classify", "--file", str(source))
    assert code == 0
    assert "canonical: 1 4 2" in out


def test_classify_rejects_nonsquare_file(capsys, tmp_path):
    source = tmp_path / "m.txt"
    source.write_text("0101\n0011\n1000\n")
    code, _, err = run(capsys, "classify", "--file", str(source))
    assert code == 2
    assert "line 1" in err


def test_classify_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "classify")
    assert code == 2
    source = tmp_path / "m.txt"
    source.write_text("1 2\n")
    code, _, err = run(capsys, "classify", "1", "2", "--file", str(source))
    assert code == 2


def test_classify_parse_error_names_position(capsys):
    code, _, err = run(capsys, "classify", "1", "x")
    assert code == 2
    assert "word 2" in err


# -- render ------------------------------------------------------------------------

def test_render_chart(capsys):
    code, out, _ = run(capsys, "render", "1", "2")
    assert code == 0
    assert out == ".#\n#.\n"


def test_render_pbm(capsys):
    code, out, _ = run(capsys, "render", "1", "2", "--format", "pbm")
    assert code == 0
    assert out == "P1\n2 2\n0 1\n1 0\n"


def test_render_to_file(capsys, tmp_path):
    target = tmp_path / "weave.pbm"
    code, _, _ = run(
        capsys, "render", "2", "1", "4", "--format", "pbm", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("P1\n3 3\n")


# -- verify -------------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("verify: PASS")
    assert all("FAIL" not in line for line in lines)
    assert any("burnside" in line for line in lines)


def test_verify_order5_checks_b_bar_by_both_methods(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verify: PASS (24/24 cells)"
    b_bar = [line.split()[2:] for line in lines if line.startswith("n=5 b_bar")]
    assert b_bar == [
        ["enumerated", "expected", "1342208", "computed", "1342208", "PASS"],
        ["burnside", "expected", "1342208", "computed", "1342208", "PASS"],
    ]


def test_verify_corrupted_expected_fails(capsys, tmp_path):
    from interweave import load_expected

    corrupt = tmp_path / "expected.txt"
    lines = [
        f"{n} {key} {value if (n, key) != (2, 'q_bar') else value + 1}"
        for (n, key), value in sorted(load_expected().items())
    ]
    corrupt.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--expected", str(corrupt))
    assert code == 1
    assert "FAIL" in out


def test_verify_unparseable_expected_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "expected.txt"
    bad.write_text("not a census\n")
    code, _, err = run(capsys, "verify", "--n-max", "2", "--expected", str(bad))
    assert code == 2
    assert "error:" in err


def test_verify_bad_n_max(capsys):
    code, _, err = run(capsys, "verify", "--n-max", "9")
    assert code == 2
    assert "error:" in err


# -- top-level usage ------------------------------------------------------------------

def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["weave-the-world"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["count"])
    assert excinfo.value.code == 2
    capsys.readouterr()
