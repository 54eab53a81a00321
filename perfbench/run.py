"""Benchmark of the interweave census engine.

    python3 perfbench/run.py --workload census5 --seed 1 --seconds 12 --trace 0

Run from anywhere inside a source checkout: the program is imported from
the checkout's ``src/`` and driven as ``python3 -m interweave.cli`` with
``PYTHONPATH=src``.  Each run checks every output against the counting
formulas in ``census.py``, the 2-D oracle in ``oracle.py`` and class
properties, and prints one JSON line last.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload once with spans
recorded, then the per-layer probes of ``layers.py``, and reports the
per-layer metrics.  Results and traces go to ``perfbench/out/``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from statistics import median

import census
import inputs
import layers
import oracle
from hostclock import HostClock, fixed_loop, process_tree
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PYTHON = sys.executable
SETUP_REPS = 15
SPIN_LOOP = 300_000
LIST_SAMPLE = 400
ORACLE_SHARE = {"n3-8": 1 / 4, "n9-16": 1 / 8, "n17-32": 1 / 24}
MAX_MESSAGES = 20
RSS_POLL_S = 0.02

UNITS = {
    "classes_per_s": "1/s",
    "matrices_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def spin_ms() -> float:
    """The host-speed control: milliseconds of a fixed loop."""
    start = time.perf_counter()
    fixed_loop(SPIN_LOOP)
    return (time.perf_counter() - start) * 1e3


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set of one process's address space (VmHWM), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_kib(pid: int) -> int:
    """Largest VmHWM in the process tree under ``pid``, in KiB.

    The ``ru_maxrss`` of wait4 does not do here: it keeps the parent's
    peak from before the child's exec.
    """
    peak = 0
    for p in process_tree(pid):
        try:
            peak = max(peak, vm_hwm_kib(p))
        except OSError:
            pass  # the process ended while we read it
    return peak


class Child:
    """One finished child process: exit code, output, CPU time, peak RSS.

    The child leads a process group of its own, which ``pace`` (see
    ``HostClock.pace``) is handed while it runs.
    """

    def __init__(self, argv: list, pace=None):
        env = dict(os.environ, PYTHONPATH=SRC)
        peak = [0]
        done = threading.Event()

        def sample():
            while not done.wait(RSS_POLL_S):
                peak[0] = max(peak[0], peak_rss_kib(proc.pid))
                if pace is not None:
                    pace(proc.pid)

        # Output goes to files, so no pipe can fill up while we wait; the
        # child is reaped with wait4, whose CPU times cover the child and
        # every descendant the child waited for.
        with open(os.path.join(OUT, "child.stdout"), "w+b") as out, open(
            os.path.join(OUT, "child.stderr"), "w+b"
        ) as err:
            proc = subprocess.Popen(
                argv, env=env, cwd=ROOT, stdout=out, stderr=err, start_new_session=True
            )
            sampler = threading.Thread(target=sample)
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                done.set()
                sampler.join()
            proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.stdout, self.stderr = out.read(), err.read()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = peak[0] / 1024


def run_child(argv: list, pace=None) -> tuple:
    child = Child(argv, pace)
    return child, child.cpu


def setup_seconds(clock, run) -> float:
    """Median reference time of a fresh interpreter importing the command."""
    argv = [PYTHON, "-c", "import interweave.cli"]
    times = [clock.measure("setup", run_child, argv)[1] for _ in range(SETUP_REPS)]
    run.raw["setup_s"] = median(t.wall for t in times)
    return median(t.ref_elapsed for t in times)


class Run:
    """Operations attempted and failed, and failed checks, of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.raw: dict = {}  # the same metrics in wall-clock time

    def check(self, ok: bool, message: str) -> bool:
        if not ok and len(self.errors) < MAX_MESSAGES:
            self.errors.append(message)
        return ok

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_MESSAGES:
            self.failures.append(message)


def per_op_metrics(run: Run, times: list, classes: float, matrices: float) -> dict:
    """Rates and CPU time of the median operation, at reference speed;
    ``run.raw`` gets the same in wall-clock time."""
    wall, ref = median(t.wall for t in times), median(t.ref_elapsed for t in times)
    run.raw.update(
        classes_per_s=classes / wall,
        cpu_s=median(t.cpu for t in times),
        wall_s=[t.wall for t in times],
    )
    return {
        "classes_per_s": classes / ref,
        "matrices_per_s": matrices / ref,
        "cpu_s": median(t.ref_cpu for t in times),
    }


# -- census5 and list5_jobs2 ---------------------------------------------------


def check_count(run: Run, child: Child, expected: dict) -> int:
    """Classes reported by one ``count`` run, checked against the formulas."""
    report = {}
    for line in child.stdout.decode().splitlines():
        key, _, value = line.partition(":")
        report[key.strip()] = value.strip()
    for key in ("q_count", "q_bar", "m_bar", "r_bar"):
        run.check(
            report.get(key) == str(expected[key]),
            f"count: {key} {report.get(key)} != {expected[key]}",
        )
    run.check("b_bar" not in report, "count: b_bar printed in interweavings mode")
    return expected["q_bar"]


def check_listing(run: Run, path: str, expected: dict, rng: random.Random) -> int:
    """Classes in one ``list --n 5`` output, checked line by line.

    Streamed, so the benchmark stays smaller than the processes it
    measures: a child's peak resident set includes its parent's at spawn.
    """
    full = 31
    sample = set(rng.sample(range(expected["q_bar"]), LIST_SAMPLE))
    previous, count = (), 0
    with open(path, encoding="utf-8") as handle:
        for count, line in enumerate(handle, start=1):
            r = tuple(map(int, line.split()))
            ored, anded = 0, full
            for w in r:
                ored |= w
                anded &= w
            weavable = ored == full and anded == 0 and 0 not in r and full not in r
            if not (len(r) == 5 and weavable and r > previous):
                message = f"list: line {count} {r} is not a weavable order-5 matrix"
                run.check(False, f"{message} above the line before, {previous}")
                break
            if count - 1 in sample and not oracle.is_canonical(r):
                run.check(False, f"list: line {count} {r} is not canonical")
                break
            previous = r
    run.check(
        count == expected["q_bar"], f"list: {count} lines != q_bar {expected['q_bar']}"
    )
    return count


def cli_workload(run: Run, seed: int, seconds: float, timer, listing: bool) -> dict:
    """Whole ``interweave`` runs at order 5, one after another."""
    expected = census.census(5)
    rng = random.Random(seed)
    path = os.path.join(OUT, "list5_jobs2.txt")
    if listing:
        args = ("list", "--n", "5", "--jobs", "2", "--out", path)
    else:
        args = ("count", "--n", "5")
    argv = [PYTHON, "-m", "interweave.cli", *args]
    walls, done, classes = [], [], 0
    while not walls or sum(walls) < seconds:
        run.attempted += 1
        if listing and os.path.exists(path):
            os.remove(path)
        child, t = timer.measure(f"cli.{args[0]}", run_child, argv, timer.pace)
        walls.append(t.wall)
        if child.returncode != 0:
            run.fail(f"{' '.join(args)} exited {child.returncode}: {child.stderr[-300:]!r}")
            continue
        done.append((child, t))
        if listing:
            classes += check_listing(run, path, expected, rng)
        else:
            classes += check_count(run, child, expected)
    for message in census.self_test():
        run.check(False, f"census formulas: {message}")
    if not done:
        return {}
    # Each class stands for its orbit of weavable matrices.
    metrics = per_op_metrics(run, [t for _, t in done], classes / len(done), expected["q_count"])
    metrics["peak_rss_mib"] = max(c.rss_mib for c, _ in done)
    return metrics


# -- classify_mix --------------------------------------------------------------


def classify_round(items) -> list:
    """parse_tuple -> classify -> format_tuple for every item of the batch."""
    from interweave import classify, format_tuple, parse_tuple

    out = []
    for item in items:
        try:
            a = parse_tuple(item.text)
            rec = classify(a)
            out.append((a.rows, rec, format_tuple(rec.canonical)))
        except Exception as exc:  # one failed operation; the round goes on
            out.append(exc)
    return out


def check_classify(run: Run, items, outputs, seed: int) -> None:
    """Every output against class properties; a seeded sample against the oracle."""
    by_base: dict = {}
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            run.fail(f"classify {item.text!r}: {out!r}")
            continue
        rows, rec, text = out
        n = len(item.words)
        canon = rec.canonical.rows
        weavable = oracle.weavable(oracle.to_grid(item.words, n))
        run.check(rows == item.words, f"parse_tuple {item.text!r} gave {rows}")
        run.check(text == " ".join(map(str, canon)), f"format_tuple gave {text!r} for {canon}")
        run.check(
            len(canon) == n and canon <= item.words and (n * n) % rec.orbit_size == 0,
            f"classify {item.text!r}: canonical {canon}, orbit {rec.orbit_size}",
        )
        run.check(
            rec.is_interweaving == weavable
            and (weavable or not (rec.self_mirror or rec.rotation_stable)),
            f"classify {item.text!r}: flags of {rec}",
        )
        by_base.setdefault(item.base, {})[item.twin] = rec
    for base, twins in by_base.items():
        if len(twins) != 3:
            continue
        r0, r1, r2 = twins["base"], twins["shifted"], twins["mirrored"]
        run.check(r1 == r0, f"base {base}: shifted twin {r1} != {r0}")
        run.check(
            (r2.orbit_size, r2.is_interweaving, r2.self_mirror, r2.rotation_stable)
            == (r0.orbit_size, r0.is_interweaving, r0.self_mirror, r0.rotation_stable),
            f"base {base}: mirrored twin {r2} disagrees with {r0}",
        )
        if r0.is_interweaving:
            run.check(
                (r2.canonical == r0.canonical) == r0.self_mirror,
                f"base {base}: self_mirror {r0.self_mirror} but mirror class says otherwise",
            )
    # The oracle sample thins out at large orders, where the oracle is slow.
    rng = random.Random(seed)
    for item, out in zip(items, outputs):
        if rng.random() >= ORACLE_SHARE[inputs.bucket_of(len(item.words))]:
            continue
        if isinstance(out, Exception):
            continue
        rec = out[1]
        got = (
            rec.canonical.rows,
            rec.orbit_size,
            rec.is_interweaving,
            rec.self_mirror,
            rec.rotation_stable,
        )
        want = tuple(oracle.classify(item.words))
        run.check(got == want, f"oracle {item.text!r}: {got} != {want}")


def timed_round(items) -> tuple:
    cpu = time.process_time()
    outputs = classify_round(items)
    return outputs, time.process_time() - cpu


def classify_workload(run: Run, seed: int, seconds: float, timer) -> dict:
    """Rounds over the seeded batch, in this process."""
    items = inputs.batch(seed)
    if isinstance(timer, Tracer):
        # The trace records its own overhead: an untraced and a traced
        # round, and the cost of the spans themselves, which the host's
        # drift does not blur.
        start = time.perf_counter()
        classify_round(items)
        timer.counters["classify_mix.round_s.untraced"] = time.perf_counter() - start
        start = time.perf_counter()
        outputs = layers.classify_traced(items, timer)
        timer.counters["classify_mix.round_s.traced"] = time.perf_counter() - start
        timer.counters["classify_mix.span_overhead_s"] = (
            layers.span_overhead_ns() * len(items) / 1e9
        )
        run.attempted += len(items)
        check_classify(run, items, outputs, seed)
        return {}
    times, first = [], None
    while not times or sum(t.wall for t in times) < seconds:
        outputs, t = timer.measure("round", timed_round, items)
        times.append(t)
        run.attempted += len(items)
        if first is None:
            first = outputs
            check_classify(run, items, outputs, seed)
            continue
        for item, out, was in zip(items, outputs, first):
            if isinstance(out, Exception):
                run.fail(f"classify {item.text!r}: {out!r}")
            elif not run.check(
                not isinstance(was, Exception) and out[1:] == was[1:],
                f"classify {item.text!r}: a later round differs from the first",
            ):
                break
    # One class report per matrix.
    metrics = per_op_metrics(run, times, len(items), len(items))
    metrics["peak_rss_mib"] = vm_hwm_kib(os.getpid()) / 1024
    return metrics


# name: (function, CPUs each operation keeps busy)
WORKLOADS = {
    "census5": (lambda run, seed, s, timer: cli_workload(run, seed, s, timer, False), 1),
    "list5_jobs2": (lambda run, seed, s, timer: cli_workload(run, seed, s, timer, True), 2),
    "classify_mix": (classify_workload, 1),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "interweave", "__init__.py")):
        print(f"error: no interweave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import interweave

    if not os.path.abspath(interweave.__file__).startswith(SRC + os.sep):
        print(f"error: imported interweave from {interweave.__file__}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # On SIGTERM, unwind so that every process started here is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spins = [spin_ms() for _ in range(3)]
    run = Run()
    workload, busy = WORKLOADS[args.workload]
    if args.trace:
        tracer = Tracer()
        workload(run, args.seed, 0, tracer)
        metrics = layers.probe(tracer, args.seed, run, Child, PYTHON)
    else:
        with HostClock(1) as clock:
            setup = setup_seconds(clock, run)
        with HostClock(busy) as clock:
            metrics = workload(run, args.seed, args.seconds, clock)
        if not metrics:
            print("error: every operation failed", *run.failures, sep="\n", file=sys.stderr)
            return 1
        metrics["setup_s"] = setup
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
    spins += [spin_ms() for _ in range(3)]
    if args.trace:
        metrics["host.spin_ms"] = (median(spins), "ms")
        tracer.write(
            os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "errors": run.errors},
        )

    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        detail = {
            "errors": run.errors,
            "failures": run.failures,
            "spin_ms": spins,
            "wall_clock": run.raw,
        }
        json.dump({**result, **detail}, handle, indent=1)
    for message in run.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        f"host spin: {median(spins[:3]):.1f} ms at start, {median(spins[3:]):.1f} ms at end",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
