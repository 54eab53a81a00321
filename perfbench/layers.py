"""Per-layer probes of a traced run.

Each probe calls into one module of the program from here, inside spans,
and turns the spans and counters into the per-layer metrics listed in
BENCHMARK.json.  README.md says which end-to-end metric each should move.
"""

from __future__ import annotations

import operator
import random
import time
from statistics import mean, median

import census
import inputs

MICRO_ORDERS = (5, 16)
MICRO_MATRICES = 256
MICRO_REPS = 7
RECORD_PAIRS = 21
IMPORT_REPS = 7


def classify_traced(items, tracer) -> list:
    """The classify_mix round with one span per call into each module."""
    from interweave import classify, format_tuple, parse_tuple

    out = []
    for item in items:
        with tracer.span("item"):
            try:
                a = tracer.call("formats.parse_tuple", parse_tuple, item.text)
                rec = tracer.call(f"classify.classify.{inputs.bucket_of(a.n)}", classify, a)
                text = tracer.call("formats.format_tuple", format_tuple, rec.canonical)
                out.append((a.rows, rec, text))
            except Exception as exc:  # one failed operation; the round goes on
                out.append(exc)
        tracer.op += 1
    return out


def span_overhead_ns(reps: int = 20_000) -> float:
    """What tracing adds to one classify_mix item: one span and three calls."""
    from spans import Tracer

    scratch = Tracer()

    def noop():
        pass

    start = time.perf_counter_ns()
    for _ in range(reps):
        noop()
        noop()
        noop()
    plain = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(reps):
        with scratch.span("item"):
            scratch.call("a", noop)
            scratch.call("b", noop)
            scratch.call("c", noop)
    return (time.perf_counter_ns() - start - plain) / reps


def _per_call_ns(tracer, name: str, fn, args_list) -> float:
    """Median over repetitions of the mean time of ``fn(*args)`` in a loop."""
    times = []
    with tracer.span(name):
        for _ in range(MICRO_REPS):
            start = time.perf_counter_ns()
            for args in args_list:
                fn(*args)
            times.append((time.perf_counter_ns() - start) / len(args_list))
    return median(times)


def classify_layer(tracer, items, metrics: dict) -> None:
    from interweave import is_canonical, is_weavable, orbit, parse_tuple

    if not tracer.ids("item"):
        classify_traced(items, tracer)
    matrices = [parse_tuple(item.text) for item in items]
    for a in matrices:
        bucket = inputs.bucket_of(a.n)
        tracer.call(f"classify.orbit.{bucket}", orbit, a)
        tracer.call(f"classify.is_canonical.{bucket}", is_canonical, a)
    for lo, hi in inputs.BUCKETS:
        bucket = f"n{lo}-{hi}"
        for name in ("classify", "orbit", "is_canonical"):
            metrics[f"classify.{name}_us.{bucket}"] = (
                tracer.median_us(f"classify.{name}.{bucket}"),
                "us",
            )
    metrics["classify.is_weavable_ns"] = (
        _per_call_ns(tracer, "classify.is_weavable", is_weavable, [(a,) for a in matrices]),
        "ns",
    )
    for name in ("parse_tuple", "format_tuple"):
        metrics[f"formats.{name}_us"] = (tracer.median_us(f"formats.{name}"), "us")


def packed_layers(tracer, seed: int, metrics: dict) -> None:
    from interweave import BitMatrix, ShiftPair, act, mirror, rotate90, rotate_cols

    rng = random.Random(seed)
    for n in MICRO_ORDERS:
        words = [tuple(rng.getrandbits(n) for _ in range(n)) for _ in range(MICRO_MATRICES)]
        mats = [BitMatrix(w) for w in words]
        pairs = list(zip(mats, mats[1:] + mats[:1]))
        cases = {
            "transforms.rotate_cols": (rotate_cols, [(a, rng.randrange(1, n)) for a in mats]),
            "transforms.mirror": (mirror, [(a,) for a in mats]),
            "transforms.rotate90": (rotate90, [(a,) for a in mats]),
            "transforms.act": (
                act,
                [(a, ShiftPair(rng.randrange(n), rng.randrange(n))) for a in mats],
            ),
            "bitmatrix.init": (BitMatrix, [(w,) for w in words]),
            "bitmatrix.transpose": (BitMatrix.transpose, [(a,) for a in mats]),
            "bitmatrix.lt": (operator.lt, pairs),
            "bitmatrix.hash": (hash, [(a,) for a in mats]),
        }
        for name, (fn, args_list) in cases.items():
            metrics[f"{name}_ns.n{n}"] = (
                _per_call_ns(tracer, f"{name}.n{n}", fn, args_list),
                "ns",
            )


def enumeration_layer(tracer, run, metrics: dict) -> None:
    from interweave import EnumConfig, Shard, enumerate_classes, enumerate_sharded

    expected = census.census(5)
    batches, shard_s = [], []
    candidates = classes = 0
    for index in range(2):
        marks = [time.perf_counter()]
        with tracer.span(f"enumeration.enumerate_classes.shard{index}of2"):
            report = enumerate_classes(
                EnumConfig(5, shard=Shard(index, 2)),
                progress=lambda _: marks.append(time.perf_counter()),
            )
        batches += [b - a for a, b in zip(marks, marks[1:])]
        shard_s.append(report.elapsed)
        candidates += report.candidates_examined
        classes += report.q_bar
    run.check(classes == expected["q_bar"], f"shards 0/2 + 1/2: {classes} classes")
    tracer.count("enumeration.candidates", candidates)
    tracer.count("enumeration.classes", classes)
    tracer.count("enumeration.batches", len(batches))

    start = time.perf_counter()
    with tracer.span("enumeration.enumerate_sharded"):
        report, rows = enumerate_sharded(5, shards=2, jobs=2, collect="all")
    pool_overhead = time.perf_counter() - start - report.elapsed
    run.check(
        len(rows) == report.q_bar == expected["q_bar"],
        f"enumerate_sharded: {len(rows)} rows, q_bar {report.q_bar}",
    )
    del rows

    # Extra cost of a sink per class: alternate order-4 runs with and
    # without one, so slow drift of the host cancels in each pair.
    extra = []
    with tracer.span("enumeration.record_pairs"):
        for _ in range(RECORD_PAIRS):
            records: list = []
            t0 = time.perf_counter()
            plain = enumerate_classes(EnumConfig(4))
            t1 = time.perf_counter()
            enumerate_classes(EnumConfig(4), sink=records.append)
            t2 = time.perf_counter()
            run.check(len(records) == plain.q_bar, "order-4 sink missed records")
            extra.append(((t2 - t1) - (t1 - t0)) / plain.q_bar)

    metrics.update(
        {
            "enumeration.candidates": (candidates, "count"),
            "enumeration.classes": (classes, "count"),
            "enumeration.class_yield": (classes / candidates, "ratio"),
            "enumeration.candidates_per_s": (candidates / sum(shard_s), "1/s"),
            "enumeration.batch_ms_p50": (median(batches) * 1e3, "ms"),
            "enumeration.batch_ms_max": (max(batches) * 1e3, "ms"),
            "enumeration.shard2_s_max": (max(shard_s), "s"),
            "enumeration.shard2_imbalance": (max(shard_s) / mean(shard_s), "ratio"),
            "enumeration.pool_overhead_s": (pool_overhead, "s"),
            "enumeration.record_us": (median(extra) * 1e6, "us"),
        }
    )


def cli_layer(tracer, run, child_cls, python: str, metrics: dict) -> None:
    code = (
        "import time; t = time.perf_counter(); import interweave.cli; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    with tracer.span("cli.import"):
        children = [child_cls([python, "-c", code]) for _ in range(IMPORT_REPS)]
    if run.check(
        all(c.returncode == 0 for c in children), "import interweave.cli failed"
    ):
        metrics["cli.import_ms"] = (median(float(c.stdout) for c in children), "ms")


def probe(tracer, seed: int, run, child_cls, python: str) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    metrics: dict = {}
    classify_layer(tracer, inputs.batch(seed), metrics)
    packed_layers(tracer, seed, metrics)
    enumeration_layer(tracer, run, metrics)
    cli_layer(tracer, run, child_cls, python, metrics)
    return metrics
