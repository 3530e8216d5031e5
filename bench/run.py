"""strandshift benchmark: time to verdict through the CLI, one operation at a time.

    python3 bench/run.py --workload fig1-conj --seed 1 --seconds 24 --trace 0

Closed loop, one client, no threads: each operation is an in-process call of
`strandshift.cli.main(["--json", ...])` on input files generated from the
seed, and the next starts when it returns.  Every output is checked against
an answer known independently of the code under test (see workloads.py).
With `--trace 0` the operations are repeated in passes for `--seconds`, and
the last stdout line carries the end-to-end metrics.  With `--trace 1` one
untraced and one traced pass run over the same operations, the traced
verdicts must equal the untraced ones op for op, and the last line carries
the per-layer metrics.  The lines before it print every metric, with the
failure counts, as `name: value unit`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUPS = 15  # set-up repetitions; setup_s is their median
# Other tenants of a shared VM slow all Python code alike, by 1.3x-2.2x in
# phases of seconds to minutes, so timings are scaled to the speed at which
# calibration_s() reads REF_CAL_S.  The constant only fixes the unit.
REF_CAL_S = 0.0015
CAL_EVERY_S = 0.05  # seconds between calibrations
# Operations per pass (random-conj: suite graphs, up to fifteen ops each; loops-eq:
# suite graphs, nine ops each).
SIZES = {"fig1-conj": 270, "random-conj": 25, "power-eq": 400, "loops-eq": 15}
SMOKE_SIZES = {"fig1-conj": 6, "random-conj": 4, "power-eq": 10, "loops-eq": 1}


def import_program():
    """Import strandshift from this checkout's src/, never from an installed copy.

    The import is repeated SETUPS times, each time after dropping the
    package from sys.modules, and the list of import times is returned: a
    single first import varied by 2x between runs and set setup_s's spread.
    """
    src = ROOT / "src"
    if not (src / "strandshift" / "cli.py").is_file():
        sys.exit(f"bench: no program source at {src / 'strandshift'}")
    sys.path.insert(0, str(src))
    import_s = []
    for _ in range(SETUPS):
        for name in [m for m in sys.modules if m == "strandshift" or m.startswith("strandshift.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        cli = importlib.import_module("strandshift.cli")
        import_s.append(time.perf_counter() - t0)
    if Path(cli.__file__).resolve().parent != src / "strandshift":
        sys.exit(f"bench: imported strandshift from {cli.__file__}, not {src}")
    return import_s


def set_up(workloads, name, seed, size, where: Path):
    """Generate the inputs, write them, and return (argv, op) pairs."""
    files, ops = workloads.WORKLOADS[name](random.Random(seed), size)
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    for key, text in files.items():
        (where / key).write_text(text, encoding="utf-8")
    return [(["--json", op.command, *(str(where / a) if a in files else a for a in op.args)], op) for op in ops]


def call(main, argv):
    """One timed CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # an escaped exception is an errored op, counted in tally()
            code = f"exception {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


def calibration_s():
    """Seconds taken by fixed pure-Python work: tuple-keyed dict updates and a sort."""
    t0 = time.perf_counter()
    d = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i
    sorted(d.items())
    return time.perf_counter() - t0


def speed(samples):
    """Reference speed over measured speed: REF_CAL_S / median calibration time."""
    return REF_CAL_S / statistics.median(samples)


def measure(main, calls, seconds):
    """Closed loop over the ops in passes until `seconds` have passed, at least one pass.

    A calibration run precedes a call whenever CAL_EVERY_S has passed since
    the last one.  Returns per op its raw durations and its durations scaled
    to reference speed by the median of the eleven calibrations nearest the
    call, the first pass's outputs, and how many later outputs differed from
    the first pass's.
    """
    cals = []
    log = []  # (op index, seconds, index of the latest calibration)
    first = []
    drift = 0
    start = last = time.perf_counter()
    while len(first) < len(calls) or time.perf_counter() - start < seconds:
        i = len(log) % len(calls)
        if not cals or time.perf_counter() - last >= CAL_EVERY_S:
            cals.append(calibration_s())
            last = time.perf_counter()
        elapsed, *output = call(main, calls[i][0])
        log.append((i, elapsed, len(cals) - 1))
        if len(first) < len(calls):
            first.append(output)
        elif first[i] != output:
            drift += 1
    raw = [[] for _ in calls]
    scaled = [[] for _ in calls]
    for i, elapsed, k in log:
        raw[i].append(elapsed)
        scaled[i].append(elapsed * speed(cals[max(0, k - 5) : k + 6]))
    return raw, scaled, first, drift


def tally(workloads, tracer, calls, outputs):
    """Check every output against its answer.

    Returns counts by outcome (ok, wrong, refused, error), witness counts, and
    per op the summary the traced run must reproduce.
    """
    counts = dict.fromkeys(("ok", "wrong", "refused", "error"), 0)
    witnesses = {"asked": 0, "verified": 0}
    summaries = []
    for (_, op), (code, stdout, stderr) in zip(calls, outputs):
        if code == 2:
            kind, summary = "refused", ("refused", stderr.removeprefix("limit exceeded:").split(":")[0].strip())
        elif code != 0:
            kind, summary = "error", ("error", None)
        else:
            try:
                report = json.loads(stdout)
                right, witness = workloads.check(op, report)
                kind, summary = ("ok" if right else "wrong"), ("ok", tracer.summarize(op.command, report))
            except (ValueError, KeyError):
                kind, summary, witness = "error", ("error", None), None
            if witness is not None:
                witnesses["asked"] += 1
                witnesses["verified"] += witness
        counts[kind] += 1
        summaries.append(summary)
    return counts, witnesses, summaries


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    The sorted values are averaged with weights equal to the Beta((n+1)q,
    (n+1)(1-q)) mass on [(i-1)/n, i/n].  Near p90 the operations are sparse
    and each is timed only a few times; averaging neighbouring order
    statistics halved the seed-to-seed spread of op_p90_ms on the conj
    workloads against the single interpolated order statistic.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 50  # midpoint rule per interval; the common factor cancels below
    weights = [
        sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log(1 - x))
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def traced(tracer, calls, spans_path):
    """One traced pass; returns the tracer and each op's (status, summary)."""
    t = tracer.Tracer()
    with t.installed():
        results = [tracer.drive(t, i, argv) for i, (argv, _) in enumerate(calls)]
    spans_path.parent.mkdir(exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": t.spans}, fh)
    return t, results


def layer_metrics(tracer, t, untraced_ms, witness_share):
    self_ms = t.self_ms()
    counts = dict(t.counts)
    for span, name in tracer.SPAN_COUNTS.items():
        counts[name] = sum(1 for s in t.spans if s[0] == span)
    op_ms = t.op_ms()
    metrics = {f"{name}_ms": (self_ms.get(name, 0.0), "ms") for name in tracer.SPAN_MS}
    metrics.update({name: (counts.get(name, 0), "count") for name in tracer.COUNTS})
    metrics["intlinalg.solve_share"] = (self_ms.get("intlinalg.solve", 0.0) / sum(op_ms), "share")
    metrics["conjugacy.witness_share"] = (witness_share, "share")
    metrics["trace.op_p50_ms"] = (quantile(op_ms, 0.5), "ms")
    metrics["trace.untraced_op_p50_ms"] = (quantile(untraced_ms, 0.5), "ms")
    metrics["trace.overhead_ratio"] = (quantile(op_ms, 0.5) / quantile(untraced_ms, 0.5), "ratio")
    return metrics


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a handful of ops, for the benchmark's own tests")
    args = parser.parse_args(argv)

    import_s = import_program()
    from strandshift.cli import main

    import tracer
    import workloads

    size = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    inputs = [OUT / f"inputs-{tag}-{k}" for k in range(SETUPS)]
    try:
        gen = []
        for where, imported in zip(inputs, import_s):
            cals = [calibration_s() for _ in range(5)]
            t0 = time.perf_counter()
            calls = set_up(workloads, args.workload, args.seed, size, where)
            elapsed = time.perf_counter() - t0 + imported
            cals += [calibration_s() for _ in range(5)]
            gen.append(elapsed * speed(cals))

        times, scaled, first, drift = measure(main, calls, 0 if args.trace else args.seconds)
        counts, witnesses, summaries = tally(workloads, tracer, calls, first)
        per_op_ms = [1000 * statistics.median(ts) for ts in scaled]
        raw_ms = [1000 * statistics.median(ts) for ts in times]
        attempted = len(calls)
        failed = counts["wrong"] + counts["refused"] + counts["error"] + drift
        correct = counts["wrong"] == 0 and counts["error"] == 0 and drift == 0
        witness_share = witnesses["verified"] / witnesses["asked"] if witnesses["asked"] else 0.0
        report = {
            "op_p50_ms": (quantile(per_op_ms, 0.5), "ms"),
            "op_p90_ms": (quantile(per_op_ms, 0.9), "ms"),
            "ops_per_s": (1000 * attempted / sum(per_op_ms), "1/s"),
            "ok_share": (counts["ok"] / attempted, "share"),
            "decided_share": (1 - counts["refused"] / attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(gen), "s"),
            "failed_share": (failed / attempted, "share"),
            "refused_share": (counts["refused"] / attempted, "share"),
            "wrong_verdicts": (counts["wrong"], "count"),
            "errored": (counts["error"] + drift, "count"),
            "witness_share": (witness_share, "share"),
            "raw_op_p50_ms": (quantile(raw_ms, 0.5), "ms"),
            "raw_op_p90_ms": (quantile(raw_ms, 0.9), "ms"),
            "host_slowdown": (sum(raw_ms) / sum(per_op_ms), "ratio"),
            "distinct_ops": (attempted, "count"),
            "timed_calls": (sum(len(ts) for ts in times), "count"),
        }
        shown = ["op_p50_ms", "op_p90_ms", "ops_per_s", "ok_share", "decided_share", "peak_rss_mb", "setup_s"]
        if args.trace:
            t, results = traced(tracer, calls, OUT / f"spans-{tag}.json.gz")
            mismatches = sum(got != want for got, want in zip(results, summaries))
            report["trace_mismatches"] = (mismatches, "count")
            correct = correct and mismatches == 0
            layers = layer_metrics(tracer, t, raw_ms, witness_share)
            report.update(layers)
            shown = list(layers)
    finally:
        for where in inputs:
            shutil.rmtree(where, ignore_errors=True)

    print(f"strandshift benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, closed loop, 1 client")
    for name, (value, unit) in report.items():
        print(f"  {name}: {value:.6g} {unit}")
    metrics = {name: {"value": report[name][0], "unit": report[name][1]} for name in shown}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run())
