"""Smoke tests of the benchmark itself: `python -m pytest bench`.

Each test runs bench/run.py in its smoke mode (a handful of operations per
workload) as a subprocess, the way the benchmark is meant to be launched.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=7, cwd=ROOT, script=BENCH / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    """The `name: value unit` lines as {name: value}, and the last line's JSON."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines[1:-1]:
        name, value = line.strip().split(": ")
        report[name] = float(value.split()[0])
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    report, last = result(run(workload, 0))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert report["errored"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_prints_every_layer_metric(workload):
    report, last = result(run(workload, 1))
    assert report["trace_mismatches"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (result(run(workload, 1))[1]["metrics"] for _ in range(2))
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_operation_is_decided_and_right(workload):
    report, last = result(run(workload, 0, seed=11))
    assert last["correct"] and last["failed"] == 0
    assert report["wrong_verdicts"] == 0 and report["refused_share"] == 0


def test_a_contradicted_answer_is_caught(tmp_path, monkeypatch):
    """check() is not vacuous: flipping a conj op's answer makes its verdict wrong."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    from strandshift.cli import main

    files, ops = workloads.random_conj(random.Random(3), 2)
    for key, text in files.items():
        (tmp_path / key).write_text(text)
    assert {op.answer for op in ops} == {True, False}
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--json", op.command, *(str(tmp_path / a) if a in files else a for a in op.args)]) == 0
        report = json.loads(out.getvalue())
        assert workloads.check(op, report)[0]
        op.answer = not op.answer
        assert not workloads.check(op, report)[0]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
