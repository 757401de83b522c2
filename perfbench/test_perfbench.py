"""The benchmark's own checks: determinism, known answers and the capped item.

Run from the root of a checkout:  python3 -m pytest perfbench -q

The determinism checks run perfbench/run.py in a child process on a whole
workload with ``--seconds 0`` (one pass), so the counts start from a fresh
interpreter every time and cover exactly the item set the benchmark measures.
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split(": ", 1)[1] for line in lines
                  if line.strip().startswith("verdict_digest:"))
    return json.loads(lines[-1]), digest


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bytes")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, _ = bench(workload, 1)
    second, _ = bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)["matrix.snf_requests"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_verdict_digest_repeats(workload):
    first, digest1 = bench(workload, 0)
    second, digest2 = bench(workload, 0)
    assert first["failed"] == second["failed"] == 0
    assert digest1 == digest2


def test_expected_failures_are_present():
    for name, every in (("resolve-small", workloads.RESOLVE_SMALL_BROKEN_EVERY),
                        ("chain-rewrite", workloads.CHAIN_REWRITE_CORRUPT_EVERY)):
        items = workloads.build(name, SEED, None)
        fails = [it for it in items if it.expected == "FAIL"]
        assert len(fails) == len(items) // every
        assert all(it.run() == "FAIL" for it in fails[:2])


def test_capped_item_times_out():
    assert run.run_cliff(2, 1024) == "timeout"


def test_capped_item_reports_memory_error():
    # 100 MB holds the interpreter, binmc and the input, not the resolution.
    assert run.run_cliff(120, 100) == "error: MemoryError"
    # Too little memory to import binmc is a different failure.
    assert run.run_cliff(120, 8).startswith("error: exit ")
