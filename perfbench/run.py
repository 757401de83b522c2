"""End-to-end benchmark for binmc, with a traced run for per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload resolve-small --seed 104 --seconds 20 --trace 0

Workloads (perfbench/workloads.json): resolve-small, resolve-large,
chain-rewrite, cli-docs; ``--workload all`` runs the four one after another,
each in its own process.  The seed makes the inputs; binmc sees only them.

With ``--trace 0`` the run times closed-loop passes over the workload's item
set, one item at a time in this process, until ``--seconds`` have passed
(always at least one full pass).  Every pass runs on freshly built inputs.
It prints one line per end-to-end metric and then, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

    setup_s      import of binmc plus the median time to build one input set
    run_s        time of one pass over the item set: the sum over items of
                 each item's median time across the passes
    item_p50_ms  median time to one item's verdict, over every pass
    item_p90_ms  90th percentile of the same
    peak_rss_mb  peak resident memory of this process

Every verdict is compared with the answer fixed when the inputs were built;
a mismatch, an exception or an item over ITEM_CAP_S counts as failed and
makes the exit status 1.  resolve-large also runs its capped item, the dim-3
input that does not finish, in a child process with a wall-clock cap and its
own address-space limit; its outcome is printed on its own line and is not
part of attempted/failed.

With ``--trace 1`` the run makes one untraced pass and then one traced pass
on fresh inputs, and reports the per-layer metrics of perfbench/tracer.py
plus ``trace.overhead_ratio`` (traced / untraced pass time).  The counts are
deterministic for a seed.  The spans that cross layers are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("resolve-small", "resolve-large", "chain-rewrite", "cli-docs")
SETUP_REPEATS = 3
ITEM_CAP_S = 60.0
UNITS = {"setup_s": "s", "run_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
         "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="binmc benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's default_seed)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """Builds fresh input sets and runs closed-loop passes over them."""

    def __init__(self, workloads, name, seed, workdir, import_s):
        self.workloads = workloads
        self.import_s = import_s
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.setup_samples = []
        self.results = []  # (item id, verdict, expected, seconds) per item run

    def fresh_items(self):
        wd = os.path.join(self.workdir, f"build{len(self.setup_samples)}")
        os.makedirs(wd)
        t0 = time.perf_counter()
        items = self.workloads.build(self.name, self.seed, wd)
        self.setup_samples.append(time.perf_counter() - t0)
        modules = self.name != "chain-rewrite"
        stale = self.workloads.cached_decompositions(
            [M for it in items for M in it.inputs], modules=modules)
        if stale:
            raise RuntimeError(f"{stale} input objects already hold a Smith decomposition")
        return items

    def run_pass(self, items, tracer=None):
        """One closed loop over the items; returns (wall seconds, verdict lines)."""
        lines = []
        t_pass = time.perf_counter()
        for it in items:
            if tracer is not None:
                tracer.item = it.id
            t0 = time.perf_counter()
            try:
                verdict = it.run()
            except Exception as e:  # a raising item is a failed item, not a crash
                verdict = f"error:{type(e).__name__}"
            dt = time.perf_counter() - t0
            if dt > ITEM_CAP_S and verdict == it.expected:
                verdict = "over-cap"
            self.results.append((it.id, verdict, it.expected, dt))
            lines.append(f"{it.id} {verdict} {verdict == it.expected}")
        return time.perf_counter() - t_pass, lines

    def failures(self):
        return [r for r in self.results if r[1] != r[2]]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def run_cliff(cap_s, memory_mb) -> str:
    """Outcome of the capped item: PASS, FAIL, timeout, "error: MemoryError"
    (cliff.py's exit status 3), or "error: exit N" for any other failure."""
    cmd = [sys.executable, os.path.join(HERE, "cliff.py"), str(memory_mb)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=cap_s)
    except subprocess.TimeoutExpired:
        return "timeout"
    out = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and out and out[-1] in ("PASS", "FAIL"):
        return out[-1]
    if proc.returncode == 3:
        return "error: MemoryError"
    return f"error: exit {proc.returncode}"


def measure(bench, seconds):
    for _ in range(SETUP_REPEATS):
        items = bench.fresh_items()
    pass_s, digests = [], []
    t_start = time.perf_counter()
    while True:
        dt, lines = bench.run_pass(items)
        pass_s.append(dt)
        digests.append(digest(lines))  # every pass has the same known answers
        if time.perf_counter() - t_start >= seconds:
            break
        items = bench.fresh_items()
    by_item = {}
    for item_id, _, _, dt in bench.results:
        by_item.setdefault(item_id, []).append(dt)
    samples = [r[3] * 1000.0 for r in bench.results]
    metrics = {
        "setup_s": bench.import_s + statistics.median(bench.setup_samples),
        "run_s": sum(statistics.median(times) for times in by_item.values()),
        "item_p50_ms": statistics.median(samples),
        "item_p90_ms": (statistics.quantiles(samples, n=10, method="inclusive")[8]
                        if len(samples) > 1 else samples[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"pass_s": " ".join(f"{t:.3f}" for t in pass_s),
             "item_samples": len(samples), "setup_samples": len(bench.setup_samples),
             "verdict_digest": digests[0]}
    if bench.name == "resolve-large":
        cap_s, memory_mb = bench.workloads.CLIFF_CAP_S, bench.workloads.CLIFF_MEMORY_MB
        notes["cliff"] = (f"{run_cliff(cap_s, memory_mb)} (cap {cap_s} s, "
                          f"{memory_mb} MB address space)")
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, notes


def trace(bench, name, seed):
    from tracer import Tracer
    untraced_s, lines = bench.run_pass(bench.fresh_items())
    items = bench.fresh_items()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, _ = bench.run_pass(items, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    notes = {"verdict_digest": digest(lines), "spans_file": os.path.relpath(path, ROOT),
             "spans_kept": len(tracer.spans)}
    return metrics, notes


def run_all(args) -> int:
    """Every workload in its own process, so that peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "binmc", "__init__.py")):
        print(f"perfbench: no binmc sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # imports every binmc module the workloads drive
    import_s = time.perf_counter() - t0

    seed = workloads.SPECS[args.workload]["default_seed"] if args.seed is None else args.seed
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    bench = Bench(workloads, args.workload, seed, workdir, import_s)
    try:
        if args.trace:
            metrics, notes = trace(bench, args.workload, seed)
        else:
            metrics, notes = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = bench.failures()
    attempted = len(bench.results)
    print(f"workload {args.workload} seed {seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':40s} {len(failed) / attempted:14.6g} ratio "
          f"({len(failed)} of {attempted} item runs)")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for item_id, verdict, expected, _ in failed[:20]:
        print(f"  MISMATCH {item_id}: got {verdict}, expected {expected}")
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
