#!/usr/bin/env python3
"""Checks of the benchmark itself; run from a checkout (about five minutes):

    python3 perfbench/selftest.py

1. A corrupted expected output fails every gf-table operation, and a
   corrupted counting route fails every deep-count query: ``fail_frac`` > 0.
2. Untraced runs import nothing from the tracer.
3. Two traced runs with the same seed give identical count metrics on every
   workload, and a different seed changes the deep-count query list.
4. In a directory holding only BENCHMARK.json and the benchmark's own files,
   the benchmark exits nonzero without printing a result.
5. The host-speed adjustment averages the samples around an operation, and
   a run leaves no sampler process behind.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import hostspeed
import run
import workloads

COUNT_UNITS = {"count", "computed_ops", "bytes"}


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        raise SystemExit(1)


def corrupted_outputs_fail() -> None:
    expected = json.loads((run.BENCH / "expected.json").read_text())
    expected["gf-table"]["sha256"] = "0" * 64
    result, context = run.run_workload("gf-table", 1, 1, False, expected=expected)
    check(
        result["failed"] == result["attempted"] >= 1 and context["fail_frac"] == 1.0 and not result["correct"],
        f"gf-table with a corrupted expected digest: {result['failed']}/{result['attempted']} failed",
    )

    paths = run.import_library().paths
    original = paths.count_exact_dp
    paths.count_exact_dp = lambda *args: original(*args) + 1
    try:
        result, context = run.run_workload("deep-count", 1, 1, False)
    finally:
        paths.count_exact_dp = original
    check(
        result["failed"] == result["attempted"] >= 1 and context["fail_frac"] == 1.0,
        f"deep-count with a corrupted DP route: {result['failed']}/{result['attempted']} failed",
    )
    result, _ = run.run_workload("deep-count", 1, 1, False)
    check(result["correct"] and result["failed"] == 0, "deep-count with intact routes: no failures")
    check("tracer" not in sys.modules, "untraced runs did not import the tracer")


def invoke(args: list[str], cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=200
    )


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = invoke(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"])
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and len(lines) >= 2, f"traced {workload} run (seed {seed}) completed")
    result = json.loads(lines[-1])
    check(result["correct"], f"traced {workload} run (seed {seed}) verified every operation")
    return result, json.loads(lines[-2])["context"]


def counts_repeat() -> None:
    for workload in ("deep-count", "gf-table", "verify-default"):
        (first, ctx1), (second, ctx2) = traced(workload, 7), traced(workload, 7)
        counts = {k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
        differ = sorted(k for k in counts if first["metrics"][k] != second["metrics"][k])
        check(not differ, f"{workload}: {len(counts)} count metrics repeat exactly (differ: {differ})")
        share = first["metrics"]["trace.attributed_frac"]["value"]
        check(share >= 0.9, f"{workload}: {share:.3f} of traced time attributed to named layers")
        if workload == "deep-count":
            check(ctx1["queries_sha256"] == ctx2["queries_sha256"], "deep-count: same seed, same queries")
    check(workloads.make_queries(7) != workloads.make_queries(8), "deep-count: another seed changes the queries")


def bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = invoke(["--workload", "gf-table", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    check(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"bare directory: exit {proc.returncode}, no result printed",
    )


def host_speed_adjustment() -> None:
    ref = hostspeed.REFERENCE_MS
    samples = [(10.0, ref), (11.0, 2 * ref), (11.1, 2 * ref), (11.5, ref), (30.0, ref / 2)]
    check(hostspeed.factor(samples, 10.9, 11.2) == 0.5, "factor: samples inside the operation")
    check(hostspeed.factor(samples, 11.3, 11.35) == 0.75, "factor: samples within the margin around it")
    check(hostspeed.factor(samples, 25.0, 26.0) == 2.0, "factor: the nearest sample when none is inside")
    sampler = run.HostSpeed(run.WORK / "selftest-hostspeed.txt")
    taken = sampler.stop()
    check(len(taken) >= 2 and sampler.proc.returncode is not None, f"sampler took {len(taken)} samples and was reaped")
    (run.WORK / "selftest-hostspeed.txt").unlink()


def main() -> int:
    host_speed_adjustment()
    corrupted_outputs_fail()
    counts_repeat()
    bare_directory_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
