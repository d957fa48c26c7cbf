#!/usr/bin/env python3
"""Benchmark for dyckpeaks: exact counts, each checked against another route.

Run from anywhere inside a checkout (no build step; the library is imported
from ``src/``):

    python3 perfbench/run.py --workload deep-count --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

* ``verify-default``: ``dyckpeaks verify`` at its defaults, one fresh process
  per command. Checked: exit code 0 and the report's sha256 equals the digest
  recorded at the seed commit (``expected.json``).
* ``gf-table``: ``dyckpeaks table --method gf --n-max 40 --k-max 5 --format
  csv``, one fresh process per command. Checked: the CSV's sha256 equals that
  of the ``--method dp`` table for the same arguments, an independent route.
* ``deep-count``: a seeded stream of single-count queries answered in this
  process. Each query is answered by the ``stat_gf`` coefficient,
  ``count_exact_dp`` and, for peaks with k >= 1, the ``peak_bivar_cfrac``
  z^r slice; all answers must agree exactly. Only this workload uses the seed.

The tier-1 test suite is deliberately not a workload: its cost changes
whenever tests are added, so it cannot be a stable baseline.

Load is a closed loop with one client: operations run one after another
until ``--seconds`` have passed, each single-threaded. An exception, a
nonzero exit, a wrong answer or a timeout fails the operation.

Timings are host-adjusted. The shared host this was written on slows by up
to 2x in phases lasting seconds to minutes, so over ten runs of the same
code the quartiles of a raw wall time lie up to a third of its median apart,
more than any bound a regression check could use. The benchmark pins itself
and its children to one CPU, and ``hostspeed.py`` times a fixed kernel on
that CPU every 0.1 s while the run measures (``host.probe_ms``). Each
operation's and each set-up sample's wall time is multiplied by the
kernel's reference time over its time during that interval
(``hostspeed.factor``): ``setup_s``, ``throughput_ops_s`` and the
latencies are seconds on a host where the kernel takes
``hostspeed.REFERENCE_MS``. The unadjusted wall-clock values are printed in
the context line (``wall``).

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs a fixed list of operations (``workloads.TRACED_OPS``)
first untraced, then under ``tracer.Tracer``, and prints the per-layer
metrics; untraced runs import nothing from the tracer. The line before the
result records the context of the run: git SHA, source digest, Python
version, nproc, seed, sample counts and the failure fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

CLI_MAIN = "import sys\nfrom dyckpeaks.cli import main\nsys.exit(main(sys.argv[1:]))"

# Set-up: process start, import of the library (the CLI imports every layer)
# and generation of the workload's inputs.
SETUP_CODE = """\
import sys
from pathlib import Path
import dyckpeaks.cli
import workloads
if Path(sys.argv[1]) not in Path(dyckpeaks.__file__).resolve().parents:
    sys.exit(f"dyckpeaks was imported from {dyckpeaks.__file__}, not {sys.argv[1]}")
if sys.argv[2] == "deep-count":
    workloads.make_queries(int(sys.argv[3]))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    start: float  # time.monotonic(), comparable with the host-speed samples
    end: float
    ok: bool
    detail: str = ""
    rss_kb: int = 0
    out_bytes: int = 0

    @property
    def latency_s(self) -> float:
        return self.end - self.start


class HostSpeed:
    """The ``hostspeed.py`` sampler process, on this process's CPU."""

    def __init__(self, path: Path):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "hostspeed.py"), str(path)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        limit = time.monotonic() + 30.0
        while not (path.is_file() and path.read_text().count("\n") >= 2):
            if self.proc.poll() is not None or time.monotonic() > limit:
                self.stop()
                raise BenchError("the host-speed sampler did not start")
            time.sleep(0.05)

    def stop(self) -> list[tuple[float, float]]:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return hostspeed.load(self.path) if self.path.is_file() else []


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(BENCH)))}


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int | None, int, float]:
    """Reap ``proc`` with ``wait4``; return (exit code or None on timeout,
    peak RSS in KiB, monotonic end time). The child is killed on timeout."""
    box: dict = {}

    def reap() -> None:
        _, status, usage = os.wait4(proc.pid, 0)
        box["end"] = time.monotonic()
        box["code"] = os.waitstatus_to_exitcode(status)
        box["rss_kb"] = usage.ru_maxrss

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(timeout)
    timed_out = waiter.is_alive()
    if timed_out:
        os.kill(proc.pid, signal.SIGKILL)
        waiter.join()
    proc.returncode = box["code"]  # reaped here, so Popen must not wait again
    return (None if timed_out else box["code"]), box["rss_kb"], box["end"]


def setup_sample(workload: str, seed: int, timeout: float) -> tuple[float, float]:
    """Monotonic (start, end) of one fresh-process set-up."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), workload, str(seed)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    code, _, end = wait_child(proc, timeout)
    err = proc.stderr.read().decode(errors="replace").strip()
    proc.stderr.close()
    if code != 0:
        raise BenchError(f"set-up failed (exit {code}): {err[-2000:]}")
    return start, end


class CliWorkload:
    """One ``dyckpeaks`` command per operation, each in a fresh process."""

    def __init__(self, name: str, expected: dict, work: Path):
        self.argv = list(workloads.CLI_ARGS[name])
        self.expected = expected[name]
        self.work = work

    def run(self, index: int, timeout: float, spans: Path | None = None) -> Op:
        if spans is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *self.argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *self.argv]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=out, stderr=err)
            code, rss_kb, end = wait_child(proc, timeout)
        data = out_path.read_bytes()
        op = Op(start, end, False, rss_kb=rss_kb, out_bytes=len(data))
        digest = hashlib.sha256(data).hexdigest()
        if code is None:
            op.detail = f"timed out after {timeout:.0f} s"
        elif code != 0:
            op.detail = f"exit code {code}: {err_path.read_text(errors='replace')[-2000:]}"
        elif digest != self.expected["sha256"]:
            op.detail = f"output digest {digest} ({len(data)} bytes) != expected ({self.expected['bytes']} bytes)"
        else:
            op.ok = True
        return op


@contextmanager
def alarm(seconds: float):
    """Raise TimeoutError in this thread if the block outlasts ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_library() -> SimpleNamespace:
    """Import the checkout's dyckpeaks layers into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dyckpeaks.cfrac
    import dyckpeaks.gfcount
    import dyckpeaks.paths

    if SRC not in Path(dyckpeaks.__file__).resolve().parents:
        raise BenchError(f"dyckpeaks was imported from {dyckpeaks.__file__}, not {SRC}")
    return SimpleNamespace(gfcount=dyckpeaks.gfcount, paths=dyckpeaks.paths, cfrac=dyckpeaks.cfrac)


class QueryWorkload:
    """deep-count: seeded single-count queries answered in this process.

    The library functions are looked up on their modules at each call, so a
    tracer installed later sees them.
    """

    def __init__(self, seed: int):
        self.lib = import_library()
        self.queries = workloads.make_queries(seed)

    def answers(self, query: tuple[str, int, int, int]) -> dict[str, object]:
        kind_name, k, r, n = query
        lib = self.lib
        kind = lib.paths.StatKind(kind_name)
        routes = {
            "gf": lib.gfcount.stat_gf(kind, k, r, n).coefficient(n),
            "dp": lib.paths.count_exact_dp(n, k, r, kind),
        }
        if kind is lib.paths.StatKind.PEAK and k >= 1:
            routes["cfrac"] = lib.cfrac.peak_bivar_cfrac(k, n, r).z_slice(r).coefficient(n)
        return routes

    def run(self, index: int, timeout: float) -> Op:
        query = self.queries[index % len(self.queries)]
        start = time.monotonic()
        try:
            with alarm(timeout):
                routes = self.answers(query)
        except Exception as exc:  # any failure of the library fails the query
            return Op(start, time.monotonic(), False, f"query {query}: {exc!r}")
        op = Op(start, time.monotonic(), True)
        if type(routes["gf"]) is not int or len(set(routes.values())) != 1:
            op.ok = False
            op.detail = f"query {query}: routes disagree: {routes}"
        return op


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond it) at the highest percentile
    with TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process, and so its children, to one CPU, where the
    host-speed sampler runs too; return (CPUs available before, CPU used)."""
    available = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {available[0]})
    return len(available), available[0]


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result, context) as printed by ``main``."""
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S

    def remaining() -> float:
        return max(deadline - time.monotonic(), 1.0)

    if not (SRC / "dyckpeaks" / "__init__.py").is_file():
        raise BenchError(f"no dyckpeaks sources under {SRC}")
    spec = load_spec()
    if expected is None:
        expected = json.loads((BENCH / "expected.json").read_text())
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    nproc, cpu = pin_to_one_cpu()

    setup: list[tuple[float, float]] = []
    ops: list[Op] = []
    traced: list[Op] = []
    traces: list[dict] = []
    sampler = HostSpeed(work / "hostspeed.txt")
    try:
        if not trace:
            setup = [setup_sample(name, seed, remaining()) for _ in range(SETUP_SAMPLES)]
        runner = QueryWorkload(seed) if name == "deep-count" else CliWorkload(name, expected, work)
        if not trace:
            start = time.monotonic()
            # deep-count ends on a whole cycle, so every run holds the same mix
            cycle = workloads.CYCLE if isinstance(runner, QueryWorkload) else 1
            while (time.monotonic() - start < seconds or len(ops) % cycle) and time.monotonic() < deadline:
                ops.append(runner.run(len(ops), remaining()))
        else:
            import tracer

            count = workloads.TRACED_OPS[name]
            for i in range(count):
                ops.append(runner.run(i, remaining()))
            if isinstance(runner, CliWorkload):
                for i in range(count):
                    prefix = work / f"spans-{i}"
                    traced.append(runner.run(i, remaining(), spans=prefix))
                    if prefix.with_suffix(".bin").is_file():  # absent if the child died early
                        traces.append(tracer.load(prefix))
            else:
                active = tracer.Tracer()
                active.install()
                for i in range(count):
                    active.current_op = i
                    traced.append(runner.run(i, remaining()))
                active.dump(work / "spans")
                traces.append(active.record())
    finally:
        samples = sampler.stop()

    def adjusted(start: float, end: float) -> float:
        return (end - start) * hostspeed.factor(samples, start, end)

    attempted = ops + traced
    failures = [op for op in attempted if not op.ok]
    for op in failures[:3]:
        print(f"failed: {op.detail[:500]}", file=sys.stderr)

    latencies = [adjusted(op.start, op.end) for op in ops]
    probes = [ms for _, ms in samples]
    context = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "attempted": len(attempted),
        "failed": len(failures),
        "fail_frac": len(failures) / len(attempted),
        "host_probe_ms": statistics.median(probes),
        "host_samples": len(probes),
        "run_s": time.monotonic() - begin,
    }
    if isinstance(runner, QueryWorkload):
        context["queries_sha256"] = hashlib.sha256(repr(runner.queries).encode()).hexdigest()

    if not trace:
        tail_s, tail_pct, beyond = tail(latencies)
        wall = [op.latency_s for op in ops]
        setup_wall = [end - start for start, end in setup]
        values = {
            "setup_s": statistics.median(adjusted(*interval) for interval in setup),
            "throughput_ops_s": sum(op.ok for op in ops) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "peak_rss_mb": (
                statistics.median(op.rss_kb for op in ops)
                if isinstance(runner, CliWorkload)
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            )
            / 1024.0,
        }
        context.update(
            setup_samples_s=setup_wall,
            latency_samples=len(latencies),
            tail_percentile=tail_pct,
            tail_beyond=beyond,
            wall={
                "setup_s": statistics.median(setup_wall),
                "throughput_ops_s": sum(op.ok for op in ops) / sum(wall),
                "latency_p50_s": statistics.median(wall),
                "latency_tail_s": tail(wall)[0],
            },
        )
        listed = spec["end_to_end"]
    else:
        values = tracer.summarize(traces, sum(op.latency_s for op in traced))
        values["cli.output_bytes"] = sum(op.out_bytes for op in traced)
        values["host.probe_ms"] = statistics.median(probes)
        values["trace.overhead_frac"] = (
            statistics.median(adjusted(op.start, op.end) for op in traced) / statistics.median(latencies) - 1.0
        )
        context["traced_ops"] = len(traced)
        listed = spec["per_layer"]

    units = {metric["name"]: metric["unit"] for metric in listed}
    if set(units) != set(values):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    return result, context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify-default", "gf-table", "deep-count"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result, context = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
