"""cramerkit benchmark: one closed-loop workload per run, checked and timed.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload solve-int --seed 1 --seconds 30 --trace 0

Each run is one fresh process driving one workload as a closed loop with a
single client: the next op starts only when the previous one has finished,
with no threads and at most one child process at a time.  Every op's output
is checked against an oracle answer computed in set-up, outside the timed
region.  The loop runs for --seconds and at least MIN_OPS ops, so the 90th
percentile has ten samples beyond it.

--trace 0 reports the end-to-end metrics.  --trace 1 traces every other op
(the rest stay untraced, to measure the tracing overhead), then runs the
per-layer probes, and reports the per-layer metrics.  Spans stay in memory
and are written to .bench_out/ at the end.  Human-readable lines come first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import hostspeed

MIN_OPS = 100
MAX_LOOP_S = 120.0
SETUP_RUNS = 7
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

E2E_METRICS = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
TRACE_METRICS = [("trace.overhead_p50_ms", "ms"), ("trace.overhead_cpu_ms", "ms")]
WORKLOADS = ("solve-int", "solve-frac", "prove-symbolic", "cli-mixed")


@dataclass
class LoopResult:
    seconds: float = 0.0
    latency_ms: list = field(default_factory=list)  # raw wall time per op
    cpu_ms: list = field(default_factory=list)  # raw CPU time per op
    scale: list = field(default_factory=list)  # host-speed scale per op
    traced: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (op index, label, reason)
    child_peak_kb: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latency_ms)


def judge(op, out) -> str | None:
    try:
        return op.check(out, op.expected)
    except Exception as exc:  # a check that cannot run is a failed op
        return f"check raised {type(exc).__name__}: {exc}"


def closed_loop(plan, seconds: float, tracer=None, min_ops: int = MIN_OPS) -> LoopResult:
    """Run the plan's ops in turn, one at a time, until time and count are met.

    With a tracer, ops alternate between traced and untraced; the parity
    flips every cycle so both halves see every input.
    """
    from spans import no_span
    from workloads import ChildResult

    res = LoopResult()
    speed = hostspeed.SpeedTrack()
    stdout_bytes: dict[int, int] = {}
    n_ops = len(plan.ops)
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and k >= min_ops):
            break
        speed.sample()
        index = k % n_ops
        op = plan.ops[index]
        traced = tracer is not None and (k + k // n_ops) % 2 == 0
        error = None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            if traced:
                tracer.op = f"op{k}"
                with tracer.span("bench.op"):
                    out = op.run(tracer.span)
            else:
                out = op.run(no_span)
        except Exception as exc:  # the op failed; count it and go on
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        reason = error or judge(op, out)
        if isinstance(out, ChildResult):
            cpu = out.cpu_s
            res.child_peak_kb = max(res.child_peak_kb, out.maxrss_kb)
            size = len(out.stdout.encode())
            if reason is None and stdout_bytes.setdefault(index, size) != size:
                reason = "stdout size changed between cycles"
        res.latency_ms.append(wall * 1000)
        res.cpu_ms.append(cpu * 1000)
        res.traced.append(traced)
        if reason is not None:
            res.failures.append((index, op.label, reason))
        k += 1
    res.seconds = time.perf_counter() - start
    speed.sample()
    res.scale = speed.scales()
    return res


def e2e_metrics(plan, loop: LoopResult, setup_s: float, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times are host-speed scaled unless ``scaled`` is off.

    ``ops_per_s`` is completed ops over the time spent in ops: the checks
    and calibration between ops are the benchmark's own work.
    """
    scale = loop.scale if scaled else [1.0] * loop.attempted
    lat = [t * f for t, f in zip(loop.latency_ms, scale)]
    cpu = [t * f for t, f in zip(loop.cpu_ms, scale)]
    if plan.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = loop.child_peak_kb
    return {
        "ops_per_s": (loop.attempted - len(loop.failures)) * 1000 / sum(lat),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8],
        "cpu_ms_per_op": sum(cpu) / loop.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }


def setup_samples(workload: str, seed: int, workdir: str, src: str) -> tuple[list, list]:
    """Set up SETUP_RUNS times, each in a fresh interpreter, one at a time."""
    times, digests = [], []
    for k in range(SETUP_RUNS):
        probe_dir = os.path.join(workdir, f"setup{k}")
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
             "--workload", workload, "--seed", str(seed),
             "--workdir", probe_dir, "--src", src],
            capture_output=True, text=True, timeout=60,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        times.append(sample["setup_s"] * sample["scale"])
        digests.append(sample["digest"])
    return times, digests


def commit_of(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    """SHA-256 over the package sources: identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "cramerkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run(args, root: str, src: str, out_dir: str, workdir: str) -> int:
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(root),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "loop": "closed, 1 client",
    }
    print("meta " + json.dumps(meta), flush=True)

    setup_times, digests = setup_samples(args.workload, args.seed, workdir, src)
    sys.path.insert(0, src)
    import cramerkit
    import workloads

    if not os.path.abspath(cramerkit.__file__).startswith(src + os.sep):
        raise RuntimeError(f"cramerkit imported from {cramerkit.__file__}, not {src}")
    plan = workloads.build(args.workload, args.seed, workdir, src)
    problems = []
    if any(d != plan.digest for d in digests):
        problems.append("the same seed gave different inputs or answers")

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    loop = closed_loop(plan, args.seconds, tracer)
    for index, label, reason in loop.failures[:10]:
        print(f"FAILED op {index} ({label}): {reason}", file=sys.stderr)
    attempted, failed = loop.attempted, len(loop.failures)
    setup_s = statistics.median(setup_times)
    print(f"set-up: {SETUP_RUNS} fresh-process runs, median {setup_s:.4f} s "
          f"(samples {', '.join(f'{t:.4f}' for t in setup_times)})")
    print(f"host-speed scale: median {statistics.median(loop.scale):.4f} "
          f"(min {min(loop.scale):.4f}, max {max(loop.scale):.4f})")

    if args.trace:
        metrics, units, extra = traced_metrics(plan, loop, tracer, setup_s, workdir, src)
        attempted += extra.checks
        failed += len(extra.problems)
        problems += extra.problems
        write_trace(out_dir, meta, tracer, metrics)
    else:
        metrics = e2e_metrics(plan, loop, setup_s)
        units = dict(E2E_METRICS)
        raw = e2e_metrics(plan, loop, setup_s, scaled=False)
        for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op"):
            print(f"raw {name} = {raw[name]:.6g} {units[name]}")
    print(f"samples: {loop.attempted} ops in {loop.seconds:.2f} s")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def traced_metrics(plan, loop, tracer, setup_s, workdir, src):
    import probes

    def subset(flag):
        part = LoopResult(loop.seconds)
        for lat, cpu, scale, traced in zip(loop.latency_ms, loop.cpu_ms, loop.scale, loop.traced):
            if traced == flag:
                part.latency_ms.append(lat)
                part.cpu_ms.append(cpu)
                part.scale.append(scale)
        part.child_peak_kb = loop.child_peak_kb
        return e2e_metrics(plan, part, setup_s)

    on, off = subset(True), subset(False)
    for name in ("latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op"):
        print(f"traced {name} = {on[name]:.6g} ms (untraced ops {off[name]:.6g} ms)")
    checker = probes.Probes(plan, tracer, workdir, src)
    checker.run_all()
    metrics = dict(checker.metrics)
    metrics.update(probes.self_time_metrics(tracer))
    metrics["trace.overhead_p50_ms"] = on["latency_p50_ms"] - off["latency_p50_ms"]
    metrics["trace.overhead_cpu_ms"] = on["cpu_ms_per_op"] - off["cpu_ms_per_op"]
    units = {name: unit for name, unit, *_ in probes.LAYER_METRICS}
    units.update({f"self.{layer}_ms": "ms" for layer in probes.SELF_LAYERS})
    units.update(TRACE_METRICS)
    for name, unit, better, moves, on_workloads in probes.LAYER_METRICS:
        print(f"layer {name} ({unit}, {better} is better) moves {moves} on {on_workloads}")
    return metrics, units, checker


def write_trace(out_dir: str, meta: dict, tracer, metrics: dict) -> None:
    path = os.path.join(out_dir, f"trace-{meta['workload']}-seed{meta['seed']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics,
                   "spans": [s.to_dict() for s in tracer.spans]}, fh)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cramerkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cramerkit", "__init__.py")):
        print("perfbench: no src/cramerkit here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # One CPU for the run and its children, so the calibration loop and every
    # op, in-process or in a child, run where the host-speed scale is taken.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        return run(args, root, src, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
