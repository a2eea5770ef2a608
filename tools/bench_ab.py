"""Run the benchmark on a parent and a change in alternating pairs, and write
``BENCH_<label>.json``.

Run from the root of a git checkout:

    python3 tools/bench_ab.py --parent HEAD --label pr31 \\
        --workloads prove-symbolic --pairs 5 --seconds 25 --first-seed 3121

Each side is exported into its own temporary directory with only the local
git: the parent with ``git archive REV | tar -x``, the change from the
working tree (every file git tracks or would track, as it is on disk).
Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``,
started from the side's copy and left as it is.  Pair k of a workload runs both
sides on seed first_seed + k, one after the other, and the side that runs
first alternates from pair to pair.

The file keeps every run's ``meta`` and result lines unedited, both
revisions, a SHA-256 of each side's ``src/`` and the values of
``PYTHONDONTWRITEBYTECODE`` and ``PYTHONPYCACHEPREFIX`` that the runs
inherited, which decide whether a CLI child compiles the package afresh.
A run that exits nonzero, or writes no result line, raises ``RuntimeError``
with its exit code and stderr.  For each workload it adds
a summary: for each end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles (``statistics.quantiles``, exclusive method) over the
pairs, and the number of pairs in which the change was better.  An
existing file is never overwritten.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")

#: Inherited by every run and not named in perfbench's meta line, though they
#: move cli-mixed by tens of milliseconds an op.
BYTECODE_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def commit(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def export(rev: str | None, dest: str) -> None:
    """The tree of rev, or of the working tree when rev is None, into dest."""
    if rev is not None:
        subprocess.run(["tar", "-x", "-C", dest], input=git("archive", rev), check=True)
        return
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        if name and os.path.isfile(name):  # a deleted tracked file is skipped
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(dest, name))


def src_digest(root: str) -> str:
    """SHA-256 over every file under root/src, by relative path and content."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, src).encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_side(copy: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run from copy: its meta line and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    metas = [line[5:] for line in lines if line.startswith("meta ")]
    try:
        # perfbench writes its result line and then exits 1 when an op was wrong
        if not proc.returncode:
            return json.loads(metas[0]), json.loads(lines[-1])
    except (IndexError, ValueError):  # no meta line, or no result line last
        pass
    raise RuntimeError(
        f"{' '.join(argv[1:])} exited {proc.returncode} with no result:\n{proc.stderr}"
    )


def positive(text: str) -> int:
    """An int of at least 1, for --pairs: no pairs would leave nothing to summarize."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 of values; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won.

    runs are one workload's records, each with "side", "seed" and the
    result line under "result"; a pair is the two sides' runs on one seed.
    better maps each metric to "lower" or "higher".
    """
    by_seed: dict = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    pairs = [sides for _, sides in sorted(by_seed.items()) if len(sides) == 2]
    summary: dict = {"pairs": len(pairs)}
    for side in SIDES:
        summary[f"failed_{side}"] = sum(sides[side]["failed"] for sides in pairs)
    for metric, direction in better.items():
        values = {
            side: [sides[side]["metrics"][metric]["value"] for sides in pairs]
            for side in SIDES
        }
        entry: dict = {"better": direction}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1 if direction == "lower" else -1
        entry["change_won"] = sum(
            sign * c < sign * p for p, c in zip(values["parent"], values["change"])
        )
        summary[metric] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--label", required=True)
    parser.add_argument("--description", default="", help="what the change does")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=positive, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)

    out = f"BENCH_{args.label}.json"
    if os.path.exists(out):
        print(f"bench_ab: {out} exists; not overwritten", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    parent = commit(args.parent)
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        copies = {side: os.path.join(tmp, side) for side in SIDES}
        for side, rev in zip(SIDES, (parent, None)):
            os.mkdir(copies[side])
            export(rev, copies[side])
        digests = {side: src_digest(copies[side]) for side in SIDES}  # before any run
        workloads: dict = {}
        for workload in args.workloads:
            runs = workloads[workload] = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for ran, side in enumerate(order, 1):
                    meta, result = run_side(copies[side], workload, seed, args.seconds)
                    runs.append({"side": side, "seed": seed, "ran": ran,
                                 "meta": meta, "result": result})
                    print(f"{workload} seed {seed} {side}: "
                          f"p50 {result['metrics']['latency_p50_ms']['value']:.4g} ms, "
                          f"failed {result['failed']}", flush=True)

    record = {
        "label": args.label,
        "change": args.description,
        "parent_commit": parent,
        "change_commit": f"working tree on {commit('HEAD')}",
        "src_sha256": digests,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": f"{os.cpu_count()}-core host, Python {platform.python_version()}",
        "env": {name: os.environ.get(name) for name in BYTECODE_ENV},
        "notes": [
            "Written by tools/bench_ab.py. Each pair runs parent and change on one "
            "seed, one after the other; 'ran' is 1 for the side that ran first, "
            "which alternates from pair to pair. 'meta' and 'result' are "
            "perfbench's own meta line and last line, unedited. 'env' gives "
            "the bytecode-cache variables the runs inherited (null when unset).",
            "'summary' gives, per end-to-end metric, each side's median and "
            "quartiles over the pairs (statistics.quantiles, exclusive method) "
            "and the number of pairs in which the change was better.",
        ],
        "workloads": workloads,
        "summary": {w: summarize(runs, better) for w, runs in workloads.items()},
    }
    with open(out, "x", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
