"""Tests of the benchmark itself: a wrong answer or exit code is never passed.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _loop(plan, ops, n):
    plan.ops = ops
    return run.closed_loop(plan, seconds=0, min_ops=n)


def test_wrong_expected_answer_is_counted(tmp_path):
    plan = workloads.build("solve-frac", 1, str(tmp_path), SRC)
    good = plan.ops[0]
    wrong = tuple(x + 1 for x in good.expected)
    bad = dataclasses.replace(good, expected=wrong)
    loop = _loop(plan, [good, bad], 4)
    assert loop.attempted == 4
    assert [(i, reason) for i, _, reason in loop.failures] == [
        (1, "quotients differ from bareiss_solve")
    ] * 2


def test_wrong_symbolic_answer_is_counted(tmp_path):
    plan = workloads.build("prove-symbolic", 1, str(tmp_path), SRC)
    op = plan.ops[0]
    bad = dataclasses.replace(op, expected=(op.expected[0], "0"))
    loop = _loop(plan, [op, bad], 2)
    assert [i for i, _, _ in loop.failures] == [1]


def test_wrong_exit_code_is_counted(tmp_path):
    plan = workloads.build("cli-mixed", 1, str(tmp_path), SRC)
    by_label = {op.label: op for op in plan.ops}
    float_doc = by_label["cli exit 2"]
    ops = [
        float_doc,
        dataclasses.replace(float_doc, expected=workloads.CliExpect(0)),
        dataclasses.replace(float_doc, expected=workloads.CliExpect(3)),
        by_label["cli check-involution i=1"],
    ]
    loop = _loop(plan, ops, 4)
    assert [(i, reason) for i, _, reason in loop.failures] == [
        (1, "exit code 2, expected 0"),
        (2, "exit code 2, expected 3"),
    ]


def test_wrong_certificate_digest_is_counted(tmp_path, monkeypatch):
    plan = workloads.build("cli-mixed", 1, str(tmp_path), SRC)
    op = next(op for op in plan.ops if op.label == "cli check-involution i=1")
    monkeypatch.setitem(workloads.CERT_SHA256, 1, "0" * 64)
    loop = _loop(plan, [op], 1)
    assert [reason for _, _, reason in loop.failures] == [
        "certificate i=1 differs from the recorded digest"
    ]


def test_raising_op_or_check_is_counted(tmp_path):
    plan = workloads.build("solve-frac", 1, str(tmp_path), SRC)
    good = plan.ops[0]

    def boom(*args):
        raise ZeroDivisionError("boom")

    loop = _loop(plan, [dataclasses.replace(good, run=boom),
                        dataclasses.replace(good, check=boom)], 2)
    assert [reason for _, _, reason in loop.failures] == [
        "ZeroDivisionError: boom",
        "check raised ZeroDivisionError: boom",
    ]


def test_same_seed_same_inputs(tmp_path):
    digests = []
    for seed, k in [(1, 0), (1, 1), (2, 0)]:
        workdir = tmp_path / f"{seed}-{k}"
        workdir.mkdir()
        digests.append(workloads.build("cli-mixed", seed, str(workdir), SRC).digest)
    assert digests[0] == digests[1] != digests[2]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E_METRICS
    per_layer = [(n, u) for n, u, *_ in probes.LAYER_METRICS]
    per_layer += [(f"self.{layer}_ms", "ms") for layer in probes.SELF_LAYERS]
    per_layer += run.TRACE_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "solve-int",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_hanging_child_is_killed_and_counted(tmp_path, monkeypatch):
    plan = workloads.build("cli-mixed", 1, str(tmp_path), SRC)
    monkeypatch.setattr(workloads, "CHILD_TIMEOUT_S", 1)
    env = workloads.child_env(SRC)
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    hang = dataclasses.replace(plan.ops[0], run=lambda span: workloads.run_child(
        argv, str(tmp_path), env))
    loop = _loop(plan, [hang], 1)
    assert [reason for _, _, reason in loop.failures] == [
        "TimeoutError: child ran longer than 1 s"
    ]
    assert loop.latency_ms[0] < 10_000
