"""The four workloads: seeded inputs, the answers they must produce, and
the op the closed loop repeats.

``build(workload, seed, workdir)`` is the whole of a workload's set-up:
it generates the inputs from the seed and computes every expected answer
with an independent oracle (Bareiss elimination, cofactor expansion), so
the loop only has to compare.  Each op's ``run`` makes the timed calls and
its ``check`` judges the output afterwards, outside the timed region.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cramerkit import (
    SingularSystemError,
    bareiss_det,
    bareiss_solve,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    check_fact1,
    check_fact2,
    cofactor_det,
    generic_system,
    rational_system,
    render_scalar,
    solve,
    validate_certificate,
    verify_identity,
)

#: Distinct systems per solve workload; the loop cycles through them.
POOL = 64

#: Symbolic size of prove-symbolic and of the CLI certificates.
PROOF_N = 5

#: A CLI command takes well under a second; one that hangs must not stall
#: the run past its time limit.
CHILD_TIMEOUT_S = 30

#: SHA-256 of the n = 5 certificate JSON for each row i, as the CLI writes
#: it (indent=2 plus a newline), recorded at the seed commit.  The weight
#: renderings are a bit-stable contract, so these never change.
CERT_SHA256 = {
    1: "d317351c0cf9f9ded3f5f6cff40c95e3a7c4ed2284055ccb1bae93f8be23f73e",
    2: "16afc2095bbcf54f7265c26c1f041a5271bd091ba84ee4e918d5d52dd0948ff9",
    3: "6269502765a60c592f931f3752a630d66d37ca1679be949f83d8d853c0ae209e",
    4: "224a3972ec00142089743382a54236e196a7ba4d32064116733c9f25f0ee12e0",
    5: "58bdb3403da889ba1fcfe9a46d5dc62ed6ebbe8988197b6f0503b16a5a499e32",
}


@dataclass(frozen=True)
class Op:
    """One closed-loop request: ``run(span)`` is timed, ``check`` is not.

    ``check(output, expected)`` returns None when the output is right and
    a reason otherwise.
    """

    label: str
    run: Callable
    expected: object
    check: Callable


@dataclass
class Plan:
    seed: int
    ops: list[Op]  # one cycle; the loop repeats it
    in_process: bool  # False when each op's work runs in a child process
    numeric: object  # a numeric system for the layer probes
    numeric_expected: tuple
    digest: str = ""  # SHA-256 of every input and expected answer


def cert_text(cert) -> str:
    """A certificate's JSON exactly as ``check-involution`` writes it."""
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def cert_from_text(text: str):
    return certificate_from_dict(json.loads(text))


def cert_problem(text: str, i: int) -> str | None:
    """Check certificate text against the recorded digest and the validator."""
    if hashlib.sha256(text.encode()).hexdigest() != CERT_SHA256[i]:
        return f"certificate i={i} differs from the recorded digest"
    try:
        validate_certificate(cert_from_text(text))
    except ValueError as exc:
        return f"certificate i={i} rejected: {exc}"
    return None


# -- numeric systems ----------------------------------------------------------


def _int_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9))


def _frac_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def nonsingular_systems(rng: random.Random, n: int, count: int, entry) -> list:
    """``count`` seeded nonsingular systems, each with its Bareiss solution."""
    out = []
    while len(out) < count:
        sys_ = rational_system(
            [[entry(rng) for _ in range(n)] for _ in range(n)],
            [entry(rng) for _ in range(n)],
        )
        if entry is _frac_entry and all(
            x.denominator == 1 for row in sys_.entries for x in row
        ):
            continue  # keep the integer fast path out of solve-frac
        try:
            out.append((sys_, bareiss_solve(sys_)))
        except SingularSystemError:
            continue
    return out


def _run_solve(system, span):
    with span("cramer.solve"):
        return solve(system)


def _check_solve(solution, expected) -> str | None:
    if solution.quotients != expected:
        return "quotients differ from bareiss_solve"
    return None


def _solve_plan(workload, seed, n, entry) -> Plan:
    pool = nonsingular_systems(random.Random(f"{workload}:{seed}"), n, POOL, entry)
    ops = [
        Op("solve", functools.partial(_run_solve, s), x, _check_solve)
        for s, x in pool
    ]
    return Plan(seed, ops, True, pool[0][0], pool[0][1])


def numeric_probe_system(seed: int):
    """The first solve-int system of a seed, for workloads without one."""
    return nonsingular_systems(random.Random(f"solve-int:{seed}"), 8, 1, _int_entry)[0]


# -- prove-symbolic -------------------------------------------------------------


@dataclass(frozen=True)
class ProofOutput:
    identity_ok: bool
    fact1_ok: bool
    fact2_ok: bool
    b_i_times_x0: str
    text: str
    round_trip_ok: bool


def _run_prove(system, i, span) -> ProofOutput:
    with span("cramer.verify_identity"):
        report = verify_identity(system, i)
    with span("involution.check_fact1"):
        f1 = check_fact1(system, i)
    with span("involution.check_fact2"):
        f2 = check_fact2(system, i)
    with span("involution.build_certificate"):
        cert = build_certificate(system, i)
    with span("involution.cert_encode"):
        text = cert_text(cert)
    with span("involution.cert_decode"):
        back = cert_from_text(text)
    with span("involution.validate_certificate"):
        validate_certificate(back)
    return ProofOutput(
        report.ok, f1.ok, f2.ok, cert.b_i_times_x0, text, back == cert
    )


def _check_prove(out: ProofOutput, expected) -> str | None:
    i, b_i_times_x0 = expected
    if not (out.identity_ok and out.fact1_ok and out.fact2_ok):
        return f"a check reported failure for i={i}"
    if out.b_i_times_x0 != b_i_times_x0:
        return "b_i * X_0 differs from b_i * cofactor_det"
    if not out.round_trip_ok:
        return "certificate changed in the JSON round trip"
    if hashlib.sha256(out.text.encode()).hexdigest() != CERT_SHA256[i]:
        return f"certificate i={i} differs from the recorded digest"
    return None


def _prove_plan(seed: int) -> Plan:
    system = generic_system(PROOF_N)
    x0 = cofactor_det(system)
    ops = [
        Op(
            f"prove i={i}",
            functools.partial(_run_prove, system, i),
            (i, render_scalar(system.rhs_entry(i) * x0)),
            _check_prove,
        )
        for i in range(1, PROOF_N + 1)
    ]
    numeric, answer = numeric_probe_system(seed)
    return Plan(seed, ops, True, numeric, answer)


# -- cli-mixed ------------------------------------------------------------------


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: str
    stderr: str
    cpu_s: float
    maxrss_kb: int


def _child_timeout(signum, frame):
    raise TimeoutError(f"child ran longer than {CHILD_TIMEOUT_S} s")


def run_child(argv: list[str], workdir: str, env: dict) -> ChildResult:
    """Run one child to completion and collect its own CPU time and peak RSS.

    Output goes through files so one un-threaded process can read both
    streams without a pipe deadlock; ``wait4`` gives the child's rusage.
    A child that runs past CHILD_TIMEOUT_S is killed and the op fails.
    """
    out_path = os.path.join(workdir, "child.stdout")
    err_path = os.path.join(workdir, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        previous = signal.signal(signal.SIGALRM, _child_timeout)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(
        proc.returncode, stdout, stderr, usage.ru_utime + usage.ru_stime, usage.ru_maxrss
    )


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


@dataclass(frozen=True)
class CliExpect:
    code: int
    stdout: str | None = None  # exact text, when the format is a contract
    json_x: list | None = None  # solve --json quotients
    cert: int | None = None  # row i of the certificate the command writes
    cert_path: str | None = None


def _run_cli(argv, workdir, env, span) -> ChildResult:
    with span("cli.subprocess"):
        return run_child(argv, workdir, env)


def check_cli(out: ChildResult, exp: CliExpect) -> str | None:
    if out.code != exp.code:
        return f"exit code {out.code}, expected {exp.code}"
    if "Traceback" in out.stderr:
        return "traceback on stderr"
    if exp.code != 0:
        if out.stdout or not out.stderr.startswith("error:"):
            return "error exit without a single error message"
        return None
    if exp.stdout is not None and out.stdout != exp.stdout:
        return "stdout differs from the oracle's answer"
    if exp.json_x is not None:
        try:
            x = json.loads(out.stdout)["x"]
        except (ValueError, KeyError, TypeError):
            return "solve --json printed no x array"
        if x != exp.json_x:
            return "solve --json quotients differ from bareiss_solve"
    if exp.cert is not None:
        first = out.stdout.splitlines()[0] if out.stdout else ""
        good = math.factorial(PROOF_N)
        if first != f"n={PROOF_N} i={exp.cert}: good={good} bad={(PROOF_N - 1) * good}":
            return f"unexpected summary line {first!r}"
        if "FAIL" in out.stdout:
            return "check-involution reported FAIL"
        # removed after reading, so a later run that writes nothing fails
        with open(exp.cert_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(exp.cert_path)
        return cert_problem(text, exp.cert)
    return None


def _write_doc(workdir: str, name: str, doc: dict | str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def _rational_doc(system) -> dict:
    return {
        "n": system.n,
        "mode": "rational",
        "A": [[str(x) for x in row] for row in system.entries],
        "b": [str(x) for x in system.rhs],
    }


def cli_cases(seed: int, workdir: str) -> tuple[list, object, tuple]:
    """The CLI mix as (label, args, expected) cases, plus its solve system.

    The eight commands repeat PROOF_N times, with check-involution's row
    running through 1..PROOF_N, so one cycle is 8 * PROOF_N commands.
    """
    rng = random.Random(f"cli-mixed:{seed}")
    (solve_sys, solve_x), (det_sys, _) = nonsingular_systems(rng, 6, 2, _int_entry)
    ((frac_sys, frac_x),) = nonsingular_systems(rng, 5, 1, _frac_entry)
    det = str(bareiss_det(det_sys))
    # singular: the last row is twice the first
    rows = [[str(rng.randint(-9, 9)) for _ in range(4)] for _ in range(3)]
    rows.append([str(2 * int(v)) for v in rows[0]])
    singular = {"n": 4, "mode": "rational", "A": rows,
                "b": [str(rng.randint(-9, 9)) for _ in range(4)]}
    float_doc = '{"n": 2, "mode": "rational", "A": [[1.5, "1"], ["1", "1"]], "b": ["1", "2"]}'
    docs = {
        "solve-int": _write_doc(workdir, "solve-int.json", _rational_doc(solve_sys)),
        "solve-frac": _write_doc(workdir, "solve-frac.json", _rational_doc(frac_sys)),
        "det-int": _write_doc(workdir, "det-int.json", _rational_doc(det_sys)),
        "float": _write_doc(workdir, "float.json", float_doc),
        "singular": _write_doc(workdir, "singular.json", singular),
        "huge": _write_doc(workdir, "huge.json", {"n": 200, "mode": "symbolic"}),
    }
    cert_path = os.path.join(workdir, "cert.json")
    cases = []
    for i in range(1, PROOF_N + 1):
        cases += [
            ("solve --json", ["solve", "--json", "--input", docs["solve-int"]],
             CliExpect(0, json_x=[str(q) for q in solve_x])),
            ("solve", ["solve", "--input", docs["solve-frac"]],
             CliExpect(0, stdout="".join(f"x{j} = {q}\n" for j, q in enumerate(frac_x, 1)))),
            ("det", ["det", "--input", docs["det-int"]],
             CliExpect(0, stdout=f"leibniz: {det}\ncofactor: {det}\nbareiss: {det}\n")),
            ("verify-identity", ["verify-identity", "--n", "4"],
             CliExpect(0, stdout="".join(f"i={k}: PASS\n" for k in range(1, 5)))),
            (f"check-involution i={i}",
             ["check-involution", "--n", str(PROOF_N), "--i", str(i),
              "--emit-certificate", cert_path],
             CliExpect(0, cert=i, cert_path=cert_path)),
            ("exit 2", ["solve", "--input", docs["float"]], CliExpect(2)),
            ("exit 3", ["solve", "--input", docs["singular"]], CliExpect(3)),
            ("exit 4", ["solve", "--input", docs["huge"]], CliExpect(4)),
        ]
    return cases, solve_sys, solve_x


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cramerkit", *args]


def _cli_plan(seed: int, workdir: str, src_dir: str) -> Plan:
    cases, numeric, answer = cli_cases(seed, workdir)
    env = child_env(src_dir)
    ops = [
        Op(f"cli {label}", functools.partial(_run_cli, cli_argv(args), workdir, env),
           expected, check_cli)
        for label, args, expected in cases
    ]
    return Plan(seed, ops, False, numeric, answer)


# -- entry point ----------------------------------------------------------------


def build(workload: str, seed: int, workdir: str, src_dir: str) -> Plan:
    """Generate a workload's inputs from ``seed`` and their expected answers."""
    if workload == "solve-int":
        plan = _solve_plan(workload, seed, 8, _int_entry)
    elif workload == "solve-frac":
        plan = _solve_plan(workload, seed, 6, _frac_entry)
    elif workload == "prove-symbolic":
        plan = _prove_plan(seed)
    elif workload == "cli-mixed":
        plan = _cli_plan(seed, workdir, src_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan.digest = _digest(plan, workdir)
    return plan


def _digest(plan: Plan, workdir: str) -> str:
    # the work directory differs between processes; the inputs must not
    h = hashlib.sha256()
    for op in plan.ops:
        inputs = op.run.args[:1]
        h.update(repr((op.label, inputs, op.expected)).replace(workdir, "<work>").encode())
    for name in sorted(os.listdir(workdir)):
        if name.endswith(".json") and name != "cert.json":
            with open(os.path.join(workdir, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()
