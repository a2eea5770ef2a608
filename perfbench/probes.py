"""Per-layer probes for the traced run.

Each probe times one public call, REPS times under a span, on the
workload's own inputs where it has them: the numeric probes use the
workload's first numeric system, the symbolic ones generic_system(5) as
prove-symbolic does, the CLI ones the first round of the cli-mixed cycle.
Every probe output is checked like a workload op, and every count must
repeat exactly.

LAYER_METRICS records, for each per-layer metric, the end-to-end metric it
should move and on which workload, so a change to one layer can be traced
to the number it claims to improve.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys

from cramerkit import (
    all_big_x,
    bareiss_solve,
    big_x,
    build_certificate,
    check_fact1,
    check_fact2,
    cofactor_det,
    enumerate_permutations,
    generic_system,
    solve,
    validate_certificate,
    verify_identity,
)
from cramerkit.cli import main as cli_main
from cramerkit.involution import iter_elements
from cramerkit.perm import iter_signed_values

import hostspeed
import workloads
from spans import Tracer

REPS = 3

# name, unit, better, moves e2e metric, on workloads
LAYER_METRICS = [
    ("perm.iter_signed_ms", "ms", "lower", "latency_p50_ms", "solve-int"),
    ("perm.permutations", "count", "lower", "latency_p50_ms", "solve-int"),
    ("perm.enumerate_ms", "ms", "lower", "ops_per_s", "prove-symbolic"),
    ("cramer.all_big_x_ms", "ms", "lower", "latency_p50_ms", "solve-int, solve-frac"),
    ("cramer.solve_ms", "ms", "lower", "latency_p50_ms", "solve-int, solve-frac"),
    ("cramer.big_x0_ms", "ms", "lower", "ops_per_s", "prove-symbolic"),
    ("cramer.verify_identity_ms", "ms", "lower", "ops_per_s", "prove-symbolic"),
    ("algebra.poly_combine_ms", "ms", "lower", "ops_per_s", "prove-symbolic"),
    ("algebra.render_ms", "ms", "lower", "ops_per_s", "prove-symbolic"),
    ("algebra.x_terms", "count", "lower", "ops_per_s", "prove-symbolic"),
    ("involution.check_fact1_ms", "ms", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("involution.check_fact2_ms", "ms", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("involution.build_certificate_ms", "ms", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("involution.cert_encode_ms", "ms", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("involution.cert_decode_ms", "ms", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("involution.validate_certificate_ms", "ms", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("involution.iter_elements_ms", "ms", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("involution.elements", "count", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("involution.cert_bytes", "bytes", "lower", "ops_per_s; latency_p90_ms", "prove-symbolic; cli-mixed"),
    ("oracle.bareiss_solve_ms", "ms", "lower", "setup_s", "solve-int, solve-frac, prove-symbolic"),
    ("oracle.cofactor_det_ms", "ms", "lower", "setup_s", "solve-int, solve-frac, prove-symbolic"),
    ("cli.interpreter_ms", "ms", "lower", "latency_p50_ms", "cli-mixed"),
    ("cli.import_ms", "ms", "lower", "latency_p50_ms", "cli-mixed"),
    ("cli.main_ms", "ms", "lower", "latency_p50_ms", "cli-mixed"),
    ("cli.subprocess_ms", "ms", "lower", "latency_p50_ms", "cli-mixed"),
    ("cli.stdout_bytes", "bytes", "lower", "latency_p50_ms", "cli-mixed"),
]

#: Counts that do not depend on the seed: n = 8 permutations, the n * n!
#: elements of F_5, the terms of X_0..X_5 of generic_system(5), and the size
#: of the i = 1 certificate, all recorded at the seed commit.
FIXED_COUNTS = {
    "perm.permutations": math.factorial(8),
    "involution.elements": workloads.PROOF_N * math.factorial(workloads.PROOF_N),
    "algebra.x_terms": (workloads.PROOF_N + 1) * math.factorial(workloads.PROOF_N),
    "involution.cert_bytes": 106015,
}

#: Layers whose self time the traced run reports; "bench" is the
#: benchmark's own code between calls inside an op.
SELF_LAYERS = ("bench", "perm", "algebra", "cramer", "involution", "oracle", "cli")


class Probes:
    """Runs the probes; collects metrics and the problems found in outputs."""

    def __init__(self, plan, tracer: Tracer, workdir: str, src_dir: str):
        self.plan = plan
        self.tracer = tracer
        self.workdir = workdir
        self.src_dir = src_dir
        self.metrics: dict[str, float] = {}
        self.problems: list[str] = []
        self.checks = 0

    def time(self, metric: str, fn, after=None, reps: int = REPS) -> list:
        """Median span time of ``fn`` under ``metric``'s span, host-speed
        scaled like the end-to-end times; returns the outputs.

        ``after(output)``, when given, runs after each repetition, untimed.
        """
        self.tracer.op = f"probe:{metric}"
        span_name = metric.removesuffix("_ms")
        scale = hostspeed.scale_now(3)
        times, outs = [], []
        for _ in range(reps):
            with self.tracer.span(span_name) as s:
                outs.append(fn())
            times.append((s.end_ns - s.start_ns) / 1e6)
            if after is not None:
                after(outs[-1])
        self.metrics[metric] = statistics.median(times) * scale
        return outs

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(what)

    def count(self, metric: str, values: list[int]) -> None:
        """A count metric: every repetition gives the same, fixed value."""
        self.expect(len(set(values)) == 1, f"{metric} did not repeat: {values}")
        if metric in FIXED_COUNTS:
            self.expect(values[0] == FIXED_COUNTS[metric],
                        f"{metric} = {values[0]}, recorded {FIXED_COUNTS[metric]}")
        self.metrics[metric] = values[0]

    def run_all(self) -> None:
        self.perm()
        self.numeric()
        self.symbolic()
        self.cli()

    def perm(self) -> None:
        counts = self.time("perm.iter_signed_ms",
                           lambda: sum(1 for _ in iter_signed_values(8)))
        self.count("perm.permutations", counts)
        drained = self.time("perm.enumerate_ms",
                            lambda: sum(1 for _ in enumerate_permutations(7)))
        self.expect(drained == [math.factorial(7)] * REPS, "enumerate_permutations(7) count")

    def numeric(self) -> None:
        system, answer = self.plan.numeric, self.plan.numeric_expected
        for xs in self.time("cramer.all_big_x_ms", lambda: all_big_x(system)):
            self.expect(tuple(x / xs[0] for x in xs[1:]) == answer, "all_big_x quotients")
        for sol in self.time("cramer.solve_ms", lambda: solve(system)):
            self.expect(sol.quotients == answer, "solve quotients")
        for x in self.time("oracle.bareiss_solve_ms", lambda: bareiss_solve(system)):
            self.expect(x == answer, "bareiss_solve repeats")

    def symbolic(self) -> None:
        g = generic_system(workloads.PROOF_N)
        x0s = self.time("oracle.cofactor_det_ms", lambda: cofactor_det(g))
        x0 = x0s[0]
        for x in self.time("cramer.big_x0_ms", lambda: big_x(g, 0)):
            self.expect(x == x0, "big_x(0) equals cofactor_det")
        for r in self.time("cramer.verify_identity_ms", lambda: verify_identity(g, 1)):
            self.expect(r.ok, "verify_identity i=1")

        xs = all_big_x(g)
        self.count("algebra.x_terms", [sum(len(x.terms()) for x in xs)])
        combine = lambda: sum((g.entry(1, j) * xs[j] for j in range(1, g.n + 1)), 0)
        for lhs in self.time("algebra.poly_combine_ms", combine):
            self.expect(lhs == g.rhs_entry(1) * xs[0], "sum_j a[1,j] X_j = b[1] X_0")
        renders = self.time("algebra.render_ms", lambda: [x.render() for x in xs])
        self.expect(all(r == renders[0] for r in renders), "renderings repeat")

        for f in self.time("involution.check_fact1_ms", lambda: check_fact1(g, 1)):
            self.expect(f.ok, "check_fact1 i=1")
        for f in self.time("involution.check_fact2_ms", lambda: check_fact2(g, 1)):
            self.expect(f.ok, "check_fact2 i=1")
        cert = self.time("involution.build_certificate_ms", lambda: build_certificate(g, 1))[0]
        texts = self.time("involution.cert_encode_ms", lambda: workloads.cert_text(cert))
        self.count("involution.cert_bytes", [len(t.encode()) for t in texts])
        self.expect(workloads.cert_problem(texts[0], 1) is None, "certificate i=1 digest")
        for back in self.time("involution.cert_decode_ms",
                              lambda: workloads.cert_from_text(texts[0])):
            self.expect(back == cert, "certificate JSON round trip")
        self.time("involution.validate_certificate_ms", lambda: validate_certificate(cert))
        self.count("involution.elements", self.time(
            "involution.iter_elements_ms",
            lambda: sum(1 for _ in iter_elements(workloads.PROOF_N))))

    def cli(self) -> None:
        env = workloads.child_env(self.src_dir)
        python = [sys.executable, "-c"]
        bare = self.time("cli.interpreter_ms",
                         lambda: workloads.run_child(python + ["pass"], self.workdir, env))
        imports = self.time("cli.import_ms", lambda: workloads.run_child(
            python + ["import cramerkit.cli"], self.workdir, env))
        self.expect(all(r.code == 0 for r in bare + imports), "bare interpreter runs")
        self.metrics["cli.import_ms"] -= self.metrics["cli.interpreter_ms"]

        cases, _, _ = workloads.cli_cases(self.plan.seed, self.workdir)
        cycle = cases[: len(cases) // workloads.PROOF_N]

        def in_process():
            outs = []
            for _, args, _ in cycle:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(args)
                outs.append(workloads.ChildResult(code, out.getvalue(), err.getvalue(), 0.0, 0))
            return outs

        def judge(outs):
            for (label, _, expected), out in zip(cycle, outs):
                problem = workloads.check_cli(out, expected)
                self.expect(problem is None, f"cli {label}: {problem}")

        def subprocesses():
            return [workloads.run_child(workloads.cli_argv(args), self.workdir, env)
                    for _, args, _ in cycle]

        self.time("cli.main_ms", in_process, judge)
        runs = self.time("cli.subprocess_ms", subprocesses, judge)
        self.metrics["cli.main_ms"] /= len(cycle)
        self.metrics["cli.subprocess_ms"] /= len(cycle)
        self.count("cli.stdout_bytes",
                   [sum(len(r.stdout.encode()) for r in outs) for outs in runs])


def self_time_metrics(tracer: Tracer) -> dict[str, float]:
    by_layer = tracer.self_ms_by_layer()
    return {f"self.{layer}_ms": by_layer.get(layer, 0.0) for layer in SELF_LAYERS}
