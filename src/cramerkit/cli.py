"""Command-line surface: solve, verify-identity, check-involution, det,
validate-certificate.

Input documents are JSON::

    {"n": 2, "mode": "rational",
     "A": [["1", "1"], ["1", "-1"]],
     "b": ["3", "1"]}

Rational entries cross the boundary as strings ("p/q" or an integer
literal; plain JSON integers are also accepted) so values stay exact
bit-for-bit -- JSON floats are rejected outright.  The entries are read by
``cramer.rational_system``, the package's one reader of exact rationals,
after the document's shape is checked here.  A document with
``"mode": "symbolic"`` omits A and b and denotes the generic system on
symbols a[i,j] / b[i].  ``validate-certificate`` reads a certificate
written by ``check-involution --emit-certificate`` and audits it.

Each subcommand imports what it runs: ``involution`` (the checker) loads
only for check-involution and validate-certificate, ``oracle`` only for
det, so the other subcommands start without compiling either.

Exit codes: 0 success / all checks pass, 1 a check failed or output could
not be written, 2 input or usage error (an n below 1 among them), 3
singular system, 4 size guard violation (n > max-n; override with --max-n).
``main`` maps each error that ends a subcommand to its code by one table,
``_EXIT_CODES``, which sits beside the codes themselves.  A failed write to
stdout, a closed pipe or a full disk, also at the final flush, exits 1
with one ``error: cannot write output: ...`` line on stderr and no
traceback; when stdout still cannot be flushed, it is then pointed at
``os.devnull``, so the interpreter's own flush at exit has nothing left to
fail on.  A failed write to stderr exits 1 too, with nothing more written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from .algebra import render_scalar
from .cramer import (
    RATIONAL,
    SYMBOLIC,
    LinearSystem,
    ResidualError,
    SingularSystemError,
    _identity_sides,
    all_big_x,
    big_x,
    generic_system,
    rational_system,
    solve,
)
from .perm import MAX_N_DEFAULT, SizeLimitError, _check_guard


class InputError(ValueError):
    """The input document (or a usage combination) is malformed."""


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3
EXIT_GUARD = 4

# checked in this order: the first class the error is an instance of decides
_EXIT_CODES = {
    InputError: EXIT_INPUT,
    SingularSystemError: EXIT_SINGULAR,
    SizeLimitError: EXIT_GUARD,
    ResidualError: EXIT_FAIL,
    # a failed write to stdout or stderr: an input file's own OSError is an
    # InputError, and a certificate's write reports its own failure
    OSError: EXIT_FAIL,
}


def _drop_stdout() -> None:
    # After a failed write: when stdout still cannot be flushed, point its
    # descriptor at os.devnull, so that the interpreter's own flush at exit
    # has nothing left to fail on.  A stdout that flushes, or that has no
    # descriptor (in-process, as under a test's capture), is left as it is.
    try:
        sys.stdout.flush()
        return
    except (OSError, ValueError):
        pass
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


class InputDocument(NamedTuple):
    """Parsed JSON input: size, mode, the rational system (None if symbolic)."""

    n: int
    mode: str
    system: LinearSystem | None

    def to_system(self, max_n: int) -> LinearSystem:
        """The document's system; generic_system(n) only once n passes the guard."""
        if self.system is not None:
            return self.system
        _check_guard(self.n, max_n)
        return generic_system(self.n)


def parse_input_document(data: object) -> InputDocument:
    """Validate raw JSON data against the input schema."""
    if not isinstance(data, dict):
        raise InputError("input document must be a JSON object")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    mode = data.get("mode")
    if mode not in (RATIONAL, SYMBOLIC):
        raise InputError(f'mode must be "rational" or "symbolic", got {mode!r}')
    unknown = set(data) - {"n", "mode", "A", "b"}
    if unknown:
        raise InputError(f"unknown fields: {sorted(unknown)}")

    if mode == SYMBOLIC:
        if "A" in data or "b" in data:
            raise InputError("symbolic documents must omit A and b")
        return InputDocument(n=n, mode=mode, system=None)

    if "A" not in data or "b" not in data:
        raise InputError("rational documents need both A and b")
    a, b = data["A"], data["b"]
    if not isinstance(a, list) or len(a) != n:
        raise InputError(f"A must be a list of {n} rows")
    for r, row in enumerate(a, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"row {r} of A must have {n} entries")
    if not isinstance(b, list) or len(b) != n:
        raise InputError(f"b must be a list of {n} entries")
    try:  # the shape is sound, so only an entry can be at fault
        return InputDocument(n=n, mode=mode, system=rational_system(a, b))
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # syntax, UTF-8, long int, nesting
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


# -- subcommands --------------------------------------------------------------


def _cmd_solve(args) -> int:
    system = parse_input_document(_load_json(args.input)).to_system(args.max_n)
    sol = solve(system, max_n=args.max_n)
    numerators = [render_scalar(x) for x in sol.numerators]
    denominator = render_scalar(sol.denominator)
    if system.mode == RATIONAL:
        x = lines = [str(q) for q in sol.quotients]
    else:
        x = [{"numerator": num, "denominator": denominator} for num in numerators]
        lines = [f"({num}) / ({denominator})" for num in numerators]
    if args.json:
        payload = {
            "mode": system.mode,
            "n": system.n,
            "x": x,
            "numerators": numerators,
            "denominator": denominator,
        }
        print(json.dumps(payload))
    else:
        for j, line in enumerate(lines, start=1):
            print(f"x{j} = {line}")
    return EXIT_OK


def _generic_system(args) -> LinearSystem:
    # generic_system(--n) after the usage checks, in this order: --n below 1
    # exits 2, --n above the guard exits 4, --i outside 1..n exits 2
    if args.n < 1:
        raise InputError(f"--n must be a positive integer, got {args.n}")
    _check_guard(args.n, args.max_n)
    if args.i is not None and not 1 <= args.i <= args.n:
        raise InputError(f"--i {args.i} outside 1..{args.n}")
    return generic_system(args.n)


def _cmd_verify_identity(args) -> int:
    system = _generic_system(args)
    indices = [args.i] if args.i is not None else list(range(1, args.n + 1))
    xs = all_big_x(system, max_n=args.max_n)
    all_ok = True
    for i in indices:
        lhs, rhs = _identity_sides(system, i, xs)
        ok = lhs == rhs
        print(f"i={i}: {'PASS' if ok else 'FAIL'}")
        if not ok:  # only a failing row's sides are rendered
            all_ok = False
            print(f"  lhs = {render_scalar(lhs)}")
            print(f"  rhs = {render_scalar(rhs)}")
    return EXIT_OK if all_ok else EXIT_FAIL


def _cmd_check_involution(args) -> int:
    from .involution import _walk, certificate_to_dict

    system = _generic_system(args)
    f1, f2, cert = _walk(
        system, args.i, max_n=args.max_n, collect=args.emit_certificate is not None
    )

    def line(label: str, ok: bool) -> bool:
        print(f"{label}: {'PASS' if ok else 'FAIL'}")
        return ok

    print(f"n={args.n} i={args.i}: good={f1.good_count} bad={f2.bad_count}")
    all_ok = line("fact1 elementwise (weight = b_i * w0)", f1.elementwise_ok)
    all_ok &= line("fact1 aggregate (good sum = b_i * X0)", f1.aggregate_ok)
    all_ok &= line("involution (bad-to-bad, self-inverse, no fixed point)", f2.involution_ok)
    all_ok &= line("parity (inversion difference odd)", f2.parity_ok)
    all_ok &= line("cancellation (pair weights sum to zero)", f2.cancellation_ok)
    all_ok &= line("fact2 aggregate (bad sum = 0)", f2.aggregate_ok)

    if args.emit_certificate is not None:
        if cert is None:
            print("certificate not written: a check failed", file=sys.stderr)
            return EXIT_FAIL
        # written beside the target and renamed over it, so a failed write
        # leaves no partial file and any file already there as it was
        tmp = f"{args.emit_certificate}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(certificate_to_dict(cert), fh, indent=2)
                fh.write("\n")
            os.replace(tmp, args.emit_certificate)
        except OSError as exc:
            try:
                os.remove(tmp)
            except OSError:
                pass  # never created, e.g. the directory is missing
            print(f"cannot write certificate: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"certificate written to {args.emit_certificate}")
    return EXIT_OK if all_ok else EXIT_FAIL


def _cmd_det(args) -> int:
    from .oracle import COFACTOR_MAX_N, bareiss_det, cofactor_det

    doc = parse_input_document(_load_json(args.input))
    if args.method == "bareiss" and doc.mode != RATIONAL:
        raise InputError("bareiss applies to rational documents only")
    system = doc.to_system(COFACTOR_MAX_N if args.method == "cofactor" else args.max_n)
    methods = {
        "leibniz": lambda: big_x(system, 0, max_n=args.max_n),
        "cofactor": lambda: cofactor_det(system),
        "bareiss": lambda: bareiss_det(system),
    }
    if args.method:
        selected = [args.method]
    else:  # every method whose guard and mode allow it
        selected = ["leibniz"]
        if system.n <= COFACTOR_MAX_N:
            selected.append("cofactor")
        if system.mode == RATIONAL:
            selected.append("bareiss")
    values = [methods[name]() for name in selected]
    for name, value in zip(selected, values):
        print(f"{name}: {render_scalar(value)}")
    if any(v != values[0] for v in values[1:]):
        print("determinant methods disagree", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_validate_certificate(args) -> int:
    from .involution import certificate_from_dict, validate_certificate

    try:  # the parsed JSON is freed before the audit starts
        cert = certificate_from_dict(_load_json(args.input))
    except ValueError as exc:  # InputError from the loader keeps its message
        raise InputError(str(exc)) from exc
    try:
        validate_certificate(cert, max_n=args.max_n)
    except SizeLimitError:
        raise
    except ValueError as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(
        f"n={cert.n} i={cert.i}: certificate valid "
        f"(good={len(cert.good)} pairs={len(cert.bad_pairs)})"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cramerkit",
        description="Exact linear solving by signed permutation sums, "
        "with an exhaustive cancellation checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_max_n(p):
        p.add_argument(
            "--max-n",
            type=int,
            default=MAX_N_DEFAULT,
            metavar="N",
            help=f"enumeration size guard (default {MAX_N_DEFAULT})",
        )

    p = sub.add_parser("solve", help="solve a system from a JSON document")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_max_n(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "verify-identity",
        help="check sum_j a[i,j] X_j = b[i] X_0 on the generic symbolic system",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None, help="single row (default: all)")
    add_max_n(p)
    p.set_defaults(func=_cmd_verify_identity)

    p = sub.add_parser(
        "check-involution",
        help="verify the good/bad partition, pairing and cancellation for one row",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--emit-certificate", metavar="FILE")
    add_max_n(p)
    p.set_defaults(func=_cmd_check_involution)

    p = sub.add_parser("det", help="determinant of the document's matrix")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--method", choices=["leibniz", "cofactor", "bareiss"])
    add_max_n(p)
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser(
        "validate-certificate",
        help="audit a certificate written by check-involution --emit-certificate",
    )
    p.add_argument("--input", required=True, metavar="FILE")
    add_max_n(p)
    p.set_defaults(func=_cmd_validate_certificate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a write held in the buffer fails here
        return code
    except tuple(_EXIT_CODES) as exc:
        message = str(exc)
        if isinstance(exc, OSError):
            message = f"cannot write output: {exc}"
            _drop_stdout()
        try:
            print(f"error: {message}", file=sys.stderr)
        except OSError:
            pass  # stderr cannot be written either; the exit code still tells
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
