"""CLI surface: documents, subcommands, exit codes, JSON output."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cramerkit import algebra, cli, cramer, involution, oracle
from cramerkit import (
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    generic_system,
    validate_certificate,
)
from cramerkit.cli import (
    EXIT_FAIL,
    EXIT_GUARD,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SINGULAR,
    InputDocument,
    InputError,
    main,
    parse_input_document,
)

from _support import SOLVE_FAULT_RHS, SOLVE_FAULT_ROWS, SOLVE_FAULTS

REPO = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def rational_doc(rows, rhs):
    return {
        "n": len(rows),
        "mode": "rational",
        "A": [[str(x) for x in row] for row in rows],
        "b": [str(x) for x in rhs],
    }


# -- input documents -------------------------------------------------------------


def test_parse_accepts_strings_and_ints():
    doc = parse_input_document(
        {"n": 2, "mode": "rational", "A": [["1/2", 2], [-3, "4"]], "b": [0, "5"]}
    )
    assert doc.system.entries[0][0] == Fraction(1, 2)
    assert doc.system.entries[1][0] == Fraction(-3)
    assert doc.system.rhs == (Fraction(0), Fraction(5))


# well-formed documents but for their one entry
_ENTRY_FAULTS = [
    {"n": 1, "mode": "rational", "A": [[x]], "b": ["1"]}
    for x in ("1.5", 1.5, "1/0", "\u0661", "2\n", "1" * 5000, True)
]


@pytest.mark.parametrize(
    "raw",
    [
        [],
        {"n": 2, "mode": "rational", "A": [["1", "1"]], "b": ["1", "1"]},
        {"n": 0, "mode": "rational", "A": [], "b": []},
        {"n": 1, "mode": "rational", "A": [["1"]], "b": ["1"], "extra": 1},
        {"n": 1, "mode": "decimal", "A": [["1"]], "b": ["1"]},
        {"n": 1, "mode": "rational", "A": [["1"]]},
        {"n": 1, "mode": "symbolic", "A": [["1"]], "b": ["1"]},
        {"n": 2, "mode": "rational", "A": [["1", "1"], ["1"]], "b": ["1", "1"]},
        *_ENTRY_FAULTS,
    ],
)
def test_parse_rejects_malformed(raw):
    with pytest.raises(InputError) as caught:
        parse_input_document(raw)
    if raw in _ENTRY_FAULTS:  # the CLI reports what rational_system raises
        with pytest.raises((TypeError, ValueError)) as direct:
            cramer.rational_system(raw["A"], raw["b"])
        assert str(caught.value) == str(direct.value)


def test_overlong_numbers_are_input_errors(tmp_path, capsys):
    # more digits than int() converts by default (4300), as a rational string
    # and as a JSON integer; undecodable bytes take the same path
    doc = {"n": 1, "mode": "rational", "A": [["1" * 5000]], "b": ["1"]}
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"n": ' + "1" * 5000 + "}", encoding="utf-8")
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"n": 1, "mode": "\xff"}')
    for path in (write_doc(tmp_path, "d.json", doc), long_int, not_utf8):
        code, _, err = run(capsys, "solve", "--input", str(path))
        assert code == EXIT_INPUT and err.startswith("error:"), path


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # deeper than the JSON decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    for command in (["solve"], ["det"], ["validate-certificate"]):
        code, _, err = run(capsys, *command, "--input", str(path))
        assert code == EXIT_INPUT and err.startswith("error:"), command
        assert "Traceback" not in err


def test_symbolic_document_roundtrip():
    doc = parse_input_document({"n": 3, "mode": "symbolic"})
    assert doc == InputDocument(n=3, mode="symbolic", system=None)


# -- solve -----------------------------------------------------------------------


def test_solve_text(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", rational_doc([[1, 1], [1, -1]], [3, 1]))
    code, out, _ = run(capsys, "solve", "--input", path)
    assert code == EXIT_OK
    assert out.splitlines() == ["x1 = 2", "x2 = 1"]


def test_solve_json_covers_text(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", rational_doc([[1, 1], [1, -1]], [3, 1]))
    code, out, _ = run(capsys, "solve", "--input", path, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["x"] == ["2", "1"]
    assert payload["numerators"] == ["-4", "-2"]
    assert payload["denominator"] == "-2"
    assert payload["mode"] == "rational"
    assert payload["n"] == 2


def test_solve_fractional_output(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", rational_doc([[3]], [2]))
    code, out, _ = run(capsys, "solve", "--input", path)
    assert code == EXIT_OK
    assert out.splitlines() == ["x1 = 2/3"]


def test_solve_symbolic(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", {"n": 2, "mode": "symbolic"})
    code, out, _ = run(capsys, "solve", "--input", path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == (
        "x1 = (-a[1,2]*b[2] + a[2,2]*b[1]) / (a[1,1]*a[2,2] - a[1,2]*a[2,1])"
    )
    assert lines[1] == (
        "x2 = (a[1,1]*b[2] - a[2,1]*b[1]) / (a[1,1]*a[2,2] - a[1,2]*a[2,1])"
    )
    code, out, _ = run(capsys, "solve", "--input", path, "--json")
    payload = json.loads(out)
    assert payload["mode"] == "symbolic"
    assert payload["x"][0]["numerator"] == "-a[1,2]*b[2] + a[2,2]*b[1]"


def test_solve_singular_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", rational_doc([[1, 1], [1, 1]], [1, 2]))
    code, _, err = run(capsys, "solve", "--input", path)
    assert code == EXIT_SINGULAR
    assert "singular system: X_0 = 0" in err


def test_solve_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "solve", "--input", str(bad))
    assert code == EXIT_INPUT and "invalid JSON" in err
    code, _, err = run(capsys, "solve", "--input", str(tmp_path / "missing.json"))
    assert code == EXIT_INPUT
    path = write_doc(
        tmp_path, "f.json", {"n": 1, "mode": "rational", "A": [[0.5]], "b": ["1"]}
    )
    code, _, err = run(capsys, "solve", "--input", path)
    assert code == EXIT_INPUT


def test_solve_guard_and_override(tmp_path, capsys):
    n = 10
    doc = rational_doc([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                       list(range(1, n + 1)))
    path = write_doc(tmp_path, "big.json", doc)
    code, _, err = run(capsys, "solve", "--input", path)
    assert code == EXIT_GUARD and "guard" in err

    small = write_doc(
        tmp_path,
        "small.json",
        rational_doc([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                     [1, 2, 3, 4]),
    )
    code, _, _ = run(capsys, "solve", "--input", small, "--max-n", "3")
    assert code == EXIT_GUARD
    code, out, _ = run(capsys, "solve", "--input", small, "--max-n", "4")
    assert code == EXIT_OK
    assert out.splitlines() == ["x1 = 1", "x2 = 2", "x3 = 3", "x4 = 4"]


def test_solve_residual_failure_exits_1(tmp_path, capsys, monkeypatch):
    leibniz = cramer._leibniz

    def corrupt_x1(sys, every_j):
        xs = leibniz(sys, every_j)
        return [xs[0], xs[1] + 1, *xs[2:]] if every_j else xs

    monkeypatch.setattr(cramer, "_leibniz", corrupt_x1)
    path = write_doc(tmp_path, "s.json", rational_doc([[1, 1], [1, -1]], [3, 1]))
    code, out, err = run(capsys, "solve", "--input", path)
    assert code == EXIT_FAIL and out == ""
    assert err.startswith("error: ") and "residual" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", SOLVE_FAULTS, ids=lambda f: f.__name__)
def test_solve_postcondition_fault_exits_1(tmp_path, capsys, monkeypatch, fault):
    path = write_doc(tmp_path, "s.json", rational_doc(SOLVE_FAULT_ROWS, SOLVE_FAULT_RHS))
    fault(monkeypatch)
    code, out, err = run(capsys, "solve", "--input", path)
    assert code == EXIT_FAIL and out == ""
    assert err.startswith("error: ") and "residual" in err
    assert "Traceback" not in err


# -- verify-identity ---------------------------------------------------------------


def test_verify_identity_all_rows(capsys):
    code, out, _ = run(capsys, "verify-identity", "--n", "3")
    assert code == EXIT_OK
    assert out.splitlines() == ["i=1: PASS", "i=2: PASS", "i=3: PASS"]


def test_verify_identity_single_row(capsys):
    code, out, _ = run(capsys, "verify-identity", "--n", "4", "--i", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["i=2: PASS"]


def test_verify_identity_bad_row(capsys):
    code, _, err = run(capsys, "verify-identity", "--n", "3", "--i", "5")
    assert code == EXIT_INPUT


def test_verify_identity_guard(capsys):
    code, _, _ = run(capsys, "verify-identity", "--n", "12")
    assert code == EXIT_GUARD


def test_verify_identity_failure_prints_both_sides(capsys, monkeypatch):
    sides = cramer._identity_sides

    def x0_off_by_one(sys, i, xs):
        # row 2 is checked against X_0 + 1, so its right side gains b[2]
        return sides(sys, i, [xs[0] + 1, *xs[1:]] if i == 2 else xs)

    monkeypatch.setattr(cli, "_identity_sides", x0_off_by_one)
    code, out, _ = run(capsys, "verify-identity", "--n", "2")
    assert code == EXIT_FAIL
    assert out.splitlines() == [
        "i=1: PASS",
        "i=2: FAIL",
        "  lhs = a[1,1]*a[2,2]*b[2] - a[1,2]*a[2,1]*b[2]",
        "  rhs = a[1,1]*a[2,2]*b[2] - a[1,2]*a[2,1]*b[2] + b[2]",
    ]


def test_verify_identity_computes_x_once(capsys, monkeypatch):
    leibniz = cramer._leibniz
    calls = []

    def counting(sys, every_j):
        calls.append(every_j)
        return leibniz(sys, every_j)

    monkeypatch.setattr(cramer, "_leibniz", counting)
    code, out, _ = run(capsys, "verify-identity", "--n", "4")
    assert code == EXIT_OK
    assert out.splitlines() == [f"i={i}: PASS" for i in range(1, 5)]
    assert calls == [True]  # one sweep for X_0..X_4, shared by all rows


def test_verify_identity_renders_no_passing_row(capsys, monkeypatch):
    # a passing row prints PASS alone, so neither of its sides is rendered
    rendered = []

    def counting(x):
        rendered.append(x)
        return algebra.render_scalar(x)

    monkeypatch.setattr(cli, "render_scalar", counting)
    monkeypatch.setattr(cramer, "render_scalar", counting)
    code, out, _ = run(capsys, "verify-identity", "--n", "3")
    assert code == EXIT_OK
    assert out.splitlines() == [f"i={i}: PASS" for i in range(1, 4)]
    assert rendered == []


# -- check-involution ---------------------------------------------------------------


def test_check_involution_with_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "check-involution", "--n", "2", "--i", "1",
        "--emit-certificate", str(cert_path),
    )
    assert code == EXIT_OK
    assert "good=2 bad=2" in out
    assert out.count("PASS") == 6
    data = json.loads(cert_path.read_text(encoding="utf-8"))
    cert = certificate_from_dict(data)
    validate_certificate(cert)
    assert len(cert.good) == 2
    assert len(cert.bad_pairs) == 1


def test_check_involution_n1(capsys):
    code, out, _ = run(capsys, "check-involution", "--n", "1", "--i", "1")
    assert code == EXIT_OK
    assert "good=1 bad=0" in out


def test_check_involution_n4_counts(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "check-involution", "--n", "4", "--i", "3",
        "--emit-certificate", str(cert_path),
    )
    assert code == EXIT_OK
    assert "good=24 bad=72" in out
    data = json.loads(cert_path.read_text(encoding="utf-8"))
    assert len(data["good"]) == math.factorial(4)
    assert len(data["bad_pairs"]) == 36


def test_check_involution_unwritable_certificate(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "check-involution", "--n", "2", "--i", "1",
        "--emit-certificate", str(tmp_path / "no_dir" / "cert.json"),
    )
    assert code == EXIT_FAIL
    assert "cannot write certificate" in err


def test_check_involution_failed_write_keeps_the_old_certificate(
    tmp_path, capsys, monkeypatch
):
    # a write that fails part way leaves the file already at the path as it
    # was, and no temporary file beside it
    cert_path = tmp_path / "cert.json"
    old = b'{"a certificate": "already here"}\n'
    cert_path.write_bytes(old)

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"n": ')
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", failing_dump)
    code, out, err = run(
        capsys,
        "check-involution", "--n", "2", "--i", "1",
        "--emit-certificate", str(cert_path),
    )
    assert code == EXIT_FAIL
    assert "cannot write certificate: disk full" in err
    assert "certificate written" not in out
    assert cert_path.read_bytes() == old
    assert os.listdir(tmp_path) == ["cert.json"]


def test_check_involution_empty_certificate_path(capsys):
    # an empty path is a path that cannot be opened, not an absent flag
    code, _, err = run(
        capsys,
        "check-involution", "--n", "2", "--i", "1",
        "--emit-certificate", "",
    )
    assert code == EXIT_FAIL
    assert "cannot write certificate" in err


def test_check_involution_walks_f5_once(tmp_path, capsys, monkeypatch):
    # one enumeration of S_5 and (n + 1) * n! = 720 weight keys, each one
    # integer sum: w_0 once per permutation, at its good element, plus each
    # element of F_5 once; (n - 1) * n! / 2 = 240 partner parities, one per
    # bad pair, at its smaller element; the fact-1 aggregate takes b_i * X_0
    # from one kernel call, a second algorithm to check the walk's good sum
    # against.  The walk forms no weight as a product of entries
    calls = {"enumerations": 0, "weights": 0, "signs": 0, "sums": 0, "products": 0}

    def counting(module, name, key):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(involution, "iter_signed_values", "enumerations")
    counting(involution, "enumerate_permutations", "enumerations")
    counting(involution, "_key", "weights")
    counting(involution, "_sign", "signs")
    counting(cramer, "_leibniz", "sums")
    counting(cramer, "_weight", "products")
    code, out, _ = run(
        capsys,
        "check-involution", "--n", "5", "--i", "2",
        "--emit-certificate", str(tmp_path / "cert.json"),
    )
    assert code == EXIT_OK and out.count("PASS") == 6
    assert calls == {
        "enumerations": 1, "weights": 720, "signs": 240, "sums": 1, "products": 0
    }
    cramer.solve(cramer.rational_system([[2]], [1]))
    assert calls["sums"] == 2  # the hook is the one every X_j sum goes through


def test_check_involution_failed_check_writes_no_certificate(
    tmp_path, capsys, monkeypatch
):
    key = involution._key

    def wrong_w0(keys, values, j=0):
        return key(keys, values, j) + (1 if j == 0 else 0)

    monkeypatch.setattr(involution, "_key", wrong_w0)
    cert_path = tmp_path / "cert.json"
    code, out, err = run(
        capsys,
        "check-involution", "--n", "3", "--i", "1",
        "--emit-certificate", str(cert_path),
    )
    assert code == EXIT_FAIL
    assert "fact1 elementwise (weight = b_i * w0): FAIL" in out
    assert "certificate not written" in err
    assert not cert_path.exists()


def test_check_involution_bad_i(capsys):
    code, _, _ = run(capsys, "check-involution", "--n", "2", "--i", "3")
    assert code == EXIT_INPUT


# -- det -----------------------------------------------------------------------------


def test_det_all_methods_numeric(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", rational_doc([[2, 0], [0, 3]], [0, 0]))
    code, out, _ = run(capsys, "det", "--input", path)
    assert code == EXIT_OK
    assert out.splitlines() == ["leibniz: 6", "cofactor: 6", "bareiss: 6"]


def test_det_symbolic_methods_agree(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", {"n": 3, "mode": "symbolic"})
    code, out, _ = run(capsys, "det", "--input", path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 2  # no bareiss for symbolic documents
    leibniz = lines[0].removeprefix("leibniz: ")
    cofactor = lines[1].removeprefix("cofactor: ")
    assert leibniz == cofactor
    assert leibniz.count(" + ") + leibniz.count(" - ") == 5  # 3! terms


def test_det_methods_disagree_exits_1(tmp_path, capsys, monkeypatch):
    # the det handler imports bareiss_det when it runs, so it sees the patch
    bareiss = oracle.bareiss_det
    monkeypatch.setattr(oracle, "bareiss_det", lambda system: bareiss(system) + 1)
    path = write_doc(tmp_path, "d.json", rational_doc([[2, 0], [0, 3]], [0, 0]))
    code, out, err = run(capsys, "det", "--input", path)
    assert code == EXIT_FAIL
    assert out.splitlines() == ["leibniz: 6", "cofactor: 6", "bareiss: 7"]
    assert err == "determinant methods disagree\n"


def test_det_single_method(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", rational_doc([[0, 1], [1, 0]], [0, 0]))
    code, out, _ = run(capsys, "det", "--input", path, "--method", "bareiss")
    assert code == EXIT_OK
    assert out.splitlines() == ["bareiss: -1"]


def test_det_bareiss_on_symbolic_is_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", {"n": 2, "mode": "symbolic"})
    code, _, _ = run(capsys, "det", "--input", path, "--method", "bareiss")
    assert code == EXIT_INPUT


def test_det_cofactor_guard(tmp_path, capsys):
    # the rational document reaches cofactor_det's guard, the symbolic one
    # the CLI's check before the system is built: one condition, one message
    n = 8
    rational = rational_doc(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)], [0] * n
    )
    errors = []
    for name, doc in (("r.json", rational), ("s.json", {"n": n, "mode": "symbolic"})):
        path = write_doc(tmp_path, name, doc)
        code, _, err = run(capsys, "det", "--input", path, "--method", "cofactor")
        assert code == EXIT_GUARD
        errors.append(err)
    assert errors[0] == errors[1] == "error: n=8 outside the enumeration guard 1..7\n"


def test_det_guard_default(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", {"n": 10, "mode": "symbolic"})
    code, _, _ = run(capsys, "det", "--input", path)
    assert code == EXIT_GUARD


def test_only_a_symbolic_build_is_guarded(tmp_path, capsys):
    # a rational document is already built, so only its methods' own guards
    # apply: bareiss has none, leibniz stops at --max-n, cofactor at 7
    n = 10
    doc = rational_doc(
        [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)], [1] * n
    )
    path = write_doc(tmp_path, "eye.json", doc)
    code, out, _ = run(capsys, "det", "--input", path, "--method", "bareiss")
    assert code == EXIT_OK
    assert out == f"bareiss: {math.factorial(n)}\n"
    for method, limit in ((None, 9), ("leibniz", 9), ("cofactor", 7)):
        argv = ["det", "--input", path] + (["--method", method] if method else [])
        code, out, err = run(capsys, *argv)
        assert code == EXIT_GUARD and out == "", method
        assert err == f"error: n={n} outside the enumeration guard 1..{limit}\n"


def test_symbolic_guard_before_building_the_system(tmp_path, capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"generic_system({n}) built before the size guard")

    monkeypatch.setattr(cli, "generic_system", refuse)
    path = write_doc(tmp_path, "huge.json", {"n": 10**6, "mode": "symbolic"})
    for argv in (
        ["solve", "--input", path],
        ["det", "--input", path],
        ["det", "--input", path, "--method", "leibniz"],
        ["det", "--input", path, "--method", "cofactor"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_GUARD and "guard" in err, argv
    code, _, _ = run(capsys, "det", "--input", path, "--method", "bareiss")
    assert code == EXIT_INPUT


# -- validate-certificate ------------------------------------------------------------


def certificate_text(n, i):
    return json.dumps(
        certificate_to_dict(build_certificate(generic_system(n), i)), indent=2
    )


def _edited(mutate):
    def edit(text):
        data = json.loads(text)
        mutate(data)
        return json.dumps(data)

    return edit


@pytest.mark.parametrize(
    "edit, expected, prefix",
    [
        (lambda text: text, EXIT_OK, "n=2 i=1: certificate valid (good=2 pairs=1)"),
        (
            _edited(lambda d: d["good"][0].update(weight="0")),
            EXIT_FAIL, "certificate rejected: good weight mismatch",
        ),
        (
            _edited(lambda d: d["good"][0].update(j=3, pi=[3, 2, 1])),
            EXIT_FAIL, "certificate rejected: permutation size 3",
        ),
        (
            _edited(lambda d: d["good"].reverse()),
            EXIT_FAIL, "certificate rejected: good entry",
        ),
        (lambda text: text[: len(text) // 2], EXIT_INPUT, "error: invalid JSON"),
        (_edited(lambda d: d.pop("fact2_sum")), EXIT_INPUT, "error: malformed"),
        (_edited(lambda d: d.update(n=600)), EXIT_GUARD, "error: n=600"),
        (
            _edited(lambda d: d.update(comment="x")),
            EXIT_INPUT, "error: malformed certificate: unknown keys ['comment']",
        ),
        (
            _edited(lambda d: d["good"][0].update(extra=1)),
            EXIT_INPUT, "error: malformed certificate: unknown keys ['extra']",
        ),
        (_edited(lambda d: d.update(n=0)), EXIT_INPUT, "error: malformed"),
        (_edited(lambda d: d.update(n=-1)), EXIT_INPUT, "error: malformed"),
        (
            _edited(lambda d: d.update(i=0)),
            EXIT_INPUT, "error: malformed certificate: i=0 outside 1..2",
        ),
        (
            _edited(lambda d: d.update(i=3)),
            EXIT_INPUT, "error: malformed certificate: i=3 outside 1..2",
        ),
    ],
    ids=[
        "untouched", "weight", "long-pi", "swapped", "truncated", "missing-key",
        "n-600", "extra-key", "extra-entry-key", "n-0", "n-minus-1", "i-0", "i-past-n",
    ],
)
def test_validate_certificate_exit_codes(
    tmp_path, capsys, monkeypatch, edit, expected, prefix
):
    generic = involution.generic_system

    def guarded(n):
        if n > 4:
            raise AssertionError(f"generic_system({n}) built before the size guard")
        return generic(n)

    monkeypatch.setattr(involution, "generic_system", guarded)
    path = tmp_path / "cert.json"
    path.write_text(edit(certificate_text(2, 1)), encoding="utf-8")
    code, out, err = run(
        capsys, "validate-certificate", "--input", str(path), "--max-n", "4"
    )
    assert code == expected
    assert (out if expected == EXIT_OK else err).startswith(prefix)
    assert (out + err).count("\n") == 1 and "Traceback" not in err


def test_rejection_names_the_entry_as_the_file_writes_it(tmp_path, capsys):
    data = json.loads(certificate_text(3, 1))
    data["good"][0], data["good"][1] = data["good"][1], data["good"][0]
    path = write_doc(tmp_path, "cert.json", data)
    code, out, err = run(capsys, "validate-certificate", "--input", path)
    assert (code, out) == (EXIT_FAIL, "")
    assert err == (
        "certificate rejected: good entry j=1 pi=[1, 2, 3] not in canonical order\n"
    )


def _retarget(pair):
    # the larger element of the first pair is j2=2 sigma=[1, 2, 3]
    pair.update(j2=3, sigma=[1, 3, 2])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda pair: pair.update(sigma=[1, 2]),
            "permutation size 2 != system size 3 at pair element j2=2 sigma=[1, 2]",
        ),
        (
            lambda pair: pair.update(j=1, pi=[1, 2, 3]),
            "pair (j=1 pi=[1, 2, 3], j2=2 sigma=[1, 2, 3]) contains a good element",
        ),
        (
            _retarget,
            "j=1 pi=[2, 1, 3] and j2=3 sigma=[1, 3, 2]"
            " are not each other's pairing image",
        ),
    ],
    ids=["size", "good-element", "pairing-image"],
)
def test_rejection_names_a_pairs_larger_element_by_its_keys(
    tmp_path, capsys, mutate, message
):
    data = json.loads(certificate_text(3, 1))
    mutate(data["bad_pairs"][0])
    path = write_doc(tmp_path, "cert.json", data)
    code, out, err = run(capsys, "validate-certificate", "--input", path)
    assert (code, out) == (EXIT_FAIL, "")
    assert err == f"certificate rejected: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-identity", "--n", "0"],
        ["verify-identity", "--n", "-2"],
        ["check-involution", "--n", "0", "--i", "1"],
        ["check-involution", "--n", "-1", "--i", "1", "--max-n", "4"],
    ],
    ids=["verify-0", "verify-minus-2", "check-0", "check-minus-1"],
)
def test_n_below_one_is_an_input_error(capsys, argv):
    # the size guard exits 4 only for an n over --max-n
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: --n must be a positive integer, got {argv[2]}\n"


def test_emitted_certificates_validate_from_the_cli(tmp_path, capsys, monkeypatch):
    # every row up to n=4 goes through check-involution --emit-certificate and
    # then validate-certificate; the audit runs with the checker's walk and
    # permutation stream disabled, so it shares neither with the checker
    def disabled(*args, **kwargs):
        raise AssertionError("the auditor reached the checker's walk")

    for n in range(1, 5):
        for i in range(1, n + 1):
            path = str(tmp_path / f"pairing_n{n}_i{i}.json")
            code, _, _ = run(
                capsys,
                "check-involution", "--n", str(n), "--i", str(i),
                "--emit-certificate", path,
            )
            assert code == EXIT_OK
            with monkeypatch.context() as m:
                m.setattr(involution, "_walk", disabled)
                m.setattr(involution, "iter_signed_values", disabled)
                code, out, _ = run(capsys, "validate-certificate", "--input", path)
            assert code == EXIT_OK
            good, pairs = math.factorial(n), (n - 1) * math.factorial(n) // 2
            assert out == (
                f"n={n} i={i}: certificate valid (good={good} pairs={pairs})\n"
            )


# -- exit codes for any document ----------------------------------------------------


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_valid_entries = st.integers(-3, 3) | st.from_regex(
    r"[+-]?[0-9](/[1-9])?", fullmatch=True
)
_bad_entries = (
    st.sampled_from(["1/0", "0/0", "9" * 5000, "\u0661", "2\n", " 1", "1.5"])
    | _json_values
)


@st.composite
def _near_valid_documents(draw):
    # a valid rational or symbolic document with at most one flaw
    n = draw(st.integers(1, 6))
    doc = {"n": n, "mode": draw(st.sampled_from(["rational", "symbolic"]))}
    if doc["mode"] == "rational":
        entries = st.lists(_valid_entries, min_size=n, max_size=n)
        doc["A"] = draw(st.lists(entries, min_size=n, max_size=n))
        doc["b"] = draw(entries)
    flaw = draw(st.sampled_from(["none", "none", "key", "value", "size", "entry"]))
    key = draw(st.sampled_from(sorted(doc) + ["x"]))
    if flaw == "key" and key in doc:
        del doc[key]
    elif flaw == "value":
        doc[key] = draw(_json_values)
    elif flaw == "size" and "A" in doc:
        draw(st.sampled_from([doc["A"], doc["A"][0], doc["b"]])).pop()
    elif flaw == "entry" and "A" in doc:
        doc["A"][draw(st.integers(0, n - 1))][-1] = draw(_bad_entries)
    return doc


_CERTIFICATES = [certificate_text(n, i) for n in range(1, 4) for i in range(1, n + 1)]


_CERTIFICATE_FLAWS = [
    "none", "key", "value", "pop", "weight", "pi", "n", "swap", "extra",
]


def _add_flaw(cert, flaw, pick):
    # give a real certificate dict one flaw of the named kind; pick(options,
    # more) chooses one of the options or, given a strategy more, its value
    entry = pick(cert["good"] + cert["bad_pairs"])
    target = pick([cert, entry])
    key = pick(sorted(target))
    if flaw == "key":
        del target[key]
    elif flaw == "value":
        target[key] = pick([None, True], _json_values)
    elif flaw == "pop":
        pick([es for es in (cert["good"], cert["bad_pairs"]) if es]).pop()
    elif flaw == "weight":
        w = entry["weight"]
        entry["weight"] = pick(["0", "-" + w, w + " + 1"], st.text(max_size=6))
    elif flaw == "pi":  # a good entry still good, with pi and j past n
        good = pick(cert["good"])
        pi = good["pi"]
        pi.append(pi[good["j"] - 1])
        pi[good["j"] - 1] = good["j"] = len(pi)
    elif flaw == "n":
        cert["n"] = 600
    elif flaw == "swap":  # two adjacent entries trade places
        lists = [es for es in (cert["good"], cert["bad_pairs"]) if len(es) > 1]
        if lists:
            entries = pick(lists)
            k = pick(range(len(entries) - 1))
            entries[k], entries[k + 1] = entries[k + 1], entries[k]
    elif flaw == "extra":  # a key outside the documented set
        unknown = st.text(max_size=4).filter(lambda k: k not in target)
        target[pick(["extra", "comment"], unknown)] = pick([1, "x"], _json_values)
    return cert


@st.composite
def _near_valid_certificates(draw):
    # a real certificate for n <= 3 with at most one flaw
    flaw = draw(st.sampled_from(_CERTIFICATE_FLAWS))
    cert = json.loads(draw(st.sampled_from(_CERTIFICATES)))

    def pick(options, more=None):
        choice = st.sampled_from(options)
        return draw(choice if more is None else choice | more)

    return _add_flaw(cert, flaw, pick)


# the exit code of each flaw when every choice takes the first or the last option
_FLAW_EXIT = {
    "none": EXIT_OK,
    "key": EXIT_INPUT,
    "value": EXIT_INPUT,
    "pop": EXIT_FAIL,
    "weight": EXIT_FAIL,
    "pi": EXIT_FAIL,
    "n": EXIT_GUARD,
    "swap": EXIT_FAIL,
    "extra": EXIT_INPUT,
}


@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("flaw", _CERTIFICATE_FLAWS)
def test_every_certificate_flaw_has_its_exit_code(tmp_path, capsys, flaw, end):
    # each flaw kind of the fuzz strategy, applied without hypothesis: every
    # choice takes the first (or the last) option
    def pick(options, more=None):
        return options[end]

    cert = _add_flaw(json.loads(certificate_text(3, 1)), flaw, pick)
    path = write_doc(tmp_path, "cert.json", cert)
    code, _, err = run(capsys, "validate-certificate", "--input", path, "--max-n", "4")
    assert code == _FLAW_EXIT[flaw], err
    assert "Traceback" not in err


_documents = st.one_of(
    _near_valid_documents().map(json.dumps),
    _near_valid_certificates().map(json.dumps),
    _json_values.map(json.dumps),
    st.text(max_size=20),
)
_FUZZED_COMMANDS = [
    ["solve"],
    ["solve", "--json"],
    ["det"],
    *(["det", "--method", m] for m in ("leibniz", "cofactor", "bareiss")),
    ["validate-certificate"],
]


@settings(max_examples=200)
@given(_documents)
def test_every_document_ends_in_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in _FUZZED_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--input", path, "--max-n", "4"])
            assert code in (EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_SINGULAR, EXIT_GUARD)
            assert "Traceback" not in err.getvalue(), command


# -- console entry -------------------------------------------------------------------


def test_importing_the_cli_loads_no_dataclasses():
    # every record is a named tuple, so start-up needs neither module
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, cramerkit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


_LOADED = "sorted({'cramerkit.involution', 'cramerkit.oracle'} & set(sys.modules))"
# cli.main in a fresh interpreter: its exit code, then which of the two
# lazily loaded modules it pulled in
_RUN_MAIN = f"""
import contextlib, io, sys
from cramerkit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, {_LOADED})
"""


@pytest.mark.parametrize(
    "case, loaded",
    [
        ("import cramerkit", "[]"),
        ("import cramerkit.cli", "[]"),
        ("solve", "0 []"),
        ("verify-identity", "0 []"),
        ("exit 2", "2 []"),
        ("det", "0 ['cramerkit.oracle']"),
        ("check-involution", "0 ['cramerkit.involution']"),
        ("validate-certificate", "0 ['cramerkit.involution']"),
    ],
)
def test_each_entry_point_loads_only_what_it_runs(tmp_path, case, loaded):
    # the checker and the reference algorithms are compiled only by the
    # subcommands that run them, so every other CLI child starts without them
    doc = write_doc(tmp_path, "d.json", rational_doc([[1, 1], [1, -1]], [3, 1]))
    bad_doc = write_doc(tmp_path, "f.json", rational_doc([[1.5]], ["1"]))
    cert = build_certificate(generic_system(3), 2)
    cert_path = write_doc(tmp_path, "c.json", certificate_to_dict(cert))
    argv = {
        "solve": ["solve", "--input", doc],
        "verify-identity": ["verify-identity", "--n", "3"],
        "exit 2": ["solve", "--input", bad_doc],
        "det": ["det", "--input", doc],
        "check-involution": ["check-involution", "--n", "3", "--i", "2"],
        "validate-certificate": ["validate-certificate", "--input", cert_path],
    }
    if case.startswith("import "):
        command = ["-c", f"{case}, sys; print({_LOADED})"]
    else:
        command = ["-c", _RUN_MAIN, *argv[case]]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *command], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout) == (0, loaded + "\n"), proc.stderr


def test_a_bare_import_loads_no_submodule():
    # each public name loads its module on first use: the package alone
    # loads none, dir() still lists every name and submodule, and a name
    # loads its own module and what that module imports, no more
    code = (
        "import sys, cramerkit\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('cramerkit.'))\n"
        "print(loaded())\n"
        "print(sorted({*cramerkit.__all__, 'algebra', 'cramer', 'involution', 'oracle',"
        " 'perm'} - set(dir(cramerkit))))\n"
        "cramerkit.solve\n"
        "print(loaded())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    loaded = "['cramerkit.algebra', 'cramerkit.cramer', 'cramerkit.perm']"
    assert (proc.returncode, proc.stdout) == (0, f"[]\n[]\n{loaded}\n"), proc.stderr


def test_package_namespace_is_whole_with_lazy_names():
    # every public name is its defining module's object, listed by dir(),
    # and an unknown name is an AttributeError like any module's
    import cramerkit
    from cramerkit import algebra, perm

    modules = (algebra, cramer, involution, oracle, perm)
    for name in cramerkit.__all__:
        value = getattr(cramerkit, name)
        owners = [m for m in modules if name in vars(m)]
        assert owners and all(vars(m)[name] is value for m in owners), name
    assert set(cramerkit.__all__) <= set(dir(cramerkit))
    assert {"involution", "oracle"} <= set(dir(cramerkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        cramerkit.no_such_name
    # in a fresh interpreter, where neither lazy module has loaded yet
    code = (
        "import sys, cramerkit\n"
        "print(cramerkit.involution is sys.modules['cramerkit.involution'], end=' ')\n"
        "from cramerkit import oracle\n"
        "print(oracle is sys.modules['cramerkit.oracle'], end=' ')\n"
        "ns = {}\n"
        "exec('from cramerkit import *', ns)\n"
        "print(sorted(set(cramerkit.__all__) - set(ns)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout) == (0, "True True []\n"), proc.stderr


def test_module_entry_point(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(rational_doc([[1, 1], [1, -1]], [3, 1])))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "cramerkit", "solve", "--input", str(path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["x1 = 2", "x2 = 1"]
    cert = tmp_path / "cert.json"
    cert.write_text(certificate_text(2, 1), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "cramerkit", "validate-certificate", "--input",
         str(cert)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0
    assert proc.stdout == "n=2 i=1: certificate valid (good=2 pairs=1)\n"


# -- a failed write to stdout ----------------------------------------------------


def cli_child(argv, stdout, **env_extra):
    # python -m cramerkit argv, its stdout to stdout and its stderr to a pipe
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "cramerkit", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
    )


def first_line_then_close(argv, **env_extra):
    # read one line of the child's stdout, close the pipe as `head -1` does,
    # and return the line, the exit code and stderr
    proc = cli_child(argv, subprocess.PIPE, **env_extra)
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return line, proc.wait(), err


def assert_output_not_written(code, err, reason):
    assert code == EXIT_FAIL, err
    assert b"Traceback" not in err and b"Exception ignored" not in err, err
    assert err == f"error: cannot write output: {reason}\n".encode()


def test_a_closed_pipe_after_one_identity_line_exits_1():
    # unbuffered, so that the first line leaves the child on its own while
    # five rows are left to write.  A child that wrote every row before the
    # pipe was closed exits 0 with nothing on stderr: only then is the run
    # repeated, and the last run must see the closed pipe
    for attempt in range(3):
        line, code, err = first_line_then_close(
            ["verify-identity", "--n", "6"], PYTHONUNBUFFERED="1"
        )
        assert line == b"i=1: PASS\n"
        if (code, err) != (EXIT_OK, b"") or attempt == 2:
            break
    assert_output_not_written(code, err, "[Errno 32] Broken pipe")


def test_a_closed_pipe_after_one_symbolic_solve_line_exits_1(tmp_path):
    # the six lines of x_j at n=6 are about 370 kB, more than the pipe and
    # the reader's buffer hold, so the child is still writing when the pipe
    # closes, with its output buffered or not
    doc = write_doc(tmp_path, "sym6.json", {"n": 6, "mode": "symbolic"})
    for unbuffered in ("", "1"):
        line, code, err = first_line_then_close(
            ["solve", "--input", doc], PYTHONUNBUFFERED=unbuffered
        )
        assert line.startswith(b"x1 = (") and line.endswith(b")\n")
        assert_output_not_written(code, err, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_solve_json_to_a_full_device_exits_1(tmp_path):
    # buffered, the write fails at main's final flush; unbuffered, at print
    doc = write_doc(tmp_path, "d.json", rational_doc([[1, 1], [1, -1]], [3, 1]))
    for unbuffered in ("", "1"):
        with open("/dev/full", "wb") as full:
            proc = cli_child(
                ["solve", "--json", "--input", doc], full, PYTHONUNBUFFERED=unbuffered
            )
            err = proc.stderr.read()
            proc.stderr.close()
        assert_output_not_written(
            proc.wait(), err, "[Errno 28] No space left on device"
        )


def test_an_unreadable_input_file_still_exits_2(tmp_path, capsys):
    # an input file's own OSError is an input error, not a failed write
    code, out, err = run(capsys, "solve", "--input", str(tmp_path / "missing.json"))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: cannot read ")


class UnwritableStream(io.StringIO):
    # a stream with no descriptor, on which every write and flush fails
    def write(self, *args):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


def test_an_unwritable_stdout_in_process_exits_1(monkeypatch, capsys):
    # the stream has no descriptor to point at os.devnull, and is left as it is
    stdout = UnwritableStream()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["verify-identity", "--n", "2"]) == EXIT_FAIL
    assert sys.stdout is stdout
    assert capsys.readouterr().err == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_an_unwritable_stderr_in_process_exits_1(tmp_path, monkeypatch, capsys):
    # the certificate's write fails, its report to stderr fails too, and so
    # does main's own error line; stdout keeps what was written to it
    monkeypatch.setattr(sys, "stderr", UnwritableStream())
    target = tmp_path / "missing" / "cert.json"
    argv = ["check-involution", "--n", "2", "--i", "1", "--emit-certificate", str(target)]
    assert main(argv) == EXIT_FAIL
    assert not target.parent.exists()
    out = capsys.readouterr().out
    assert out.startswith("n=2 i=1: good=2 bad=2\n") and out.endswith("PASS\n")
