"""Good/bad classification, the pairing involution, both facts, certificates."""

import ast
import hashlib
import json
import math
import random
import types
from pathlib import Path

import pytest

from cramerkit import (
    FElement,
    PairingCertificate,
    SizeLimitError,
    big_x,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    check_fact1,
    check_fact2,
    generic_system,
    is_good,
    make_permutation,
    t_involution,
    validate_certificate,
    weight_W,
    weight_w0,
)
from cramerkit import involution
from cramerkit.algebra import (
    _owned,
    a_symbol,
    b_symbol,
    make_monomial,
    Polynomial,
    render_scalar,
)
from cramerkit.cramer import LinearSystem, rational_system
from cramerkit.involution import iter_elements
from cramerkit.perm import Permutation, iter_signed_values

from _support import random_int_system


def mono(*symbols):
    exps: dict = {}
    for s in symbols:
        exps[s] = exps.get(s, 0) + 1
    return make_monomial(exps)


A = a_symbol
B = b_symbol


def fel(j, values):
    return FElement(j, make_permutation(values))


# -- elements and weights --------------------------------------------------------


def test_felement_validation():
    with pytest.raises(ValueError):
        fel(0, [1, 2])
    with pytest.raises(ValueError):
        fel(3, [1, 2])
    for j in (1.0, True, "1", None):
        with pytest.raises(ValueError, match="is not an integer"):
            fel(j, [1, 2])


def test_felement_prints_as_the_certificate_writes_it():
    e = fel(1, [1, 2, 3])
    assert str(e) == "j=1 pi=[1, 2, 3]"
    assert repr(e) == "FElement(j=1, p=Permutation(values=(1, 2, 3)))"


def test_felement_order_is_the_canonical_order():
    # as tuples (j, (values,)), elements sort by j and then by pi's values
    elements = list(iter_elements(4))
    random.Random(4).shuffle(elements)
    assert sorted(elements) == sorted(elements, key=lambda e: (e.j, e.p.values))


@pytest.mark.parametrize(
    "record, field, bad",
    [
        (Permutation((1, 2)), "values", (1, 1)),
        (fel(2, [2, 1]), "j", 3),
        (rational_system([[1, 2], [3, 4]], [5, 6]), "rhs", ()),
    ],
    ids=["Permutation", "FElement", "LinearSystem"],
)
def test_records_replace_and_make_validate(record, field, bad):
    # the named tuple's own _make and _replace would skip the checks in __new__
    cls = type(record)
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(ValueError):
        cls._make(bad if name == field else v for name, v in zip(cls._fields, record))
    assert cls._make(tuple(record)) == record
    assert type(record._replace()) is cls


def test_iter_elements_counts():
    for n in range(1, 5):
        elements = list(iter_elements(n))
        assert len(elements) == n * math.factorial(n)
        assert len(set(elements)) == len(elements)


def test_weight_W_examples():
    gs = generic_system(2)
    assert weight_W(gs, 1, fel(2, [1, 2])) == Polynomial(
        {mono(A(1, 2), B(2), A(1, 1)): 1}
    )
    assert weight_W(gs, 1, fel(1, [2, 1])) == Polynomial(
        {mono(A(1, 1), B(2), A(1, 2)): -1}
    )
    assert weight_W(generic_system(1), 1, fel(1, [1])) == Polynomial(
        {mono(A(1, 1), B(1)): 1}
    )


def test_weight_W_range():
    gs = generic_system(2)
    with pytest.raises(ValueError):
        weight_W(gs, 0, fel(1, [1, 2]))


# -- classification ---------------------------------------------------------------


def test_is_good_examples():
    assert is_good(1, fel(1, [1, 2]))
    assert not is_good(1, fel(2, [1, 2]))
    for i in (0, 3):
        with pytest.raises(ValueError, match=rf"i={i} outside 1\.\.2"):
            is_good(i, fel(1, [1, 2]))


def test_is_good_identity_permutation():
    n = 4
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            assert is_good(k, fel(j, range(1, n + 1))) == (j == k)


def test_good_count_is_factorial():
    for n in range(1, 6):
        for i in range(1, n + 1):
            count = sum(1 for e in iter_elements(n) if is_good(i, e))
            assert count == math.factorial(n)


# -- the pairing map ---------------------------------------------------------------


def test_t_involution_examples():
    t = t_involution(2, fel(1, [3, 1, 2]))
    assert t == fel(3, [2, 1, 3])
    t = t_involution(1, fel(2, [1, 2]))
    assert t == fel(1, [2, 1])


def test_t_involution_rejects_good():
    with pytest.raises(ValueError):
        t_involution(1, fel(1, [1, 2]))


def test_involution_properties_exhaustive():
    from cramerkit import inversions

    for n in range(1, 5):
        for i in range(1, n + 1):
            for e in iter_elements(n):
                if is_good(i, e):
                    continue
                t = t_involution(i, e)
                assert not is_good(i, t)
                assert t != e
                assert t_involution(i, t) == e
                assert (inversions(e.p) - inversions(t.p)) % 2 == 1


# -- fact 1 -----------------------------------------------------------------------


def test_check_fact1_n2_i1_values():
    gs = generic_system(2)
    report = check_fact1(gs, 1)
    assert report.ok and report.elementwise_ok and report.aggregate_ok
    assert report.good_count == 2
    expected = Polynomial(
        {mono(B(1), A(1, 1), A(2, 2)): 1, mono(B(1), A(2, 1), A(1, 2)): -1}
    )
    assert report.good_sum == expected
    assert report.b_i_times_x0 == expected


def test_check_fact1_n1():
    report = check_fact1(generic_system(1), 1)
    assert report.ok
    assert report.good_count == 1
    assert report.good_sum == Polynomial({mono(A(1, 1), B(1)): 1})
    with pytest.raises(ValueError, match=r"i=2 outside 1\.\.1"):
        check_fact1(generic_system(1), 2)


def test_fact1_substitution_elementwise():
    # stronger than the aggregate: each good weight equals b_i * w0(pi)
    for n in range(1, 5):
        gs = generic_system(n)
        for i in range(1, n + 1):
            b_i = gs.rhs_entry(i)
            for e in iter_elements(n):
                if is_good(i, e):
                    assert weight_W(gs, i, e) == b_i * weight_w0(gs, e.p)


# -- fact 2 -----------------------------------------------------------------------


def test_check_fact2_n2_i1():
    report = check_fact2(generic_system(2), 1)
    assert report.ok
    assert report.bad_count == 2
    assert report.bad_sum.is_zero


def test_check_fact2_n1_vacuous():
    report = check_fact2(generic_system(1), 1)
    assert report.ok
    assert report.bad_count == 0
    assert report.bad_sum.is_zero


def test_facts_hold_generic_up_to_4():
    # the walk's fact-1 sums equal b_i * X_0 from the X_j kernel
    for n in range(1, 5):
        gs = generic_system(n)
        x0 = big_x(gs, 0)
        for i in range(1, n + 1):
            f1 = check_fact1(gs, i)
            assert f1.ok
            assert f1.b_i_times_x0 == gs.rhs_entry(i) * x0
            assert f1.good_sum == f1.b_i_times_x0
            assert check_fact2(gs, i).ok


def test_every_weight_key_is_one_square_free_monomial():
    # each key of the walk decodes to the monomial of the weight that the
    # product routine forms, with every exponent at most 1
    for n in range(1, 6):
        gs = generic_system(n)
        for i in range(1, n + 1):
            keys = involution._key_table(gs, i)
            for values, sgn in iter_signed_values(n):
                p = Permutation(values)
                for j in range(n + 1):
                    w = _owned({involution._key(keys, values, j): sgn})
                    ((mono, _),) = w.terms()
                    assert all(exp == 1 for _, exp in mono)
                    if n <= 4:
                        expected = (
                            weight_W(gs, i, FElement(j, p)) if j else weight_w0(gs, p)
                        )
                        assert w == expected


def test_partition_covers_row_identity():
    # good sum + bad sum == sum_j a[i,j] X_j, the left side of the identity
    for n in range(1, 5):
        gs = generic_system(n)
        for i in range(1, n + 1):
            f1 = check_fact1(gs, i)
            f2 = check_fact2(gs, i)
            lhs = Polynomial.zero()
            for j in range(1, n + 1):
                lhs = lhs + gs.entry(i, j) * big_x(gs, j)
            assert f1.good_sum + f2.bad_sum == lhs


def corrupt_key(monkeypatch, target):
    # the walk's key routine, a wrong monomial at the element [j, pi] = target
    key = involution._key

    def corrupted(keys, values, j=0):
        k = key(keys, values, j)
        return k + 1 if (j, values) == target else k

    monkeypatch.setattr(involution, "_key", corrupted)


def test_walk_checks_every_element(monkeypatch):
    # the walk weighs each bad pair once, at its smaller element; corrupting
    # any single weight's key must still fail the check that covers it
    gs = generic_system(3)
    i = 2
    for e in iter_elements(3):
        with monkeypatch.context() as m:
            corrupt_key(m, (e.j, e.p.values))
            f1 = check_fact1(gs, i)
            f2 = check_fact2(gs, i)
            if is_good(i, e):
                assert not f1.elementwise_ok and not f1.aggregate_ok
                assert f2.ok
            else:
                assert f1.ok
                assert not f2.cancellation_ok and not f2.aggregate_ok
                assert f2.involution_ok and f2.parity_ok
            with pytest.raises(RuntimeError):
                build_certificate(gs, i)


def _image_is_itself(m):
    m.setattr(involution, "_partner", lambda i, j, values: (j, values))


def _image_is_good(m):
    # no swap: the image keeps value i at the position the map reports
    m.setattr(involution, "_partner", lambda i, j, vals: (vals.index(i) + 1, vals))


def _image_not_self_inverse(m):
    # the right sigma at a wrong position k: k is bad in sigma (i sits at j),
    # but the map applied twice swaps k and j and so misses the element
    partner = involution._partner

    def wrong_position(i, j, values):
        j2, sigma = partner(i, j, values)
        return next(k for k in range(1, len(values) + 1) if k not in (j, j2)), sigma

    m.setattr(involution, "_partner", wrong_position)


def _partner_keeps_the_sign(m):
    # the partner's inversion count comes out with the element's parity
    sign = involution._sign
    m.setattr(involution, "_sign", lambda values: -sign(values))


def _x0_off_by_one(m):
    # the kernel's X_0 is off by one while every good weight is right, so
    # only fact 1's aggregate, which compares the walk with the kernel, sees it
    x0 = involution.big_x
    m.setattr(involution, "big_x", lambda *args, **kwargs: x0(*args, **kwargs) + 1)


INVOLUTION_FAIL = "involution (bad-to-bad, self-inverse, no fixed point): FAIL"
PARITY_FAIL = "parity (inversion difference odd): FAIL"
FACT1_AGGREGATE_FAIL = "fact1 aggregate (good sum = b_i * X0): FAIL"


@pytest.mark.parametrize(
    "fault, check, fields, line",
    [
        (_image_is_itself, check_fact2, {"involution_ok": False}, INVOLUTION_FAIL),
        (_image_is_good, check_fact2, {"involution_ok": False}, INVOLUTION_FAIL),
        (
            _image_not_self_inverse,
            check_fact2,
            {"involution_ok": False},
            INVOLUTION_FAIL,
        ),
        (
            _partner_keeps_the_sign,
            check_fact2,
            # the pair's weights then share a sign as well as a monomial
            {"parity_ok": False, "cancellation_ok": False, "aggregate_ok": False},
            PARITY_FAIL,
        ),
        (
            _x0_off_by_one,
            check_fact1,
            {"aggregate_ok": False, "elementwise_ok": True},
            FACT1_AGGREGATE_FAIL,
        ),
    ],
    ids=[
        "fixed-point", "good-image", "not-self-inverse", "even-parity",
        "x0-off-by-one",
    ],
)
def test_walk_checks_the_pairing_map(
    monkeypatch, capsys, tmp_path, fault, check, fields, line
):
    from cramerkit.cli import EXIT_FAIL, main

    fault(monkeypatch)
    gs = generic_system(3)
    for i in (1, 2, 3):
        report = check(gs, i)
        assert {k: getattr(report, k) for k in fields} == fields
        assert report.ok is False
        with pytest.raises(RuntimeError):
            build_certificate(gs, i)
        path = tmp_path / f"cert-{i}.json"
        code = main([
            "check-involution", "--n", "3", "--i", str(i),
            "--emit-certificate", str(path),
        ])
        out, err = capsys.readouterr()
        assert code == EXIT_FAIL
        assert line in out.splitlines()
        assert "certificate not written" in err
        assert not path.exists()


def test_bad_sum_keeps_each_uncancelled_weight(monkeypatch):
    # fact 2 reports the sum of the bad weights that fail to cancel, each
    # counted once.  With the partner's sign kept, each pair is settled at its
    # smaller element e with both weights equal to W(e), so the sum is twice
    # theirs; with one key corrupted, one pair is left, as two terms of
    # opposite sign
    with monkeypatch.context() as m:
        _partner_keeps_the_sign(m)
        for n in range(1, 5):
            gs = generic_system(n)
            for i in range(1, n + 1):
                smaller = [
                    e for e in iter_elements(n)
                    if not is_good(i, e) and e < t_involution(i, e)
                ]
                expected = 2 * sum((weight_W(gs, i, e) for e in smaller), Polynomial.zero())
                assert check_fact2(gs, i).bad_sum == expected
    gs = generic_system(3)
    for i in (1, 2, 3):
        for e in iter_elements(3):
            if is_good(i, e):
                continue
            with monkeypatch.context() as m:
                corrupt_key(m, (e.j, e.p.values))
                bad_sum = check_fact2(gs, i).bad_sum
            assert sorted(c for _, c in bad_sum.terms()) == [-1, 1], (i, e)


WALK_FAULTS = (
    _image_is_itself,
    _image_is_good,
    _image_not_self_inverse,
    _partner_keeps_the_sign,
    _x0_off_by_one,
) + tuple(
    lambda m, target=(e.j, e.p.values): corrupt_key(m, target)
    for e in iter_elements(3)
)


class _PatchCopy:
    # a monkeypatch that applies a fault written for involution to a copy of it
    def __init__(self, m, module):
        self.m, self.module = m, module

    def setattr(self, target, name, value):
        self.m.setattr(self.module if target is involution else target, name, value)


def _walk_failures(module, monkeypatch):
    # (fault, i, field) for each report field that a walk fault turns False
    gs = generic_system(3)
    failures = set()
    for k, fault in enumerate(WALK_FAULTS):
        with monkeypatch.context() as m:
            fault(_PatchCopy(m, module))
            for i in (1, 2, 3):
                for report in module._walk(gs, i)[:2]:
                    failures.update(
                        (k, i, field)
                        for field, value in report._asdict().items()
                        if value is False
                    )
    return failures


class _Drop(ast.NodeTransformer):
    # replaces the assignment or raise at one (line, column) by `pass`
    def __init__(self, where):
        self.where = where

    def visit_Assign(self, node):
        if (node.lineno, node.col_offset) == self.where:
            return ast.copy_location(ast.Pass(), node)
        return node

    visit_Raise = visit_Assign


SOURCE = Path(involution.__file__).read_text(encoding="utf-8")


def _functions(*names):
    # the definitions of the named top-level functions of involution
    return [
        node
        for node in ast.parse(SOURCE).body
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]


def _mutant(node):
    # a fresh copy of involution with the statement node replaced by `pass`
    tree = _Drop((node.lineno, node.col_offset)).visit(ast.parse(SOURCE))
    mutant = types.ModuleType("cramerkit._mutant")
    mutant.__package__ = "cramerkit"  # its relative imports bind the package
    exec(compile(tree, involution.__file__, "exec"), mutant.__dict__)
    return mutant


def test_every_walk_check_can_fail(monkeypatch):
    # each statement of _walk that records a failed check is needed: with it
    # replaced by `pass`, some walk fault the real module reports goes unseen
    (walk,) = _functions("_walk")
    checks = [
        node
        for node in ast.walk(walk)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and node.value.value is False
        and any(
            isinstance(t, ast.Name) and (t.id == "elementwise" or t.id.endswith("_ok"))
            for t in node.targets
        )
    ]
    assert len(checks) >= 4
    real = _walk_failures(involution, monkeypatch)
    for node in checks:
        missed = real - _walk_failures(_mutant(node), monkeypatch)
        assert missed, f"no walk fault needs line {node.lineno}: {ast.unparse(node)}"


@pytest.mark.parametrize("n", range(1, 6))
def test_each_view_is_its_half_of_the_walk(n):
    # check_fact1 walks only the good elements and check_fact2 only the bad
    # ones; each report equals the one the walk of both facts makes
    gs = generic_system(n)
    for i in range(1, n + 1):
        fact1, fact2, _ = involution._walk(gs, i)
        assert check_fact1(gs, i) == fact1
        assert check_fact2(gs, i) == fact2


def test_each_view_fails_as_the_walk_does(monkeypatch):
    # under every walk fault each view reports what the walk of both facts
    # reports for its fact, False fields and all, so the faults that
    # test_every_walk_check_can_fail needs reach the one-fact paths too
    gs = generic_system(3)
    for fault in WALK_FAULTS:
        with monkeypatch.context() as m:
            fault(m)
            failed = False
            for i in (1, 2, 3):
                fact1, fact2, _ = involution._walk(gs, i)
                assert check_fact1(gs, i) == fact1
                assert check_fact2(gs, i) == fact2
                failed |= not (fact1.ok and fact2.ok)
            assert failed


def test_each_view_does_only_its_own_work(monkeypatch):
    # check_fact2 sums no X_0 and check_fact1 pairs no bad element.  The
    # prove sequence of the benchmark's prove-symbolic op sums X_0 three
    # times: in verify_identity's all_big_x, in check_fact1 and in
    # build_certificate, whose walk checks both facts
    from cramerkit import cramer, verify_identity

    calls = {"_leibniz": 0, "_partner": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(cramer, "_leibniz")
    counting(involution, "_partner")
    gs = generic_system(5)

    def count(view):
        calls.update(dict.fromkeys(calls, 0))
        assert view(gs, 2).ok
        return dict(calls)

    # two maps per bad element: its image, then the image of that
    bad = 4 * math.factorial(5)
    assert count(check_fact1) == {"_leibniz": 1, "_partner": 0}
    assert count(check_fact2) == {"_leibniz": 0, "_partner": 2 * bad}
    calls.update(dict.fromkeys(calls, 0))
    for i in range(1, 6):
        verify_identity(gs, i)
        check_fact1(gs, i)
        check_fact2(gs, i)
        build_certificate(gs, i)
        assert calls["_leibniz"] == 3 * i


# -- certificates -------------------------------------------------------------------


EXPECTED_CERT_2_1 = {
    "n": 2,
    "i": 1,
    "good": [
        {"j": 1, "pi": [1, 2], "weight": "a[1,1]*a[2,2]*b[1]"},
        {"j": 2, "pi": [2, 1], "weight": "-a[1,2]*a[2,1]*b[1]"},
    ],
    "bad_pairs": [
        {
            "j": 1,
            "pi": [2, 1],
            "j2": 2,
            "sigma": [1, 2],
            "weight": "-a[1,1]*a[1,2]*b[2]",
            "weight2": "a[1,1]*a[1,2]*b[2]",
        }
    ],
    "fact1_sum": "a[1,1]*a[2,2]*b[1] - a[1,2]*a[2,1]*b[1]",
    "b_i_times_X0": "a[1,1]*a[2,2]*b[1] - a[1,2]*a[2,1]*b[1]",
    "fact2_sum": "0",
}


def test_certificate_n2_i1_exact():
    cert = build_certificate(generic_system(2), 1)
    assert certificate_to_dict(cert) == EXPECTED_CERT_2_1


# SHA-256 of the n = 4 certificate JSON as the CLI writes it (indent=2 plus
# a newline); the weight renderings and the entry order are a contract
CERT_N4_SHA256 = {
    1: "3b82e97ce5a9f4c1744dd47f17dddd38dc392dea3c50ade17541e6599babf587",
    2: "971d6b9fa392d4562d4302c0e4bd504e2fcbdd5e19a5915229d787de2e609f72",
    3: "ace3577e5c5ee914591bbcbee2a15abc88741c23c5d4fd48550265c1d0955b30",
    4: "f042e8263e6b6ad452756a8dd852a01b04b1cc4df172ab9ac157880cc0f10789",
}


@pytest.mark.parametrize("i", sorted(CERT_N4_SHA256))
def test_certificate_n4_bytes_stable(i):
    cert = build_certificate(generic_system(4), i)
    text = json.dumps(certificate_to_dict(cert), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_N4_SHA256[i]


def test_certificate_n1():
    cert = build_certificate(generic_system(1), 1)
    assert len(cert.good) == 1
    assert len(cert.bad_pairs) == 0
    assert cert.fact2_sum == "0"


def test_certificate_counts_n3_i2():
    cert = build_certificate(generic_system(3), 2)
    assert len(cert.good) + 2 * len(cert.bad_pairs) == 3 * math.factorial(3)
    assert len(cert.good) == math.factorial(3)


@pytest.mark.parametrize("n, i", [(n, i) for n in range(1, 6) for i in range(1, n + 1)])
def test_certificate_pair_order(n, i):
    cert = build_certificate(generic_system(n), i)
    for lo, hi, _, _ in cert.bad_pairs:
        assert lo < hi
    keys = [lo for lo, _, _, _ in cert.bad_pairs]
    assert keys == sorted(keys)
    good_keys = [e for e, _ in cert.good]
    assert good_keys == sorted(good_keys)


def test_certificate_roundtrip_through_json():
    for n, i in [(1, 1), (2, 2), (3, 1)]:
        cert = build_certificate(generic_system(n), i)
        data = json.loads(json.dumps(certificate_to_dict(cert)))
        assert certificate_from_dict(data) == cert
        validate_certificate(cert)


def _elements(cert):
    for e, _ in cert.good:
        yield e
    for lo, hi, _, _ in cert.bad_pairs:
        yield lo
        yield hi


def _exact_element(e):
    # e has exactly the public types, and equals the checked construction
    assert type(e) is FElement and type(e.j) is int
    assert type(e.p) is Permutation and type(e.p.values) is tuple
    assert all(type(v) is int for v in e.p.values)
    assert e == FElement(e.j, Permutation(e.p.values))


@pytest.mark.parametrize("n", range(1, 5))
def test_unchecked_elements_are_the_checked_ones(n):
    # the walk and the parser build well-formed elements with tuple.__new__,
    # skipping FElement's and Permutation's checks; each must be exact
    for i in range(1, n + 1):
        cert = build_certificate(generic_system(n), i)
        parsed = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert parsed == cert
        for e in (*_elements(cert), *_elements(parsed)):
            _exact_element(e)


class IntSubclass(int):
    """An int that is not exactly int, as no JSON document holds."""


@pytest.mark.parametrize(
    "j, pi",
    [
        (1, [2, 1]), (2, [1, 2]), (3, [3, 1, 2]), (0, [1, 2]), (3, [1, 2]),
        (True, [2, 1]), (1.0, [2, 1]), (1, [True, 2]), (1, [2, False]),
        (1, [1.0, 2]), (1, [1, 1]), (1, [0, 1]), (1, [1, 3]), (1, []),
        (1, (2, 1)), (1, ["1", "2"]), (1, [2, None]), (1, [[1], 2]),
        (IntSubclass(1), [2, 1]),
    ],
)
def test_parser_accepts_exactly_the_checked_entries(j, pi):
    # the one-pass accept for a well-formed entry takes no entry that the
    # checked construction refuses, and builds what that construction builds
    data = certificate_to_dict(build_certificate(generic_system(2), 1))
    data["good"][0].update(j=j, pi=pi)
    try:
        expected = FElement(j, Permutation(tuple(pi))) if isinstance(pi, list) else None
    except ValueError:
        expected = None
    if expected is None:
        with pytest.raises(ValueError, match="^malformed certificate: "):
            certificate_from_dict(data)
    else:
        (e, _), *_ = certificate_from_dict(data).good
        assert e == expected
        _exact_element(e)


@pytest.mark.parametrize("where", ["top", "good", "pair"])
def test_parser_names_a_foreign_key_in_place_of_one_of_ours(where):
    # an object with as many keys as its own, one of them foreign, misses
    # the one-pass accept and is named by the full check
    data = certificate_to_dict(build_certificate(generic_system(2), 1))
    obj, key, what = {
        "top": (data, "fact2_sum", "the certificate"),
        "good": (data["good"][0], "weight", "a good entry"),
        "pair": (data["bad_pairs"][0], "sigma", "a bad pair"),
    }[where]
    obj["other"] = obj.pop(key)
    with pytest.raises(ValueError, match=rf"unknown keys \['other'\] in {what}$"):
        certificate_from_dict(data)


def test_validate_checks_the_guard_before_building(monkeypatch):
    def refuse(n):
        raise AssertionError(f"generic_system({n}) built before the size guard")

    monkeypatch.setattr(involution, "generic_system", refuse)
    cert = PairingCertificate(600, 1, (), (), "0", "0", "0")
    with pytest.raises(SizeLimitError):
        validate_certificate(cert)


def two_term_system(n):
    # entries a[i,j] + 2*a[j,i] - 1 and right sides b[i] - a[i,i]
    gs = generic_system(n)
    entries = tuple(
        tuple(gs.entry(r, c) + 2 * gs.entry(c, r) - 1 for c in range(1, n + 1))
        for r in range(1, n + 1)
    )
    rhs = tuple(gs.rhs_entry(r) - gs.entry(r, r) for r in range(1, n + 1))
    return LinearSystem(entries, rhs)


NON_GENERIC = {
    "numeric": random_int_system(random.Random(5), 2),
    "two-term": two_term_system(2),
}


# build_certificate's cases are named by the system alone
@pytest.mark.parametrize(
    "check, sys",
    [
        pytest.param(check, sys, id=prefix + name)
        for check, prefix in [
            (build_certificate, ""),
            (check_fact1, "check_fact1-"),
            (check_fact2, "check_fact2-"),
        ]
        for name, sys in NON_GENERIC.items()
    ],
)
def test_certificate_rejects_numeric_systems(check, sys):
    # the facts are identities in the symbols a[i,j], b[i], checked on
    # generic_system(n) alone: a numeric system only evaluates them, and a
    # certificate names no system
    with pytest.raises(ValueError, match=r"only defined for generic_system\(n\)"):
        check(sys, 1)


def test_walk_checks_the_guard_before_building(monkeypatch):
    sys = generic_system(10)  # one over the default guard

    def refuse(n):
        raise AssertionError(f"generic_system({n}) built before the size guard")

    monkeypatch.setattr(involution, "generic_system", refuse)
    for check in (check_fact1, check_fact2, build_certificate):
        with pytest.raises(SizeLimitError):
            check(sys, 1)


def test_certificate_builds_the_generic_system_once(monkeypatch):
    # the walk builds generic_system(n) once, for its keys and to compare
    # the given system with; build_certificate adds no second build
    calls = []
    build = involution.generic_system

    def counted(n):
        calls.append(n)
        return build(n)

    monkeypatch.setattr(involution, "generic_system", counted)
    build_certificate(generic_system(3), 1)
    assert calls == [3]


def test_validate_catches_tampering():
    cert = build_certificate(generic_system(2), 1)

    def corrupt(mutate):
        data = certificate_to_dict(cert)
        mutate(data)
        with pytest.raises(ValueError):
            validate_certificate(certificate_from_dict(data))

    corrupt(lambda d: d["good"][0].update(weight="a[1,1]"))
    corrupt(lambda d: d["bad_pairs"][0].update(weight2="-a[1,1]*a[1,2]*b[2]"))
    corrupt(lambda d: d["good"].pop())
    corrupt(lambda d: d.update(fact2_sum="1"))
    corrupt(lambda d: d.update(fact1_sum="0"))
    # swapping a pair breaks the canonical (smaller, larger) order
    def swap_pair(d):
        p = d["bad_pairs"][0]
        p["j"], p["j2"] = p["j2"], p["j"]
        p["pi"], p["sigma"] = p["sigma"], p["pi"]
        p["weight"], p["weight2"] = p["weight2"], p["weight"]

    corrupt(swap_pair)


def test_validate_weighs_the_pair_partner(monkeypatch):
    # a wrong weight for T(e) must be caught even though the certificate's
    # weight2 is the exact negation of W(e)
    cert = build_certificate(generic_system(3), 1)
    assert cert.bad_pairs[0][1] == HI
    _off_at_hi(monkeypatch)
    with pytest.raises(ValueError, match="pair weight mismatch"):
        validate_certificate(cert)


@pytest.mark.parametrize("n", range(1, 6))
def test_auditor_texts_and_images_match_the_algebra(n):
    # the auditor builds each weight's text from (i, j, pi) and each image
    # with its own swap; both must equal what the algebra and the public map
    # give, on every element of F_n
    gs = generic_system(n)
    for i in range(1, n + 1):
        for e in iter_elements(n):
            j, values = e.j, e.p.values
            assert involution._weight_text(i, j, values) == render_scalar(
                weight_W(gs, i, e)
            )
            if not is_good(i, e):
                t = t_involution(i, e)
                assert involution._image(i, j, values) == (t.j, t.p.values)


@pytest.mark.parametrize("n", range(1, 7))
def test_auditor_join_is_the_kernels_b_i_times_x0(n):
    # the auditor's fact1_sum, the good texts of all of S_n joined by
    # _joined, renders b_i * X_0 from the kernel for every row
    gs = generic_system(n)
    x0, text = big_x(gs, 0), involution._weight_text
    for i in range(1, n + 1):
        terms = [
            (sorted(range(n), key=v.__getitem__), text(i, v.index(i) + 1, v))
            for v, _ in iter_signed_values(n)
        ]
        assert involution._joined(terms) == render_scalar(gs.rhs_entry(i) * x0)


def test_audit_runs_without_the_kernel(monkeypatch):
    # a full audit of every valid certificate with n <= 4 passes with the
    # generic system, the kernel and the renderer out of reach
    certs = [
        build_certificate(generic_system(n), i)
        for n in range(1, 5)
        for i in range(1, n + 1)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the audit reached the solver")

    for name in ("generic_system", "big_x", "render_scalar"):
        monkeypatch.setattr(involution, name, refuse)
    for cert in certs:
        validate_certificate(cert)


AUDITOR = {
    "validate_certificate", "_weight_text", "_names", "_image", "_check_size",
    "_second", "_joined",
}


def test_auditor_uses_nothing_of_algebra_or_cramer():
    # validate_certificate and every module function it reaches reference no
    # name that involution imports from .algebra or .cramer
    tree = ast.parse(SOURCE)
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and node.module in ("algebra", "cramer")
        for alias in node.names
    }
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached, todo = set(), ["validate_certificate"]
    while todo:
        name = todo.pop()
        reached.add(name)
        names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert not names & imported, name
        todo.extend(names & functions.keys() - reached)
    assert reached == AUDITOR


def test_validate_multiplies_no_weight_out(monkeypatch):
    # the audit forms no polynomial product and renders nothing: every text
    # it compares is built from the file's elements
    calls = {"mul": 0, "render": 0}
    mul, render = Polynomial.__mul__, Polynomial.render

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_render(self):
        calls["render"] += 1
        return render(self)

    cert = build_certificate(generic_system(4), 2)
    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Polynomial, "render", counted_render)
    validate_certificate(cert)
    assert calls == {"mul": 0, "render": 0}


def test_validate_rejects_a_permutation_longer_than_the_system():
    # a good entry whose pi and j run past n must be refused as a ValueError,
    # not by an IndexError from the a[i, j] lookup
    data = certificate_to_dict(build_certificate(generic_system(2), 1))
    data["good"][0] = {"j": 3, "pi": [3, 2, 1], "weight": "x"}
    with pytest.raises(ValueError, match="permutation size 3 != system size 2"):
        validate_certificate(certificate_from_dict(data))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("fact2_sum"),
        lambda d: d.update(n="2"),
        lambda d: d["good"][0].pop("pi"),
        lambda d: d["good"][0].update(weight=3),
        lambda d: d["bad_pairs"][0].update(sigma=[0, 1]),
    ],
)
def test_certificate_from_dict_rejects_malformed(mutate):
    data = certificate_to_dict(build_certificate(generic_system(2), 1))
    mutate(data)
    with pytest.raises(ValueError):
        certificate_from_dict(data)


# one flaw per rejection of certificate_from_dict, on the n = 2, i = 1
# certificate
PARSE_FLAWS = [
    (
        lambda d: d.update(comment="x", b=0),
        r"unknown keys \['b', 'comment'\] in the certificate",
    ),
    (
        lambda d: d["good"][0].update(extra=1),
        r"unknown keys \['extra'\] in a good entry",
    ),
    (
        lambda d: d["bad_pairs"][0].update(note=1),
        r"unknown keys \['note'\] in a bad pair",
    ),
    (lambda d: d["good"].__setitem__(0, []), "a good entry must be a JSON object"),
    (lambda d: d.update(n=0), "n must be a positive integer, got 0"),
    (lambda d: d.update(n=-1), "n must be a positive integer, got -1"),
    (lambda d: d.update(i=0), r"i=0 outside 1\.\.2"),
    (lambda d: d.update(i=3), r"i=3 outside 1\.\.2"),
    (lambda d: d["good"][0].update(pi=[1, 1]), r"repeated value in \(1, 1\)"),
    (lambda d: d["good"][0].update(pi=[1, 3]), r"value 3 outside 1\.\.2"),
    (lambda d: d["good"][0].update(pi=[]), "a permutation needs at least one"),
    (lambda d: d["bad_pairs"][0].update(sigma=[2, 2]), r"repeated value in \(2, "),
    (lambda d: d["good"][0].update(j=7), r"j=7 outside 1\.\.2"),
    (lambda d: d["bad_pairs"][0].update(j2=0), r"j2=0 outside 1\.\.2"),
    (lambda d: d.update(good=1), "good must be a JSON array, got int"),
    (lambda d: d.update(bad_pairs={}), "bad_pairs must be a JSON array, got dict"),
    (lambda d: d["good"][0].update(pi=12), "pi must be a JSON array, got int"),
    (lambda d: d["bad_pairs"][0].update(sigma="21"), "sigma must be a JSON array"),
    (
        lambda d: d["good"][0].update(pi=[1.0, 2]),
        r"value 1\.0 in \(1\.0, 2\) is not an integer",
    ),
    (lambda d: d.update(n="2"), "n must be an integer, got '2'"),
    (lambda d: d["good"][0].update(weight=3), "weight must be a string, got 3"),
]
PARSE_FLAW_IDS = [
    "top-level", "good-entry", "bad-pair", "not-an-object", "n-0", "n-minus-1",
    "i-0", "i-past-n", "pi-repeated", "pi-out-of-range", "pi-empty",
    "sigma-repeated", "j-past-n", "j2-0", "good-not-array", "pairs-not-array",
    "pi-not-array", "sigma-not-array", "pi-float",
    "n-not-int", "weight-not-string",
]


@pytest.mark.parametrize("mutate, message", PARSE_FLAWS, ids=PARSE_FLAW_IDS)
def test_certificate_from_dict_names_the_flaw(mutate, message):
    data = certificate_to_dict(build_certificate(generic_system(2), 1))
    mutate(data)
    with pytest.raises(ValueError, match="^malformed certificate: " + message):
        certificate_from_dict(data)


# one flaw per rejection of validate_certificate, on the n = 3, i = 1
# certificate; a flaw edits the certificate dict and may patch the module


def _swap(entries, k):
    entries[k], entries[k + 1] = entries[k + 1], entries[k]


def _flip(pair):
    pair["j"], pair["j2"] = pair["j2"], pair["j"]
    pair["pi"], pair["sigma"] = pair["sigma"], pair["pi"]
    pair["weight"], pair["weight2"] = pair["weight2"], pair["weight"]


HI = fel(2, [1, 2, 3])  # the larger element of the first pair


def _swap_fact1_terms(d, m):
    # fact1_sum and b_i_times_X0 with their first two terms swapped: the same
    # multiset of terms, out of the renderer's order
    terms = d["fact1_sum"].replace(" - ", " + -").split(" + ")
    terms[0], terms[1] = terms[1], terms[0]
    d["fact1_sum"] = d["b_i_times_X0"] = " + ".join(terms).replace(" + -", " - ")


def _off_at_hi(m):
    # patches the auditor's weight text to read W + 1 at HI
    text = involution._weight_text
    hi = (HI.j, HI.p.values)

    def off(i, j, values):
        return text(i, j, values) + (" + 1" if (j, values) == hi else "")

    m.setattr(involution, "_weight_text", off)


def _partner_off_by_one(d, m):
    # weight2 agrees with an auditor text that is off by one at HI, so it is
    # no longer the negation of the first weight
    d["bad_pairs"][0]["weight2"] = str(weight_W(generic_system(3), 1, HI) + 1)
    _off_at_hi(m)


def _map_fixes_hi(d, m):
    # the auditor's map sends lo to HI, but HI to itself rather than back to lo
    image = involution._image
    hi = (HI.j, HI.p.values)
    m.setattr(
        involution, "_image", lambda i, j, v: hi if (j, v) == hi else image(i, j, v)
    )


AUDIT_FLAWS = [
    (lambda d, m: d["good"].pop(), "expected 6 good entries, found 5"),
    (lambda d, m: d["bad_pairs"].pop(), r"good \+ 2 \* pairs must cover"),
    (lambda d, m: d["good"][0].update(pi=[2, 1, 3]), "listed as good but is bad"),
    (lambda d, m: _swap(d["good"], 2), "good entry .* not in canonical order"),
    (
        lambda d, m: d["good"].__setitem__(1, d["good"][0]),
        "good entry .* not in canonical order",
    ),
    (lambda d, m: d["good"][0].update(weight="0"), "good weight mismatch"),
    (lambda d, m: d.update(fact1_sum="0"), "fact1_sum does not match"),
    (lambda d, m: d.update(b_i_times_X0="0"), "fact1_sum != b_i_times_X0"),
    (_swap_fact1_terms, "fact1_sum does not match the good weights"),
    (
        lambda d, m: d["bad_pairs"][0].update(j=1, pi=[1, 2, 3]),
        "contains a good element",
    ),
    (lambda d, m: _flip(d["bad_pairs"][0]), "not in canonical order"),
    (lambda d, m: _swap(d["bad_pairs"], 2), "not in canonical order"),
    (
        lambda d, m: d["bad_pairs"].__setitem__(1, d["bad_pairs"][0]),
        "not in canonical order",
    ),
    (
        lambda d, m: d["bad_pairs"][0].update(j2=3, sigma=[1, 3, 2]),
        "not each other's pairing image",
    ),
    (_map_fixes_hi, "not each other's pairing image"),
    (lambda d, m: d["bad_pairs"][0].update(weight2="0"), "pair weight mismatch"),
    (_partner_off_by_one, "not exact negations"),
    (lambda d, m: d.update(fact2_sum="1"), 'fact2_sum must render "0"'),
    (
        lambda d, m: d["good"][0].update(pi=[1, 2]),
        r"permutation size 2 != system size 3 at good entry j=1 pi=\[1, 2\]$",
    ),
    (
        lambda d, m: (d.update(i=3), d["good"][0].update(pi=[1, 2])),
        r"permutation size 2 != system size 3 at good entry j=1 pi=\[1, 2\]$",
    ),
    (
        lambda d, m: d["bad_pairs"][0].update(sigma=[1, 2]),
        r"permutation size 2 != system size 3 at pair element j2=2 sigma=\[1, 2\]$",
    ),
]
AUDIT_FLAW_IDS = [
    "good-count", "pair-count", "bad-as-good", "good-swap", "good-repeat",
    "good-weight", "fact1-sum", "b-times-x0", "fact1-order", "good-in-pair",
    "pair-flip", "pair-swap", "pair-repeat", "not-image", "not-image-back",
    "pair-weight", "not-negations", "fact2-sum", "good-size", "good-size-i-3",
    "pair-size",
]


@pytest.mark.parametrize("flaw, message", AUDIT_FLAWS, ids=AUDIT_FLAW_IDS)
def test_validate_rejects_each_flaw(monkeypatch, flaw, message):
    data = certificate_to_dict(build_certificate(generic_system(3), 1))
    first = data["bad_pairs"][0]
    assert (first["j2"], first["sigma"]) == (HI.j, list(HI.p.values))
    flaw(data, monkeypatch)
    with pytest.raises(ValueError, match=message):
        validate_certificate(certificate_from_dict(data))


def _flaw_outcomes(module, monkeypatch):
    # for each parser and auditor flaw, what module makes of the flawed file:
    # None when it is accepted, else the exception's type and message
    parse = [(2, lambda d, m, f=f: f(d)) for f, _ in PARSE_FLAWS]
    audit = [(3, f) for f, _ in AUDIT_FLAWS]
    texts = {
        n: json.dumps(certificate_to_dict(build_certificate(generic_system(n), 1)))
        for n in (2, 3)
    }
    outcomes = []
    for n, flaw in parse + audit:
        data = json.loads(texts[n])
        with monkeypatch.context() as m:
            flaw(data, _PatchCopy(m, module))
            try:
                module.validate_certificate(module.certificate_from_dict(data))
            except Exception as exc:
                outcomes.append((type(exc).__name__, str(exc)))
            else:
                outcomes.append(None)
    return outcomes


def test_every_audit_and_parse_check_can_fail(monkeypatch):
    # each raise of the auditor and the parser is needed: with it replaced by
    # `pass`, some flaw that the real module rejects is accepted or rejected
    # with another message.  A raise that no flaw reaches needs a new flaw,
    # or, if it provably cannot fire, deleting with that proof.  The i, j
    # and j2 checks are perm._check_index's, which the index table of
    # test_perm covers
    functions = _functions(
        "validate_certificate", "certificate_from_dict", "_check_size",
        "_fields", "_element", "_expect_list", "_expect_str",
    )
    raises = [n for f in functions for n in ast.walk(f) if isinstance(n, ast.Raise)]
    assert len(raises) == 21
    real = _flaw_outcomes(involution, monkeypatch)
    assert None not in real
    for node in raises:
        mutant = _flaw_outcomes(_mutant(node), monkeypatch)
        assert mutant != real, f"no flaw needs line {node.lineno}: {ast.unparse(node)}"
