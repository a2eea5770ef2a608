"""Good/bad classification, the pairing involution, both facts, certificates."""

import hashlib
import json
import math
import random

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
from cramerkit.algebra import a_symbol, b_symbol, make_monomial, Polynomial
from cramerkit.cramer import rational_system
from cramerkit.involution import iter_elements
from cramerkit.oracle import bareiss_det
from cramerkit.perm import Permutation

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


def test_facts_hold_numeric():
    # the identities are polynomial, so they also hold on instantiated
    # systems; there X_0 = det(A), as Bareiss elimination computes it
    rng = random.Random(17)
    sys = random_int_system(rng, 3)
    det = bareiss_det(sys)
    for i in range(1, 4):
        f1 = check_fact1(sys, i)
        assert f1.ok
        assert f1.b_i_times_x0 == sys.rhs_entry(i) * det
        assert f1.good_sum == f1.b_i_times_x0
        assert check_fact2(sys, i).ok


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


def corrupt_weight(monkeypatch, target):
    # the walk's weight routine, off by one at the element [j, pi] = target
    weight = involution._weight

    def corrupted(sys, values, sgn, j=0):
        w = weight(sys, values, sgn, j)
        return w + 1 if (j, values) == target else w

    monkeypatch.setattr(involution, "_weight", corrupted)


def test_walk_checks_every_element(monkeypatch):
    # the walk weighs each bad pair once, at its smaller element; corrupting
    # any single weight must still fail the check that covers it
    gs = generic_system(3)
    i = 2
    for e in iter_elements(3):
        with monkeypatch.context() as m:
            corrupt_weight(m, (e.j, e.p.values))
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
        (_partner_keeps_the_sign, check_fact2, {"parity_ok": False}, PARITY_FAIL),
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


def test_certificate_pair_order():
    cert = build_certificate(generic_system(3), 1)
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


def test_validate_checks_the_guard_before_building(monkeypatch):
    def refuse(n):
        raise AssertionError(f"generic_system({n}) built before the size guard")

    monkeypatch.setattr(involution, "generic_system", refuse)
    cert = PairingCertificate(600, 1, (), (), "0", "0", "0")
    with pytest.raises(SizeLimitError):
        validate_certificate(cert)


def test_certificate_rejects_numeric_systems():
    sys = random_int_system(random.Random(5), 2)
    with pytest.raises(ValueError):
        build_certificate(sys, 1)


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
    hi = cert.bad_pairs[0][1]
    weigh = involution.weight_W

    def faulty(sys, i, e):
        return weigh(sys, i, e) + (1 if e == hi else 0)

    monkeypatch.setattr(involution, "weight_W", faulty)
    with pytest.raises(ValueError):
        validate_certificate(cert)


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


@pytest.mark.parametrize(
    "mutate, message",
    [
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
    ],
    ids=[
        "top-level", "good-entry", "bad-pair", "not-an-object", "n-0", "n-minus-1",
        "i-0", "i-past-n", "pi-repeated", "pi-out-of-range", "pi-empty",
        "sigma-repeated", "j-past-n", "j2-0", "good-not-array", "pairs-not-array",
        "pi-not-array", "sigma-not-array",
    ],
)
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


def _x0_off_by_one(d, m):
    # b_i_times_X0 agrees with a big_x that is off by one, fact1_sum does not
    gs = generic_system(3)
    d["b_i_times_X0"] = str(gs.rhs_entry(1) * (big_x(gs, 0) + 1))
    big = involution.big_x
    m.setattr(involution, "big_x", lambda *args, **kw: big(*args, **kw) + 1)


def _partner_off_by_one(d, m):
    # weight2 agrees with a weight_W that is off by one at HI, so it is no
    # longer the negation of the first weight
    d["bad_pairs"][0]["weight2"] = str(weight_W(generic_system(3), 1, HI) + 1)
    weigh = involution.weight_W

    def off_at_hi(sys, i, e):
        return weigh(sys, i, e) + (1 if e == HI else 0)

    m.setattr(involution, "weight_W", off_at_hi)


def _map_fixes_hi(d, m):
    # the map sends lo to HI, but HI to itself rather than back to lo
    t = involution.t_involution
    m.setattr(involution, "t_involution", lambda i, e: e if e == HI else t(i, e))


@pytest.mark.parametrize(
    "flaw, message",
    [
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
        (lambda d, m: d.update(b_i_times_X0="0"), "b_i_times_X0 does not match"),
        (_x0_off_by_one, "fact1_sum != b_i_times_X0"),
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
    ],
    ids=[
        "good-count", "pair-count", "bad-as-good", "good-swap", "good-repeat",
        "good-weight", "fact1-sum", "b-times-x0", "fact1-vs-b", "good-in-pair",
        "pair-flip", "pair-swap", "pair-repeat", "not-image", "not-image-back",
        "pair-weight", "not-negations", "fact2-sum",
    ],
)
def test_validate_rejects_each_flaw(monkeypatch, flaw, message):
    data = certificate_to_dict(build_certificate(generic_system(3), 1))
    first = data["bad_pairs"][0]
    assert (first["j2"], first["sigma"]) == (HI.j, list(HI.p.values))
    flaw(data, monkeypatch)
    with pytest.raises(ValueError, match=message):
        validate_certificate(certificate_from_dict(data))
