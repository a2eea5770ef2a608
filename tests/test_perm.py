"""Permutation construction, enumeration, inversions, transpositions."""

import copy
import functools
import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cramerkit import cramer, involution, perm
from cramerkit.cramer import big_x, generic_system, verify_identity, weight_wj
from cramerkit.involution import (
    FElement,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    check_fact1,
    check_fact2,
    is_good,
    iter_elements,
    weight_W,
)
from cramerkit.perm import (
    Permutation,
    SizeLimitError,
    enumerate_permutations,
    inversions,
    iter_signed_values,
    make_permutation,
    position_of,
    sign,
    transpose_positions,
)


def perms(max_n=6):
    """Strategy: a random permutation of {1..n} for n <= max_n."""
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
        .map(make_permutation)
    )


# -- construction --------------------------------------------------------------


def test_make_permutation_accepts_valid():
    p = make_permutation([5, 1, 4, 2, 3])
    assert p.n == 5
    assert p.values == (5, 1, 4, 2, 3)
    assert str(p) == "51423"
    # from n = 10 a value has two digits, so the values are comma-joined
    assert str(make_permutation([10, *range(1, 10)])) == "10,1,2,3,4,5,6,7,8,9"


def test_make_permutation_single():
    assert make_permutation([1]).n == 1


@pytest.mark.parametrize(
    "bad",
    [
        [], [1, 1], [0, 1], [1, 3], [2, 2, 1], [1, 2, 4],
        [1.0, 2.0], [True, 2], [2, "1"],
    ],
)
def test_make_permutation_rejects(bad):
    with pytest.raises(ValueError):
        make_permutation(bad)


# -- enumeration ---------------------------------------------------------------


def test_enumeration_s3_fixture():
    got = [p.values for p in enumerate_permutations(3)]
    assert got == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]


def test_enumeration_n1():
    assert [p.values for p in enumerate_permutations(1)] == [(1,)]


def test_enumeration_n5_count_and_uniqueness():
    seen = set()
    for p in enumerate_permutations(5):
        assert p.values not in seen
        seen.add(p.values)
    assert len(seen) == math.factorial(5)


def test_enumeration_is_sorted():
    for n in range(1, 6):
        values = [p.values for p in enumerate_permutations(n)]
        assert values == sorted(values)


def test_enumeration_guard():
    with pytest.raises(SizeLimitError):
        enumerate_permutations(0)
    with pytest.raises(SizeLimitError):
        enumerate_permutations(10)
    # override is allowed; enumeration is lazy so taking one element is cheap
    first = next(enumerate_permutations(10, max_n=10))
    assert first.values == tuple(range(1, 11))
    with pytest.raises(SizeLimitError):
        enumerate_permutations(4, max_n=3)


# -- inversions and sign -------------------------------------------------------


def test_inversions_51423_pairs():
    v = (5, 1, 4, 2, 3)
    pairs = {
        (i, j)
        for i in range(1, 6)
        for j in range(i + 1, 6)
        if v[i - 1] > v[j - 1]
    }
    assert pairs == {(1, 2), (1, 3), (1, 4), (1, 5), (3, 4), (3, 5)}
    assert inversions(make_permutation(v)) == len(pairs) == 6


def test_inversions_identity_is_zero():
    assert inversions(make_permutation(range(1, 8))) == 0


def test_inversions_reversed_three():
    assert inversions(make_permutation([3, 2, 1])) == 3


def test_inversions_match_the_pairwise_count_exhaustive():
    # the bit count against the definition: pairs of positions out of order
    for n in range(1, 8):
        for values in itertools.permutations(range(1, n + 1)):
            pairwise = sum(1 for x, y in itertools.combinations(values, 2) if x > y)
            assert inversions(Permutation(values)) == pairwise


def test_sign_examples():
    assert sign(make_permutation([5, 1, 4, 2, 3])) == 1
    assert sign(make_permutation([1, 2, 3])) == 1
    assert sign(make_permutation([2, 1])) == -1


def test_sign_matches_inversion_parity_exhaustive():
    for n in range(1, 8):
        for p in enumerate_permutations(n):
            assert sign(p) == (-1) ** inversions(p)


def test_iter_signed_values_matches_enumeration_and_sign():
    for n in range(1, 7):
        for (values, s), p in zip(iter_signed_values(n), enumerate_permutations(n)):
            assert values == p.values
            assert s == sign(p)


def test_iter_signed_values_guard_is_eager():
    with pytest.raises(SizeLimitError):
        iter_signed_values(10)


# -- position lookup -----------------------------------------------------------


def test_position_of_examples():
    assert position_of(make_permutation([3, 1, 2]), 2) == 3
    assert position_of(make_permutation([5, 1, 4, 2, 3]), 5) == 1
    identity = make_permutation(range(1, 6))
    for k in range(1, 6):
        assert position_of(identity, k) == k


def test_position_of_out_of_range():
    p = make_permutation([2, 1])
    with pytest.raises(ValueError):
        position_of(p, 0)
    with pytest.raises(ValueError):
        position_of(p, 3)


def test_position_of_roundtrip_exhaustive():
    for n in range(1, 6):
        for p in enumerate_permutations(n):
            for k in range(1, n + 1):
                assert position_of(p, p.values[k - 1]) == k


# -- transpositions ------------------------------------------------------------


def test_transpose_examples():
    assert transpose_positions(make_permutation([3, 1, 2]), 1, 3).values == (2, 1, 3)
    assert transpose_positions(make_permutation([1, 2]), 1, 2).values == (2, 1)


def test_transpose_does_not_mutate_input():
    p = make_permutation([3, 1, 2])
    transpose_positions(p, 1, 2)
    assert p.values == (3, 1, 2)


def test_transpose_rejects_bad_positions():
    p = make_permutation([2, 1, 3])
    with pytest.raises(ValueError):
        transpose_positions(p, 2, 2)
    with pytest.raises(ValueError):
        transpose_positions(p, 0, 1)
    with pytest.raises(ValueError):
        transpose_positions(p, 1, 4)


def test_transposition_parity_flip_exhaustive():
    # swapping any two positions changes the inversion count by an odd number
    for n in range(2, 7):
        for p in enumerate_permutations(n):
            base = inversions(p)
            for j in range(1, n + 1):
                for j2 in range(j + 1, n + 1):
                    assert (base - inversions(transpose_positions(p, j, j2))) % 2 == 1


@given(perms(), st.data())
def test_transpose_is_self_inverse(p, data):
    if p.n < 2:
        return
    j = data.draw(st.integers(1, p.n))
    j2 = data.draw(st.integers(1, p.n).filter(lambda x: x != j))
    assert transpose_positions(transpose_positions(p, j, j2), j, j2) == p


@given(perms())
def test_position_of_roundtrip_random(p):
    for k in range(1, p.n + 1):
        assert position_of(p, p.values[k - 1]) == k


# -- one rule for index and size arguments ---------------------------------------

P3 = make_permutation([2, 3, 1])


@functools.cache
def _cert2():
    # the n = 2, i = 1 certificate as a dict
    return certificate_to_dict(build_certificate(generic_system(2), 1))


def _reader(key, entry=None):
    # certificate_from_dict on _cert2 with key, of the top level or of the
    # first item of entry, set to the value
    def call(value):
        data = copy.deepcopy(_cert2())
        (data if entry is None else data[entry][0])[key] = value
        return certificate_from_dict(data)

    return call


# (entry point, argument, lo, hi, whether the range is the enumeration
# guard, a call on the argument); hi None is an open range
INDEX_ARGS = [
    ("position_of", "value", 1, 3, False, lambda v: position_of(P3, v)),
    ("transpose_positions", "j", 1, 3, False, lambda v: transpose_positions(P3, v, 2)),
    ("transpose_positions", "j2", 1, 3, False, lambda v: transpose_positions(P3, 1, v)),
    ("weight_wj", "j", 1, 3, False, lambda v: weight_wj(generic_system(3), v, P3)),
    ("big_x", "j", 0, 3, False, lambda v: big_x(generic_system(3), v)),
    ("verify_identity", "i", 1, 3, False, lambda v: verify_identity(generic_system(3), v)),
    ("FElement", "j", 1, 3, False, lambda v: FElement(v, P3)),
    ("weight_W", "i", 1, 3, False, lambda v: weight_W(generic_system(3), v, FElement(1, P3))),
    ("is_good", "i", 1, 3, False, lambda v: is_good(v, FElement(1, P3))),
    ("check_fact1", "i", 1, 3, False, lambda v: check_fact1(generic_system(3), v)),
    ("check_fact2", "i", 1, 3, False, lambda v: check_fact2(generic_system(3), v)),
    ("build_certificate", "i", 1, 3, False, lambda v: build_certificate(generic_system(3), v)),
    ("certificate_from_dict", "i", 1, 2, False, _reader("i")),
    ("certificate_from_dict", "j", 1, 2, False, _reader("j", "good")),
    ("certificate_from_dict", "j2", 1, 2, False, _reader("j2", "bad_pairs")),
    ("enumerate_permutations", "n", 1, 9, True, enumerate_permutations),
    ("iter_signed_values", "n", 1, 9, True, iter_signed_values),
    ("iter_elements", "n", 1, 9, True, iter_elements),
    ("generic_system", "n", 1, None, False, generic_system),
]


def _no_work(*args):
    raise AssertionError("work began before the argument was checked")


@pytest.mark.parametrize(
    "entry, name, lo, hi, guarded, call", INDEX_ARGS,
    ids=[f"{entry}-{name}" for entry, name, *_ in INDEX_ARGS],
)
def test_every_index_and_size_argument_takes_one_rule(
    monkeypatch, entry, name, lo, hi, guarded, call
):
    # True and 1.0 are no index, and a value past either end of the range is
    # refused, each with the one rule's text and before any work: no S_n
    # stream, kernel sum, weight product, swap or generic symbol.  A size
    # outside the guard keeps the guard's SizeLimitError and text.
    generic_system(3), _cert2()  # cached before the work is stubbed
    for module, work in [(perm, "_swapped"), (cramer, "_leibniz"), (cramer, "_weight"),
                         (cramer, "a_symbol"), (involution, "iter_signed_values")]:
        monkeypatch.setattr(module, work, _no_work)
    monkeypatch.setattr(perm, "itertools", SimpleNamespace(permutations=_no_work))
    cases = [(True, ValueError, f"{name}=True is not an integer"),
             (1.0, ValueError, f"{name}=1.0 is not an integer")]
    for v in (lo - 1,) if hi is None else (lo - 1, hi + 1):
        if guarded:
            cases.append((v, SizeLimitError, f"n={v} outside the enumeration guard 1..{hi}"))
        else:
            cases.append((v, ValueError, f"{name}={v} outside {lo}..{'' if hi is None else hi}"))
    prefix = "malformed certificate: " if entry == "certificate_from_dict" else ""
    for value, error, text in cases:
        with pytest.raises(ValueError) as exc:
            call(value)
        assert (exc.type, str(exc.value)) == (error, prefix + text)
