"""Exact rationals, symbols, polynomial ring operations, canonical rendering."""

import copy
import json
import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cramerkit import all_big_x, build_certificate, certificate_to_dict, generic_system
from cramerkit.algebra import (
    MAX_EXPONENT,
    Polynomial,
    Symbol,
    _sum,
    a_symbol,
    b_symbol,
    evaluate,
    make_monomial,
    poly_add,
    poly_mul,
    poly_negate,
    rat_add,
    rat_div,
    rat_mul,
    rat_neg,
    render_scalar,
)

A11, A12, A21, A22 = (a_symbol(i, j) for i in (1, 2) for j in (1, 2))
B1, B2 = b_symbol(1), b_symbol(2)
SYMBOLS = [A11, A12, A21, A22, B1, B2]


def sym(s: Symbol) -> Polynomial:
    return Polynomial.from_symbol(s)


def term(coeff: int, *symbols: Symbol) -> Polynomial:
    exps: dict = {}
    for s in symbols:
        exps[s] = exps.get(s, 0) + 1
    return Polynomial({make_monomial(exps): coeff})


# -- strategies ----------------------------------------------------------------

monomials = st.dictionaries(
    st.sampled_from(SYMBOLS), st.integers(1, 2), max_size=3
).map(make_monomial)

coefficients = st.integers(-9, 9).filter(lambda c: c != 0)

polys = st.dictionaries(monomials, coefficients, max_size=5).map(Polynomial)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

assignments = st.fixed_dictionaries({s: rationals for s in SYMBOLS})


# -- rational arithmetic -------------------------------------------------------


def test_rat_add_common_denominator():
    assert rat_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_rat_add_zero_identity():
    x = Fraction(-7, 3)
    assert rat_add(x, Fraction(0)) == x


def test_rat_canonical_reduction():
    x = Fraction(2, 4)
    assert (x.numerator, x.denominator) == (1, 2)
    y = Fraction(3, -6)  # denominator normalized positive
    assert (y.numerator, y.denominator) == (-1, 2)
    zero = Fraction(0, 5)
    assert (zero.numerator, zero.denominator) == (0, 1)


def test_rat_mul_neg_div():
    assert rat_mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert rat_neg(Fraction(71)) == Fraction(-71)
    assert rat_div(Fraction(1, 2), Fraction(3)) == Fraction(1, 6)


def test_rat_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        rat_div(Fraction(1), Fraction(0))


# -- symbols -------------------------------------------------------------------


def test_symbol_order_a_before_b():
    assert A11 < A12 < A21 < A22 < B1 < B2


def test_symbol_render():
    assert str(A12) == "a[1,2]"
    assert str(B2) == "b[2]"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "c", "row": 1, "col": 1},
        {"kind": "a", "row": 0, "col": 1},
        {"kind": "a", "row": 1, "col": 0},
        {"kind": "b", "row": 0},
        {"kind": "b", "row": 1, "col": 2},
    ],
)
def test_symbol_validation(kwargs):
    with pytest.raises(ValueError):
        Symbol(**kwargs)


def test_symbol_replace_and_make_validate():
    with pytest.raises(ValueError):
        Symbol("a", 1, 1)._replace(row=0)
    with pytest.raises(ValueError):
        Symbol._make(("b", 2, 3))
    assert A12._replace(row=2) == Symbol("a", 2, 2)
    assert B1._replace(row=2) == B2
    assert Symbol._make(tuple(A21)) == A21
    assert type(Symbol._make(("b", 1, 0))) is Symbol


# -- canonical construction ---------------------------------------------------


def test_constructor_canonicalizes_keys():
    # keys out of order, with a zero exponent or with a repeated symbol take
    # the canonical form, so equal values compare, hash and render alike
    swapped = Polynomial({((B1, 1), (A11, 1)): 1})
    assert swapped == term(1, A11, B1)
    assert hash(swapped) == hash(term(1, A11, B1))
    assert (swapped - term(1, A11, B1)).render() == "0"
    assert Polynomial({((A11, 0),): 5}) == 5
    assert Polynomial({((A11, 0),): 5}).render() == "5"
    assert Polynomial({((A11, 1), (A11, 1)): 1}).render() == "a[1,1]^2"
    # keys that become equal add their coefficients
    assert Polynomial({((B1, 1), (A11, 1)): 2, ((A11, 1), (B1, 1)): -2}).is_zero
    assert Polynomial.constant(0) == Polynomial.zero() == Polynomial({(): 0})


raw_monomials = st.lists(
    st.tuples(st.sampled_from(SYMBOLS), st.integers(0, 2)), max_size=4
).map(tuple)


@given(st.dictionaries(raw_monomials, coefficients, max_size=4))
def test_raw_keys_mean_the_product_of_their_factors(terms):
    expected = Polynomial.zero()
    for mono, coeff in terms.items():
        product = Polynomial.constant(coeff)
        for s, e in mono:
            for _ in range(e):
                product = product * sym(s)
        expected = expected + product
    p = Polynomial(terms)
    assert p == expected
    assert (p.render(), hash(p)) == (expected.render(), hash(expected))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Polynomial({(): Fraction(1, 2)}),
        lambda: Polynomial({((A11, 1),): True}),
        lambda: Polynomial.constant(Fraction(1, 2)),
        lambda: Polynomial({((("a", 1, 1), 1),): 1}),
        lambda: make_monomial({A11: 2.0}),
        lambda: make_monomial({A11: True}),
        lambda: make_monomial({("a", 1, 1): 1}),
        lambda: Symbol("a", True, 1),
        lambda: Symbol("a", 1, 1.0),
        lambda: Symbol("b", "1"),
    ],
    ids=[
        "fraction-coeff", "bool-coeff", "fraction-constant", "tuple-key",
        "float-exp", "bool-exp", "tuple-symbol", "bool-row", "float-col", "str-row",
    ],
)
def test_non_int_parts_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_negative_exponent_is_rejected_before_merging():
    with pytest.raises(ValueError):
        Polynomial({((A11, 2), (A11, -1)): 1})


# -- polynomial fixtures -------------------------------------------------------


def test_add_two_disjoint_weights():
    assert sym(A11) + sym(B1) == Polynomial(
        {make_monomial({A11: 1}): 1, make_monomial({B1: 1}): 1}
    )


def test_add_zero_identity():
    p = term(3, A11, A22) + term(-1, B1)
    assert poly_add(p, Polynomial.zero()) == p


def test_add_cancels_to_zero():
    p = term(1, A11, A22)
    assert poly_add(p, poly_negate(p)).is_zero
    assert poly_add(p, poly_negate(p)).render() == "0"


@given(
    st.one_of(
        st.tuples(st.just(Fraction(0)), st.lists(rationals, max_size=6)),
        st.tuples(
            st.just(Polynomial.zero()),
            st.lists(st.one_of(polys, st.integers(-3, 3)), max_size=6),
        ),
    ),
    st.booleans(),
)
def test_sum_matches_a_fold_of_add(case, cancel):
    # _sum agrees with + taken one summand at a time and keeps the zero's
    # kind, also for no summands or summands that all cancel; it changes
    # neither the zero nor a summand
    zero, xs = case
    if cancel:
        xs = xs + [-x for x in reversed(xs)]
    before = copy.deepcopy(xs)
    total = _sum(iter(xs), zero)
    assert total == reduce(operator.add, xs, zero)
    assert type(total) is type(zero)
    assert xs == before and zero == 0
    if cancel:
        assert total == 0


def test_mul_single_terms():
    assert poly_mul(sym(A11), sym(A22)) == term(1, A11, A22)


def test_mul_one_identity():
    p = term(2, A12) + term(5, B2, B2)
    assert poly_mul(p, Polynomial.constant(1)) == p


def test_mul_difference_of_squares():
    a, b = sym(A11), sym(B1)
    got = poly_mul(a + b, a - b)
    assert got == term(1, A11, A11) + term(-1, B1, B1)


def test_negate_examples():
    assert poly_negate(Polynomial.zero()).is_zero
    assert poly_negate(term(1, A12, B2)) == term(-1, A12, B2)
    a, b = sym(A11), sym(B1)
    assert poly_negate(a - b) == b - a


def test_int_coercion_in_operators():
    p = sym(A11)
    assert 0 + p == p
    assert 1 * p == p
    assert p - 0 == p
    assert 0 - p == -p
    assert p + 2 == p + Polynomial.constant(2)
    # a foreign operand is NotImplemented on both sides, so Python raises
    for other in (1.5, Fraction(1, 2)):
        for op in (operator.add, operator.sub, operator.mul):
            for left, right in ((p, other), (other, p)):
                with pytest.raises(TypeError):
                    op(left, right)


def test_constants_hash_like_the_ints_they_equal():
    assert len({Polynomial.constant(3), 3}) == 1
    assert len({Polynomial.zero(), 0}) == 1


# -- evaluation ----------------------------------------------------------------


def test_evaluate_2x2_determinant():
    det = term(1, A11, A22) + term(-1, A21, A12)
    value = det.evaluate({A11: 1, A22: -1, A21: 1, A12: 1})
    assert value == Fraction(-2)


def test_evaluate_zero_polynomial():
    assert evaluate(Polynomial.zero(), {}) == 0


def test_evaluate_single_symbol():
    assert evaluate(sym(B1), {B1: Fraction(3, 2)}) == Fraction(3, 2)


def test_evaluate_missing_symbol():
    with pytest.raises(KeyError):
        evaluate(sym(B1) + sym(A11), {B1: Fraction(1)})


def test_evaluate_exponents():
    p = term(3, A11, A11)
    assert p.evaluate({A11: Fraction(1, 2)}) == Fraction(3, 4)


# -- rendering -----------------------------------------------------------------


def test_render_coefficient_and_symbol_order():
    assert term(-3, A21, A12, B2).render() == "-3*a[1,2]*a[2,1]*b[2]"


def test_render_unit_coefficients_omitted():
    assert term(1, A11, A22).render() == "a[1,1]*a[2,2]"
    assert term(-1, A11).render() == "-a[1,1]"


def test_render_constants_and_zero():
    assert Polynomial.zero().render() == "0"
    assert Polynomial.constant(7).render() == "7"
    assert Polynomial.constant(-7).render() == "-7"
    assert (term(1, A11) + 5).render() == "a[1,1] + 5"
    assert repr(term(1, A11) + 5) == "Polynomial(a[1,1] + 5)"
    assert not Polynomial.zero() and Polynomial.constant(-7)


def test_render_exponents():
    assert term(1, A11, A11).render() == "a[1,1]^2"


def test_render_term_order_leading_first():
    det = term(-1, A21, A12) + term(1, A11, A22)
    assert det.render() == "a[1,1]*a[2,2] - a[1,2]*a[2,1]"
    p = term(1, A22, B1) + term(-1, A12, B2)
    assert p.render() == "-a[1,2]*b[2] + a[2,2]*b[1]"


def test_render_scalar_handles_both_kinds():
    assert render_scalar(Fraction(-4, 6)) == "-2/3"
    assert render_scalar(term(2, B1)) == "2*b[1]"


def test_canonical_form_independent_of_insertion_order():
    parts = [term(1, A11, A22), term(-1, A21, A12), term(5, B1), term(-2, B2, B2)]
    reference = sum(parts, Polynomial.zero()).render()
    rng = random.Random(7)
    for _ in range(20):
        rng.shuffle(parts)
        total = Polynomial.zero()
        for part in parts:
            total = total + part
        assert total.render() == reference


# -- ring axioms (property-based) ----------------------------------------------


@given(polys, polys)
def test_add_commutative(p, q):
    assert p + q == q + p


@given(polys, polys)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys, polys, polys)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_mul_distributes_over_add(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_identities_and_inverse(p):
    assert p + Polynomial.zero() == p
    assert p * Polynomial.constant(1) == p
    assert p * Polynomial.zero() == Polynomial.zero()
    assert (p + (-p)).is_zero


@given(polys, polys)
def test_equal_values_have_equal_renderings(p, q):
    # canonical form is a normal form: value equality == rendered equality
    assert (p == q) == (p.render() == q.render())


@given(polys)
def test_terms_lead_with_the_largest_exponent_vector(p):
    # the term order against its definition: dense exponent vectors over
    # every symbol in symbol order, compared lexicographically
    order = sorted(SYMBOLS)
    vectors = [[dict(mono).get(s, 0) for s in order] for mono, _ in p.terms()]
    assert all(u > v for u, v in zip(vectors, vectors[1:]))


# -- evaluation homomorphism ---------------------------------------------------


@given(polys, polys, assignments)
def test_evaluate_respects_add(p, q, assignment):
    assert evaluate(poly_add(p, q), assignment) == rat_add(
        evaluate(p, assignment), evaluate(q, assignment)
    )


@given(polys, polys, assignments)
def test_evaluate_respects_mul(p, q, assignment):
    assert evaluate(poly_mul(p, q), assignment) == rat_mul(
        evaluate(p, assignment), evaluate(q, assignment)
    )


# -- packed monomials against a dense reference --------------------------------
# The reference keeps a polynomial as {dense exponent vector over REF_SYMBOLS,
# in symbol order: coefficient}.  No other test uses rows 50 and 51.  Row 50's
# symbols are interned here in reverse symbol order, so its terms sort on the
# bytes picked out in symbol order; row 51's are interned in symbol order, so
# its terms sort on their keys' bytes as they are.  The examples pin both
# paths in every process, whatever the test order and the draws.

ROW_50 = [a_symbol(50, 1), a_symbol(50, 2), b_symbol(50)]
ROW_51 = [a_symbol(51, 1), a_symbol(51, 2), b_symbol(51)]
for _s in [*reversed(ROW_50), *ROW_51]:
    Polynomial.from_symbol(_s)
REF_SYMBOLS = sorted([A11, A12, A21, A22, B1, B2, *ROW_50, *ROW_51])

dense_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(REF_SYMBOLS)), coefficients, max_size=6
)


def dense(exponents: dict) -> tuple:
    # the dense exponent vector of a {symbol: exponent} map
    return tuple(exponents.get(s, 0) for s in REF_SYMBOLS)


def row_cases(row: list) -> list:
    # a one-term, a one-symbol, a constant and the zero polynomial over row,
    # two terms that row 50's intern order would list the other way round,
    # and terms whose exponents are all 0 or 1, which render() writes
    # straight from their keys' bytes
    first, second, third = row
    return [
        {dense({first: 2, second: 1, third: 3}): -5},
        {dense({second: 3}): 4, dense({second: 1}): -1},
        {dense({}): 7},
        {},
        {dense({first: 1}): 1, dense({third: 2}): 3},
        {
            dense({second: 1, third: 1}): 1,
            dense({first: 1, third: 1}): -1,
            dense({first: 1, second: 1, third: 1}): 6,
            dense({third: 1}): -2,
            dense({}): -3,
        },
    ]


ONE = {dense({}): 1}
ROW_CASES = row_cases(ROW_50) + row_cases(ROW_51)
# Two products whose factors both have several terms.  p * q is one part per
# term of the smaller factor, merged by _fold: a row 50 case times a row 51
# case share no symbol, so no two parts share a key, and the parts merge
# whole; (x + y) * (x - y) shares both symbols, so its parts meet in x*y,
# whose coefficients cancel and are dropped as the parts merge key by key.
DISJOINT_PRODUCT = (row_cases(ROW_50)[5], row_cases(ROW_51)[1])
_X, _Y = (dense({s: 1}) for s in ROW_51[:2])
CANCELLING_PRODUCT = ({_X: 1, _Y: 1}, {_X: 1, _Y: -1})


def from_dense(ref: dict) -> Polynomial:
    return Polynomial({tuple(zip(REF_SYMBOLS, v)): c for v, c in ref.items()})


def dense_combine(pairs) -> dict:
    out: dict = {}
    for v, c in pairs:
        out[v] = out.get(v, 0) + c
    return {v: c for v, c in out.items() if c}


def dense_terms(ref: dict) -> list:
    return [
        (tuple((s, e) for s, e in zip(REF_SYMBOLS, v) if e), ref[v])
        for v in sorted(ref, reverse=True)
    ]


def dense_render(ref: dict) -> str:
    text = ""
    for mono, c in dense_terms(ref):
        factors = [str(s) if e == 1 else f"{s}^{e}" for s, e in mono]
        sign = "-" if c < 0 else ""
        if text:
            text += " - " if c < 0 else " + "
            sign = ""
        if not factors:
            text += f"{sign}{abs(c)}"
        else:
            text += sign + "*".join(([str(abs(c))] if abs(c) != 1 else []) + factors)
    return text or "0"


def with_row_cases(test):
    # each row case as x, with y = 1, so that p * q is p again
    for case in ROW_CASES:
        test = example(case, ONE)(test)
    return test


@example(*DISJOINT_PRODUCT)
@example(*CANCELLING_PRODUCT)
@with_row_cases
@given(dense_polys, dense_polys)
def test_packed_arithmetic_matches_a_dense_reference(x, y):
    p, q = from_dense(x), from_dense(y)
    total = dense_combine([*x.items(), *y.items()])
    product = dense_combine(
        (tuple(a + b for a, b in zip(u, v)), c * d)
        for u, c in x.items()
        for v, d in y.items()
    )
    assert (p.terms(), p.render()) == (dense_terms(x), dense_render(x))
    assert ((p + q).terms(), (p + q).render()) == (dense_terms(total), dense_render(total))
    minus_x, minus_y = ([(v, -c) for v, c in ref.items()] for ref in (x, y))
    difference = dense_combine([*x.items(), *minus_y])
    assert ((p - q).terms(), (p - q).render()) == (
        dense_terms(difference), dense_render(difference)
    )
    three_minus_p = dense_combine([((0,) * len(REF_SYMBOLS), 3), *minus_x])
    assert ((3 - p).terms(), (3 - p).render()) == (
        dense_terms(three_minus_p), dense_render(three_minus_p)
    )
    assert ((p * q).terms(), (p * q).render()) == (
        dense_terms(product), dense_render(product)
    )
    assert (p * q).symbols() == {s for mono, _ in dense_terms(product) for s, _ in mono}


def test_the_reference_rows_take_both_sort_paths():
    # the one-term case of each row: row 51's symbols were interned in symbol
    # order, so its row is its key's own bytes over every slot below the
    # width; row 50's were not, so its row holds one byte per present
    # symbol, picked out in symbol order
    for row, in_order in ((ROW_50, False), (ROW_51, True)):
        p = from_dense(row_cases(row)[0])
        b, slots, rows = p._ordered()
        (key,) = p._terms
        ((raw, coeff),) = rows
        assert coeff == -5
        if in_order:
            assert slots == range(len(b))
            assert raw == key.to_bytes(len(b), "little")
        else:
            assert len(slots) == 3 and list(slots) == sorted(slots, reverse=True)
            assert raw == bytes([2, 1, 3])


def test_product_above_the_exponent_ceiling_raises():
    assert MAX_EXPONENT == 127
    top = Polynomial({((A11, MAX_EXPONENT), (B1, 1)): 2})
    with pytest.raises(OverflowError, match=r"exponent 128 of a\[1,1\] .* ceiling 127"):
        top * sym(A11)
    with pytest.raises(OverflowError, match=r"exponent 254 of a\[1,1\] .* ceiling 127"):
        top * (top + 1)
    with pytest.raises(OverflowError, match=r"exponent 128 of b\[2\] .* ceiling 127"):
        Polynomial({((B2, 100), (B2, 28)): 1})


def test_a_carry_never_shows_up_as_another_symbol():
    # a[1,1] up to the ceiling stays a[1,1]; one more raises instead of
    # spilling into the byte of whichever symbol was interned next
    half = Polynomial({((A11, 64),): 1})
    at_ceiling = half * Polynomial({((A11, 63),): 1})
    assert at_ceiling.terms() == [(((A11, 127),), 1)]
    assert at_ceiling.symbols() == {A11}
    assert at_ceiling.render() == "a[1,1]^127"
    neighbours = Polynomial({((s, MAX_EXPONENT),): 1 for s in SYMBOLS})
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        neighbours * sym(A11)
    assert (neighbours * neighbours.zero()).is_zero


# -- pickling, copying and the intern order ------------------------------------

REPO = Path(__file__).resolve().parents[1]


def run_python(code: str, stdin: bytes = b"") -> bytes:
    # run code in a fresh interpreter with its own intern table
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_pickle_crosses_processes_with_other_intern_tables():
    # the writer interns b[1] before a[1,1], the reader a[1,1] before b[1]
    write = (
        "import pickle, sys\n"
        "from cramerkit.algebra import Polynomial, a_symbol, b_symbol\n"
        "b = Polynomial.from_symbol(b_symbol(1))\n"
        "a = Polynomial.from_symbol(a_symbol(1, 1))\n"
        "sys.stdout.buffer.write(pickle.dumps([3 * a * a * b - b + 7, a - b]))\n"
    )
    read = (
        "import pickle, sys\n"
        "from cramerkit.algebra import Polynomial, a_symbol, b_symbol\n"
        "a = Polynomial.from_symbol(a_symbol(1, 1))\n"
        "b = Polynomial.from_symbol(b_symbol(1))\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "assert loaded == [3 * a * a * b - b + 7, a - b], loaded\n"
        "print(' | '.join(p.render() for p in loaded))\n"
    )
    pickled = run_python(write)
    assert run_python(read, pickled) == b"3*a[1,1]^2*b[1] - b[1] + 7 | a[1,1] - b[1]\n"
    a, b = sym(A11), sym(B1)
    loaded = pickle.loads(pickled)
    assert loaded == [3 * a * a * b - b + 7, a - b]
    assert hash(loaded[1]) == hash(a - b)


def test_threads_interning_the_same_new_symbols_agree():
    # in a fresh process, eight threads intern the same 2000 new symbols at
    # the same moment, four times over; a symbol interned twice would give
    # two threads different packed keys for it
    code = (
        "import sys, threading\n"
        "from cramerkit.algebra import Polynomial, a_symbol\n"
        "sys.setswitchinterval(1e-6)\n"
        "for r in range(4):\n"
        "    fresh = [a_symbol(100 * r + t, j) for t in range(1, 21) for j in range(1, 101)]\n"
        "    start = threading.Barrier(8, timeout=60)\n"
        "    results = [None] * 8\n"
        "    def build(t):\n"
        "        start.wait()\n"
        "        results[t] = [Polynomial.from_symbol(s) for s in fresh]\n"
        "    threads = [threading.Thread(target=build, args=(t,)) for t in range(8)]\n"
        "    for th in threads:\n"
        "        th.start()\n"
        "    for th in threads:\n"
        "        th.join(timeout=60)\n"
        "    assert not any(th.is_alive() for th in threads), 'a thread hung'\n"
        "    assert all(res == results[0] for res in results), f'round {r}'\n"
        "print('ok')\n"
    )
    assert run_python(code) == b"ok\n"


def test_copy_and_deepcopy_keep_the_value():
    p = term(3, A11, A11, B2) - term(1, A12) + 4
    system = generic_system(2)
    assert copy.copy(p) == p and copy.deepcopy(p) == p
    assert copy.deepcopy(p).render() == p.render()
    assert copy.deepcopy(system) == system
    assert pickle.loads(pickle.dumps(p)) == p


# Two intern orders that differ from symbol order: every n = 5 symbol in
# reverse symbol order before anything is built, and generic_system(4) built
# before generic_system(5), which interns the larger system's new symbols
# after the smaller one's b symbols
REVERSED_5 = (
    "syms = [algebra.a_symbol(i, j) for i in range(1, 6) for j in range(1, 6)]\n"
    "syms += [algebra.b_symbol(i) for i in range(1, 6)]\n"
    "for s in sorted(syms, reverse=True):\n"
    "    algebra.Polynomial.from_symbol(s)\n"
    "assert algebra._SYMBOLS == sorted(syms, reverse=True)\n"
)
RISING_N = "generic_system(4)\n"


@pytest.mark.parametrize("intern", [REVERSED_5, RISING_N], ids=["reversed", "rising-n"])
def test_intern_order_does_not_change_any_output(intern):
    # a fresh process interns its symbols out of symbol order before it
    # builds generic_system(5), so every polynomial with two or more symbols
    # out of order has rows picked out in symbol order; its 120-term sums
    # and certificate are the same as this process's
    code = (
        "import json\n"
        "from cramerkit import algebra, all_big_x, build_certificate, "
        "certificate_to_dict, generic_system\n"
        "assert not algebra._SYMBOLS, 'symbols interned at import'\n"
        + intern
        + "g = generic_system(5)\n"
        "assert algebra._SYMBOLS != sorted(algebra._SYMBOLS)\n"
        "print('\\n'.join(x.render() for x in all_big_x(g)))\n"
        "print(json.dumps(certificate_to_dict(build_certificate(g, 1)), indent=2))\n"
    )
    g = generic_system(5)
    expected = "\n".join(x.render() for x in all_big_x(g)) + "\n"
    expected += json.dumps(certificate_to_dict(build_certificate(g, 1)), indent=2) + "\n"
    assert run_python(code).decode() == expected
