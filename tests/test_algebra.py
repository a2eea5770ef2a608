"""Exact rationals, symbols, polynomial ring operations, canonical rendering."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cramerkit.algebra import (
    Polynomial,
    Symbol,
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
