"""Weights, permutation sums X_j, solving, and the row identity check."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cramerkit
from cramerkit import cramer
from cramerkit import (
    LinearSystem,
    ResidualError,
    SingularSystemError,
    SizeLimitError,
    all_big_x,
    bareiss_det,
    big_x,
    cofactor_det,
    enumerate_permutations,
    generic_system,
    make_permutation,
    rational_system,
    solve,
    verify_identity,
    weight_w0,
    weight_wj,
)
from cramerkit.algebra import Polynomial, a_symbol, b_symbol, make_monomial, render_scalar

from _support import (
    SOLVE_FAULT_RHS,
    SOLVE_FAULT_ROWS,
    SOLVE_FAULTS,
    random_fraction,
    random_fraction_system,
    random_int_system,
)


def mono(*symbols):
    exps: dict = {}
    for s in symbols:
        exps[s] = exps.get(s, 0) + 1
    return make_monomial(exps)


def poly(*signed_monomials):
    return Polynomial({m: c for c, m in signed_monomials})


A = a_symbol
B = b_symbol


# -- weights -------------------------------------------------------------------


def test_weight_w0_identity_perm():
    gs = generic_system(2)
    expected = poly((1, mono(A(1, 1), A(2, 2))))
    assert weight_w0(gs, make_permutation([1, 2])) == expected


def test_weight_w0_swap_perm():
    gs = generic_system(2)
    expected = poly((-1, mono(A(2, 1), A(1, 2))))
    assert weight_w0(gs, make_permutation([2, 1])) == expected


def test_weight_w0_n1():
    gs = generic_system(1)
    assert weight_w0(gs, make_permutation([1])) == poly((1, mono(A(1, 1))))


def test_weight_wj_examples():
    gs = generic_system(2)
    assert weight_wj(gs, 1, make_permutation([1, 2])) == poly(
        (1, mono(B(1), A(2, 2)))
    )
    assert weight_wj(gs, 1, make_permutation([2, 1])) == poly(
        (-1, mono(B(2), A(1, 2)))
    )
    assert weight_wj(generic_system(1), 1, make_permutation([1])) == poly(
        (1, mono(B(1)))
    )


def test_weight_errors():
    gs = generic_system(2)
    p3 = make_permutation([1, 2, 3])
    with pytest.raises(ValueError):
        weight_w0(gs, p3)
    with pytest.raises(ValueError, match="permutation size 3 != system size 2"):
        weight_wj(gs, 1, p3)
    with pytest.raises(ValueError):
        weight_wj(gs, 0, make_permutation([1, 2]))
    with pytest.raises(ValueError):
        weight_wj(gs, 3, make_permutation([1, 2]))


def test_generic_system_is_built_once_per_size():
    assert generic_system(4) is generic_system(4)
    with pytest.raises(ValueError):
        generic_system(0)


# -- X_j -----------------------------------------------------------------------


def test_big_x_generic_n2():
    gs = generic_system(2)
    assert big_x(gs, 0) == poly(
        (1, mono(A(1, 1), A(2, 2))), (-1, mono(A(2, 1), A(1, 2)))
    )
    assert big_x(gs, 1) == poly((1, mono(B(1), A(2, 2))), (-1, mono(B(2), A(1, 2))))
    assert big_x(gs, 2) == poly((1, mono(B(2), A(1, 1))), (-1, mono(B(1), A(2, 1))))


def test_big_x_generic_n1():
    gs = generic_system(1)
    assert big_x(gs, 0) == poly((1, mono(A(1, 1))))
    assert big_x(gs, 1) == poly((1, mono(B(1))))


def test_big_x_j_out_of_range():
    gs = generic_system(2)
    with pytest.raises(ValueError):
        big_x(gs, -1)
    with pytest.raises(ValueError):
        big_x(gs, 3)


def test_big_x_multilinearity_generic():
    # X_0: one a-factor per column, all exponents 1, coefficients +/-1,
    # exactly n! terms.  X_j (j >= 1): a-factors for the columns != j plus
    # exactly one b-symbol.
    for n in range(1, 6):
        gs = generic_system(n)
        x0 = big_x(gs, 0)
        terms = x0.terms()
        assert len(terms) == math.factorial(n)
        for monomial, coeff in terms:
            assert coeff in (1, -1)
            cols = sorted(s.col for s, e in monomial if s.kind == "a" and e == 1)
            assert cols == list(range(1, n + 1))
            assert all(s.kind == "a" for s, _ in monomial)
        for j in range(1, n + 1):
            for monomial, coeff in big_x(gs, j).terms():
                assert coeff in (1, -1)
                a_cols = sorted(s.col for s, _ in monomial if s.kind == "a")
                b_syms = [s for s, _ in monomial if s.kind == "b"]
                assert a_cols == [k for k in range(1, n + 1) if k != j]
                assert len(b_syms) == 1
                assert all(e == 1 for _, e in monomial)


def test_all_big_x_matches_big_x():
    rng = random.Random(101)
    for n in range(1, 5):
        for num in (random_int_system(rng, n), random_fraction_system(rng, n)):
            xs = all_big_x(num)
            assert xs == [big_x(num, j) for j in range(n + 1)]
            assert all(type(x) is Fraction for x in xs)
        gs = generic_system(n)
        assert all_big_x(gs) == [big_x(gs, j) for j in range(n + 1)]


def _entries(entry):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(entry, min_size=n, max_size=n),
        )
    )


#: distinct primes, so the row denominators are coprime and the row scales
#: multiply up to about 10**30 at n = 5
_PRIMES = (999983, 999979, 999961, 999959, 999953)


@st.composite
def _large_denominator_systems(draw):
    # row i of [A | b] has entries k / d_i for a row prime d_i, some of them
    # reducing; one row may be zero or a multiple of another (singular)
    n = draw(st.integers(1, 5))
    primes = draw(st.permutations(_PRIMES))
    numerators = st.integers(-10**6, 10**6)
    rows = []
    for d in primes[:n]:
        ks = draw(st.lists(numerators, min_size=n + 1, max_size=n + 1))
        rows.append([Fraction(k, d) for k in ks])
    r = draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(("full", "zero row", "multiple row")))
    if shape == "zero row":
        rows[r] = [Fraction(0)] * (n + 1)
    elif shape == "multiple row":
        factor = Fraction(draw(numerators), draw(st.sampled_from(_PRIMES)))
        rows[r] = [x * factor for x in rows[(r + 1) % n]]
    return rational_system([row[:n] for row in rows], [row[n] for row in rows])


_int_systems = _entries(st.integers(-9, 9)).map(lambda ab: rational_system(*ab))
_frac_systems = _entries(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))).map(
    lambda ab: rational_system(*ab)
)
_systems = st.one_of(
    _int_systems,
    _frac_systems,
    st.integers(1, 4).map(generic_system),
    _large_denominator_systems(),
)


@settings(max_examples=80)
@given(_systems)
def test_all_big_x_is_the_signed_sum_over_s_n(sys):
    # the paper's definition, summed one permutation at a time
    perms = list(enumerate_permutations(sys.n))
    expected = [sys.zero] * (sys.n + 1)
    for p in perms:
        expected[0] = expected[0] + weight_w0(sys, p)
        for j in range(1, sys.n + 1):
            expected[j] = expected[j] + weight_wj(sys, j, p)
    xs = all_big_x(sys)
    assert xs == expected
    assert [render_scalar(x) for x in xs] == [render_scalar(x) for x in expected]
    assert all(type(x) is type(sys.zero) for x in xs)
    assert xs[0] == cofactor_det(sys)
    if sys.mode == "rational":
        assert xs[0] == bareiss_det(sys)


@pytest.mark.parametrize("n", range(7, 11))
def test_big_x_is_bareiss_with_b_in_column_j_beyond_s_6(n):
    # the sizes the S_n property test above cannot reach: X_j is det(A) with
    # column j replaced by b, and Bareiss elimination computes it directly
    rng = random.Random(700 + n)
    for sys in (random_int_system(rng, n), random_fraction_system(rng, n)):
        xs = all_big_x(sys, max_n=n)
        for j in range(n + 1):
            cols = [list(col) for col in zip(*sys.entries)]
            if j:
                cols[j - 1] = list(sys.rhs)
            expected = bareiss_det(rational_system(list(zip(*cols)), sys.rhs))
            assert big_x(sys, j, max_n=n) == xs[j] == expected


@pytest.mark.parametrize("n", [11, 12])
def test_big_x_is_bareiss_where_signed_indices_reach_2n_minus_1(n):
    # the free-row table stores a negated entry's index r + n in one byte;
    # at n = 12 the indices reach 23
    rng = random.Random(1100 + n)
    sys = random_int_system(rng, n)
    xs = all_big_x(sys, max_n=n)
    for j in range(n + 1):
        cols = [list(col) for col in zip(*sys.entries)]
        if j:
            cols[j - 1] = list(sys.rhs)
        assert xs[j] == bareiss_det(rational_system(list(zip(*cols)), sys.rhs))


@pytest.mark.parametrize("n", range(1, 11))
def test_free_rows_table_is_its_definition(n):
    # free[used]: the rows not in used, from row n - 1 down, each as r, or as
    # r + n (the negated entry) when an odd number of used rows have a larger
    # index than r
    free = cramer._free_rows(n)
    assert len(free) == 1 << n
    for used in range(1 << n):
        expected = [
            r + n * ((used >> (r + 1)).bit_count() & 1)
            for r in reversed(range(n))
            if not used >> r & 1
        ]
        assert type(free[used]) is bytes and list(free[used]) == expected


def test_kernel_sums_integers_and_shares_prefixes(monkeypatch):
    # the rational kernel multiplies ints only (rows scaled by the lcm of
    # their denominators), and all n + 1 sums share their column sweeps:
    # n forward steps for X_0, one head step per X_j and n - 1 backward
    # steps for the tails, 11 at n = 4, not (n+1)*n; any one X_j takes n
    extend = cramer._extend
    steps = []

    def checked(partial, col):
        grown = extend(partial, col)
        steps.append({type(x) for x in (*partial.values(), *col, *grown.values())})
        return grown

    monkeypatch.setattr(cramer, "_extend", checked)
    sys = rational_system([["1/2", "2/3"], ["-3/4", "5/7"]], ["1/6", "-4/5"])
    assert solve(sys).quotients == (Fraction(137, 180), Fraction(-77, 240))
    assert steps and all(kinds == {int} for kinds in steps)
    steps.clear()
    sys = random_fraction_system(random.Random(17), 4)
    all_big_x(sys)
    assert len(steps) == 4 + 4 + 3
    assert all(kinds == {int} for kinds in steps)
    for j in range(5):
        steps.clear()
        big_x(sys, j)
        assert len(steps) == 4
        assert all(kinds == {int} for kinds in steps)


# -- solving -------------------------------------------------------------------


def test_solve_2x2():
    sys = rational_system([[1, 1], [1, -1]], [3, 1])
    sol = solve(sys)
    assert sol.quotients == (Fraction(2), Fraction(1))
    assert sol.numerators == (Fraction(-4), Fraction(-2))
    assert sol.denominator == Fraction(-2)


def test_solve_1x1():
    sol = solve(rational_system([[5]], [5]))
    assert sol.quotients == (Fraction(1),)


def test_solve_singular():
    # a zero X_0 is refused in both modes, with one message
    p, q = poly((1, mono(A(1, 1)))), poly((1, mono(B(1))))
    for sys in (
        rational_system([[1, 1], [1, 1]], [1, 2]),
        LinearSystem(((p, p), (p, p)), (q, q)),
    ):
        with pytest.raises(SingularSystemError, match=r"^singular system: X_0 = 0$"):
            solve(sys)


def test_solve_quotient_times_denominator():
    rng = random.Random(7)
    for n in range(1, 5):
        sys = random_fraction_system(rng, n)
        try:
            sol = solve(sys)
        except SingularSystemError:
            continue
        for xj, q in zip(sol.numerators, sol.quotients):
            assert q * sol.denominator == xj


def test_solve_residuals_exact():
    rng = random.Random(13)
    checked = 0
    while checked < 10:
        sys = random_fraction_system(rng, 3)
        try:
            sol = solve(sys)
        except SingularSystemError:
            continue
        checked += 1
        for i in range(1, 4):
            lhs = sum(
                sys.entry(i, j) * sol.quotients[j - 1] for j in range(1, 4)
            )
            assert lhs == sys.rhs_entry(i)


def test_solve_raises_the_exported_residual_error(monkeypatch):
    leibniz = cramer._leibniz

    def corrupt_x1(sys, every_j):
        xs = leibniz(sys, every_j)
        return [xs[0], xs[1] + 1, *xs[2:]] if every_j else xs

    monkeypatch.setattr(cramer, "_leibniz", corrupt_x1)
    with pytest.raises(ResidualError, match="residual"):
        solve(rational_system([[1, 1], [1, -1]], [3, 1]))
    assert "ResidualError" in cramerkit.__all__


@pytest.mark.parametrize("fault", SOLVE_FAULTS, ids=lambda f: f.__name__)
def test_solve_postcondition_catches_each_fault(monkeypatch, fault):
    # a scaling fault in _ring_rows, X_0 off by one, and one quotient built
    # wrong while every X_j is right
    sys = rational_system(SOLVE_FAULT_ROWS, SOLVE_FAULT_RHS)
    assert solve(sys).quotients == (2, 1)
    fault(monkeypatch)
    with pytest.raises(ResidualError, match="residual"):
        solve(sys)


def _fraction_residual(sys, xs):
    # solve's postcondition as first written: put the Fraction quotients
    # X_j / X_0 into every equation
    if xs[0] == 0:
        return "singular"
    quotients = [x / xs[0] for x in xs[1:]]
    holds = all(
        sum(a * x for a, x in zip(row, quotients)) == b for row, b in zip(sys.entries, sys.rhs)
    )
    return "accept" if holds else "reject"


_shifts = st.builds(
    Fraction,
    st.integers(-10**6, 10**6).filter(bool),
    st.one_of(st.integers(1, 12), st.sampled_from(_PRIMES)),
)


@settings(max_examples=150)
@given(st.one_of(_int_systems, _frac_systems, _large_denominator_systems()), st.data())
def test_integer_postcondition_is_the_fraction_residual(sys, data):
    # the integer row identity and quotient check accept exactly the
    # candidates [X_0, ..., X_n] whose Fraction residual is zero: the true
    # sums, with X_0 negative about half the time, and the same sums with
    # one X_j shifted
    xs = all_big_x(sys)
    if xs[0] > 0 and data.draw(st.booleans(), label="negate row 1"):
        sys = LinearSystem(
            (tuple(-a for a in sys.entries[0]), *sys.entries[1:]),
            (-sys.rhs[0], *sys.rhs[1:]),
        )
        xs = all_big_x(sys)
    j = data.draw(st.integers(0, sys.n), label="j")
    shifted = [*xs[:j], xs[j] + data.draw(_shifts, label="shift"), *xs[j + 1 :]]
    for candidate in xs, shifted:
        try:
            quotients = cramer._checked_quotients(sys, candidate)
        except SingularSystemError:
            outcome = "singular"
        except ResidualError as exc:
            assert "residual" in str(exc)
            outcome = "reject"
        else:
            outcome = "accept"
            assert quotients == tuple(x / candidate[0] for x in candidate[1:])
        assert outcome == _fraction_residual(sys, candidate)
    assert _fraction_residual(sys, xs) == ("accept" if xs[0] else "singular")


def test_solve_symbolic_returns_unreduced_pairs():
    gs = generic_system(2)
    sol = solve(gs)
    x0 = big_x(gs, 0)
    assert sol.denominator == x0
    for j, (num, den) in enumerate(sol.quotients, start=1):
        assert den == x0
        assert num == big_x(gs, j)


def test_solve_guard_override():
    sys = random_int_system(random.Random(3), 4)
    with pytest.raises(SizeLimitError):
        solve(sys, max_n=3)
    solve(sys, max_n=4)


# -- row identities ------------------------------------------------------------


def test_verify_identity_generic_small():
    for n in (1, 2, 3):
        gs = generic_system(n)
        for i in range(1, n + 1):
            report = verify_identity(gs, i)
            assert report.ok
            assert report.lhs == report.rhs


def test_verify_identity_numeric():
    sys = rational_system([[1, 1], [1, -1]], [3, 1])
    assert verify_identity(sys, 1).ok
    # the identity holds even for singular numeric systems
    sing = rational_system([[1, 1], [1, 1]], [1, 2])
    assert verify_identity(sing, 2).ok


def test_verify_identity_range():
    gs = generic_system(2)
    with pytest.raises(ValueError):
        verify_identity(gs, 0)
    with pytest.raises(ValueError):
        verify_identity(gs, 3)


# -- symbolic/numeric coherence ------------------------------------------------


def test_symbolic_sums_evaluate_to_numeric_sums():
    rng = random.Random(29)
    for n in range(1, 5):
        gs = generic_system(n)
        assignment = {}
        rows = [[None] * n for _ in range(n)]
        rhs = [None] * n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                value = random_fraction(rng)
                assignment[a_symbol(i, j)] = value
                rows[i - 1][j - 1] = value
            value = random_fraction(rng)
            assignment[b_symbol(i)] = value
            rhs[i - 1] = value
        num = rational_system(rows, rhs)
        for j in range(n + 1):
            assert big_x(gs, j).evaluate(assignment) == big_x(num, j)


# -- system validation ---------------------------------------------------------


def test_linear_system_validation():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        LinearSystem(((half,), (half,)), (half,))  # not square
    with pytest.raises(ValueError):
        LinearSystem(((half,),), (half, half))  # rhs length
    with pytest.raises(ValueError):
        LinearSystem(
            ((Polynomial.constant(1),),), (half,)
        )  # mixed modes
    with pytest.raises(ValueError):
        LinearSystem((), ())  # empty


def test_rational_system_coerces_strings():
    sys = rational_system([["1/2", 2], [3, "4"]], ["-5/10", 0])
    assert sys.entry(1, 1) == Fraction(1, 2)
    assert sys.rhs_entry(1) == Fraction(-1, 2)
    assert sys.mode == "rational"


@pytest.mark.parametrize(
    "rows, rhs, bad",
    [
        ([[0.1, 1], [1, 2]], [1, 1], "0.1"),
        ([[1, True], [1, 2]], [1, 1], "True"),
        ([[1, 0], [0, 1]], [0.3, 1], "0.3"),
        ([[1, 0], [0, 1]], [1, False], "False"),
        ([[1, 0], [0, 1]], [1, None], "None"),
    ],
)
def test_rational_system_rejects_inexact_entries(rows, rhs, bad):
    # Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction(True)
    # is 1; neither is an exact rational the caller wrote
    with pytest.raises(TypeError, match=f"got {bad}$"):
        rational_system(rows, rhs)
