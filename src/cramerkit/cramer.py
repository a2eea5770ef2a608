"""Exact linear solving by signed permutation sums.

For an n x n system with entries a[i,j] and right-hand side b[i], each
permutation pi of {1..n} gets n+1 weights:

* ``weight_w0``: sign(pi) times the product over columns k of the entry in
  row pi_k, column k.
* ``weight_wj`` (1 <= j <= n): the same signed product with the column-j
  factor replaced by b[pi_j].

Summing a weight over all of S_n gives X_j; the solution of the system is
the quotient sequence x_j = X_j / X_0.  Everything is computed by streaming
the lexicographic enumeration with an accumulator -- no table of weights is
ever materialized, and exact arithmetic makes the result independent of
summation order.

Systems come in two modes: "rational" (Fraction entries) and "symbolic"
(polynomial entries; the generic system assigns entry (i,j) the symbol
a[i,j] and right-hand side i the symbol b[i]).

Note the indexing convention: the w0 sum multiplies entries at (row pi_k,
column k), which is the Leibniz expansion of the transposed matrix.  Since
determinants are transpose-invariant this equals det(A); see oracle.py for
the cross-check against the usual orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .algebra import Polynomial, Scalar, a_symbol, b_symbol, render_scalar
from .perm import MAX_N_DEFAULT, Permutation, iter_signed_values, sign

RATIONAL = "rational"
SYMBOLIC = "symbolic"


class SingularSystemError(ArithmeticError):
    """Numeric solve hit X_0 = 0; the quotient solution does not exist."""


@dataclass(frozen=True)
class LinearSystem:
    """An n x n system: coefficient rows plus right-hand side, one mode.

    ``entries[i][j]`` is the coefficient of unknown j+1 in equation i+1;
    accessors below speak 1-based like the rest of the package.
    """

    entries: tuple[tuple[Scalar, ...], ...]
    rhs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n < 1:
            raise ValueError("system needs at least one equation")
        if any(len(row) != n for row in self.entries):
            raise ValueError("coefficient matrix must be square")
        if len(self.rhs) != n:
            raise ValueError(f"right-hand side must have {n} entries")
        kinds = {type(x) for row in self.entries for x in row}
        kinds |= {type(x) for x in self.rhs}
        if not (kinds <= {Fraction} or kinds <= {Polynomial}):
            raise ValueError("entries must be all Fraction or all Polynomial")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def mode(self) -> str:
        return RATIONAL if isinstance(self.rhs[0], Fraction) else SYMBOLIC

    @property
    def zero(self) -> Scalar:
        """The additive identity of the mode: where every sum starts."""
        return Fraction(0) if self.mode == RATIONAL else Polynomial.zero()

    def entry(self, i: int, j: int) -> Scalar:
        """Coefficient in row i, column j (1-based)."""
        return self.entries[i - 1][j - 1]

    def rhs_entry(self, i: int) -> Scalar:
        return self.rhs[i - 1]


def rational_system(
    rows: Sequence[Sequence[Union[int, str, Fraction]]],
    rhs: Sequence[Union[int, str, Fraction]],
) -> LinearSystem:
    """Build a numeric system, coercing ints / "p/q" strings to Fractions."""
    return LinearSystem(
        tuple(tuple(Fraction(x) for x in row) for row in rows),
        tuple(Fraction(x) for x in rhs),
    )


def generic_system(n: int) -> LinearSystem:
    """The fully symbolic system: entry (i,j) = a[i,j], rhs i = b[i]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return LinearSystem(
        tuple(
            tuple(Polynomial.from_symbol(a_symbol(i, j)) for j in range(1, n + 1))
            for i in range(1, n + 1)
        ),
        tuple(Polynomial.from_symbol(b_symbol(i)) for i in range(1, n + 1)),
    )


@dataclass(frozen=True)
class Solution:
    """Numerators X_1..X_n, the common denominator X_0, and the quotients.

    Rational mode: quotients are reduced Fractions with x_j * X_0 = X_j
    exactly.  Symbolic mode: quotients are the unreduced (X_j, X_0) pairs;
    polynomial division is deliberately out of scope.
    """

    numerators: tuple[Scalar, ...]
    denominator: Scalar
    quotients: tuple


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking row identity i: sum_j a[i,j] X_j = b[i] X_0."""

    i: int
    ok: bool
    lhs: str
    rhs: str


def weight_w0(sys: LinearSystem, p: Permutation) -> Scalar:
    """Signed product of entries at (row pi_k, column k) over all columns."""
    if p.n != sys.n:
        raise ValueError(f"permutation size {p.n} != system size {sys.n}")
    return _weight(sys, p.values, sign(p))


def weight_wj(sys: LinearSystem, j: int, p: Permutation) -> Scalar:
    """Like weight_w0, but the column-j factor is replaced by b[pi_j]."""
    if p.n != sys.n:
        raise ValueError(f"permutation size {p.n} != system size {sys.n}")
    if not 1 <= j <= sys.n:
        raise ValueError(f"j={j} outside 1..{sys.n}")
    return _weight(sys, p.values, sign(p), j)


def big_x(sys: LinearSystem, j: int, max_n: int = MAX_N_DEFAULT) -> Scalar:
    """X_j: the w_j weight summed over all of S_n (j = 0 sums w_0)."""
    if not 0 <= j <= sys.n:
        raise ValueError(f"j={j} outside 0..{sys.n}")
    total = sys.zero
    for values, sgn in iter_signed_values(sys.n, max_n=max_n):
        total = total + _weight(sys, values, sgn, j)
    return total


def solve(sys: LinearSystem, max_n: int = MAX_N_DEFAULT) -> Solution:
    """Solve the system as the quotients x_j = X_j / X_0.

    Rational mode raises SingularSystemError when X_0 = 0, and checks every
    equation's residual exactly before returning (the quotient property is
    enforced as a postcondition, not assumed).  Symbolic mode returns the
    (X_j, X_0) pairs; a generic X_0 is never zero.
    """
    xs = all_big_x(sys, max_n=max_n)
    x0 = xs[0]
    numerators = tuple(xs[1:])
    if sys.mode == SYMBOLIC:
        return Solution(numerators, x0, tuple((xj, x0) for xj in numerators))
    if x0 == 0:
        raise SingularSystemError("singular system: X_0 = 0")
    quotients = tuple(xj / x0 for xj in numerators)
    for i in range(1, sys.n + 1):
        residual = sum(
            sys.entry(i, j) * quotients[j - 1] for j in range(1, sys.n + 1)
        ) - sys.rhs_entry(i)
        if residual != 0:
            raise RuntimeError(
                f"internal error: nonzero residual in equation {i}"
            )
    return Solution(numerators, x0, quotients)


def all_big_x(sys: LinearSystem, max_n: int = MAX_N_DEFAULT) -> list[Scalar]:
    """[X_0, X_1, ..., X_n] in a single streaming pass over S_n.

    Shares the per-permutation entry products between the n+1 sums through
    prefix/suffix products, so one pass costs O(n) scalar multiplications
    per permutation instead of O(n^2).  Values are identical to calling
    :func:`big_x` n+1 times (exact arithmetic, same enumeration).  Each sum
    has n! >= 1 terms of the system's scalar type, so no int 0 survives.
    """
    if sys.mode == RATIONAL:
        grid = _integer_grid(sys)
        if grid is not None:
            rows, rhs = grid
            return [
                Fraction(x) for x in _all_big_x_kernel(sys.n, rows, rhs, max_n)
            ]
    return _all_big_x_kernel(sys.n, sys.entries, sys.rhs, max_n)


def verify_identity(
    sys: LinearSystem, i: int, max_n: int = MAX_N_DEFAULT
) -> IdentityReport:
    """Check row identity i, sum_j a[i,j] X_j = b[i] X_0, exactly.

    In symbolic mode this is a strict polynomial identity; in rational mode
    both sides are Fractions.  The report carries canonical renderings of
    both sides.
    """
    if not 1 <= i <= sys.n:
        raise ValueError(f"i={i} outside 1..{sys.n}")
    xs = all_big_x(sys, max_n=max_n)
    lhs = sys.zero
    for j in range(1, sys.n + 1):
        lhs = lhs + sys.entry(i, j) * xs[j]
    rhs = sys.rhs_entry(i) * xs[0]
    return IdentityReport(
        i=i, ok=(lhs == rhs), lhs=render_scalar(lhs), rhs=render_scalar(rhs)
    )


def _weight(sys: LinearSystem, values: tuple[int, ...], sgn: int, j: int = 0) -> Scalar:
    # w_j of the permutation with these values and sign; j = 0 gives w_0.
    # The one product routine behind weight_w0/wj, big_x and the F_n walk.
    prod = sys.rhs[values[j - 1] - 1] if j else 1
    for k, row in enumerate(values):
        if k != j - 1:
            prod = prod * sys.entries[row - 1][k]
    return prod if sgn > 0 else -prod


def _all_big_x_kernel(n, rows, rhs, max_n):
    # One lexicographic pass; works for any scalars with +, -, * (ints,
    # Fractions, Polynomials).  pre[k] / suf[k] are the products of the
    # entry factors strictly before / from position k, so dropping the
    # factor at position j costs two multiplications.
    xs = [0] * (n + 1)
    pre = [1] * (n + 1)
    suf = [1] * (n + 1)
    factors = [0] * n
    rng = range(n)
    for values, sgn in iter_signed_values(n, max_n=max_n):
        for k in rng:
            factors[k] = rows[values[k] - 1][k]
        acc = 1
        for k in rng:
            acc = acc * factors[k]
            pre[k + 1] = acc
        acc = 1
        for k in range(n - 1, -1, -1):
            acc = factors[k] * acc
            suf[k] = acc
        if sgn > 0:
            xs[0] = xs[0] + pre[n]
            for j in rng:
                xs[j + 1] = xs[j + 1] + rhs[values[j] - 1] * pre[j] * suf[j + 1]
        else:
            xs[0] = xs[0] - pre[n]
            for j in rng:
                xs[j + 1] = xs[j + 1] - rhs[values[j] - 1] * pre[j] * suf[j + 1]
    return xs


def _integer_grid(sys):
    # int fast path: exact same sums, minus Fraction overhead
    if any(x.denominator != 1 for row in (*sys.entries, sys.rhs) for x in row):
        return None
    rows = [[x.numerator for x in row] for row in sys.entries]
    return rows, [x.numerator for x in sys.rhs]
