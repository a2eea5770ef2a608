"""Exact linear solving by signed permutation sums.

For an n x n system with entries a[i,j] and right-hand side b[i], each
permutation pi of {1..n} gets n+1 weights:

* ``weight_w0``: sign(pi) times the product over columns k of the entry in
  row pi_k, column k.
* ``weight_wj`` (1 <= j <= n): the same signed product with the column-j
  factor replaced by b[pi_j].

Summing a weight over all of S_n gives X_j; the solution of the system is
the quotient sequence x_j = X_j / X_0.  X_j, the determinant of A with
column j replaced by b, is the X_0 of that system.  :func:`_leibniz` adds
the same signed products grouped by the set of rows that fill a run of
columns (Laplace expansion with memoization); exact arithmetic makes the
sum independent of that grouping.  X_0 is one forward sweep of a column
step over columns 1..n.  The forward prefix over columns 1..j-1 extended
by b is the head of X_j, and a backward tail over columns j+1..n holds
the other rows: X_j = (-1)^(j(n-j)) sum_M head[M] * tail[rest], with the
row signs of the split carried by the tails' entries (row r's times
(-1)^r) and (-1)^(j(n-j)) by b's.  Every X_j at once visits each mask
size once: one fused pass over the masks of size k grows the prefix by
column k+1, X_{k+1}'s head by b and the tail by column n-k, and the last
size grows only the prefix and X_n's head.  That is O(n 2^n)
multiplications for all n+1 sums, where summing each separately takes
O(n n!).  Each partial sum lives in a list of 2^n slots indexed by the
bitmask of the rows used, None in a slot not filled.  A head or tail is
freed as soon as its partner exists and X_j is joined, so about n/2 heads
and n/2 tails wait at once; X_0 alone builds neither.  A step visits the
masks of one size, which ``_by_size(n)`` lists once per size, and only
each mask's free rows, which ``_free_rows(n)`` lists with each row's sign
folded into its index: n 2^(n-1) bytes of indices, about 3.2 MB at n = 16.
A rational system is summed over Python ints: each row of [A | b] is
scaled by the lcm of its denominators, which scales every X_j by the same
product D, and each sum is divided by D once at the end.  The F_n checker
in involution.py still streams S_n one permutation at a time.

Systems come in two modes: "rational" (Fraction entries) and "symbolic"
(polynomial entries; the generic system assigns entry (i,j) the symbol
a[i,j] and right-hand side i the symbol b[i]).

Note the indexing convention: the w0 sum multiplies entries at (row pi_k,
column k), which is the Leibniz expansion of the transposed matrix.  Since
determinants are transpose-invariant this equals det(A); see oracle.py for
the cross-check against the usual orientation.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache, reduce
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .algebra import Polynomial, Scalar, _sum, a_symbol, b_symbol, render_scalar
from .perm import MAX_N_DEFAULT, Permutation, _check_guard, sign

RATIONAL = "rational"
SYMBOLIC = "symbolic"


class SingularSystemError(ArithmeticError):
    """Solve hit X_0 = 0; the quotient solution does not exist."""


class ResidualError(RuntimeError):
    """A numeric solution failed its exact residual check (an internal fault)."""


class LinearSystem(NamedTuple("LinearSystem", [("entries", tuple), ("rhs", tuple)])):
    """An n x n system: coefficient rows plus right-hand side, one mode.

    ``entries[i][j]`` is the coefficient of unknown j+1 in equation i+1;
    accessors below speak 1-based like the rest of the package.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple, rhs: tuple) -> "LinearSystem":
        n = len(entries)
        if n < 1:
            raise ValueError("system needs at least one equation")
        if any(len(row) != n for row in entries):
            raise ValueError("coefficient matrix must be square")
        if len(rhs) != n:
            raise ValueError(f"right-hand side must have {n} entries")
        kinds = {type(x) for row in (*entries, rhs) for x in row}
        if not (kinds <= {Fraction} or kinds <= {Polynomial}):
            raise ValueError("entries must be all Fraction or all Polynomial")
        return super().__new__(cls, entries, rhs)

    @classmethod
    def _make(cls, iterable: Iterable) -> "LinearSystem":
        return cls(*iterable)  # the tuple's own _make, and _replace, skip __new__

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
    """Build a numeric system, coercing ints / "p/q" strings to Fractions.

    This is the one reader of exact rationals: the CLI builds a document's
    system with it too.  Any other entry, a float or a bool among them,
    raises ``TypeError``: ``Fraction(0.1)`` would keep the float's binary
    value, not 1/10.  A string must be an optionally signed integer or
    ``p/q`` of such digits; any other, ``"0.5"`` or ``"1e3"`` say, raises
    ``ValueError``, as do a zero denominator (``"1/0"``) and more digits
    than ``int()`` converts.
    """
    return LinearSystem(
        tuple(tuple(_exact(x) for x in row) for row in rows),
        tuple(_exact(x) for x in rhs),
    )


#: An exact rational string: optional sign, digits, optional "/" digits.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _exact(x: Union[int, str, Fraction]) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
        raise TypeError(
            f"rational entries must be strings, integers or Fractions, got {x!r}"
        )
    if isinstance(x, str) and not _RATIONAL_RE.fullmatch(x):
        raise ValueError(f"not an exact rational string: {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    except ValueError as exc:  # a string of more digits than int() converts
        raise ValueError(f"rational string too long: {exc}") from None


@cache
def generic_system(n: int) -> LinearSystem:
    """The fully symbolic system: entry (i,j) = a[i,j], rhs i = b[i]; one per n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return LinearSystem(
        tuple(
            tuple(Polynomial.from_symbol(a_symbol(i, j)) for j in range(1, n + 1))
            for i in range(1, n + 1)
        ),
        tuple(Polynomial.from_symbol(b_symbol(i)) for i in range(1, n + 1)),
    )


class Solution(NamedTuple):
    """Numerators X_1..X_n, the common denominator X_0, and the quotients.

    Rational mode: quotients are reduced Fractions with x_j * X_0 = X_j
    exactly.  Symbolic mode: quotients are the unreduced (X_j, X_0) pairs;
    polynomial division is deliberately out of scope.
    """

    numerators: tuple[Scalar, ...]
    denominator: Scalar
    quotients: tuple


class IdentityReport(NamedTuple):
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
    """X_j: the w_j weight summed over all of S_n (j = 0 sums w_0).

    For j >= 1 this is Cramer's definition: the X_0 of the system with
    column j of A replaced by b.  The sum holds the system's scalar type
    (Fraction or Polynomial), also when it is zero.
    """
    if type(j) is not int:  # a bool or a float is no column
        raise ValueError(f"j={j!r} is not an integer")
    if not 0 <= j <= sys.n:
        raise ValueError(f"j={j} outside 0..{sys.n}")
    _check_guard(sys.n, max_n)
    if j:
        rows = tuple((*row[: j - 1], b, *row[j:]) for row, b in zip(sys.entries, sys.rhs))
        sys = LinearSystem(rows, sys.rhs)
    return _leibniz(sys, False)[0]


def solve(sys: LinearSystem, max_n: int = MAX_N_DEFAULT) -> Solution:
    """Solve the system as the quotients x_j = X_j / X_0.

    Both modes raise SingularSystemError when X_0 = 0.  Rational mode checks
    every equation exactly before returning (the quotient property is
    enforced as a postcondition, not assumed; see
    :func:`_checked_quotients`).  Symbolic mode returns the (X_j, X_0)
    pairs; a generic X_0 is never zero.

    >>> sol = solve(rational_system([["1/2", "1/3"], ["1/4", "-1/5"]], ["1", "1/6"]))
    >>> sol.quotients
    (Fraction(46, 33), Fraction(10, 11))
    >>> sol.denominator
    Fraction(-11, 60)
    """
    xs = all_big_x(sys, max_n=max_n)
    x0 = xs[0]
    if x0 == 0:
        raise SingularSystemError("singular system: X_0 = 0")
    numerators = tuple(xs[1:])
    if sys.mode == SYMBOLIC:
        return Solution(numerators, x0, tuple((xj, x0) for xj in numerators))
    return Solution(numerators, x0, _checked_quotients(sys, xs))


def _checked_quotients(sys: LinearSystem, xs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The quotients X_j / X_0 of a rational system, checked to solve it.

    Raises SingularSystemError when X_0 = 0, and ResidualError when some
    equation sum_j a[i,j] x_j = b[i] fails.  The check runs over ints: with
    L the lcm of the denominators of X_0..X_n, Y_j = L X_j is an int and
    Y_j / Y_0 = X_j / X_0, so equation i holds exactly when
    sum_j (m_i a[i,j]) Y_j = (m_i b[i]) Y_0, where m_i, the lcm of row i's
    denominators (b[i]'s included), makes every factor an int.  The rows are
    scaled here, from the system itself, not taken from the kernel's
    ``_ring_rows``: a scaling fault there changes the system the kernel
    solves, and a check over the same rows would pass it.  Each quotient is
    built once, as Fraction(Y_j, Y_0), and checked against Y_j:
    x_j.numerator * Y_0 = Y_j * x_j.denominator.  The two checks together
    hold exactly when every Fraction residual sum_j a[i,j] x_j - b[i] of the
    returned quotients is zero; no Fraction is multiplied or added.
    """
    if xs[0] == 0:
        raise SingularSystemError("singular system: X_0 = 0")
    scale = math.lcm(*(x.denominator for x in xs))
    y0, *ys = [x.numerator * (scale // x.denominator) for x in xs]
    weights = (*ys, -y0)  # [A | b] row times these is sum_j a[i,j] Y_j - b[i] Y_0
    for i, (row, b) in enumerate(zip(sys.entries, sys.rhs), start=1):
        row = (*row, b)
        m = math.lcm(*(x.denominator for x in row))
        if sum(x.numerator * (m // x.denominator) * y for x, y in zip(row, weights)):
            raise ResidualError(f"internal error: nonzero residual in equation {i}")
    quotients = tuple(Fraction(y, y0) for y in ys)
    for j, (x, y) in enumerate(zip(quotients, ys), start=1):
        if x.numerator * y0 != y * x.denominator:
            raise ResidualError(f"internal error: nonzero residual x{j} * X_0 - X_{j}")
    return quotients


def all_big_x(sys: LinearSystem, max_n: int = MAX_N_DEFAULT) -> list[Scalar]:
    """[X_0, X_1, ..., X_n], each equal to :func:`big_x`'s, from one shared sweep."""
    _check_guard(sys.n, max_n)
    return _leibniz(sys, True)


def verify_identity(
    sys: LinearSystem, i: int, max_n: int = MAX_N_DEFAULT
) -> IdentityReport:
    """Check row identity i, sum_j a[i,j] X_j = b[i] X_0, exactly.

    In symbolic mode this is a strict polynomial identity; in rational mode
    both sides are Fractions.  The report carries canonical renderings of
    both sides.  Equal sides have the same canonical text, so a passing
    row renders one side only.
    """
    if not 1 <= i <= sys.n:
        raise ValueError(f"i={i} outside 1..{sys.n}")
    lhs, rhs = _identity_sides(sys, i, all_big_x(sys, max_n=max_n))
    ok = lhs == rhs
    text = render_scalar(lhs)
    return IdentityReport(i, ok, text, text if ok else render_scalar(rhs))


def _identity_sides(
    sys: LinearSystem, i: int, xs: Sequence[Scalar]
) -> tuple[Scalar, Scalar]:
    # both sides of row identity i against precomputed [X_0, ..., X_n]
    lhs = _sum((sys.entry(i, j) * xs[j] for j in range(1, sys.n + 1)), sys.zero)
    return lhs, sys.rhs_entry(i) * xs[0]


def _weight(sys: LinearSystem, values: tuple[int, ...], sgn: int, j: int = 0) -> Scalar:
    # w_j of the permutation with these values and sign; j = 0 gives w_0.
    # The one product routine, behind weight_w0/wj; the F_n walk forms its
    # weights as monomial keys, and the certificate auditor writes their
    # texts with involution._weight_text, so neither calls it.
    factors = [sys.entries[row - 1][k] for k, row in enumerate(values)]
    if j:
        factors[j - 1] = sys.rhs[values[j - 1] - 1]
    prod = reduce(mul, factors)
    return prod if sgn > 0 else -prod


def _leibniz(sys: LinearSystem, every_j: bool) -> list[Scalar]:
    # [X_0], or [X_0, X_1, ..., X_n] with every_j: the sums over S_n of
    # sign(pi) * prod_k cols[k][pi_k], where X_0 takes the columns of A and
    # X_j puts b in column j.  prefix fills columns 1..k in order; tail fills
    # the last k columns from column n down, so its sign counts the C(k, 2) -
    # inv pairs of them that are not inversions, and row r's entries there
    # carry (-1)^r (rows 0-based).  X_j is the Laplace join of its head (the
    # prefix over columns 1..j-1, then b) on rows M with the tail over the
    # last n - j columns on the other rows: (-1)^(j(n-j)) sum_M head[M] *
    # tail[rest].  The split adds sum(M) - C(j, 2) inversions and the row
    # signs give sum(M) + C(n, 2); C(j, 2) + C(n - j, 2) + C(n, 2) = j(n - j)
    # (mod 2), so b's entries in X_j's head carry (-1)^(j(n-j)) and no term a
    # sign.  prefix, tail and each head are lists of 2^n slots indexed by
    # used-row mask, filled at the masks with as many bits as columns filled.
    # Each mask size k is visited once: below k = n - 1 one fused step grows
    # the prefix by column k+1, X_{k+1}'s head by b and the tail by column
    # n-k; at k = n - 1 only the prefix and X_n's head grow, since a tail
    # over all n columns would be X_0 again.  X_j is joined, and its head
    # and tail freed, as soon as both exist: at step max(j - 1, n - j - 1).
    rows, zero, unscale = _ring_rows(sys)
    *cols, rhs = zip(*rows)
    n = sys.n
    full = (1 << n) - 1
    masks = _by_size(n)
    unit = [1] + [None] * full  # no column filled, no row used
    prefix = unit  # columns 1..k of A
    if not every_j:
        for k in range(n):
            prefix = _extend(prefix, cols[k], masks[k])
        return [unscale(prefix[full])]
    neg_rhs = [-x for x in rhs]
    tail = unit  # columns n-k+1..n of A, filled from column n
    heads, tails = {}, {n: unit}  # by j: X_j's head, and its tail
    xs = [None] * (n + 1)  # X_0, ..., X_n, each set once
    for k in range(n):
        j = k + 1
        b = (rhs, neg_rhs)[j * (n - j) & 1]
        if j < n:
            col = [-x if r & 1 else x for r, x in enumerate(cols[n - j])]
            prefix, heads[j], tail = _fused_extend(prefix, tail, cols[k], b, col, masks[k])
            tails[n - j] = tail
        else:
            del tail  # tails keeps it until X_1's join; not held through the costliest step
            heads[j] = _extend(prefix, b, masks[k])
            prefix = _extend(prefix, cols[k], masks[k])
        for j in heads.keys() & tails.keys():
            head, rest = heads.pop(j), tails.pop(j)
            xs[j] = _sum((head[used] * rest[full ^ used] for used in masks[j]), zero)
            del head, rest  # not held through the next step
    xs[0] = prefix[full]
    return [unscale(x) for x in xs]


def _ring_rows(sys: LinearSystem) -> tuple[list[tuple], Scalar, Callable[[Scalar], Scalar]]:
    # The rows of [A | b] over a ring that needs no division, its zero, and
    # the map from a sum over those rows back to X_j.  A rational row is
    # scaled by the lcm of its denominators, so its entries are ints; scaling
    # row i by m_i scales every X_j by the product D of the m_i, whichever
    # column holds b, and one division by D at the end restores it.
    # Polynomial rows already have integer coefficients and pass through.
    rows = [(*row, b) for row, b in zip(sys.entries, sys.rhs)]
    if sys.mode == SYMBOLIC:
        return rows, Polynomial.zero(), lambda x: x
    d = 1
    for i, row in enumerate(rows):
        m = math.lcm(*(x.denominator for x in row))
        rows[i] = tuple(x.numerator * (m // x.denominator) for x in row)
        d *= m
    return rows, 0, lambda x: Fraction(x, d)


def _extend(partial: list, col: Sequence[Scalar], masks: Sequence[int]) -> list:
    # One column step: partial[used] holds the signed sum of the products
    # of the columns filled so far on the rows of the bitmask used, for each
    # used in masks, and None in every other slot; put each free row in the
    # next column.  That adds one inversion per used row above it, and an
    # odd count takes the negated entry: _free_rows lists each mask's free
    # rows with that parity folded into an index of signed.  A slot's first
    # product is stored as it is, since 0 + p copies a polynomial.
    n = len(col)
    free = _free_rows(n)
    bits = [1 << r for r in range(n)] * 2  # row r's mask bit, at index r and r + n
    signed = [*col, *(-x for x in col)]
    grown = [None] * (1 << n)
    for used in masks:
        acc = partial[used]
        for r in free[used]:
            key = used | bits[r]
            term = acc * signed[r]
            old = grown[key]
            grown[key] = term if old is None else old + term
    return grown


def _fused_extend(
    prefix: list,
    tail: list,
    col: Sequence[Scalar],
    rhs: Sequence[Scalar],
    tail_col: Sequence[Scalar],
    masks: Sequence[int],
) -> tuple[list, list, list]:
    # Three column steps in one pass over the same masks: _extend(prefix,
    # col), _extend(prefix, rhs) and _extend(tail, tail_col), with the same
    # products, each slot's in the same order.  The three grown lists are
    # first touched at the same key, so one None check serves all three.
    n = len(col)
    free = _free_rows(n)
    bits = [1 << r for r in range(n)] * 2
    signed = [*col, *(-x for x in col)]
    signed_rhs = [*rhs, *(-x for x in rhs)]
    signed_tail = [*tail_col, *(-x for x in tail_col)]
    grown, head, grown_tail = [None] * (1 << n), [None] * (1 << n), [None] * (1 << n)
    for used in masks:
        acc = prefix[used]
        acc_tail = tail[used]
        for r in free[used]:
            key = used | bits[r]
            old = grown[key]
            if old is None:
                grown[key] = acc * signed[r]
                head[key] = acc * signed_rhs[r]
                grown_tail[key] = acc_tail * signed_tail[r]
            else:
                grown[key] = old + acc * signed[r]
                head[key] += acc * signed_rhs[r]
                grown_tail[key] += acc_tail * signed_tail[r]
    return grown, head, grown_tail


@cache
def _by_size(n: int) -> tuple[tuple[int, ...], ...]:
    # masks[k]: the masks below 2^n with k bits set, in ascending order;
    # tuples, since every caller shares the cached table
    masks: list[list[int]] = [[] for _ in range(n + 1)]
    for used in range(1 << n):
        masks[used.bit_count()].append(used)
    return tuple(map(tuple, masks))


@cache
def _free_rows(n: int) -> list[bytes]:
    # free[used]: the rows r not in the mask used, from row n - 1 down, each
    # as r, or as r + n when an odd number of used rows have a larger index
    # than r.  Built one row at a time: a new top row r is free, and first,
    # in the masks without it; in the masks with it every lower row's index
    # swaps between r' and r' + n.  n * 2^(n-1) one-byte indices in 2^n bytes
    # objects: about 3.2 MB at n = 16, held for the life of the process.
    flip = bytearray(range(256))
    flip[: 2 * n] = [*range(n, 2 * n), *range(n)]
    free = [b""]
    for r in range(n):
        top = bytes((r,))
        free = [top + f for f in free] + [f.translate(flip) for f in free]
    return free
