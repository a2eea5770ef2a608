"""Independent correctness oracles for the permutation-sum solver.

``bareiss_solve`` / ``bareiss_det`` run fraction-free Gaussian elimination
(exact divisions by the previous pivot keep intermediates integral for
integer input) with row pivoting -- a genuinely different algorithm with
different failure modes than summing n! signed products.  ``cofactor_det``
expands along the first row, as a second determinant route for small n.

Index-convention note: the solver's X_0 multiplies entries at (row pi_k,
column k), i.e. it expands det of the transpose; the oracles compute det(A)
in the usual orientation.  The two agree because determinants are
transpose-invariant -- this is expected, not a bug to fix.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Scalar
from .cramer import RATIONAL, LinearSystem, SingularSystemError
from .perm import _check_guard

#: First-row cofactor expansion visits n! products; past this it is no
#: longer a sane oracle.
COFACTOR_MAX_N = 7


def bareiss_solve(sys: LinearSystem) -> tuple[Fraction, ...]:
    """Exact solution of a numeric system by fraction-free elimination.

    Raises SingularSystemError exactly when det(A) = 0, matching the
    permutation-sum solver's X_0 = 0 condition.
    """
    if sys.mode != RATIONAL:
        raise ValueError("bareiss_solve handles numeric systems only")
    n = sys.n
    m = [
        [sys.entries[i][j] for j in range(n)] + [sys.rhs[i]]
        for i in range(n)
    ]
    det = _eliminate(m, n)
    if det == 0:
        raise SingularSystemError("singular system: determinant is 0")
    # back-substitution on the triangularized augmented matrix
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n]
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return tuple(x)


def bareiss_det(sys: LinearSystem) -> Fraction:
    """det(A) of a numeric system by the same elimination (0 for singular)."""
    if sys.mode != RATIONAL:
        raise ValueError("bareiss_det handles numeric systems only")
    n = sys.n
    m = [[sys.entries[i][j] for j in range(n)] for i in range(n)]
    return _eliminate(m, n)


def _eliminate(m: list[list[Fraction]], n: int) -> Fraction:
    """Forward Bareiss elimination in place; returns det of the left n x n block.

    One-step formula: entry <- (pivot * entry - row_factor * col_entry) / previous
    pivot.  Rows are swapped to a nonzero pivot when needed (sign tracked);
    an all-zero pivot column means det = 0 and elimination stops.
    """
    sign = 1
    prev = Fraction(1)
    width = len(m[0])
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k]
            row = m[i]
            top = m[k]
            for j in range(k + 1, width):
                row[j] = (pivot * row[j] - factor * top[j]) / prev
            row[k] = Fraction(0)
        prev = pivot
    return sign * m[n - 1][n - 1]


def cofactor_det(sys: LinearSystem) -> Scalar:
    """Determinant by first-row cofactor expansion (symbolic or numeric).

    Guarded at n <= 7: the recursion touches n! products.
    """
    _check_guard(sys.n, COFACTOR_MAX_N)
    return _cofactor(list(sys.entries))


def _cofactor(rows) -> Scalar:
    if len(rows) == 1:
        return rows[0][0]
    first, rest = rows[0], rows[1:]
    return sum(
        (-x if j & 1 else x) * _cofactor([row[:j] + row[j + 1 :] for row in rest])
        for j, x in enumerate(first)
    )
