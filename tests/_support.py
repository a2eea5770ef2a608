"""Shared helpers for the test suite: seeded random systems and scalars,
and faults under solve's postcondition."""

from __future__ import annotations

import abc
import random
from fractions import Fraction

from cramerkit import LinearSystem, bareiss_det, cramer, rational_system


def random_int_system(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> LinearSystem:
    rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    rhs = [rng.randint(lo, hi) for _ in range(n)]
    return rational_system(rows, rhs)


def random_nonsingular_int_system(
    rng: random.Random, n: int, lo: int = -9, hi: int = 9
) -> LinearSystem:
    while True:
        sys = random_int_system(rng, n, lo, hi)
        if bareiss_det(sys) != 0:
            return sys


def random_fraction(rng: random.Random, max_num: int = 9, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_fraction_system(rng: random.Random, n: int) -> LinearSystem:
    rows = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
    rhs = [random_fraction(rng) for _ in range(n)]
    return rational_system(rows, rhs)


# -- faults under solve's postcondition ---------------------------------------
# Each installs one fault with pytest's monkeypatch.  With any of them, solve
# on the system SOLVE_FAULT_ROWS x = SOLVE_FAULT_RHS (X_0 = -2, x = (2, 1))
# must raise ResidualError, and the CLI must exit 1.

SOLVE_FAULT_ROWS = [[1, 1], [1, -1]]
SOLVE_FAULT_RHS = [3, 1]


def misscaled_ring_row(monkeypatch) -> None:
    """_ring_rows scales a[1,1] twice: the kernel solves another system."""
    ring_rows = cramer._ring_rows

    def misscaled(sys):
        rows, zero, unscale = ring_rows(sys)
        rows[0] = (2 * rows[0][0], *rows[0][1:])
        return rows, zero, unscale

    monkeypatch.setattr(cramer, "_ring_rows", misscaled)


def x0_off_by_one(monkeypatch) -> None:
    """The kernel returns X_0 + 1 and every X_j right."""
    leibniz = cramer._leibniz

    def corrupt_x0(sys, every_j):
        xs = leibniz(sys, every_j)
        return [xs[0] + 1, *xs[1:]]

    monkeypatch.setattr(cramer, "_leibniz", corrupt_x0)


def quotient_off_by_one(monkeypatch) -> None:
    """Every X_j is right, but the quotient x_1 is built from X_1 + 1.

    Once the kernel has returned, cramer's ``Fraction`` is replaced by a
    class that counts every Fraction as an instance, so the mode test still
    sees a rational system, and whose first call adds 1 to its numerator.
    """
    leibniz = cramer._leibniz
    built = []  # one entry per quotient built

    class SkewedFraction(abc.ABC):
        def __new__(cls, numerator, denominator):
            first = not built
            built.append(numerator)
            return Fraction(numerator + first, denominator)

    SkewedFraction.register(Fraction)

    def then_skew(sys, every_j):
        xs = leibniz(sys, every_j)
        monkeypatch.setattr(cramer, "Fraction", SkewedFraction)
        return xs

    monkeypatch.setattr(cramer, "_leibniz", then_skew)


SOLVE_FAULTS = (misscaled_ring_row, x0_off_by_one, quotient_off_by_one)
