"""Permutations of {1, ..., n} in one-line notation.

Positions and values are 1-based everywhere in the public surface; the
0-based indexing needed to poke at Python sequences stays internal.
Permutations are immutable and every operation is pure, so values can be
shared freely across workers.

Every index or size argument of the package (a row i, a position j, a
value, a size n) takes one rule, ``_check_index``, before any work: it
must be an exact int, not a bool, a float or an int subclass, or it raises
ValueError("i=1.0 is not an integer"); then it must lie in its range, or
it raises ValueError("i=0 outside 1..3").  A size outside the
enumeration guard 1..max_n raises SizeLimitError with the guard's text.

Enumeration streams (nothing holds all n! permutations at once) all of
S_n, each permutation once, in lexicographic order of the value sequences;
that order is part of the contract, and callers may rely on it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

#: Default ceiling for any operation that enumerates S_n.  9 * 9! weight
#: evaluations is desk-scale; the guard is a policy knob, not a law, so
#: every enumerating entry point accepts an explicit ``max_n`` override.
MAX_N_DEFAULT = 9


class SizeLimitError(ValueError):
    """n falls outside the configured enumeration guard (1 <= n <= max_n)."""


class Permutation(NamedTuple("Permutation", [("values", tuple)])):
    """A bijection of {1, ..., n}, stored as its value sequence.

    >>> Permutation((5, 1, 4, 2, 3)).n
    5
    >>> Permutation((1, 1))
    Traceback (most recent call last):
        ...
    ValueError: repeated value in (1, 1)
    """

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]) -> "Permutation":
        n = len(values)
        if n < 1:
            raise ValueError("a permutation needs at least one value (n >= 1)")
        for v in values:
            if type(v) is not int:  # a bool or a float is no value of S_n
                raise ValueError(f"value {v!r} in {values} is not an integer")
            if not 1 <= v <= n:
                raise ValueError(f"value {v} outside 1..{n} in {values}")
        if len(set(values)) != n:
            raise ValueError(f"repeated value in {values}")
        return super().__new__(cls, values)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Permutation":
        return cls(*iterable)  # the tuple's own _make, and _replace, skip __new__

    @property
    def n(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)


def make_permutation(values: Iterable[int]) -> Permutation:
    """Validate a value sequence and wrap it as a Permutation.

    Rejects empty sequences, out-of-range values and repeats.
    """
    return Permutation(tuple(values))


def enumerate_permutations(
    n: int, max_n: int = MAX_N_DEFAULT
) -> Iterator[Permutation]:
    """Yield all of S_n in lexicographic order of the value sequences.

    The guard is checked eagerly, before the first element is produced.

    >>> [str(p) for p in enumerate_permutations(3)]
    ['123', '132', '213', '231', '312', '321']
    """
    _check_guard(n, max_n)
    return (
        Permutation(values) for values in itertools.permutations(range(1, n + 1))
    )


def inversions(p: Permutation) -> int:
    """Count pairs of positions (i, j) with i < j whose values are out of order.

    >>> inversions(make_permutation([5, 1, 4, 2, 3]))
    6
    """
    return _inversions(p.values)


def sign(p: Permutation) -> int:
    """+1 for an even number of inversions, -1 for an odd number."""
    return _sign(p.values)


def position_of(p: Permutation, value: int) -> int:
    """Return the unique 1-based position holding ``value``.

    >>> position_of(make_permutation([3, 1, 2]), 2)
    3
    """
    _check_index("value", value, 1, p.n)
    return p.values.index(value) + 1


def transpose_positions(p: Permutation, j: int, j2: int) -> Permutation:
    """Return a new permutation with the values at positions j and j2 swapped.

    Positions are 1-based and must differ; the input is left untouched.
    """
    _check_index("j", j, 1, p.n)
    _check_index("j2", j2, 1, p.n)
    if j == j2:
        raise ValueError("transposition needs two distinct positions")
    return Permutation(_swapped(p.values, j - 1, j2 - 1))


def iter_signed_values(
    n: int, max_n: int = MAX_N_DEFAULT
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Stream (value sequence, sign) pairs over S_n in lexicographic order.

    Low-level form of :func:`enumerate_permutations` for the F_n walk,
    which would otherwise spend its time constructing objects.  The sign is
    the parity of the inversion count, as in :func:`sign`.
    """
    _check_guard(n, max_n)
    return ((v, _sign(v)) for v in itertools.permutations(range(1, n + 1)))


def _swapped(v: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    # the value sequence with 0-based positions a and b exchanged
    w = list(v)
    w[a], w[b] = w[b], w[a]
    return tuple(w)


def _inversions(v: tuple[int, ...]) -> int:
    # each value x meets the larger values before it: the set bits of
    # ``seen`` above bit x (bit x itself is clear, the values are distinct)
    inv = seen = 0
    for x in v:
        inv += (seen >> x).bit_count()
        seen |= 1 << x
    return inv


def _sign(v: tuple[int, ...]) -> int:
    return -1 if _inversions(v) % 2 else 1


def _check_index(name: str, value: int, lo: int | None = None, hi: int | None = None) -> None:
    # the one rule for an index or size argument: an exact int, since a bool
    # or a float would pass a range test and fail, or be misread, later on;
    # then lo <= value <= hi, where a bound of None is open
    if type(value) is not int:
        raise ValueError(f"{name}={value!r} is not an integer")
    if lo is not None and value < lo or hi is not None and value > hi:
        raise ValueError(f"{name}={value} outside {lo}..{'' if hi is None else hi}")


def _check_guard(n: int, max_n: int) -> None:
    _check_index("n", n)
    if not 1 <= n <= max_n:
        raise SizeLimitError(f"n={n} outside the enumeration guard 1..{max_n}")
