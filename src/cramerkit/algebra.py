"""Exact scalar arithmetic: arbitrary-precision rationals and sparse
multivariate polynomials over the commuting symbols a[i,j] and b[i].

Rationals are ``fractions.Fraction`` (already canonical: reduced, positive
denominator, zero stored as 0/1).  Polynomials carry arbitrary-precision
*integer* coefficients; rationals only show up when a polynomial is
evaluated.

Canonical form
--------------
* A symbol is a (kind, row, col) tuple, so its hash and its total order are
  the tuple's: every a[...] before every b[...], then by row and column.
* At the public surface a monomial is a tuple of (symbol, exponent) pairs,
  sorted by symbol, with no zero exponents; () is the constant monomial.
  ``Polynomial(mapping)`` and :func:`make_monomial` take that form, and
  ``terms()`` returns it.
* Inside a polynomial a monomial is one packed int.  Each symbol is
  interned, on first use, as a small index into a process-wide table that
  only grows; the exponent of symbol k sits in byte k of the int, so the
  constant monomial is 0 and a product of monomials is one integer
  addition.  The top bit of each byte is a guard bit: an exponent is at
  most :data:`MAX_EXPONENT` (127), so adding two fields never carries into
  the next symbol's byte, and a product that sets a guard bit raises
  ``OverflowError`` naming the symbol and the ceiling.  Packed keys depend
  on the order in which this process interned its symbols, so they never
  leave it: pickling goes through the tuple form, and every output
  (``terms()``, ``render()``, ``symbols()``) is decoded at the boundary.
* Polynomial terms are kept in a map packed monomial -> nonzero
  coefficient; two polynomials are equal exactly when their maps are equal.
* For rendering, terms are listed with the lexicographically largest
  exponent vector first (leading-term-first): the dense vectors of
  exponents over the symbols present, in symbol order, compared from the
  smallest symbol on, so at the first difference a present symbol beats
  an absent one.  The direction is a convention; what matters is that it
  is fixed and independent of the intern order, so rendered output is
  bit-stable and can be compared as strings.

Rendering: ``-3*a[1,2]*a[2,1]*b[2]`` style -- integer coefficient (omitted
when +/-1 on a non-constant monomial), symbols joined by ``*`` in symbol
order, ``^e`` for exponents above 1, terms joined by `` + `` / `` - ``, and
``"0"`` for the zero polynomial.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import prod
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Union

Rational = Fraction


class Symbol(NamedTuple("Symbol", [("kind", str), ("row", int), ("col", int)])):
    """One commuting indeterminate: a[row,col] (kind "a") or b[row] (kind "b").

    A (kind, row, col) tuple: hashing, equality and the order come from the
    tuple, and b-symbols have col 0.
    """

    __slots__ = ()

    def __new__(cls, kind: str, row: int, col: int = 0) -> "Symbol":
        if kind not in ("a", "b"):
            raise ValueError(f"symbol kind must be 'a' or 'b', got {kind!r}")
        if not (_is_int(row) and _is_int(col)):
            raise TypeError(f"symbol row and col must be ints, got {row!r}, {col!r}")
        if row < 1:
            raise ValueError(f"symbol row must be >= 1, got {row}")
        if kind == "a" and col < 1:
            raise ValueError(f"a-symbol col must be >= 1, got {col}")
        if kind == "b" and col != 0:
            raise ValueError("b-symbols carry no column index")
        return super().__new__(cls, kind, row, col)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Symbol":
        # the named tuple's _make, which _replace also calls, would build
        # through tuple.__new__ and skip the checks above
        return cls(*iterable)

    def __str__(self) -> str:
        if self.kind == "a":
            return f"a[{self.row},{self.col}]"
        return f"b[{self.row}]"


def a_symbol(row: int, col: int) -> Symbol:
    return Symbol("a", row, col)


def b_symbol(row: int) -> Symbol:
    return Symbol("b", row)


#: A monomial: ((symbol, exponent), ...) sorted by symbol, exponents >= 1.
Monomial = tuple[tuple[Symbol, int], ...]

#: The largest exponent of one symbol in a monomial: each symbol's exponent
#: takes one byte of the packed monomial, whose top bit is the guard bit.
MAX_EXPONENT = 127

_GUARD_BYTE = MAX_EXPONENT + 1

# The intern table: index -> symbol, index -> rendered name, symbol -> index,
# and the guard bit of every interned symbol's byte.  It only grows, and
# every lookup takes the lock, so no symbol is interned twice.
_SYMBOLS: list[Symbol] = []
_NAMES: list[str] = []
_INDEX: dict[Symbol, int] = {}
_GUARD = 0
_INTERN_LOCK = threading.Lock()


def _intern(sym: Symbol) -> int:
    global _GUARD
    with _INTERN_LOCK:
        k = _INDEX.get(sym)
        if k is None:
            k = len(_SYMBOLS)
            _SYMBOLS.append(sym)
            _NAMES.append(str(sym))
            _GUARD |= _GUARD_BYTE << (8 * k)
            _INDEX[sym] = k
    return k


def make_monomial(exponents: Mapping[Symbol, int]) -> Monomial:
    """Canonicalize a symbol -> exponent map (zero exponents dropped).

    Keys must be Symbols and exponents ints >= 0.
    """
    return tuple(sorted(_exponents(exponents.items()).items()))


def _exponents(pairs: Iterable[tuple[Symbol, int]]) -> dict:
    # check each (symbol, exponent) pair, then merge repeated symbols
    exponents: dict = {}
    for sym, exp in pairs:
        if not isinstance(sym, Symbol):
            raise TypeError(f"monomial keys must be Symbols, got {sym!r}")
        if not _is_int(exp):
            raise TypeError(f"exponent of {sym} must be an int, got {exp!r}")
        if exp < 0:
            raise ValueError(f"negative exponent {exp} for {sym}")
        exponents[sym] = exponents.get(sym, 0) + exp
    return {s: e for s, e in exponents.items() if e}


def _pack(pairs: Iterable[tuple[Symbol, int]]) -> int:
    # a tuple-form monomial, in any order, as its packed int
    m = 0
    for sym, exp in _exponents(pairs).items():
        if exp > MAX_EXPONENT:
            raise _overflow(sym, exp)
        m |= exp << (8 * _intern(sym))
    return m


def _bytes(m: int) -> bytes:
    # byte k is the exponent of the symbol interned as k
    return m.to_bytes((m.bit_length() + 7) // 8, "little")


def _ceiling_error(m: int) -> OverflowError:
    # m has an exponent above the ceiling: name the first such symbol
    k, e = next((k, e) for k, e in enumerate(_bytes(m)) if e > MAX_EXPONENT)
    return _overflow(_SYMBOLS[k], e)


def _overflow(sym: Symbol, exp: int) -> OverflowError:
    return OverflowError(
        f"exponent {exp} of {sym} is above the ceiling {MAX_EXPONENT} of a monomial"
    )


def _render_monomial(syms: list[str], coeff: int) -> str:
    if not syms:
        return str(coeff)
    if coeff == 1:
        return "*".join(syms)
    if coeff == -1:
        return "-" + "*".join(syms)
    return "*".join([str(coeff)] + syms)


_new = object.__new__


def _owned(terms: dict) -> "Polynomial":
    # a Polynomial over terms, which it takes over (no zero coefficients)
    p = _new(Polynomial)
    p._terms = terms
    return p


def _packed(p: "Polynomial") -> int:
    # the packed monomial of p, which is one monomial with coefficient 1
    (m,) = p._terms
    return m


def _fold(terms: dict, other: dict) -> None:
    # terms += other, in place; cancelled terms are dropped
    if terms.keys().isdisjoint(other.keys()):  # the usual case in a Leibniz sum
        terms.update(other)
        return
    get = terms.get
    for m, c in other.items():
        c = get(m, 0) + c
        if c:
            terms[m] = c
        else:
            del terms[m]


class Polynomial:
    """Immutable sparse polynomial in canonical form.

    Supports +, -, * against other polynomials and plain ints, so generic
    summation code can start from the integers 0 and 1.  ``terms()`` lists
    the terms as (tuple monomial, coefficient) pairs in render order:

    >>> a, b = Polynomial.from_symbol(a_symbol(1, 1)), Polynomial.from_symbol(b_symbol(2))
    >>> p = 3 * b * b - a * b + 2
    >>> p.render()
    '-a[1,1]*b[2] + 3*b[2]^2 + 2'
    >>> for mono, coeff in p.terms():
    ...     print(mono, coeff)
    ((Symbol(kind='a', row=1, col=1), 1), (Symbol(kind='b', row=2, col=0), 1)) -1
    ((Symbol(kind='b', row=2, col=0), 2),) 3
    () 2
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        # keys may list a symbol twice, out of order or with exponent 0: each
        # is canonicalized, and keys that become equal add their coefficients
        data: dict = {}
        for mono, coeff in (terms or {}).items():
            if not _is_int(coeff):
                raise TypeError(f"coefficients must be ints, got {coeff!r}")
            m = _pack(mono)
            data[m] = data.get(m, 0) + coeff
        self._terms = {m: c for m, c in data.items() if c}

    def __reduce__(self):
        # packed keys mean other symbols in another process: go through the
        # tuple form, which the unpickling process interns afresh
        return Polynomial, (dict(self.terms()),)

    @classmethod
    def zero(cls) -> "Polynomial":
        return _owned({})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        if not _is_int(c):
            raise TypeError(f"constants must be ints, got {c!r}")
        return _owned({0: c} if c else {})

    @classmethod
    def from_symbol(cls, sym: Symbol) -> "Polynomial":
        return cls({((sym, 1),): 1})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        _fold(terms, small)
        return _owned(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _owned({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        if len(small) == 1:
            # adding one monomial is injective: no keys merge, none cancel
            ((m2, c2),) = small.items()
            if len(big) == 1:
                ((m, c),) = big.items()
                prod = {m + m2: c * c2}
            else:
                prod = {m + m2: c * c2 for m, c in big.items()}
        else:
            prod = {}
            get = prod.get
            for m2, c2 in small.items():
                for m, c in big.items():
                    m += m2
                    prod[m] = get(m, 0) + c * c2
            prod = {m: c for m, c in prod.items() if c}
        # a byte holds the sum of two exponents up to the ceiling, so the keys
        # are exact; a term that survives with a guard bit set is too high
        guard = _GUARD
        for m in prod:
            if m & guard:
                raise _ceiling_error(m)
        p = _new(Polynomial)
        p._terms = prod
        return p

    __rmul__ = __mul__

    # -- value interface ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if _is_int(other):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        terms = self._terms
        if not terms or (len(terms) == 1 and 0 in terms):
            return hash(terms.get(0, 0))  # a constant hashes like the int it equals
        return hash(frozenset(terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _ordered(self) -> tuple[list[int], list[tuple[tuple[int, ...], int]]]:
        # The indices of the symbols present, in symbol order, and each
        # term as (its exponents over those symbols, coefficient), leading
        # term first: the dense exponent vectors sort as tuples.
        terms = self._terms
        if not terms:
            return [], []
        union = 0
        for m in terms:
            union |= m
        b = _bytes(union)
        present = [k for k, e in enumerate(b) if e]
        present.sort(key=_SYMBOLS.__getitem__)
        if len(terms) == 1:  # the union is the one monomial
            (c,) = terms.values()
            return present, [(tuple([b[k] for k in present]), c)]
        if len(present) == 1:
            (k,) = present
            dense = lambda b: (b[k],)  # noqa: E731
        else:
            dense = itemgetter(*present)
        width = len(b)
        rows = [(dense(m.to_bytes(width, "little")), c) for m, c in terms.items()]
        rows.sort(reverse=True)
        return present, rows

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical order, leading monomial first."""
        present, rows = self._ordered()
        syms = [_SYMBOLS[k] for k in present]
        return [
            (tuple((s, e) for s, e in zip(syms, exps) if e), c) for exps, c in rows
        ]

    def symbols(self) -> set[Symbol]:
        return {_SYMBOLS[k] for k in self._ordered()[0]}

    def evaluate(self, assignment: Mapping[Symbol, Fraction | int]) -> Fraction:
        """Substitute an exact rational for every symbol.

        Raises KeyError when the assignment misses a symbol of this
        polynomial.
        """

        def value(sym: Symbol) -> Fraction:
            if sym not in assignment:
                raise KeyError(f"assignment has no value for {sym}")
            return Fraction(assignment[sym])

        return sum(
            (
                prod((value(s) ** exp for s, exp in mono), start=coeff)
                for mono, coeff in self.terms()
            ),
            Fraction(0),
        )

    def render(self) -> str:
        """Bit-stable text form (see the module docstring for the grammar)."""
        present, rows = self._ordered()
        if not rows:
            return "0"
        names = [_NAMES[k] for k in present]
        pieces = []
        for exps, coeff in rows:
            if pieces:
                pieces.append(" + " if coeff > 0 else " - ")
                coeff = abs(coeff)
            syms = [s if e == 1 else f"{s}^{e}" for s, e in zip(names, exps) if e]
            pieces.append(_render_monomial(syms, coeff))
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _sum(xs: Iterable["Scalar"], zero: "Scalar") -> "Scalar":
    # the sum of xs from zero, which fixes the kind and is the sum of nothing.
    # p + q copies a polynomial's terms, so a sum of N polynomials taken one
    # + at a time costs O(N^2); polynomials fold into one private map instead
    if not isinstance(zero, Polynomial):
        return sum(xs, zero)
    terms = dict(zero._terms)
    for x in xs:
        _fold(terms, _coerce(x)._terms)
    return _owned(terms)


def _coerce(value: "Polynomial | int") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if _is_int(value):
        return Polynomial.constant(value)
    return NotImplemented  # type: ignore[return-value]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


Scalar = Union[Fraction, Polynomial]


def render_scalar(x: Scalar) -> str:
    """Canonical text for either scalar kind ("p/q" / "n" for rationals)."""
    if isinstance(x, Polynomial):
        return x.render()
    return str(x)


# -- operation aliases -------------------------------------------------------
# The arithmetic lives on the types above; these names give it a flat
# call-style surface.  Nothing in the package calls them: they are public
# API, exercised by the tests and the acceptance suite.


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    return p + q


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    return p * q


def poly_negate(p: Polynomial) -> Polynomial:
    return -p


def evaluate(p: Polynomial, assignment: Mapping[Symbol, Fraction | int]) -> Fraction:
    return p.evaluate(assignment)


def rat_add(x: Fraction, y: Fraction) -> Fraction:
    return x + y


def rat_mul(x: Fraction, y: Fraction) -> Fraction:
    return x * y


def rat_neg(x: Fraction) -> Fraction:
    return -x


def rat_div(x: Fraction, y: Fraction) -> Fraction:
    if y == 0:
        raise ZeroDivisionError("rational division by zero")
    return x / y
