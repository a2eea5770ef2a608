"""Exact scalar arithmetic: arbitrary-precision rationals and sparse
multivariate polynomials over the commuting symbols a[i,j] and b[i].

Rationals are ``fractions.Fraction`` (already canonical: reduced, positive
denominator, zero stored as 0/1).  Polynomials carry arbitrary-precision
*integer* coefficients; rationals only show up when a polynomial is
evaluated or two polynomial sums are divided downstream.

Canonical form
--------------
* A symbol is a (kind, row, col) tuple, so its hash and its total order are
  the tuple's: every a[...] before every b[...], then by row and column.
* A monomial is a tuple of (symbol, exponent) pairs, sorted by symbol, with
  no zero exponents; () is the constant monomial.
* Polynomial terms are kept in a map monomial -> nonzero coefficient; two
  polynomials are equal exactly when their canonical representations are
  identical.
* For rendering, terms are listed with the lexicographically largest
  exponent vector first (leading-term-first).  That order is a sort key: it
  maps each symbol to a tuple that orders the symbols in reverse, so at the
  first difference a present symbol beats an absent one.  The direction
  is a convention; what matters is that it is fixed, so rendered output is
  bit-stable and can be compared as strings.

Rendering: ``-3*a[1,2]*a[2,1]*b[2]`` style -- integer coefficient (omitted
when +/-1 on a non-constant monomial), symbols joined by ``*`` in symbol
order, ``^e`` for exponents above 1, terms joined by `` + `` / `` - ``, and
``"0"`` for the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
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


def make_monomial(exponents: Mapping[Symbol, int]) -> Monomial:
    """Canonicalize a symbol -> exponent map (zero exponents dropped).

    Keys must be Symbols and exponents ints >= 0.
    """
    return _canonical_monomial(exponents.items())


def _canonical_monomial(pairs: Iterable[tuple[Symbol, int]]) -> Monomial:
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
    return tuple(sorted((s, e) for s, e in exponents.items() if e != 0))


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exponents = dict(m1)
    for s, e in m2:
        exponents[s] = exponents.get(s, 0) + e
    return tuple(sorted(exponents.items()))


def _render_monomial(mono: Monomial, coeff: int) -> str:
    syms = [str(s) if e == 1 else f"{s}^{e}" for s, e in mono]
    if not syms:
        return str(coeff)
    if coeff == 1:
        return "*".join(syms)
    if coeff == -1:
        return "-" + "*".join(syms)
    return "*".join([str(coeff)] + syms)


class Polynomial:
    """Immutable sparse polynomial in canonical form.

    Supports +, -, * against other polynomials and plain ints, so generic
    summation code can start from the integers 0 and 1.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        # keys may list a symbol twice, out of order or with exponent 0: each
        # is canonicalized, and keys that become equal add their coefficients
        data: dict = {}
        for mono, coeff in (terms or {}).items():
            if not _is_int(coeff):
                raise TypeError(f"coefficients must be ints, got {coeff!r}")
            m = _canonical_monomial(mono)
            data[m] = data.get(m, 0) + coeff
        object.__setattr__(self, "_terms", {m: c for m, c in data.items() if c})

    @classmethod
    def _from_owned(cls, terms: dict) -> "Polynomial":
        # internal: takes ownership, zero coefficients already dropped
        p = cls.__new__(cls)
        object.__setattr__(p, "_terms", terms)
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._from_owned({})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        if not _is_int(c):
            raise TypeError(f"constants must be ints, got {c!r}")
        return cls._from_owned({(): c} if c else {})

    @classmethod
    def from_symbol(cls, sym: Symbol) -> "Polynomial":
        return cls({((sym, 1),): 1})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for m, c in other._terms.items():
            new = terms.get(m, 0) + c
            if new:
                terms[m] = new
            else:
                del terms[m]
        return Polynomial._from_owned(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_owned({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mul_monomials(m1, m2)
                new = prod.get(m, 0) + c1 * c2
                if new:
                    prod[m] = new
                elif m in prod:
                    del prod[m]
        return Polynomial._from_owned(prod)

    __rmul__ = __mul__

    # -- value interface ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if _is_int(other):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if not self._terms.keys() - {()}:  # a constant hashes like the int it equals
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical order, leading monomial first."""
        # the key reverses the symbol order, so a larger exponent vector, in
        # which a present symbol beats an absent one, is a larger key
        return sorted(
            self._terms.items(),
            key=lambda t: tuple(((s.kind == "a", -s.row, -s.col), e) for s, e in t[0]),
            reverse=True,
        )

    def symbols(self) -> set[Symbol]:
        return {s for mono in self._terms for s, _ in mono}

    def evaluate(self, assignment: Mapping[Symbol, Fraction | int]) -> Fraction:
        """Substitute an exact rational for every symbol.

        Raises KeyError when the assignment misses a symbol of this
        polynomial.
        """
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            val = Fraction(coeff)
            for sym, exp in mono:
                if sym not in assignment:
                    raise KeyError(f"assignment has no value for {sym}")
                val *= Fraction(assignment[sym]) ** exp
            total += val
        return total

    def render(self) -> str:
        """Bit-stable text form (see the module docstring for the grammar)."""
        ordered = self.terms()
        if not ordered:
            return "0"
        pieces = [_render_monomial(*ordered[0])]
        for mono, coeff in ordered[1:]:
            joiner = " + " if coeff > 0 else " - "
            pieces.append(joiner + _render_monomial(mono, abs(coeff)))
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


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
# The arithmetic lives on the types above; these names give the flat
# call-style surface used elsewhere and in the tests.


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
