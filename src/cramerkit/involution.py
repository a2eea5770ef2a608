"""Exhaustive verification of the cancellation argument behind the solver.

Fix a row index i.  Over the set F_n of pairs [j, pi] (a 1-based position j
and a permutation pi), assign each element the weight

    W_i([j, pi]) = a[i,j] * w_j(pi),

so that summing W_i over all of F_n gives the left side of the row identity
sum_j a[i,j] X_j = b[i] X_0.  The elements split into two camps:

* *good*: pi_j = i.  Substituting a[i,j] = a[pi_j, j] turns the weight into
  b[i] * w_0(pi), so the good elements sum to b[i] * X_0 (fact 1).
* *bad*: pi_j != i.  The pairing map sends [j, pi] to [j', sigma], where j'
  is the position of value i in pi and sigma is pi with positions j and j'
  swapped.  The map is a fixed-point-free involution on the bad elements
  and flips the weight's sign, so the bad elements cancel in pairs and sum
  to zero (fact 2).

The pairing map is coded once, in ``_partner``, on 1-based positions and
value tuples; the walk and ``t_involution`` both call it.  Both facts are
checked elementwise / pairwise, because an aggregate zero alone could mask a
broken pairing.  Fact 1's aggregate is checked against X_0 from the solver's
kernel; fact 2's adds the pair sums, so it follows from the pairwise checks.
One walk over S_n does every check; ``check_fact1``, ``check_fact2`` and
``build_certificate`` are views of it.  The certificate serializes the whole
verification -- every good element with its weight and every canceling
pair, in a deterministic order, with bit-stable weight renderings -- and
``validate_certificate`` audits it independently, through ``FElement``,
``t_involution``, ``weight_W`` and ``big_x``: it shares the map with the
walk, but no loop.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .algebra import Scalar, _Sum, render_scalar
from .cramer import SYMBOLIC, LinearSystem, _weight, big_x, generic_system, weight_wj
from .perm import (
    MAX_N_DEFAULT,
    Permutation,
    _check_guard,
    _sign,
    _swapped,
    enumerate_permutations,
    iter_signed_values,
)


class FElement(NamedTuple("FElement", [("j", int), ("p", Permutation)])):
    """An element [j, pi] of F_n: a 1-based position paired with a permutation."""

    __slots__ = ()

    def __new__(cls, j: int, p: Permutation) -> "FElement":
        if type(j) is not int:  # a bool or a float is no position
            raise ValueError(f"j={j!r} is not an integer")
        if not 1 <= j <= p.n:
            raise ValueError(f"j={j} outside 1..{p.n}")
        return super().__new__(cls, j, p)

    @classmethod
    def _make(cls, iterable: Iterable) -> "FElement":
        return cls(*iterable)  # the tuple's own _make, and _replace, skip __new__

    def __str__(self) -> str:
        return f"j={self.j} pi={list(self.p.values)}"  # as the certificate writes it


def iter_elements(n: int, max_n: int = MAX_N_DEFAULT) -> Iterator[FElement]:
    """All n * n! elements of F_n (permutation-major order)."""
    return (
        FElement(j, p)
        for p in enumerate_permutations(n, max_n=max_n)
        for j in range(1, n + 1)
    )


def weight_W(sys: LinearSystem, i: int, e: FElement) -> Scalar:
    """a[i, e.j] times the w_j weight of e.p (canonical scalar)."""
    if not 1 <= i <= sys.n:
        raise ValueError(f"i={i} outside 1..{sys.n}")
    w = weight_wj(sys, e.j, e.p)  # rejects a wrong-size e.p before the a[i, j] lookup
    return sys.entry(i, e.j) * w


def is_good(i: int, e: FElement) -> bool:
    """True when pi_j = i; every element is exactly one of good/bad."""
    if not 1 <= i <= e.p.n:
        raise ValueError(f"i={i} outside 1..{e.p.n}")
    return e.p.values[e.j - 1] == i


def t_involution(i: int, e: FElement) -> FElement:
    """The pairing map on bad elements: [j, pi] -> [j', sigma].

    j' is the position of value i in pi; sigma swaps the values at
    positions j and j'.  Only defined on bad elements (pi_j != i); the
    image is bad again, and applying the map twice returns e.
    """
    if is_good(i, e):
        raise ValueError("pairing map is defined only on bad elements")
    j2, sigma = _partner(i, e.j, e.p.values)
    return FElement(j2, Permutation(sigma))


def _partner(i: int, j: int, values: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # the pairing map on value tuples, in 1-based positions: (j, values) ->
    # (j2, sigma), with j2 the position of value i and sigma the values with
    # positions j and j2 swapped.  t_involution and the walk both call it.
    j2 = values.index(i) + 1
    return j2, _swapped(values, j - 1, j2 - 1)


class Fact1Report(NamedTuple):
    """Good-element weight sum vs b[i] * X_0, plus the elementwise form."""

    i: int
    ok: bool
    elementwise_ok: bool
    aggregate_ok: bool
    good_count: int
    good_sum: Scalar
    b_i_times_x0: Scalar


class Fact2Report(NamedTuple):
    """Bad-element cancellation: involution, parity, pairwise and aggregate."""

    i: int
    ok: bool
    involution_ok: bool  # bad -> bad, self-inverse, no fixed point
    parity_ok: bool  # inversion counts differ by an odd number
    cancellation_ok: bool  # W(e) + W(T(e)) = 0 for every bad e
    aggregate_ok: bool  # the bad weights sum to zero
    bad_count: int
    bad_sum: Scalar


def check_fact1(
    sys: LinearSystem, i: int, max_n: int = MAX_N_DEFAULT
) -> Fact1Report:
    """Sum W_i over the good elements and compare with b[i] * X_0.

    Also checks, element by element, that each good weight equals
    b[i] * w_0(pi) -- the substitution that makes the aggregate work.
    """
    return _walk(sys, i, max_n)[0]


def check_fact2(
    sys: LinearSystem, i: int, max_n: int = MAX_N_DEFAULT
) -> Fact2Report:
    """Verify pairwise cancellation of the bad elements, then the aggregate.

    Per bad element e with image t: t is bad, t != e (no fixed points),
    the map applied twice returns e, the inversion counts of the two
    permutations differ by an odd number, and W(e) + W(t) = 0 exactly.
    """
    return _walk(sys, i, max_n)[1]


class PairingCertificate(NamedTuple):
    """Machine-checkable record of the good sum and the bad pairing.

    Invariants (enforced by :func:`validate_certificate`):
    good and pair counts add up to n * n! with exactly n! good elements;
    each pair's two weights, each recomputed from its own element, cancel;
    fact2_sum renders "0"; fact1_sum equals b_i_times_X0.
    """

    n: int
    i: int
    good: tuple[tuple[FElement, str], ...]
    bad_pairs: tuple[tuple[FElement, FElement, str, str], ...]
    fact1_sum: str
    b_i_times_x0: str
    fact2_sum: str


def build_certificate(
    sys: LinearSystem, i: int, max_n: int = MAX_N_DEFAULT
) -> PairingCertificate:
    """Enumerate F_n and emit the full pairing certificate (symbolic mode).

    Good entries are sorted by (j, permutation values); each bad pair is
    listed once, smaller element first, pairs sorted by their smaller
    element.  Numeric systems are rejected: their weights can cancel by
    accident, which makes the certificate meaningless.  Raises
    RuntimeError when any fact 1 or fact 2 check fails.
    """
    if sys.mode != SYMBOLIC:
        raise ValueError("certificates are only defined for symbolic systems")
    cert = _walk(sys, i, max_n, collect=True)[2]
    if cert is None:
        raise RuntimeError(f"row {i} failed a fact 1 or fact 2 check")
    return cert


def _walk(
    sys: LinearSystem, i: int, max_n: int = MAX_N_DEFAULT, collect: bool = False
) -> tuple[Fact1Report, Fact2Report, PairingCertificate | None]:
    """Check both facts for row i in one pass over S_n, on value tuples.

    An element is the row (j, values), 1-based as the certificate writes it,
    and ``_partner`` gives its image.  Each weight is computed exactly once:
    a good element's W and w_0(pi), and a bad pair's two weights at its
    smaller element, the partner's from its own values and sign, an inversion
    parity that must differ from pi's.  Fact 1's aggregate takes b_i * X_0
    from the kernel, not from the b_i * w_0 formed here.  No pair is counted:
    each bad e has a bad image t != e with T(t) = e, so T is a fixed-point-free
    involution and the smaller-element rule weighs its bad_count / 2 pairs
    once.  With ``collect``, rows are rendered when formed; certify if all pass.
    """
    if not 1 <= i <= sys.n:
        raise ValueError(f"i={i} outside 1..{sys.n}")
    a_i = sys.entries[i - 1]
    b_i = sys.rhs_entry(i)
    b_i_times_x0 = b_i * big_x(sys, 0, max_n=max_n)
    good_sum, bad_sum = _Sum(sys.zero), _Sum(sys.zero)
    elementwise = involution_ok = parity_ok = cancellation_ok = True
    good_count = bad_count = 0
    good_rows: list = []
    pair_rows: list = []
    for values, sgn in iter_signed_values(sys.n, max_n=max_n):
        for j, v in enumerate(values, 1):
            e = (j, values)
            if v == i:
                good_count += 1
                w = a_i[j - 1] * _weight(sys, values, sgn, j)
                if w != b_i * _weight(sys, values, sgn):
                    elementwise = False
                good_sum.add(w)
                if collect:
                    good_rows.append((e, render_scalar(w)))
                continue
            bad_count += 1
            j2, sigma = t = _partner(i, j, values)
            if sigma[j2 - 1] == i or t == e or _partner(i, *t) != e:
                involution_ok = False
            sgn_t = _sign(sigma)
            if sgn_t == sgn:
                parity_ok = False  # the inversion counts differ by an even number
            if t < e:
                continue  # this pair is weighed at its smaller element t
            w_e = a_i[j - 1] * _weight(sys, values, sgn, j)
            w_t = a_i[j2 - 1] * _weight(sys, sigma, sgn_t, j2)
            pair_sum = w_e + w_t
            if pair_sum != 0:
                cancellation_ok = False
            bad_sum.add(pair_sum)
            if collect:
                pair_rows.append((e, t, render_scalar(w_e), render_scalar(w_t)))

    good_sum, bad_sum = good_sum.value(), bad_sum.value()
    aggregate1 = good_sum == b_i_times_x0
    aggregate2 = bad_sum == 0
    fact1 = Fact1Report(
        i=i,
        ok=elementwise and aggregate1,
        elementwise_ok=elementwise,
        aggregate_ok=aggregate1,
        good_count=good_count,
        good_sum=good_sum,
        b_i_times_x0=b_i_times_x0,
    )
    fact2 = Fact2Report(
        i=i,
        ok=involution_ok and parity_ok and cancellation_ok and aggregate2,
        involution_ok=involution_ok,
        parity_ok=parity_ok,
        cancellation_ok=cancellation_ok,
        aggregate_ok=aggregate2,
        bad_count=bad_count,
        bad_sum=bad_sum,
    )
    if not (collect and fact1.ok and fact2.ok):
        return fact1, fact2, None
    good_rows.sort(key=itemgetter(0))
    pair_rows.sort(key=itemgetter(0))
    cert = PairingCertificate(
        n=sys.n,
        i=i,
        good=tuple((_felement(e), w) for e, w in good_rows),
        bad_pairs=tuple(
            (_felement(e), _felement(t), w_e, w_t) for e, t, w_e, w_t in pair_rows
        ),
        fact1_sum=render_scalar(good_sum),
        b_i_times_x0=render_scalar(b_i_times_x0),
        fact2_sum=render_scalar(bad_sum),
    )
    return fact1, fact2, cert


def _felement(e: tuple[int, tuple[int, ...]]) -> FElement:
    # a walk row (j, values) -> the public element
    return FElement(e[0], Permutation(e[1]))


def certificate_to_dict(cert: PairingCertificate) -> dict:
    """JSON-ready form: permutations as 1-based arrays, weights as text."""
    return {
        "n": cert.n,
        "i": cert.i,
        "good": [
            {"j": e.j, "pi": list(e.p.values), "weight": w} for e, w in cert.good
        ],
        "bad_pairs": [
            {
                "j": lo.j,
                "pi": list(lo.p.values),
                "j2": hi.j,
                "sigma": list(hi.p.values),
                "weight": w_lo,
                "weight2": w_hi,
            }
            for lo, hi, w_lo, w_hi in cert.bad_pairs
        ],
        "fact1_sum": cert.fact1_sum,
        "b_i_times_X0": cert.b_i_times_x0,
        "fact2_sum": cert.fact2_sum,
    }


#: The keys of a certificate, of a good entry and of a bad pair, in file order.
_CERT_KEYS = ("n", "i", "good", "bad_pairs", "fact1_sum", "b_i_times_X0", "fact2_sum")
_GOOD_KEYS = ("j", "pi", "weight")
_PAIR_KEYS = ("j", "pi", "j2", "sigma", "weight", "weight2")


def certificate_from_dict(data: dict) -> PairingCertificate:
    """Parse and shape-check a certificate dict (inverse of to_dict).

    Each object must hold exactly its documented keys, n must be >= 1 and
    i must lie in 1..n.  Every fault, an element's too, raises ValueError
    with the prefix "malformed certificate:".
    """
    try:
        n, i, good, bad_pairs, fact1_sum, b_i_times_x0, fact2_sum = _fields(
            data, _CERT_KEYS, "the certificate"
        )
        n = _expect_int(n, "n")
        if n < 1:
            raise TypeError(f"n must be a positive integer, got {n}")
        i = _expect_int(i, "i")
        if not 1 <= i <= n:
            raise TypeError(f"i={i} outside 1..{n}")
        return PairingCertificate(
            n=n,
            i=i,
            good=tuple(
                (_element(j, pi, "j", "pi"), _expect_str(w, "weight"))
                for j, pi, w in (
                    _fields(g, _GOOD_KEYS, "a good entry")
                    for g in _expect_list(good, "good")
                )
            ),
            bad_pairs=tuple(
                (
                    _element(j, pi, "j", "pi"),
                    _element(j2, sigma, "j2", "sigma"),
                    _expect_str(w, "weight"),
                    _expect_str(w2, "weight2"),
                )
                for j, pi, j2, sigma, w, w2 in (
                    _fields(p, _PAIR_KEYS, "a bad pair")
                    for p in _expect_list(bad_pairs, "bad_pairs")
                )
            ),
            fact1_sum=_expect_str(fact1_sum, "fact1_sum"),
            b_i_times_x0=_expect_str(b_i_times_x0, "b_i_times_X0"),
            fact2_sum=_expect_str(fact2_sum, "fact2_sum"),
        )
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: a bad pi or j
        raise ValueError(f"malformed certificate: {exc}") from exc


def validate_certificate(cert: PairingCertificate, max_n: int = MAX_N_DEFAULT) -> None:
    """Re-derive every certificate invariant; raise ValueError on the first failure.

    Weights are recomputed from (i, j, pi) on the generic system and
    re-rendered, so a loaded file is checked against the arithmetic itself,
    not just against its own internal consistency.  Both elements of a pair
    are weighed, and their weights must cancel: the partner's weight is
    never taken as the negation of the other.  The size guard and the
    entry counts are checked before the generic system is built.

    The canonical order, the tuple order of the elements (j, pi), proves that
    F_n is covered once: good entries and the pairs' smaller elements lo
    strictly increase, so each are distinct;
    good and bad are disjoint; T(lo) = hi and T(hi) = lo, so hi_a = hi_b
    means lo_a = lo_b, and hi_a = lo_b means lo_a < hi_a = lo_b < hi_b = lo_a.
    The n * n! listed elements are thus distinct: all of F_n, by the counts.
    """
    _check_guard(cert.n, max_n)
    fact = math.factorial(cert.n)
    if len(cert.good) != fact:
        raise ValueError(f"expected {fact} good entries, found {len(cert.good)}")
    if len(cert.good) + 2 * len(cert.bad_pairs) != cert.n * fact:
        raise ValueError("good + 2 * pairs must cover all n * n! elements")
    sys = generic_system(cert.n)

    prev: tuple = ()  # the previous entry; () sorts before every element
    total = _Sum(sys.zero)
    for e, w in cert.good:
        if not is_good(cert.i, e):
            raise ValueError(f"{e} listed as good but is bad")
        if not prev < e:
            raise ValueError(f"good entry {e} not in canonical order")
        prev = e
        recomputed = weight_W(sys, cert.i, e)
        if render_scalar(recomputed) != w:
            raise ValueError(f"good weight mismatch at {e}")
        total.add(recomputed)
    if render_scalar(total.value()) != cert.fact1_sum:
        raise ValueError("fact1_sum does not match the good weights")
    expected = sys.rhs_entry(cert.i) * big_x(sys, 0, max_n=max_n)
    if render_scalar(expected) != cert.b_i_times_x0:
        raise ValueError("b_i_times_X0 does not match the system")
    if cert.fact1_sum != cert.b_i_times_x0:
        raise ValueError("fact1_sum != b_i_times_X0")

    prev = ()
    for lo, hi, w_lo, w_hi in cert.bad_pairs:
        if is_good(cert.i, lo) or is_good(cert.i, hi):
            raise ValueError(f"pair ({lo}, {hi}) contains a good element")
        if not prev < lo < hi:
            raise ValueError(f"pair ({lo}, {hi}) not in canonical order")
        prev = lo
        if t_involution(cert.i, lo) != hi or t_involution(cert.i, hi) != lo:
            raise ValueError(f"{lo} and {hi} are not each other's pairing image")
        w = weight_W(sys, cert.i, lo)
        w2 = weight_W(sys, cert.i, hi)
        if render_scalar(w) != w_lo or render_scalar(w2) != w_hi:
            raise ValueError(f"pair weight mismatch at ({lo}, {hi})")
        if w + w2 != 0:
            raise ValueError(f"pair weights are not exact negations at {lo}")
    if cert.fact2_sum != "0":
        raise ValueError(f'fact2_sum must render "0", got {cert.fact2_sum!r}')


def _fields(obj, keys: tuple, what: str) -> list:
    # the values of keys in the JSON object obj, which may hold no other key
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = obj.keys() - set(keys)
    if unknown:
        raise TypeError(f"unknown keys {sorted(unknown)} in {what}")
    return [obj[k] for k in keys]


def _element(j, values, j_key: str, p_key: str) -> FElement:
    # an entry's position and permutation; a fault names the entry's own keys
    j, values = _expect_int(j, j_key), _expect_list(values, p_key)
    p = Permutation(tuple(_expect_int(v, "permutation value") for v in values))
    if not 1 <= j <= p.n:
        raise ValueError(f"{j_key}={j} outside 1..{p.n}")
    return FElement(j, p)


def _expect_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise TypeError(f"{what} must be a JSON array, got {type(v).__name__}")
    return v


def _expect_int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{what} must be an integer, got {v!r}")
    return v


def _expect_str(v, what: str) -> str:
    if not isinstance(v, str):
        raise TypeError(f"{what} must be a string, got {v!r}")
    return v
