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

The pairing map is coded once for the checks, in ``_partner``, on 1-based
positions and value tuples; the walk and ``t_involution`` both call it, and
only the certificate auditor keeps its own copy.  Both facts are
checked elementwise / pairwise, because an aggregate zero alone could mask a
broken pairing.  Fact 1's aggregate is checked against X_0 from the solver's
kernel; fact 2's adds the pair sums, so it follows from the pairwise checks.
One walk over S_n does every check; ``check_fact1``, ``check_fact2`` and
``build_certificate`` are views of it, defined on ``generic_system(n)``
only: the argument is a polynomial identity in the symbols a[i,j], b[i],
and any numeric system is an evaluation of it.  Each weight is +-1 times
one monomial, and T keeps the monomial while it flips the sign, so the
walk holds a weight as a packed monomial key and a sign and checks both
facts on those; it decodes only the sums it reports and the weights it
writes.  The certificate serializes the whole verification -- every good
element with its weight and every canceling pair, in a deterministic
order, with bit-stable weight renderings -- and ``validate_certificate``
audits it independently: it builds each weight's text from (i, j, pi),
each pairing image with its own swap, and b_i * X_0 as the good texts
joined in the renderer's order.  It shares no loop, no weight arithmetic,
no rendering and no pairing code with the walk, only the file format, and
uses nothing of the solver's kernel or of the algebra.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain, combinations, starmap
from operator import getitem, gt
from typing import Callable, Iterable, Iterator, NamedTuple

from .algebra import Scalar, _layout, _owned, _packed, _zero_one_text, render_scalar
from .cramer import LinearSystem, big_x, generic_system, weight_wj
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
    Defined on generic_system(n) only; any other system raises ValueError.
    """
    return _walk(sys, i, max_n)[0]


def check_fact2(
    sys: LinearSystem, i: int, max_n: int = MAX_N_DEFAULT
) -> Fact2Report:
    """Verify pairwise cancellation of the bad elements, then the aggregate.

    Per bad element e with image t: t is bad, t != e (no fixed points) and
    the map applied twice returns e.  Per pair {e, t}, once: the inversion
    counts of the two permutations differ by an odd number, and
    W(e) + W(t) = 0 exactly.  Defined on generic_system(n) only; any other
    system raises ValueError.
    """
    return _walk(sys, i, max_n)[1]


class PairingCertificate(NamedTuple):
    """Machine-checkable record of the good sum and the bad pairing.

    It names no system: every weight is one of ``generic_system(n)``.

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
    """Enumerate F_n and emit the full pairing certificate of generic_system(n).

    Good entries are sorted by (j, permutation values); each bad pair is
    listed once, smaller element first, pairs sorted by their smaller
    element.  Any other system raises ValueError, as for the fact checks:
    the file names no system, and :func:`validate_certificate` writes
    every weight as the generic one's.  Raises RuntimeError when any fact 1
    or fact 2 check fails.
    """
    cert = _walk(sys, i, max_n, collect=True)[2]
    if cert is None:
        raise RuntimeError(f"row {i} failed a fact 1 or fact 2 check")
    return cert


def _walk(
    sys: LinearSystem, i: int, max_n: int = MAX_N_DEFAULT, collect: bool = False
) -> tuple[Fact1Report, Fact2Report, PairingCertificate | None]:
    """Check both facts for row i in one pass over S_n, on monomial keys.

    An element is the row (j, values), 1-based as the certificate writes it,
    and ``_partner`` gives its image.  On the generic system every weight is
    +-1 times one monomial, so the walk holds a weight as its packed key,
    from ``_key`` (one integer sum), and its sign, from the stream or
    ``_sign``.  A key adds one byte per factor, and a weight holds each
    symbol at most once: one b factor, and a factors in distinct columns
    (a[i, j] alone in column j).  So every byte is 0 or 1, and no key sum
    reaches a guard bit; ``_weight_writer`` relies on this to write a weight
    straight from its key's row in the algebra's layout of the generic
    system's keys, which is the key's own bytes when the process interned
    those symbols in symbol order.

    A good element's W and w_0(pi) both take the sign of pi, so fact 1
    elementwise compares their keys alone.  The map checks run at every bad
    e: a bad image t != e with T(t) = e makes T a fixed-point-free
    involution, so each bad element lies in exactly one pair, which is
    settled once, at its smaller element: the partner's inversion parity
    must differ from pi's, and the two weights, the partner's from its own
    values and sign, cancel when their keys are equal and their signs
    opposite.  Fact 1's aggregate takes b_i * X_0 from the kernel, not from
    the keys formed here.

    Both sums are key -> coefficient maps, decoded once at the end.  Any
    system other than ``generic_system(n)`` raises ValueError, after the
    size guard and before any work.  The walk shares no weight arithmetic,
    rendering or pairing code with ``validate_certificate``.  With
    ``collect``, each row is formed as its final entry, in a list per
    position j.  A good weight is written from its key; a pair's first
    weight too, and its second is that text with the sign flipped, which
    is the partner's own weight whenever the pair cancels, the only case
    in which a certificate is returned.  The stream is in lexicographic
    order, so each list is in canonical order and the lists, joined, are
    too.  Certify if all pass.
    """
    if not 1 <= i <= sys.n:
        raise ValueError(f"i={i} outside 1..{sys.n}")
    _check_guard(sys.n, max_n)
    gs = generic_system(sys.n)
    if sys != gs:
        raise ValueError(
            "fact checks and certificates are only defined for generic_system(n)"
        )
    b_i_times_x0 = gs.rhs_entry(i) * big_x(gs, 0, max_n=max_n)
    keys = _key_table(gs, i)
    kb_i = _packed(gs.rhs_entry(i))
    good: dict = {}  # key -> coefficient
    bad: dict = {}  # the pairs that do not cancel, key -> coefficient
    elementwise = involution_ok = parity_ok = cancellation_ok = True
    good_count = bad_count = 0
    good_rows: list[list] = [[] for _ in range(sys.n)]  # one list per position j
    pair_rows: list[list] = [[] for _ in range(sys.n)]
    render_weight = _weight_writer(gs) if collect else None
    for values, sgn in iter_signed_values(sys.n, max_n=max_n):
        for j, v in enumerate(values, 1):
            e = (j, values)
            if v == i:
                good_count += 1
                w = _key(keys, values, j)
                if w != kb_i + _key(keys, values):
                    elementwise = False
                good[w] = good.get(w, 0) + sgn
                if collect:
                    good_rows[j - 1].append((_felement(e), render_weight(w, sgn)))
                continue
            bad_count += 1
            j2, sigma = t = _partner(i, j, values)
            if sigma[j2 - 1] == i or t == e or _partner(i, *t) != e:
                involution_ok = False
            if t < e:
                continue  # this pair is settled at its smaller element t
            sgn_t = _sign(sigma)
            if sgn_t == sgn:
                parity_ok = False  # the inversion counts differ by an even number
            w_e = _key(keys, values, j)
            w_t = _key(keys, sigma, j2)
            if w_e != w_t or sgn_t == sgn:
                cancellation_ok = False
                bad[w_e] = bad.get(w_e, 0) + sgn
                bad[w_t] = bad.get(w_t, 0) + sgn_t
            if collect:
                text = render_weight(w_e, sgn)  # a certified pair has w_t = w_e, -sgn
                text_t = text[1:] if sgn < 0 else "-" + text
                pair_rows[j - 1].append((_felement(e), _felement(t), text, text_t))

    good_sum, bad_sum = _owned(_nonzero(good)), _owned(_nonzero(bad))
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
    fact1_sum = render_scalar(good_sum)  # fact1.ok: the good sum is b_i * X_0
    cert = PairingCertificate(
        n=sys.n,
        i=i,
        good=tuple(chain.from_iterable(good_rows)),
        bad_pairs=tuple(chain.from_iterable(pair_rows)),
        fact1_sum=fact1_sum,
        b_i_times_x0=fact1_sum,
        fact2_sum=render_scalar(bad_sum),
    )
    return fact1, fact2, cert


def _key_table(gs: LinearSystem, i: int) -> list[list[list[int]]]:
    # keys[j][k][v]: the packed monomial of the factor in column k + 1 at
    # value v (index 0 is unused) of W_i([j, pi]), or of w_0(pi) for j = 0.
    # Column j of W_i holds a[i, j] * b[v]; every other column holds a[v, k].
    cols = [[0, *(_packed(row[k]) for row in gs.entries)] for k in range(gs.n)]
    kb = [0, *map(_packed, gs.rhs)]
    keys = [cols]
    for j in range(gs.n):
        ka_ij = cols[j][i]
        keys.append([*cols[:j], [0, *(ka_ij + k for k in kb[1:])], *cols[j + 1 :]])
    return keys


def _key(keys: list, values: tuple[int, ...], j: int = 0) -> int:
    # the packed monomial of W_i([j, pi]), or of w_0(pi) for j = 0: one
    # integer sum, a byte per factor
    return sum(map(getitem, keys[j], values))


def _nonzero(terms: dict) -> dict:
    # terms without its zero coefficients, dropped in place
    for m in [m for m, c in terms.items() if not c]:
        del terms[m]
    return terms


def _weight_writer(gs: LinearSystem) -> Callable[[int, int], str]:
    # A walk weight of gs, +-1 times one monomial, as the certificate writes
    # it, from its key and sign.  Every byte of a weight key is 0 or 1 (see
    # _walk), so the algebra's 0/1 writer writes it from the key's row.  The
    # rows come from the algebra's _layout over gs's keys, which decides
    # once per walk how the intern order maps onto symbol order.
    _, slots, row = _layout(map(_packed, chain(*gs.entries, gs.rhs)))
    text = _zero_one_text(slots)

    def render(key: int, sgn: int) -> str:
        t = text(row(key))
        return t if sgn > 0 else "-" + t

    return render


def _felement(e: tuple[int, tuple[int, ...]]) -> FElement:
    # (j, values) -> the public element, unchecked: the walk's values come
    # from the S_n stream or _partner, and the reader's (_element) have
    # passed its own checks, a permutation of 1..n with j in 1..n either
    # way, so tuple.__new__ skips both records' checks
    return tuple.__new__(FElement, (e[0], tuple.__new__(Permutation, (e[1],))))


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

    Each weight's text is built from (i, j, pi) alone, by ``_weight_text``,
    and compared with the file's; the pairing image comes from the
    auditor's own swap, ``_image``.  So the audit shares no weight
    arithmetic, no rendering and no pairing code with the walk that wrote
    the file: only the file format.  Both elements of a pair are weighed
    from their own values, and a pair cancels when one text is the other
    with a leading "-": the partner's weight is never taken as the negation
    of the other.  The n! distinct good entries, each with pi_j = i and the
    text of b_i * w_0(pi), are the terms of b_i * X_0: fact1_sum must be
    their sum as the renderer writes it, ``_joined``, and equal
    b_i_times_X0.  The size guard and the entry counts are checked first,
    and each entry's permutation size before anything else about it.

    The canonical order, the tuple order of the elements (j, pi), proves that
    F_n is covered once: good entries and the pairs' smaller elements lo
    strictly increase, so each are distinct;
    good and bad are disjoint; T(lo) = hi and T(hi) = lo, so hi_a = hi_b
    means lo_a = lo_b, and hi_a = lo_b means lo_a < hi_a = lo_b < hi_b = lo_a.
    The n * n! listed elements are thus distinct: all of F_n, by the counts.
    """
    _check_guard(cert.n, max_n)
    n, i = cert.n, cert.i
    fact = math.factorial(n)
    if len(cert.good) != fact:
        raise ValueError(f"expected {fact} good entries, found {len(cert.good)}")
    if len(cert.good) + 2 * len(cert.bad_pairs) != n * fact:
        raise ValueError("good + 2 * pairs must cover all n * n! elements")

    terms = []
    prev: tuple = ()  # the previous entry; () sorts before every element
    for e, w in cert.good:
        _check_size(e, n, "good entry")
        j, values = el = e.j, e.p.values
        if values[j - 1] != i:
            raise ValueError(f"{e} listed as good but is bad")
        if not prev < el:
            raise ValueError(f"good entry {e} not in canonical order")
        prev = el
        if _weight_text(i, j, values) != w:
            raise ValueError(f"good weight mismatch at {e}")
        terms.append((sorted(range(n), key=values.__getitem__), w))
    if _joined(terms) != cert.fact1_sum:
        raise ValueError("fact1_sum does not match the good weights")
    if cert.fact1_sum != cert.b_i_times_x0:
        raise ValueError("fact1_sum != b_i_times_X0")

    prev = ()
    for lo, hi, w_lo, w_hi in cert.bad_pairs:
        _check_size(lo, n, "pair element")
        _check_size(hi, n, "pair element", _second)
        j, values, j2, sigma = lo.j, lo.p.values, hi.j, hi.p.values
        if values[j - 1] == i or sigma[j2 - 1] == i:
            raise ValueError(f"pair ({lo}, {_second(hi)}) contains a good element")
        e, t = (j, values), (j2, sigma)
        if not prev < e < t:
            raise ValueError(f"pair ({lo}, {_second(hi)}) not in canonical order")
        prev = e
        if _image(i, *e) != t or _image(i, *t) != e:
            raise ValueError(
                f"{lo} and {_second(hi)} are not each other's pairing image"
            )
        if _weight_text(i, *e) != w_lo or _weight_text(i, *t) != w_hi:
            raise ValueError(f"pair weight mismatch at ({lo}, {_second(hi)})")
        if w_lo != "-" + w_hi and w_hi != "-" + w_lo:
            raise ValueError(f"pair weights are not exact negations at {lo}")
    if cert.fact2_sum != "0":
        raise ValueError(f'fact2_sum must render "0", got {cert.fact2_sum!r}')


def _weight_text(i: int, j: int, values: tuple[int, ...]) -> str:
    # W_i([j, pi]) as the certificate writes it, built from its factors with
    # no polynomial: the a-factors are (pi_k, k) for k != j and (i, j), in
    # (row, col) order, then b[pi_j]; a leading "-" for an odd inversion
    # count, counted pair by pair.  All its symbols are distinct, so the
    # renderer writes each once, in this order, with coefficient +-1.
    # A factor (r, c) is sorted as the integer r * m + c, with m > n.
    m = len(values) + 1
    a_names, b_names = _names(m)
    factors = [v * m + k for k, v in enumerate(values, 1)]
    factors[j - 1] = i * m + j
    factors.sort()
    text = "*".join(map(a_names.__getitem__, factors)) + b_names[values[j - 1]]
    return "-" + text if sum(starmap(gt, combinations(values, 2))) & 1 else text


@cache
def _names(m: int) -> tuple[list[str], list[str]]:
    # the texts of a[r,c], at r * m + c, and of "*b[r]", at r, for r, c < m
    rows = range(m)
    return [f"a[{r},{c}]" for r in rows for c in rows], [f"*b[{r}]" for r in rows]


def _image(i: int, j: int, values: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # the auditor's own pairing map on a bad (j, values): j2 is the position
    # of value i, and sigma swaps the values at positions j and j2
    j2 = values.index(i) + 1
    sigma = list(values)
    sigma[j - 1], sigma[j2 - 1] = sigma[j2 - 1], sigma[j - 1]
    return j2, tuple(sigma)


def _joined(terms: list[tuple[list[int], str]]) -> str:
    # the good terms, each (pi^-1, text), summed as the renderer writes them:
    # a good term holds a[r, pi^-1(r)] for every row r, and the renderer puts
    # the larger 0/1 exponent vector over (kind, row, col) first, which is
    # the smaller pi^-1; a term's own "-" becomes the " - " before it
    return " + ".join(w for _, w in sorted(terms)).replace(" + -", " - ")


def _check_size(e: FElement, n: int, what: str, name=str) -> None:
    # the parser takes a permutation of any size; the audit names a wrong one
    if e.p.n != n:
        raise ValueError(
            f"permutation size {e.p.n} != system size {n} at {what} {name(e)}"
        )


def _second(e: FElement) -> str:
    # a pair's larger element, named by its keys j2 and sigma as the file writes it
    return f"j2={e.j} sigma={list(e.p.values)}"


def _fields(obj, keys: tuple, what: str) -> list:
    # the values of keys in the JSON object obj, which may hold no other key
    if type(obj) is dict and len(obj) == len(keys):
        try:
            return [obj[k] for k in keys]  # every key is there, so no other is
        except KeyError:
            pass  # a foreign key in place of one of ours: named below
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = obj.keys() - set(keys)
    if unknown:
        raise TypeError(f"unknown keys {sorted(unknown)} in {what}")
    return [obj[k] for k in keys]


def _element(j, values, j_key: str, p_key: str) -> FElement:
    # an entry's position and permutation; a fault names the entry's own keys.
    # Exact ints that sort to 1..n are a permutation; any other values fail
    # Permutation's checks, which name the fault
    j, p = _expect_int(j, j_key), tuple(_expect_list(values, p_key))
    if {*map(type, p)} != {int} or sorted(p) != [*range(1, len(p) + 1)]:
        Permutation(p)
    if not 1 <= j <= len(p):
        raise ValueError(f"{j_key}={j} outside 1..{len(p)}")
    return _felement((j, p))


def _expect_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise TypeError(f"{what} must be a JSON array, got {type(v).__name__}")
    return v


def _expect_int(v, what: str) -> int:
    if type(v) is not int:  # as FElement: no bool, and no other int subclass
        raise TypeError(f"{what} must be an integer, got {v!r}")
    return v


def _expect_str(v, what: str) -> str:
    if not isinstance(v, str):
        raise TypeError(f"{what} must be a string, got {v!r}")
    return v
