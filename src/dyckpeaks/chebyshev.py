"""Bounded-height path series through an integer-polynomial recurrence.

The polynomial family here is q_0 = q_1 = 1, q_{k+1} = q_k - x * q_{k-1}.
It is the renormalization q_k(x) = x^(k/2) * U_k(1/(2*sqrt(x))) of the
second-kind Chebyshev polynomials, chosen so that the half-integer powers of
x that U_k would otherwise drag in cancel structurally: every quantity below
is an honest integer-coefficient object. The recurrence defines q_k and the
tests check it; q_k itself is computed from its explicit coefficients,
(-1)^i * C(k - i, i) at x^i, each from the one before by an exact ratio.
Three families are derived from it:

* ``r_series(k)``: the ratio R_k = q_{k-1}/q_k, whose n-th coefficient
  counts Dyck paths of semilength n with maximum height at most k - 1, in
  one form for every k: R_k = C mod x^k, and R_k * q_k has degree below k,
  so C's first k coefficients seed a quotient by q_k over a zero numerator
  and q_{k-1} is never read. Checked on every call against a walk on
  [0, k - 1];
* ``u_inv_sq_series(k)``: x^k / q_k(x)^2, the squared-denominator factor
  of the exact peak/valley formulas (1 at k = 0); no generator reads it,
  acceptance criterion 10 checks it and the tests compare the generators
  against it;
* ``f_series_t(k)``: t^k / q_{k+1}(t^2), a series in the single-step
  variable t (x = t^2) counting paths from height 0 to height k confined
  to the band [0, k].

Every function here is pure: q_k is recomputed on each call and the module
keeps no state between calls. The band walk comes from ``paths``, which
imports only ``series``.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .paths import _band_walk
from .series import InvariantError, Series, _constant_divider, _quotient, catalan_series


def _q_coeffs(k: int, top: int) -> Iterator[int]:
    """The coefficients of q_k up to degree ``top``: entry i is
    c_i = (-1)^i * C(k - i, i) for i <= min(k // 2, top), each from the one
    before by the exact ratio
    c_i = -c_(i-1) * (k - 2i + 2)*(k - 2i + 1) / (i*(k - i + 1)): one
    product and one exact division per coefficient, and none above the cut."""
    c = 1
    for i in range(min(k // 2, top) + 1):
        if i:
            c = -c * ((k - 2 * i + 2) * (k - 2 * i + 1)) // (i * (k - i + 1))
        yield c


def q_poly(k: int) -> tuple[int, ...]:
    """k-th polynomial of the recurrence q_0 = q_1 = 1, q_{k+1} = q_k - x*q_{k-1},
    as its coefficient tuple (entry i multiplies x^i).

    Entry i is (-1)^i * C(k - i, i), the renormalized U_k coefficient. Each
    q_k(0) is 1, so each q_k is invertible as a series, and deg(q_k) =
    k // 2: the tuple has k // 2 + 1 entries and no trailing zero.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return tuple(_q_coeffs(k, k // 2))


def r_series(k: int, order: int) -> Series:
    """Series of the bounded-height ratio R_k = q_{k-1}/q_k, with k = 0 giving 0.

    Coefficient n counts Dyck paths of semilength n whose maximum height is
    at most k - 1. Computed two independent ways, which must agree (else
    :class:`InvariantError`): by a seeded quotient, and by one walk of
    2 * order single steps through the band [0, k - 1], coefficient n being
    the number of walks at height 0 after step 2n. The walk counts lattice
    walks, in O(order * k) big-integer additions, and checks every
    coefficient.

    The quotient has one form for every k. No path of semilength below k
    reaches height k, so R_k = C mod x^k, and C's first min(k, order + 1)
    coefficients seed it. R_k * q_k = q_{k-1} has degree below k, so from x^k
    up the numerator is zero and q_{k-1} is not read: each further
    coefficient is the recurrence by q_k alone, k // 2 products. Past the
    order no coefficient is left to compute, R_k is C, and of q_k only its
    constant term 1 is used: no binomial is computed.
    """
    if order < 0:  # before k = 0 returns
        raise ValueError("order must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Series.zero(order)
    seed = catalan_series(min(k - 1, order)).coeffs  # R_k = C mod x^k
    den = q_poly(k) if k <= order else (1,)  # with no term left to compute, q_k(0) = 1 is all
    by_ratio = Series(order, _quotient([0] * (order + 1), den, _constant_divider(den[0]), seed))
    even_rows = islice(_band_walk(2 * order, k - 1, 0), None, None, 2)  # height 0 is entry 0
    by_walk = tuple(row[0] if row else 0 for row in even_rows)
    if by_ratio.coeffs != by_walk:
        raise InvariantError(f"bounded-height series routes disagree at k={k}")
    return by_ratio


def u_inv_sq_series(k: int, order: int) -> Series:
    """Series of x^k / q_k(x)^2 for k >= 0; lowest nonzero exponent is k,
    so the series is zero when k exceeds the order, and k = 0 gives 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > order:
        return Series.zero(order)
    qk = Series.from_coeffs(q_poly(k), order)
    return (qk * qk).reciprocal().shift(k)


def f_series_t(k: int, order: int) -> Series:
    """Band-confined path series in the single-step variable t.

    Returns t^k / q_{k+1}(t^2) truncated at ``order``: the coefficient of
    t^n is the number of n-step paths from height 0 to height k that stay
    inside the band [0, k]. Paths ending at odd height have odd step count,
    which is why this one series lives in t rather than x = t^2. The
    lowest nonzero exponent is k, so the series is zero when k exceeds the
    order.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > order:
        return Series.zero(order)
    spaced: list[int] = []
    for c in q_poly(k + 1):
        spaced.append(c)
        spaced.append(0)
    den = Series.from_coeffs(spaced, order)
    return den.reciprocal().shift(k)
