"""Bounded-height path series through an integer-polynomial recurrence.

The polynomial family here is q_0 = q_1 = 1, q_{k+1} = q_k - x * q_{k-1}.
It is the renormalization q_k(x) = x^(k/2) * U_k(1/(2*sqrt(x))) of the
second-kind Chebyshev polynomials, chosen so that the half-integer powers of
x that U_k would otherwise drag in cancel structurally: every quantity below
is an honest integer-coefficient object. The recurrence defines q_k and the
tests check it; q_k itself is computed from its explicit coefficients,
(-1)^i * C(k - i, i) at x^i. Three families are derived from it:

* ``r_series(k)``: the ratio q_{k-1}/q_k, whose n-th coefficient counts
  Dyck paths of semilength n with maximum height at most k - 1, checked on
  every call against a walk on the lattice band [0, k - 1];
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

from itertools import islice
from math import comb

from .paths import _band_walk
from .series import InvariantError, Series


def q_poly(k: int) -> tuple[int, ...]:
    """k-th polynomial of the recurrence q_0 = q_1 = 1, q_{k+1} = q_k - x*q_{k-1},
    as its coefficient tuple (entry i multiplies x^i).

    Entry i is (-1)^i * C(k - i, i), the renormalized U_k coefficient. Each
    q_k(0) is 1, so each q_k is invertible as a series, and deg(q_k) =
    k // 2: the tuple has k // 2 + 1 entries and no trailing zero.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return tuple((-1) ** i * comb(k - i, i) for i in range(k // 2 + 1))


def r_series(k: int, order: int) -> Series:
    """Series of the bounded-height ratio q_{k-1}/q_k, with k = 0 giving 0.

    Coefficient n counts Dyck paths of semilength n whose maximum height is
    at most k - 1. Computed two independent ways, which must agree (else
    :class:`InvariantError`): by polynomial division, and by one walk of
    2 * order single steps through the band [0, k - 1], coefficient n being
    the number of walks at height 0 after step 2n. One divides polynomials
    of the recurrence, the other counts lattice walks, in O(order * k)
    big-integer additions. No path of semilength <= order reaches height
    order + 1, so any k above order + 1 is computed as order + 1.
    """
    if order < 0:  # before k is clamped to order + 1
        raise ValueError("order must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Series.zero(order)
    k = min(k, order + 1)
    by_ratio = Series.from_coeffs(q_poly(k - 1), order) / Series.from_coeffs(q_poly(k), order)
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
