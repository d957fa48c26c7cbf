"""Bounded-height path series through an integer-polynomial recurrence.

The polynomial family here is q_0 = q_1 = 1, q_{k+1} = q_k - x * q_{k-1}.
It is the renormalization q_k(x) = x^(k/2) * U_k(1/(2*sqrt(x))) of the
second-kind Chebyshev polynomials, chosen so that the half-integer powers of
x that U_k would otherwise drag in cancel structurally: every quantity below
is an honest integer-coefficient object. Three families are derived from it:

* ``r_series(k)``: the ratio q_{k-1}/q_k, whose n-th coefficient counts
  Dyck paths of semilength n with maximum height at most k - 1;
* ``u_inv_sq_series(k)``: x^k / q_k(x)^2, the squared-denominator factor
  of the exact peak/valley formulas;
* ``f_series_t(k)``: t^k / q_{k+1}(t^2), a series in the single-step
  variable t (x = t^2) counting paths from height 0 to height k confined
  to the band [0, k].
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .series import InvariantError, Series


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial; coeffs[i] multiplies x^i.

    Trailing zeros are stripped on construction; the zero polynomial is the
    empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cs = list(self.coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("IntPoly coefficients must be ints")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __add__(self, other: IntPoly) -> IntPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        if not self.coeffs or not other.coeffs:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPoly(tuple(out))

    def to_series(self, order: int) -> Series:
        return Series.from_coeffs(self.coeffs, order)

    def __str__(self) -> str:
        """Human-readable form, e.g. ``1 - 3x + x^2``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_q_cache: list[IntPoly] = [IntPoly((1,)), IntPoly((1,))]
_q_lock = threading.Lock()
_X = IntPoly((0, 1))


def q_poly(k: int) -> IntPoly:
    """k-th polynomial of the recurrence q_0 = q_1 = 1, q_{k+1} = q_k - x*q_{k-1}.

    q_k(0) = 1 for every k, so each q_k is invertible as a series, and
    deg(q_k) = k // 2. The memo table is extended under a lock so concurrent
    callers stay safe.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    with _q_lock:
        while len(_q_cache) <= k:
            _q_cache.append(_q_cache[-1] - _X * _q_cache[-2])
        return _q_cache[k]


def r_series(k: int, order: int) -> Series:
    """Series of the bounded-height ratio q_{k-1}/q_k, with k = 0 giving 0.

    Coefficient n counts Dyck paths of semilength n whose maximum height is
    at most k - 1. Computed two independent ways, by polynomial division and
    by iterating the step map R -> 1/(1 - x*R) k times from 0; the routes
    must agree (else :class:`InvariantError`), which guards both the
    polynomial table and the iteration. No path of semilength <= order
    reaches height order + 1, so any k above order + 1 is computed as
    order + 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Series.zero(order)
    k = min(k, order + 1)
    by_ratio = q_poly(k - 1).to_series(order) / q_poly(k).to_series(order)
    by_iteration = Series.zero(order)
    for _ in range(k):
        by_iteration = (1 - by_iteration.shift(1)).reciprocal()
    if by_ratio != by_iteration:
        raise InvariantError(f"bounded-height series routes disagree at k={k}")
    return by_ratio


def u_inv_sq_series(k: int, order: int) -> Series:
    """Series of x^k / q_k(x)^2 for k >= 1; lowest nonzero exponent is k,
    so the series is zero when k exceeds the order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > order:
        return Series.zero(order)
    qk = q_poly(k).to_series(order)
    return (qk * qk).reciprocal().shift(k)


def f_series_t(k: int, order: int) -> Series:
    """Band-confined path series in the single-step variable t.

    Returns t^k / q_{k+1}(t^2) truncated at ``order``: the coefficient of
    t^n is the number of n-step paths from height 0 to height k that stay
    inside the band [0, k]. Paths ending at odd height have odd step count,
    which is why this one series lives in t rather than x = t^2.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    spaced: list[int] = []
    for c in q_poly(k + 1).coeffs:
        spaced.append(c)
        spaced.append(0)
    den = Series.from_coeffs(spaced, order)
    return den.reciprocal().shift(k)
