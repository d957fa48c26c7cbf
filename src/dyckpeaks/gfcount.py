"""Exact generating functions for peak and valley counts at a fixed height.

Each function returns a truncated series whose n-th coefficient is the
number of Dyck paths of semilength n with the stated property. All
closed forms here are cross-validated against the enumeration and dynamic
programming oracles in :mod:`dyckpeaks.paths`; the test suite and the
``verify`` CLI command enforce that agreement cell by cell.

One closed form serves every family: the valley form at band height j
(``paths._band_height``, the rule the DP kernel reads too),
delta(r=0)*R_{j+1} + x^{j+1+r} * (C*D)^{r+1} / q_{j+1}^2, geometric in r.
The Chebyshev ratio R_{j+1} enters it through the band factor C*D only, and
:func:`_band` gives that factor one rational form, C*D = u*(e + u*C)/m, read
by every generator here. A single slice (:func:`stat_gf`) is one polynomial
times C and one division by a polynomial. A whole family (:func:`stat_family`)
is x^{j+1}*g*(x*u^2*g)^r with the one quotient g = (e + u*C)/(u*m): one
division, then one product per slice, cheaper than r_max + 1 divisions.

:func:`valley0_closed_count` reads valleys at height 0 from binomials alone,
with no series, so it checks the series route at any n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb

from .chebyshev import _q_coeffs, r_series
from .paths import StatKind, _band_height
from .series import InvariantError, Series, _constant_divider, _product, _quotient, catalan_series


def _times(p: list[int], q: list[int], top: int) -> list[int]:
    """The product of two int polynomials, exact up to degree ``top`` and cut there."""
    return _product(p, q, 0, min(len(p) + len(q) - 1, top + 1))


def _plus(top: int, *polys: list[int]) -> list[int]:
    """The sum of int polynomials, cut at degree ``top``, with no trailing zero."""
    total = list(map(sum, zip_longest(*polys, fillvalue=0)))[: top + 1]
    while total and not total[-1]:
        total.pop()
    return total


def _band(j: int, top: int) -> tuple[list[int], list[int], list[int]]:
    """The band polynomials (u, e, m) at band height j >= -1, as int
    coefficient lists cut at degree ``top``, with no trailing zero.

    u = q_{j+1}, e = q_{j+1} - q_j (with q_{-1} = 0) and
    m = (u + x*e)*e + u^2. The band factor C*D = C/(1 - x*(R_{j+1} - 1)*C),
    R_{j+1} = q_j/q_{j+1}, is q_{j+1}/F with 1/C = 1 - x*C and
    F = q_{j+1}*(1 + x) - x*q_j - x*q_{j+1}*C. Since x*C^2 = C - 1,
    F*(e + u*C) = m, so C*D = u*(e + u*C)/m. With h = (j+1)//2, u has degree
    h, e at most h (e = 0 at j = 0) and m at most 2h + 1. q_j(0) = 1, so
    m(0) = 1 for j >= 0; at j = -1, e = u = 1 and m = 2 + x.

    For j >= 0, C*D counts paths from height j+1 back to j+1 (floor 0) with
    no valley at height j: blocks at or above j+1 (C) alternate with dips
    into [0, j] (R_{j+1} - 1), each glued on by a down-step/up-step pair.
    The families read it as u^2*g, with one quotient g = (e + u*C)/(u*m).
    """
    u = list(_q_coeffs(j + 1, top))
    e = _plus(top, u, [-c for c in _q_coeffs(j, top)] if j >= 0 else [])
    return u, e, _plus(top, _times(_plus(top, u, [0, *e]), e, top), _times(u, u, top))


def _check_args(k: int, r: int, order: int) -> None:
    if order < 0:
        raise ValueError("order must be >= 0")
    if k < 0 or r < 0:
        raise ValueError("k and r must be >= 0")


def stat_family(kind: StatKind, k: int, order: int, r_max: int) -> tuple[Series, ...]:
    """Series counting paths with exactly r occurrences at height k, for
    every r = 0..r_max at once; entry r is the r-th slice.

    Every family is geometric in r, and one closed form gives them all.
    Valleys at height k give delta(r=0)*R_{k+1} + C*D*U * (x*C*D)^r, with
    U = x^{k+1}/q_{k+1}^2, D = 1/(1 - x*(R_{k+1}-1)*C), and R and q from the
    bounded-height layer. Peaks at height k >= 1 are that valley form read at
    height k - 2 (see :func:`dyckpeaks.paths.psi` for the certifying
    involution when k >= 2). At height 1 the form is read at height -1:
    R_0 = 0 and q_0 = 1, so U = 1 and C*D = C/(1 + x*C), which is
    P = 1/(1 - x^2*C^2) because 1 - x*C = 1/C; the family is P * (x*P)^r.
    Read as blocks and arches, a path with exactly r peaks at height 1 is
    r bare up-down arches interleaved with r + 1 possibly empty
    peak-at-1-free blocks, each counted by P. Height 0 is degenerate: no
    path has a peak there, so only the r = 0 slice is nonzero.

    With (u, e, m) of :func:`_band`, U*C*D = x^{k+1}*g for the one quotient
    g = (e + u*C)/(u*m), so slice r without R_{k+1} is x^{k+1}*g*(x*u^2*g)^r:
    one division, then one product per slice. The band reads R_{k+1} only
    below x^order, where every height from the order up gives the same
    series, so the band height is clamped to the order. :func:`r_series`
    gives R_{k+1} (C above the order) and runs its two-route check each call.
    """
    _check_args(k, r_max, order)
    j = _band_height(kind, k)
    if j == -2:
        return (catalan_series(order),) + (Series.zero(order),) * r_max
    u, e, m = (Series.from_coeffs(p, order) for p in _band(min(j, order), order))
    g = (e + u * catalan_series(order)) / (u * m)
    slices, step = [g.shift(j + 1)], (u * u * g).shift(1)
    for _ in range(r_max):
        slices.append(slices[-1] * step)
    slices[0] = r_series(j + 1, order) + slices[0]
    return tuple(slices)


def _band_slice(j: int, r: int, order: int) -> Series:
    """Slice r of the valley family at band height j >= -1 without its
    R_{j+1} term, x^{j+1+r} * (C*D)^{r+1} / q_{j+1}^2, for j + 1 + r <= order:
    the direct form of :func:`stat_gf`, computed to low = order - j - 1 and
    then shifted by x^{j+1}. Only C is dense: a, b, u^{r-1} and m^{r+1} (u*m
    at r = 0) are exact int polynomials cut at degree low, as no term above
    it reaches the result, with b*u formed once per step. They meet C in one
    list product, a + b*C, and one list division by den, with no Series
    operator; only the shifted result is built as a Series. The quotient
    takes its length, low + 1, from the numerator, so den is passed
    unpadded, at its own degree.
    """
    low = order - j - 1
    u, e, m = _band(j, low)
    a, b, lift, den = e, u, [1], _times(m, m if r else u, low)
    for step in range(r):
        bu = _times(b, u, low)
        a, b = (_plus(low, [0, *_times(a, e, low - 1)], [-c for c in bu]),
                _plus(low, [0, *_times(a, u, low - 1)], [0, *_times(b, e, low - 1)], bu))
        if step:  # r - 1 factors of u and r + 1 of m in all
            lift, den = _times(lift, u, low), _times(den, m, low)
    num = _product(_times(b, lift, low), catalan_series(low).coeffs, 0, low + 1)
    for i, c in enumerate(_times(a, lift, low)):
        num[i] += c
    quotient = _quotient(num, den, _constant_divider(den[0]))
    return Series(order, [0] * (j + 1) + quotient)


def stat_gf(kind: StatKind, k: int, r: int, order: int) -> Series:
    """Series counting paths with exactly r occurrences at height k: slice r
    of :func:`stat_family`, computed on its own.

    At band height j >= -1 (valleys at k = j, peaks at k = j + 2) the slice
    is delta(r=0)*R_{j+1} + x^{j+1+r} * (C*D)^{r+1} / u^2, with the band
    factor C*D = u*(e + u*C)/m of :func:`_band`. Writing
    x^{i-1}*(e + u*C)^i = a + b*C, from (a, b) = (e, u) at i = 1, one more
    factor x*(e + u*C) maps (a, b) to (x*a*e - b*u, x*(a*u + b*e) + b*u).
    After r steps the slice is x^{j+1} * u^{r-1} * (a + b*C) / m^{r+1}
    (divided by u*m instead when r = 0): exact int polynomial products, one
    polynomial times C and one division, not r + 1 dense products.

    m(0) = 1 for j >= 0. At j = -1 (peaks at height 1) m = 2 + x; the slice
    is integral, so dividing by (2 + x)^{r+1} stays in the integers too. No
    path has a peak at height 0: that family is C at r = 0, zero otherwise.
    The r_series two-route check runs once on every call with j >= 0. Slice
    r is divisible by x^{j+1+r}, so a slice past the order is zero, and k
    past the order asks for no polynomial beyond q_{order}.
    """
    _check_args(k, r, order)
    j = _band_height(kind, k)
    if j == -2:
        return catalan_series(order) if r == 0 else Series.zero(order)
    # the two-route check runs on every call, also when r >= 1 leaves R unused
    ratio = r_series(j + 1, order)
    band = _band_slice(j, r, order) if j + 1 + r <= order else Series.zero(order)
    return ratio + band if r == 0 else band


def valley_gf(k: int, r: int, order: int) -> Series:
    """Series counting paths with exactly r valleys at height k."""
    return stat_gf(StatKind.VALLEY, k, r, order)


def peak_gf(k: int, r: int, order: int) -> Series:
    """Series counting paths with exactly r peaks at height k."""
    return stat_gf(StatKind.PEAK, k, r, order)


def peak1_nonempty_blocks_gf(r: int, order: int) -> Series:
    """The height-1 peak series under the all-blocks-nonempty reading.

    Equals delta(r=0) + x^{3r+2} * C^{2r+2} / (1 - x^2*C^2)^{r+1}. For
    r = 0 this matches :func:`peak_gf`; for r >= 1 it undercounts (adjacent
    arches force empty blocks, e.g. the 2-peak path UDUD), and the verify
    report documents the mismatch against the oracle.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    c = catalan_series(order)
    blocks = (1 - (c * c).shift(2)).reciprocal()
    main = blocks.power(r + 1) * c.power(2 * r + 2).shift(3 * r + 2)
    if r == 0:
        return main + 1
    return main


def valley0_closed_count(n: int, r: int) -> int:
    """Number of semilength-n paths with exactly r valleys at height 0.

    The coefficient of x^{n-r-1} in C^{r+1} (the n >= 1 slice of the exact
    series delta(r=0) + x^{r+1} C^{r+1}): with m = n - r - 1 and j = r + 1,
    the closed form j/(2m+j) * binom(2m+j, m), binomials and no series. It
    is always an exact integer; a remainder is a formula bug and raises
    :class:`InvariantError`. Zero when n <= r except for the empty-path
    cell n = 0, r = 0.
    """
    if n < 0 or r < 0:
        raise ValueError("n and r must be >= 0")
    if n == 0:
        return 1 if r == 0 else 0
    if n <= r:
        return 0
    m, j = n - r - 1, r + 1
    num, den = j * comb(2 * m + j, m), 2 * m + j
    if num % den:
        raise InvariantError(f"non-integral coefficient for m={m}, j={j}")
    return num // den


def _valley0_binomial_literal(n: int, r: int) -> Fraction:
    """The printed closed form (r+1)/n * binom(2n-r-1, n+1), evaluated exactly.

    Kept for the discrepancy report: it disagrees with the true count at
    small (n, r) and is not always an integer. Requires n >= 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    top = 2 * n - r - 1
    binom = comb(top, n + 1) if top >= 0 else 0
    return Fraction(r + 1, n) * binom

