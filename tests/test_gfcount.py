"""Tests for the closed-form counting series, oracle-checked."""

import random
from fractions import Fraction
from math import comb

import pytest
from test_series import _FractionForbidden

import dyckpeaks.series as series_module
from dyckpeaks import gfcount
from dyckpeaks.cfrac import peak_bivar_cfrac
from dyckpeaks.chebyshev import q_poly, r_series, u_inv_sq_series
from dyckpeaks.gfcount import (
    _valley0_binomial_literal,
    peak_gf,
    peak1_nonempty_blocks_gf,
    stat_family,
    stat_gf,
    valley_gf,
    valley0_closed_count,
)
from dyckpeaks.paths import StatKind, build_table, count_exact_dp, enumerate_paths, statistics
from dyckpeaks.series import InvariantError, Series, catalan_series


def enum_counts(kind, k, order):
    """Enumeration oracle: per-semilength counts for each r, as a dict."""
    out = {}
    for n in range(order + 1):
        for p in enumerate_paths(n):
            r = statistics(p).count(kind, k)
            out[(n, r)] = out.get((n, r), 0) + 1
    return out


def enum_series(kind, k, r, order):
    counts = enum_counts(kind, k, order)
    return [counts.get((n, r), 0) for n in range(order + 1)]


# -- valley_gf ---------------------------------------------------------------


def test_valley_gf_height0_no_valleys():
    assert list(valley_gf(0, 0, 5).coeffs) == [1, 1, 1, 2, 5, 14]
    # equals 1 + x*C
    c = catalan_series(7)
    assert valley_gf(0, 0, 7) == c.shift(1) + 1


@pytest.mark.parametrize("r", range(7))
def test_valley_gf_height0_closed_form(r):
    # delta(r=0) + x^{r+1} C^{r+1}, checked coefficientwise at order 30
    c = catalan_series(30)
    expected = c.power(r + 1).shift(r + 1)
    if r == 0:
        expected = expected + 1
    assert valley_gf(0, r, 30) == expected


def test_valley_gf_height1_matches_enumeration():
    assert list(valley_gf(1, 0, 5).coeffs) == [1, 1, 2, 4, 9, 22]
    assert valley_gf(1, 0, 6).as_integer_sequence() == enum_series(StatKind.VALLEY, 1, 0, 6)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("r", range(4))
def test_valley_gf_grid_matches_enumeration(k, r):
    assert valley_gf(k, r, 7).as_integer_sequence() == enum_series(StatKind.VALLEY, k, r, 7)


# -- peak_gf -----------------------------------------------------------------


def test_peak_gf_fine_numbers():
    assert list(peak_gf(1, 0, 6).coeffs) == [1, 0, 1, 2, 6, 18, 57]
    # no peak at height 2; at n = 3 these are UDUDUD and UUUDDD
    assert list(peak_gf(2, 0, 5).coeffs) == [1, 1, 1, 2, 5, 14]


def test_peak_gf_height0():
    assert list(peak_gf(0, 0, 4).coeffs) == [1, 1, 2, 5, 14]
    assert peak_gf(0, 3, 6) == Series.zero(6)


def test_peak_gf_height1_r1():
    assert list(peak_gf(1, 1, 4).coeffs) == [0, 1, 0, 2, 4]


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("r", range(4))
def test_peak_gf_grid_matches_enumeration(k, r):
    assert peak_gf(k, r, 7).as_integer_sequence() == enum_series(StatKind.PEAK, k, r, 7)


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("r", range(4))
def test_peak_gf_reduces_to_valley_gf(k, r):
    assert peak_gf(k, r, 20) == valley_gf(k - 2, r, 20)


def test_sum_rule_over_r():
    catalan = catalan_series(8).coeffs
    for k in range(4):
        for kind in StatKind:
            for n in range(9):
                total = sum(
                    stat_gf(kind, k, r, 8).coefficient(n) for r in range(n + 1)
                )
                assert total == catalan[n], (kind, k, n)


def test_stat_gf_dispatch():
    assert stat_gf(StatKind.PEAK, 1, 0, 5) == peak_gf(1, 0, 5)
    assert stat_gf(StatKind.VALLEY, 1, 0, 5) == valley_gf(1, 0, 5)


# -- printed height-1 variant ---------------------------------------------


def test_nonempty_blocks_variant_agrees_at_r0():
    assert peak1_nonempty_blocks_gf(0, 12) == peak_gf(1, 0, 12)


def test_nonempty_blocks_variant_diverges_for_r1():
    # frozen from the enumeration oracle: the 1-peak count starts 0,1,0,2,4
    printed = peak1_nonempty_blocks_gf(1, 6).as_integer_sequence()
    oracle = enum_series(StatKind.PEAK, 1, 1, 6)
    assert printed == [0, 0, 0, 0, 0, 1, 4]
    assert oracle == [0, 1, 0, 2, 4, 13, 40]
    assert printed != oracle


# -- band series -------------------------------------------------------------


def band_no_valley_count(n, k):
    """Fresh DP oracle: 2n-step paths from k+1 to k+1, floor 0, no valley
    at height k."""
    states = {(k + 1, 0): 1}  # (height, last step: 0 start, 1 up, 2 down)
    for _ in range(2 * n):
        nxt = {}
        for (h, last), ways in states.items():
            if not (last == 2 and h == k):
                key = (h + 1, 1)
                nxt[key] = nxt.get(key, 0) + ways
            if h >= 1:
                key = (h - 1, 2)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(w for (h, _last), w in states.items() if h == k + 1)


def band_factor(j, order):
    """The band factor C*D = u*(e + u*C)/m at band height j, built from the
    band polynomials of ``gfcount._band``."""
    u, e, m = (Series.from_coeffs(p, order) for p in gfcount._band(j, order))
    return u * (e + u * catalan_series(order)) / m


def band_as_series(j, order):
    """(u, e, m) of ``gfcount._band`` by series arithmetic at ``order``."""
    u = Series.from_coeffs(q_poly(j + 1), order)
    e = u - Series.from_coeffs(q_poly(j) if j >= 0 else (), order)
    return u, e, (u + e.shift(1)) * e + u * u


@pytest.mark.parametrize("top", [0, 1, 2, 5, 13, 100])
def test_band_polynomials_are_exact_int_lists_cut_at_top(top):
    for j in range(-1, 41):
        h = (j + 1) // 2
        u, e, m = gfcount._band(j, top)
        for poly in (u, e, m):
            assert type(poly) is list and {int} >= set(map(type, poly)), j
            assert not poly or poly[-1], j  # no trailing zero
        assert len(u) == min(h, top) + 1 and len(e) <= len(u), j  # degrees h and <= h, cut at top
        assert len(m) <= min(2 * h + 1, top) + 1, j
        assert [Series.from_coeffs(p, top) for p in (u, e, m)] == list(band_as_series(j, top)), j
    assert gfcount._band(-1, top) == ([1], [1], [2, 1][: top + 1])


def test_no_valley_band_gf_k0_is_catalan():
    assert band_factor(0, 8) == catalan_series(8)


def test_no_valley_band_gf_frozen_values():
    # frozen from the DP oracle above
    assert band_factor(1, 6).as_integer_sequence() == [1, 1, 3, 8, 23, 69, 215]
    assert band_factor(2, 6).as_integer_sequence() == [1, 1, 3, 9, 28, 89, 288]


@pytest.mark.parametrize("k", range(5))
def test_no_valley_band_gf_matches_dp_oracle(k):
    coeffs = band_factor(k, 8).as_integer_sequence()
    assert coeffs == [band_no_valley_count(n, k) for n in range(9)]


def band_by_ratio(k, order):
    """The band factor in its defining form C / (1 - x*(R_{k+1} - 1)*C)."""
    c = catalan_series(order)
    return c / (1 - ((r_series(k + 1, order) - 1) * c).shift(1))


@pytest.mark.parametrize("order", [0, 1, 7, 40])
def test_band_factor_equals_its_defining_form(order):
    for k in range(13):
        assert band_factor(k, order) == band_by_ratio(k, order), k
    # height -1, where the peak family at height 1 reads it: R_0 = 0
    assert band_factor(-1, order) == band_by_ratio(-1, order)


@pytest.mark.parametrize("order", [0, 1, 7, 40])
def test_slice_0_is_the_band_factor_times_u_inv_sq(order):
    # slice 0 divides by q_{k+1}^2; the public x^{k+1}/q_{k+1}^2 must agree
    for kind, low in [(StatKind.VALLEY, 0), (StatKind.PEAK, 1)]:
        for k in range(low, 13):
            j = k if kind is StatKind.VALLEY else k - 2
            slice0 = stat_family(kind, k, order, 0)[0] - r_series(j + 1, order)
            assert slice0 == band_by_ratio(j, order) * u_inv_sq_series(j + 1, order), (kind, k)


def test_unreachable_heights_ask_gfcount_for_no_high_polynomial(monkeypatch):
    real = gfcount.q_poly
    order = 5

    def guarded(k):
        assert k <= order + 1, k
        return real(k)

    monkeypatch.setattr(gfcount, "q_poly", guarded)
    zero = Series.zero(order)
    for kind in StatKind:
        assert stat_gf(kind, 2000, 0, order) == catalan_series(order)
        assert stat_gf(kind, 2000, 1, order) == zero
        assert stat_family(kind, 2000, order, 3) == (catalan_series(order), zero, zero, zero)
        # the direct slice near and past the order, for every r
        for k in range(order - 1, order + 4):
            for r in range(order + 3):
                assert stat_gf(kind, k, r, order) == stat_family(kind, k, order, r)[r], (k, r)


def test_family_divides_only_by_short_polynomials_in_the_integers(monkeypatch):
    # at band height j every divisor is u*m of the band quotient, or the
    # ratio check's q_{j+1}: of degree at most 3*((j+1)//2) + 1, with
    # constant term 1 for j >= 0 and 2 at j = -1 (peaks at height 1)
    divisors = []
    real = Series.__truediv__

    def spy(self, other):
        divisors.append(other.coeffs)
        return real(self, other)

    monkeypatch.setattr(Series, "__truediv__", spy)
    monkeypatch.setattr(series_module, "Fraction", _FractionForbidden)
    for kind in StatKind:
        for k in range(10):
            j = k - 2 if kind is StatKind.PEAK else k
            divisors.clear()
            for series in stat_family(kind, k, 40, 5):
                assert {int} == set(map(type, series.coeffs)), (kind, k)
            for den in divisors:
                degree = max(i for i, c in enumerate(den) if c)
                assert degree <= 3 * ((j + 1) // 2) + 1, (kind, k, degree)
                assert den[0] == (1 if j >= 0 else 2), (kind, k)


def test_stat_family_divides_once_per_call(monkeypatch):
    # the whole family reads one band quotient; with the ratio check stubbed
    # out, that quotient is the only division, past the order too
    divisions = []
    real = Series.__truediv__

    def spy(self, other):
        divisions.append(other.coeffs)
        return real(self, other)

    monkeypatch.setattr(Series, "__truediv__", spy)
    monkeypatch.setattr(gfcount, "r_series", lambda k, order: Series.zero(order))
    for order in [0, 3, 8, 40]:
        for kind in StatKind:
            for k in range(9):
                divisions.clear()
                stat_family(kind, k, order, 4)
                expected = 0 if (kind, k) == (StatKind.PEAK, 0) else 1
                assert len(divisions) == expected, (order, kind, k)


def test_stat_family_checks_the_height_ratio_once_per_call(monkeypatch):
    calls = []
    real = gfcount.r_series

    def counted(k, order):
        calls.append(k)
        return real(k, order)

    monkeypatch.setattr(gfcount, "r_series", counted)
    # the peak family at height 0 is degenerate and reads no ratio
    cases = [(kind, k) for kind in StatKind for k in range(6) if (kind, k) != (StatKind.PEAK, 0)]
    for kind, k in cases:
        calls.clear()
        stat_family(kind, k, 12, 3)
        assert len(calls) == 1, (kind, k)


def test_stat_gf_checks_the_height_ratio_once_per_call(monkeypatch):
    calls = []
    real = gfcount.r_series

    def counted(k, order):
        calls.append(k)
        return real(k, order)

    monkeypatch.setattr(gfcount, "r_series", counted)
    # slices r >= 1 never add the ratio, yet still check it; so do slices
    # past the order, which are zero
    cases = [(kind, k) for kind in StatKind for k in range(6) if (kind, k) != (StatKind.PEAK, 0)]
    for kind, k in cases:
        for r in [*range(15), 10**9]:
            calls.clear()
            stat_gf(kind, k, r, 12)
            assert len(calls) == 1, (kind, k, r)


# -- the direct slice ------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2, 5, 17, 60])
def test_stat_gf_equals_its_family_slice(order):
    # includes r > order and k > order, where the slice is zero or clamped
    for kind in StatKind:
        for k in range(13):
            family = stat_family(kind, k, order, 8)
            for r in range(9):
                assert stat_gf(kind, k, r, order) == family[r], (kind, k, r)


def test_stat_gf_equals_its_family_slice_at_order_200():
    for kind in StatKind:
        for k in range(10):
            family = stat_family(kind, k, 200, 4)
            for r in range(5):
                assert stat_gf(kind, k, r, 200) == family[r], (kind, k, r)


def _band_polynomials(j, r, order):
    """a, b and the divisor of the direct slice at band height j (see
    ``stat_gf``), by series arithmetic at ``order``, as int lists with no
    trailing zero: the reference for the exact lists of ``_band_slice``."""
    u, e, m = band_as_series(j, order)
    a, b = e, u
    for _ in range(r):
        a, b = (a * e).shift(1) - b * u, (a * u + b * e).shift(1) + b * u
    if r:
        lift = u.power(r - 1)
        polys = a * lift, b * lift, m.power(r + 1)
    else:
        polys = a, b, u * m
    lists = [list(p.coeffs) for p in polys]
    for poly in lists:
        while poly and not poly[-1]:
            poly.pop()
    return lists


@pytest.mark.parametrize("order", [0, 1, 7, 40, 200])
def test_band_slice_equals_its_form_at_the_full_order(order):
    # at order 200 every degree bound is below order - j - 1; at 7 none is
    for j in range(-1, 13):
        for r in range(9):
            if j + 1 + r > order:
                continue
            low = order - j - 1
            a, b, den = (Series.from_coeffs(p, low) for p in _band_polynomials(j, r, low))
            quotient = (a + b * catalan_series(low)) / den
            expected = Series.from_coeffs((0,) * (j + 1) + quotient.coeffs, order)
            assert gfcount._band_slice(j, r, order) == expected, (j, r)


def test_band_polynomials_have_no_term_above_the_degree_bound():
    for j in range(-1, 13):
        h = (j + 1) // 2
        for r in range(9):
            bound = (r + 1) * (2 * h + 1) + h
            for poly in _band_polynomials(j, r, bound + 8):
                assert len(poly) <= bound + 1, (j, r)


@pytest.mark.parametrize("kind", list(StatKind))
def test_stat_gf_equals_its_family_where_the_cut_is_far_below_the_degrees(kind):
    # band height 300 at order 310: _band_slice cuts at degree 9, where u
    # has degree 150 and m^4 degree 1204
    k = 300 if kind is StatKind.VALLEY else 302
    family = stat_family(kind, k, 310, 3)
    for r in range(4):
        assert stat_gf(kind, k, r, 310) == family[r], r


def test_band_slice_meets_the_dense_series_once(monkeypatch):
    # one product (b*C) and one division per slice; every exact product is
    # cut at degree order - j - 1
    counts, lengths = {"__mul__": 0, "__truediv__": 0}, []
    for name in counts:
        def spy(self, other, real=getattr(Series, name), name=name):
            counts[name] += 1
            return real(self, other)
        monkeypatch.setattr(Series, name, spy)
    real_product = gfcount._product

    def product(*args):
        out = real_product(*args)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(gfcount, "_product", product)
    for j, r, order in [(j, r, 30) for j in range(-1, 13) for r in range(9) if j + 1 + r <= 30] + [(1990, 3, 2000)]:
        counts.update(dict.fromkeys(counts, 0))
        lengths.clear()
        gfcount._band_slice(j, r, order)
        assert counts == {"__mul__": 1, "__truediv__": 1}, (j, r, order)
        assert max(lengths) <= order - j, (j, r, order)


def test_direct_slice_divides_in_the_integers(monkeypatch):
    # every divisor, the ratio check's included, has constant term 1 at band
    # heights j >= 0 (valleys at k >= 0, peaks at k >= 2) and 2^(r+1) at
    # j = -1 (peaks at height 1); peaks at height 0 divide by nothing. Every
    # quotient is integral, so no Fraction is created.
    constants = []
    real = Series.__truediv__

    def spy(self, other):
        constants.append(other.coeffs[0])
        return real(self, other)

    monkeypatch.setattr(Series, "__truediv__", spy)
    monkeypatch.setattr(series_module, "Fraction", _FractionForbidden)
    for kind in StatKind:
        for k in range(10):
            j = k if kind is StatKind.VALLEY else k - 2
            for r in range(6):
                constants.clear()
                coeffs = stat_gf(kind, k, r, 40).coeffs
                expected = {1} if j >= 0 else {2 ** (r + 1)} if j == -1 else set()
                assert set(constants) == expected, (kind, k, r)
                assert {int} == set(map(type, coeffs)), (kind, k, r)


def test_stat_gf_never_builds_a_family(monkeypatch):
    calls = []
    monkeypatch.setattr(gfcount, "stat_family", lambda *args: calls.append(args))
    for kind in StatKind:
        for k in range(10):
            for r in range(6):
                stat_gf(kind, k, r, 12)
    assert calls == []


def _deep_points(seed, count):
    """Seeded (kind, k, r, n) past the enumeration guard, on the direct slice."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        kind = rng.choice(list(StatKind))
        points.append((kind, rng.randint(0, 9), rng.randint(0, 5), rng.randint(400, 800)))
    return points


@pytest.mark.parametrize("kind, k, r, n", _deep_points(2002, 6))
def test_stat_gf_equals_dp_past_the_enumeration_guard(kind, k, r, n):
    assert stat_gf(kind, k, r, n).coefficient(n) == count_exact_dp(n, k, r, kind)


# -- closed counts ------------------------------------------------------------


def test_valley0_closed_count_examples():
    assert valley0_closed_count(2, 1) == 1  # UDUD
    assert valley0_closed_count(0, 0) == 1  # empty path
    assert valley0_closed_count(3, 1) == 2  # UUDDUD, UDUUDD
    assert valley0_closed_count(5, 5) == 0
    assert valley0_closed_count(0, 1) == 0


def test_valley0_closed_count_matches_enumeration():
    counts = enum_counts(StatKind.VALLEY, 0, 8)
    for n in range(9):
        for r in range(9):
            assert valley0_closed_count(n, r) == counts.get((n, r), 0)


def test_valley0_closed_count_matches_series():
    for r in range(5):
        coeffs = valley_gf(0, r, 12).as_integer_sequence()
        for n in range(13):
            assert valley0_closed_count(n, r) == coeffs[n]


def test_valley0_binomial_literal_disagrees():
    assert _valley0_binomial_literal(2, 1) == 0  # true count is 1
    assert _valley0_binomial_literal(3, 1) == Fraction(2, 3)  # not even an integer
    with pytest.raises(ValueError):
        _valley0_binomial_literal(0, 0)


# -- coefficient extraction ----------------------------------------------------
# The coefficient of x^m in C^j, j >= 1, is valley0_closed_count(m + j, j - 1).


def test_catalan_power_coefficient_examples():
    assert valley0_closed_count(1, 0) == 1  # m = 0, j = 1
    assert valley0_closed_count(7, 6) == 1  # m = 0, j = 7
    assert valley0_closed_count(4, 0) == 5  # m = 3, j = 1
    assert valley0_closed_count(5, 2) == 9  # m = 2, j = 3


def test_catalan_power_coefficient_matches_convolution():
    for j in range(1, 9):
        coeffs = catalan_series(40).power(j).as_integer_sequence()
        for m in range(41):
            assert valley0_closed_count(m + j, j - 1) == coeffs[m]


def test_catalan_power_coefficient_validates():
    # j = 0 reads as r = -1; m < 0 reads as n <= r, a zero count, so a
    # negative n takes its place
    with pytest.raises(ValueError):
        valley0_closed_count(3, -1)
    with pytest.raises(ValueError):
        valley0_closed_count(-1, 2)


def test_a_remainder_in_the_closed_form_is_an_invariant_error(monkeypatch):
    # j * binom(2m + j, m) is always a multiple of 2m + j, so a remainder is
    # a formula bug: with binom(7, 3) off by one, valley0_closed_count(4, 0)
    # reads 36 / 7 for its m = 3, j = 1 coefficient
    monkeypatch.setattr(gfcount, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(InvariantError, match=r"^non-integral coefficient for m=3, j=1$"):
        valley0_closed_count(4, 0)


def test_dp_and_series_agree_beyond_64_bit_range():
    # arbitrary-precision check: the counts here are far past 2**63
    from dyckpeaks.paths import count_exact_dp

    dp = count_exact_dp(60, 2, 1, StatKind.PEAK)
    assert dp == peak_gf(2, 1, 60).as_integer_sequence()[60]
    assert dp == 405944995127576985730643443367112
    assert dp > 2**63

    dp = count_exact_dp(120, 1, 3, StatKind.VALLEY)
    assert dp == valley_gf(1, 3, 120).as_integer_sequence()[120]


# -- integrality and queries ----------------------------------------------------


def test_series_are_integral():
    for k in range(6):
        for r in range(5):
            peak_gf(k, r, 25).as_integer_sequence()
            valley_gf(k, r, 25).as_integer_sequence()
    for k in range(5):
        band_factor(k, 25).as_integer_sequence()


def test_gf_query():
    assert list(stat_gf(StatKind.PEAK, 1, 0, 6).coeffs) == [1, 0, 1, 2, 6, 18, 57]
    with pytest.raises(ValueError):
        stat_gf(StatKind.PEAK, -1, 0, 6)
    with pytest.raises(ValueError):
        stat_gf(StatKind.PEAK, 1, 0, -2)


# -- whole families ---------------------------------------------------------------


def test_stat_family_validates():
    with pytest.raises(ValueError, match="k and r"):
        stat_family(StatKind.VALLEY, 1, 5, -1)
    with pytest.raises(ValueError, match="k and r"):
        stat_family(StatKind.PEAK, -1, 5, 2)
    with pytest.raises(ValueError, match="order"):
        stat_family(StatKind.PEAK, 1, -1, 2)


@pytest.mark.parametrize("kind", list(StatKind))
@pytest.mark.parametrize("k", range(7))
def test_stat_family_sums_to_catalan(kind, k):
    # the sum rule at z = 1, as one series identity
    family = stat_family(kind, k, 40, 40)
    assert len(family) == 41
    assert sum(family, Series.zero(40)) == catalan_series(40)


@pytest.mark.parametrize("k", range(1, 5))
def test_peak_family_equals_marked_fraction(k):
    family = stat_family(StatKind.PEAK, k, 30, 30)
    marked = peak_bivar_cfrac(k, 30, 30)
    assert family == tuple(marked.z_slice(r) for r in range(31))


def test_stat_gf_past_the_order_is_zero():
    for kind in StatKind:
        for k in range(3):
            assert stat_gf(kind, k, 9, 5) == Series.zero(5)
            assert stat_gf(kind, k, 10**9, 5) == Series.zero(5)


def test_gf_table_equals_dp_table():
    assert build_table(60, 8, "gf").rows == build_table(60, 8, "dp").rows


@pytest.mark.parametrize(
    "kind, k, r", [(StatKind.PEAK, 3, 2), (StatKind.VALLEY, 4, 1), (StatKind.PEAK, 1, 4)]
)
def test_gf_equals_dp_at_n_200(kind, k, r):
    assert stat_gf(kind, k, r, 200).coefficient(200) == count_exact_dp(200, k, r, kind)


@pytest.mark.parametrize("kind", list(StatKind))
@pytest.mark.parametrize("order", [0, 1, 5, 12])
def test_stat_gf_above_every_reachable_height(kind, order):
    # no path of semilength <= order reaches height order + 1
    for k in range(order + 1, order + 5):
        for r in range(3):
            coeffs = stat_gf(kind, k, r, order).as_integer_sequence()
            assert coeffs == [count_exact_dp(n, k, r, kind) for n in range(order + 1)]
