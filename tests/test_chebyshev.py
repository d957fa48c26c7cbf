"""Tests for the integer-polynomial recurrence and its derived series."""

import json
from itertools import islice, zip_longest
from math import comb

import pytest

import dyckpeaks.series as series_module
from dyckpeaks import chebyshev
from dyckpeaks.chebyshev import f_series_t, q_poly, r_series, u_inv_sq_series
from dyckpeaks.paths import _band_walk, bounded_height_count, enumerate_paths, statistics
from dyckpeaks.series import InvariantError, Series, catalan_series


def test_q_poly_base_cases_and_recurrence():
    assert q_poly(0) == (1,)
    assert q_poly(1) == (1,)
    assert q_poly(2) == (1, -1)
    assert q_poly(3) == (1, -2)
    assert q_poly(4) == (1, -3, 1)
    assert q_poly(5) == (1, -4, 3)


def test_q_poly_satisfies_the_defining_recurrence_to_k_301():
    # q_{k+1} = q_k - x * q_{k-1} in tuple arithmetic, apart from the closed
    # form that computes q_k
    for k in range(1, 301):
        shifted = (0,) + q_poly(k - 1)
        expected = tuple(a - b for a, b in zip_longest(q_poly(k), shifted, fillvalue=0))
        assert q_poly(k + 1) == expected, k


def test_every_coefficient_is_its_binomial_to_k_300():
    # _q_coeffs steps from one coefficient to the next by an exact ratio;
    # each must still be (-1)^i * C(k - i, i), at every cut
    for k in range(301):
        full = [(-1) ** i * comb(k - i, i) for i in range(k // 2 + 1)]
        assert list(chebyshev._q_coeffs(k, k // 2)) == full, k
        for top in (-1, 0, 1, k // 3, k):
            assert list(chebyshev._q_coeffs(k, top)) == full[: top + 1], (k, top)


@pytest.mark.parametrize("k", range(13))
def test_q_poly_unit_constant_and_degree(k):
    poly = q_poly(k)
    assert poly[0] == 1
    assert len(poly) - 1 == k // 2
    assert poly[-1] != 0


def test_q_poly_negative_k_rejected():
    with pytest.raises(ValueError):
        q_poly(-1)


def test_int_poly_serializes_as_json_coefficient_array():
    assert json.dumps(q_poly(4)) == "[1, -3, 1]"
    assert tuple(json.loads("[1, -3, 1]")) == q_poly(4)


def test_r_series_small_k():
    assert r_series(0, 5) == Series.zero(5)
    assert list(r_series(1, 5).coeffs) == [1, 0, 0, 0, 0, 0]
    assert list(r_series(2, 5).coeffs) == [1, 1, 1, 1, 1, 1]
    assert list(r_series(3, 5).coeffs) == [1, 1, 2, 4, 8, 16]


@pytest.mark.parametrize("k", range(1, 11))
def test_ratio_identity_to_order_50(k):
    # q_k * R_k = q_{k-1} up to the truncation order
    order = 50
    lhs = Series.from_coeffs(q_poly(k), order) * r_series(k, order)
    assert lhs == Series.from_coeffs(q_poly(k - 1), order)


def full_division(k, order):
    # the reference ratio: q_{k-1}/q_k divided from x^0 at the full order,
    # both polynomials padded to Series
    return Series.from_coeffs(q_poly(k - 1), order) / Series.from_coeffs(q_poly(k), order)


@pytest.mark.parametrize("order", range(41))
def test_the_seeded_ratio_equals_the_full_division(order):
    # r_series seeds C below x^k and divides over a zero numerator; at every
    # k through three past the order it must give the full division's series
    for k in range(1, order + 4):
        assert r_series(k, order) == full_division(k, order), k


@pytest.mark.parametrize("k", range(1, 41))
def test_catalan_times_q_k_minus_the_previous_q_is_x_k_times_a_catalan_power(k):
    # C*q_k - q_{k-1} = x^k * C^(k+1): R_k = C mod x^k, the fact the seed
    # rests on; it keeps q_{k-1}, which r_series no longer reads, under test
    order = 2 * k + 10
    c = catalan_series(order)
    lhs = c * Series.from_coeffs(q_poly(k), order) - Series.from_coeffs(q_poly(k - 1), order)
    assert lhs == c.power(k + 1).shift(k)


def test_the_seeded_quotient_keeps_to_its_product_budget(monkeypatch):
    # each term from x^k to the order costs k // 2 products (q_k has degree
    # k // 2) and past the order none is left; a seed one term short gives
    # the same series with one more term's products, which only this catches
    products = []

    def counting(a, b):
        products.append(None)
        return a * b

    monkeypatch.setattr(series_module, "mul", counting)
    for k, order in [(k, order) for order in range(61) for k in range(order + 4)] + [(1999, 2000)]:
        products.clear()
        r_series(k, order)
        assert len(products) <= max(order - k + 1, 0) * (k // 2), (k, order)
    assert len(products) == 1998  # (1999, 2000): the two terms x^1999 and x^2000


@pytest.mark.parametrize("k", range(1, 9))
def test_r_series_matches_step_iteration(k):
    # independent route: iterate R -> 1/(1 - x*R) from 0, k times
    iterated = Series.zero(40)
    for _ in range(k):
        iterated = (1 - iterated.shift(1)).reciprocal()
    assert r_series(k, 40) == iterated


def band_walk_series(k, order):
    # the walk route alone: walks through the band [0, k - 1] at height 0
    # after every even step
    rows = islice(_band_walk(2 * order, k - 1, 0), None, None, 2)
    return Series(order, tuple(row[0] if row else 0 for row in rows))


@pytest.mark.parametrize("k", [*range(1, 13), 1001, 1005])
def test_band_walk_equals_the_ratio_at_order_1000(k):
    # unclamped on both sides: at k >= 1001 the band is wider than any path
    order = 1000
    assert band_walk_series(k, order) == full_division(k, order)


def test_a_wrong_walk_count_fails_the_check(monkeypatch):
    real = chebyshev._band_walk

    def off_by_one(n_steps, k, end):
        for t, row in enumerate(real(n_steps, k, end)):
            yield [row[0] + 1, *row[1:]] if t == 10 else row

    monkeypatch.setattr(chebyshev, "_band_walk", off_by_one)
    with pytest.raises(InvariantError, match=r"^bounded-height series routes disagree at k=4$"):
        r_series(4, 10)


@pytest.mark.parametrize("order", [0, 1, 5, 40])
def test_a_wrong_walk_count_fails_the_check_above_the_order(monkeypatch, order):
    # above the order the ratio is C by a proof, and the walk still checks it
    real = chebyshev._band_walk

    def off_by_one(n_steps, k, end):
        for t, row in enumerate(real(n_steps, k, end)):
            yield [row[0] + 1, *row[1:]] if t == 2 * order else row

    monkeypatch.setattr(chebyshev, "_band_walk", off_by_one)
    with pytest.raises(InvariantError, match=f"^bounded-height series routes disagree at k={order + 3}$"):
        r_series(order + 3, order)


def test_a_wrong_polynomial_fails_the_check(monkeypatch):
    # _q_coeffs is the one source of q_k's coefficients, read by the seeded
    # quotient through q_poly; an extra x^3 term in q_4 must be caught
    real = chebyshev._q_coeffs
    monkeypatch.setattr(chebyshev, "_q_coeffs", lambda k, top: (*real(k, top), 1) if k == 4 else real(k, top))
    with pytest.raises(InvariantError, match=r"^bounded-height series routes disagree at k=4$"):
        r_series(4, 10)
    assert r_series(3, 10) == Series.from_coeffs([1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512], 10)


@pytest.mark.parametrize("k", range(1, 7))
def test_r_series_counts_height_bounded_paths(k):
    # coefficient n = number of semilength-n paths with max height <= k-1
    coeffs = r_series(k, 8).as_integer_sequence()
    for n in range(9):
        expected = sum(
            1 for p in enumerate_paths(n) if statistics(p).max_height <= k - 1
        )
        assert coeffs[n] == expected


def test_u_inv_sq_small_cases():
    assert u_inv_sq_series(1, 4) == Series.monomial(1, 1, 4)
    assert list(u_inv_sq_series(2, 4).coeffs) == [0, 0, 1, 2, 3]
    assert list(u_inv_sq_series(3, 5).coeffs) == [0, 0, 0, 1, 4, 12]


def test_u_inv_sq_at_k_0_is_one():
    # x^0 / q_0^2 = 1, the factor the peak family at height 1 reads
    assert u_inv_sq_series(0, 4) == Series.one(4)
    with pytest.raises(ValueError):
        u_inv_sq_series(-1, 4)


@pytest.mark.parametrize("k", range(1, 9))
def test_u_inv_sq_times_q_squared_is_monomial(k):
    order = 40
    q = Series.from_coeffs(q_poly(k), order)
    assert u_inv_sq_series(k, order) * q * q == Series.monomial(1, k, order)


def test_f_series_t_band_zero():
    assert f_series_t(0, 5) == Series.one(5)


def test_f_series_t_zigzag():
    assert list(f_series_t(1, 5).coeffs) == [0, 1, 0, 1, 0, 1]


def test_f_series_t_coefficient_example():
    assert f_series_t(2, 4).coeffs[4] == 2


@pytest.mark.parametrize("k", range(6))
def test_f_series_t_matches_band_dp(k):
    coeffs = f_series_t(k, 30).as_integer_sequence()
    for n in range(31):
        assert coeffs[n] == bounded_height_count(n, k, k)


@pytest.mark.parametrize("order", range(41))
def test_unreachable_heights_match_the_unclamped_formulas(order):
    # above the order the ratio is C; the formulas written out in full must
    # give the same series
    for k in range(order + 1, order + 5):
        by_ratio = full_division(k, order)
        iterated = Series.zero(order)
        for _ in range(k):
            iterated = (1 - iterated.shift(1)).reciprocal()
        assert r_series(k, order) == by_ratio == iterated == catalan_series(order)
        q = Series.from_coeffs(q_poly(k), order)
        assert u_inv_sq_series(k, order) == (q * q).reciprocal().shift(k)
        spaced = [c for a in q_poly(k + 1) for c in (a, 0)]
        assert f_series_t(k, order) == Series.from_coeffs(spaced, order).reciprocal().shift(k)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_r_series_refuses_a_negative_order_by_its_name(k):
    # the order is checked before k = 0 returns the zero series
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        r_series(k, -1)


def test_unreachable_heights_ask_for_no_high_polynomial(monkeypatch):
    # every coefficient of every q_k comes from _q_coeffs; the spy logs
    # each one it yields as (k, i)
    asked = []
    real = chebyshev._q_coeffs

    def spy(k, top):
        for i, c in enumerate(real(k, top)):
            asked.append((k, i))
            yield c

    monkeypatch.setattr(chebyshev, "_q_coeffs", spy)
    assert f_series_t(2000, 5) == Series.zero(5)
    assert r_series(500, 5) == r_series(6, 5) == catalan_series(5)
    assert u_inv_sq_series(500, 5) == Series.zero(5)
    # above the order the seed is all of C and no term is left to compute,
    # so no more than q_k's constant term may be asked for
    assert all(i == 0 for _, i in asked), asked
    asked.clear()
    assert r_series(5, 5) != catalan_series(5)  # one path of semilength 5 reaches height 5
    assert sorted(asked) == [(5, 0), (5, 1), (5, 2)]  # q_5 in full, and nothing above it
