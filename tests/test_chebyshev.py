"""Tests for the integer-polynomial recurrence and its derived series."""

import json
from itertools import islice, zip_longest

import pytest

from dyckpeaks import chebyshev
from dyckpeaks.chebyshev import f_series_t, q_poly, r_series, u_inv_sq_series
from dyckpeaks.paths import _band_walk, bounded_height_count, enumerate_paths, statistics
from dyckpeaks.series import InvariantError, Series


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
    by_ratio = Series.from_coeffs(q_poly(k - 1), order) / Series.from_coeffs(q_poly(k), order)
    assert band_walk_series(k, order) == by_ratio


def test_a_wrong_walk_count_fails_the_check(monkeypatch):
    real = chebyshev._band_walk

    def off_by_one(n_steps, k, end):
        for t, row in enumerate(real(n_steps, k, end)):
            yield [row[0] + 1, *row[1:]] if t == 10 else row

    monkeypatch.setattr(chebyshev, "_band_walk", off_by_one)
    with pytest.raises(InvariantError, match=r"^bounded-height series routes disagree at k=4$"):
        r_series(4, 10)


def test_a_wrong_polynomial_fails_the_check(monkeypatch):
    real = chebyshev.q_poly
    monkeypatch.setattr(chebyshev, "q_poly", lambda k: real(k) + (1,) if k == 4 else real(k))
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


@pytest.mark.parametrize("order", range(13))
def test_unreachable_heights_match_the_unclamped_formulas(order):
    # heights above the order are clamped; the formulas written out in full
    # must give the same series
    for k in range(order + 1, order + 5):
        by_ratio = Series.from_coeffs(q_poly(k - 1), order) / Series.from_coeffs(q_poly(k), order)
        iterated = Series.zero(order)
        for _ in range(k):
            iterated = (1 - iterated.shift(1)).reciprocal()
        assert r_series(k, order) == by_ratio == iterated
        q = Series.from_coeffs(q_poly(k), order)
        assert u_inv_sq_series(k, order) == (q * q).reciprocal().shift(k)
        spaced = [c for a in q_poly(k + 1) for c in (a, 0)]
        assert f_series_t(k, order) == Series.from_coeffs(spaced, order).reciprocal().shift(k)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_r_series_refuses_a_negative_order_by_its_name(k):
    # the order is checked before k is clamped to order + 1
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        r_series(k, -1)


def test_unreachable_heights_ask_for_no_high_polynomial(monkeypatch):
    asked = []
    real = chebyshev.q_poly

    def spy(k):
        asked.append(k)
        return real(k)

    monkeypatch.setattr(chebyshev, "q_poly", spy)
    assert f_series_t(2000, 5) == Series.zero(5)
    assert r_series(500, 5) == r_series(6, 5)
    assert u_inv_sq_series(500, 5) == Series.zero(5)
    assert asked and max(asked) <= 6
