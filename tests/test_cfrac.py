"""Tests for weighted continued-fraction evaluation."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_series import _FractionForbidden, check_value_type

import dyckpeaks.cfrac as cfrac_module
import dyckpeaks.series as series_module
from dyckpeaks.cfrac import (
    WeightSpec,
    catalan_cfrac,
    lemma_iterated_cfrac,
    lemma_rhs,
    peak_bivar_cfrac,
    rv_cfrac,
    weight_spec_from_json,
)
from dyckpeaks.chebyshev import r_series
from dyckpeaks.gfcount import peak_gf, stat_family
from dyckpeaks.paths import StatKind, count_exact_dp
from dyckpeaks.series import BivarSeries, InvariantError, NonInvertibleError, Series, catalan_series


def x_weight(z_order, x_order):
    return BivarSeries.monomial(1, 1, 0, z_order, x_order)


def test_rv_cfrac_uniform_weights_give_catalan():
    order = 12
    x = x_weight(0, order)
    spec = WeightSpec((x,) * (order + 1), (x,) * (order + 1), order + 1, BivarSeries.one(0, order))
    assert rv_cfrac(spec, order, 0).z_slice(0) == catalan_series(order)


def test_rv_cfrac_depth_zero_returns_tail():
    tail = BivarSeries.from_series(catalan_series(5), 2)
    assert rv_cfrac(WeightSpec((), (), 0, tail), 5, 2) == tail


def test_rv_cfrac_zero_mu_kills_marked_paths():
    # mu_2 = 0 weights every path with a peak at height 2 by zero, giving
    # the no-peak-at-2 series: 1, 1, 1, 2 (frozen from the enumeration oracle)
    order = 3
    x = x_weight(0, order)
    zero = BivarSeries.zero(0, order)
    spec = WeightSpec((x,) * 6, (x, zero, x, x, x, x), 6, BivarSeries.one(0, order))
    got = rv_cfrac(spec, order, 0).z_slice(0)
    assert list(got.coeffs) == [1, 1, 1, 2]
    assert got == peak_gf(2, 0, order)


def test_rv_cfrac_truncation_stability():
    order = 12
    x = x_weight(0, order)
    results = []
    for depth in (order + 1, order + 5, order + 20):
        spec = WeightSpec((x,) * depth, (x,) * depth, depth, BivarSeries.one(0, order))
        results.append(rv_cfrac(spec, order, 0))
    assert results[0] == results[1] == results[2]


def test_rv_cfrac_reports_bad_level():
    order = 4
    x = x_weight(0, order)
    unit_mu = BivarSeries.one(0, order)  # mu - lambda = 1 - x kills the constant term
    spec = WeightSpec((x, x), (x, unit_mu), 2, BivarSeries.one(0, order))
    with pytest.raises(NonInvertibleError, match="level 2"):
        rv_cfrac(spec, order, 0)


def test_catalan_cfrac():
    assert list(catalan_cfrac(5, 4).coeffs) == [1, 1, 2, 5, 14]
    assert list(catalan_cfrac(1, 0).coeffs) == [1]
    assert catalan_cfrac(31, 30) == catalan_series(30)
    assert catalan_cfrac(201, 200) == catalan_series(200)


@pytest.mark.parametrize("k", range(1, 5))
def test_peak_bivar_cfrac_slices(k):
    order = 20
    marked = peak_bivar_cfrac(k, order, 4)
    for r in range(5):
        assert marked.z_slice(r) == peak_gf(k, r, order), (k, r)


@pytest.mark.parametrize("k", range(1, 9))
def test_peak_bivar_cfrac_equals_the_gf_family_at_n_200(k):
    marked = peak_bivar_cfrac(k, 200, 4)
    family = stat_family(StatKind.PEAK, k, 200, 4)
    assert tuple(marked.z_slice(r) for r in range(5)) == family


def test_peak_bivar_cfrac_z0_slices():
    assert list(peak_bivar_cfrac(1, 6, 2).z_slice(0).coeffs) == [1, 0, 1, 2, 6, 18, 57]
    # peak counting at height 2 equals valley counting at height 0
    from dyckpeaks.gfcount import valley_gf

    assert peak_bivar_cfrac(2, 6, 2).z_slice(0) == valley_gf(0, 0, 6)


def test_peak_bivar_cfrac_z1_recovers_catalan():
    order = 16
    for k in (1, 3):
        marked = peak_bivar_cfrac(k, order, order)
        assert marked.subs_z_one() == catalan_series(order)


def test_peak_bivar_cfrac_requires_positive_k():
    with pytest.raises(ValueError):
        peak_bivar_cfrac(0, 5, 2)


# -- the C-tailed route against the dense continuants ------------------------


def dense_peak_cfrac(k, x_order, z_order):
    """The peak fraction by rv_cfrac's dense continuants, tail C."""
    x = x_weight(z_order, x_order)
    marked = BivarSeries.monomial(1, 1, 1, z_order, x_order)
    tail = BivarSeries.from_series(catalan_series(x_order), z_order)
    return rv_cfrac(WeightSpec((x,) * k, (x,) * (k - 1) + (marked,), k, tail), x_order, z_order)


@pytest.mark.parametrize("k", range(1, 13))
def test_peak_bivar_cfrac_equals_the_dense_continuants(k):
    # z_order = x_order keeps the z = 1 substitution meaningful
    for x_order in (0, 1, 2, 30):
        for z_order in (0, 1, 4, x_order):
            got = peak_bivar_cfrac(k, x_order, z_order)
            assert (got.z_order, got.x_order) == (z_order, x_order)
            assert got == dense_peak_cfrac(k, x_order, z_order), (k, x_order, z_order)


@settings(deadline=None)
@given(st.integers(1, 10), st.integers(0, 50), st.integers(0, 6))
def test_peak_bivar_cfrac_matches_the_dense_continuants_at_random_orders(k, x_order, z_order):
    got = peak_bivar_cfrac(k, x_order, z_order)
    assert got == dense_peak_cfrac(k, x_order, z_order)
    assert all(type(c) is int for e in got.entries for c in e.coeffs)


@pytest.mark.parametrize("k", range(1, 7))
def test_peak_bivar_cfrac_runs_the_unmarked_levels_once_without_z(monkeypatch, k):
    # levels 1..k-1 carry no z, so one univariate continuant run serves
    # both starts; only the mark level is bivariate
    runs, continuants = [], cfrac_module._continuants

    def recorded(lambdas, mus, start, start_next):
        runs.append((len(lambdas), {type(s) for s in (start, start_next, *lambdas, *mus)}))
        return continuants(lambdas, mus, start, start_next)

    monkeypatch.setattr(cfrac_module, "_continuants", recorded)
    peak_bivar_cfrac(k, 40, 3)
    assert runs == ([] if k == 1 else [(k - 1, {Series})])


def mutate_peak_polynomials(monkeypatch, old, new):
    """Install a copy of ``cfrac._peak_polynomials`` whose source has the
    one occurrence of ``old`` replaced by ``new``."""
    source = inspect.getsource(cfrac_module._peak_polynomials)
    assert source.count(old) == 1, old
    namespace = dict(vars(cfrac_module))
    exec(compile(source.replace(old, new), cfrac_module.__file__, "exec"), namespace)
    monkeypatch.setattr(cfrac_module, "_peak_polynomials", namespace["_peak_polynomials"])


@pytest.mark.parametrize("extra_power, message", [(7, "exceeds x-degree 6"), (8, "exceeds x-degree 6")])
def test_peak_bivar_cfrac_checks_the_norm_polynomials(monkeypatch, extra_power, message):
    # N and p are carried at x-order k + 2, two coefficients past their
    # degree bound k; a nonzero one there must raise rather than be dropped
    z0 = "alpha_10 * gamma_0 + a_1 * a_1"
    mutate_peak_polynomials(monkeypatch, f"{z0},", f"{z0} + Series.monomial(1, {extra_power}, small_x),")
    with pytest.raises(InvariantError, match=message):
        peak_bivar_cfrac(6, 20, 3)


@pytest.mark.parametrize("k", [1, 2, 6])
def test_peak_bivar_cfrac_checks_the_fraction_at_z_1(monkeypatch, k):
    # the division reads N_1 only through N(1) = x^(k-1); a wrong z^1
    # coefficient of N, inside the degree bound, must raise and name k
    z1 = "alpha_10 * gamma_1 + alpha_11 * gamma_0"
    mutate_peak_polynomials(monkeypatch, f"{z1},", f"{z1} + Series.monomial(1, 1, small_x),")
    with pytest.raises(InvariantError, match=f"^the peak fraction at k={k} is not C at z = 1$"):
        peak_bivar_cfrac(k, 20, 3)


def test_peak_bivar_cfrac_numerator_weight_is_a_power_of_x(monkeypatch):
    # q = A_1^2 - A_1*A_2 + x*A_2^2 is x^(k-1), as D_j = x*D_{j+1} and
    # D_k = 1, so the fraction forms no q; and the norm's constant term
    # N(0, 0) is 2 at k = 1 and 1 for k >= 2
    built, polynomials = [], cfrac_module._peak_polynomials

    def recorded(*args):
        built.append(polynomials(*args))
        return built[-1]

    monkeypatch.setattr(cfrac_module, "_peak_polynomials", recorded)
    for k in range(1, 41):
        order = k + 2
        plain = (Series.monomial(1, 1, order),) * (k - 1)
        a_1, a_2 = Series.one(order), Series.zero(order)
        for _, a_1, a_2 in cfrac_module._continuants(plain, plain, a_1, a_2):
            pass
        assert a_1 * a_1 - a_1 * a_2 + (a_2 * a_2).shift(1) == Series.monomial(1, k - 1, order), k
        built.clear()
        peak_bivar_cfrac(k, 3, 2)
        norm, _ = built[0]
        assert norm[0][0] == (2 if k == 1 else 1), k


@pytest.mark.parametrize("k", range(1, 41))
def test_the_peak_polynomials_reduce_to_c_at_z_1(k):
    # the division rests on N(1) = x^(k-1) and p(1) = 0; N_2 = x*A_1^2 and
    # N_0(0) = 2 at k = 1, 1 above
    order = k + 2
    plain = (Series.monomial(1, 1, order),) * (k - 1)
    a_1 = Series.one(order)
    for _, a_1, _ in cfrac_module._continuants(plain, plain, a_1, Series.zero(order)):
        pass
    norm, p = cfrac_module._peak_polynomials(k)
    assert [len(e) for e in norm + p] == [k + 1] * 6
    assert list(map(sum, zip(*norm))) == [0] * (k - 1) + [1, 0]
    assert list(map(sum, zip(*p))) == [0] * (k + 1)
    assert Series.from_coeffs(norm[2], order) == (a_1 * a_1).shift(1)
    assert norm[0][0] == (2 if k == 1 else 1)


def test_the_peak_division_keeps_to_its_operation_budget(monkeypatch):
    # per z-level one product by N_2 and one quotient by N_0: at most
    # deg(N_2)*z_order*(x_order + 1) product pairs and
    # deg(N_0)*(z_order + 1)*(x_order + 1) quotient products; the spies count
    # the division alone, with N and p built beforehand
    counts = {"pairs": 0, "products": 0}
    real_product, real_mul, polynomials = series_module._product, series_module.mul, cfrac_module._peak_polynomials

    def product_spy(a, b, zero, n=None):
        n = min(len(a), len(b)) if n is None else n
        counts["pairs"] += sum(1 for i in range(min(n, len(a))) if a[i] for j in range(min(n - i, len(b))) if b[j])
        return real_product(a, b, zero, n)

    def mul_spy(u, v):
        counts["products"] += 1
        return real_mul(u, v)

    def degree(poly):
        return max(i for i, c in enumerate(poly) if c)

    monkeypatch.setattr(series_module, "_product", product_spy)
    monkeypatch.setattr(cfrac_module, "_product", product_spy)
    monkeypatch.setattr(series_module, "mul", mul_spy)
    for k in range(1, 13):
        built = polynomials(k)
        monkeypatch.setattr(cfrac_module, "_peak_polynomials", lambda _, built=built: built)
        norm, _ = built
        for x_order in (0, 1, 7, 30, 60):
            for z_order in (0, 1, 2, 6):
                counts.update(pairs=0, products=0)
                peak_bivar_cfrac(k, x_order, z_order)
                assert counts["pairs"] <= degree(norm[2]) * z_order * (x_order + 1), (k, x_order, z_order)
                assert counts["products"] <= degree(norm[0]) * (z_order + 1) * (x_order + 1), (k, x_order, z_order)
    assert counts["pairs"] and counts["products"]  # the spies see the division


def test_peak_bivar_cfrac_at_height_1_stays_in_the_integers(monkeypatch):
    # the cancelled norm has constant term 2 at k = 1, and every quotient
    # step still divides exactly
    monkeypatch.setattr(series_module, "Fraction", _FractionForbidden)
    marked = peak_bivar_cfrac(1, 200, 4)
    assert all(type(c) is int for e in marked.entries for c in e.coeffs)
    monkeypatch.undo()
    assert tuple(marked.z_slice(r) for r in range(5)) == stat_family(StatKind.PEAK, 1, 200, 4)


@pytest.mark.parametrize("k, r", [(1, 4), (4, 2), (8, 3), (30, 2)])
def test_peak_bivar_cfrac_equals_the_dp_past_the_enumeration_guard(k, r):
    n = 1000
    assert peak_bivar_cfrac(k, n, r).z_slice(r).coefficient(n) == count_exact_dp(n, k, r, StatKind.PEAK)


@pytest.mark.parametrize("k", range(1, 13))
def test_peak_bivar_cfrac_equals_the_dense_continuants_below_the_z_cap(k):
    # N, p and q are cut to z-order min(z_order, 2); at 0 and 1 the cut
    # drops their higher z-coefficients
    for x_order in (3, k + 4, 40):
        for z_order in (0, 1):
            got = peak_bivar_cfrac(k, x_order, z_order)
            assert (got.z_order, got.x_order) == (z_order, x_order)
            assert got == dense_peak_cfrac(k, x_order, z_order), (k, x_order, z_order)


def counted_bivariate_products(monkeypatch):
    """Patch BivarSeries products to record the orders of their left
    operands; returns the list they are recorded in."""
    products, multiply = [], BivarSeries.__mul__

    def counted(a, b):
        products.append((a.z_order, a.x_order))
        return multiply(a, b)

    monkeypatch.setattr(BivarSeries, "__mul__", counted)
    monkeypatch.setattr(BivarSeries, "__rmul__", counted)
    return products


@pytest.mark.parametrize("k", [1, 2, 5])
def test_peak_bivar_cfrac_mark_level_multiplies_no_bivariate_series(monkeypatch, k):
    # the mark level builds N and p from univariate products of their
    # z-coefficients, and q*C is C shifted by k - 1: no BivarSeries product
    products = counted_bivariate_products(monkeypatch)
    got = peak_bivar_cfrac(k, 30, 3)
    monkeypatch.undo()
    assert products == []
    assert got == dense_peak_cfrac(k, 30, 3)


# -- plain levels: mu_j is lambda_j -------------------------------------------


def test_plain_levels_equal_the_general_step_for_equal_separate_weights():
    # one weight object for lambda and mu skips d_j = 1; equal but separate
    # objects take the general step, to the same values and orders
    for z_order, x_order, tail_orders in ((0, 12, (0, 12)), (3, 10, (2, 14)), (2, 9, (4, 6))):
        x = x_weight(z_order, x_order)
        other = x_weight(z_order, x_order)
        assert other == x and other is not x
        tail = BivarSeries.from_series(catalan_series(tail_orders[1]), tail_orders[0])
        mark = BivarSeries.monomial(1, 1, 1, z_order, x_order)
        for depth in (0, 1, 4, 9):
            shared = WeightSpec((x,) * depth, (x,) * depth, depth, tail)
            separate = WeightSpec((x,) * depth, (other,) * depth, depth, tail)
            got = rv_cfrac(shared, 20, 5)
            assert got == rv_cfrac(separate, 20, 5), (z_order, depth)
            if depth:  # the value comes out at the smallest of all the orders
                assert (got.z_order, got.x_order) == (min(z_order, tail_orders[0]), min(x_order, tail_orders[1]))
            if depth:
                marked = WeightSpec((x,) * depth, (x,) * (depth - 1) + (mark,), depth, tail)
                marked_separate = WeightSpec((x,) * depth, (other,) * (depth - 1) + (mark,), depth, tail)
                assert rv_cfrac(marked, 20, 5) == rv_cfrac(marked_separate, 20, 5), (z_order, depth)
    # the JSON parser builds lambdas and mus apart: the general step
    doc = '{"depth": 6, "lambdas": "x", "mus": "x", "tail": "C"}'
    spec = weight_spec_from_json(doc, 10, 2)
    assert spec.lambdas[0] == spec.mus[0] and spec.lambdas[0] is not spec.mus[0]
    x = spec.lambdas[0]
    assert rv_cfrac(spec, 10, 2) == rv_cfrac(WeightSpec((x,) * 6, (x,) * 6, 6, spec.tail), 10, 2)
    # univariate, as peak_bivar_cfrac runs its unmarked levels
    ux, uy = Series.monomial(1, 1, 9), Series.monomial(1, 1, 9)
    start = (Series.one(9), Series.zero(9))
    shared = list(cfrac_module._continuants((ux,) * 7, (ux,) * 7, *start))
    assert shared == list(cfrac_module._continuants((ux,) * 7, (uy,) * 7, *start))


@pytest.mark.parametrize("depth", [1, 3, 8])
def test_plain_levels_form_no_d_product(monkeypatch, depth):
    x, other = x_weight(2, 10), x_weight(2, 10)
    tail = BivarSeries.from_series(catalan_series(10), 2)
    mark = BivarSeries.monomial(1, 1, 1, 2, 10)
    products = counted_bivariate_products(monkeypatch)
    rv_cfrac(WeightSpec((x,) * depth, (x,) * depth, depth, tail), 10, 2)
    assert len(products) == depth  # lambda_j*K_{j+2} alone on every level
    products.clear()
    rv_cfrac(WeightSpec((x,) * depth, (x,) * (depth - 1) + (mark,), depth, tail), 10, 2)
    assert len(products) == depth + 1  # the marked level also forms d_k*K_{k+1}
    products.clear()
    rv_cfrac(WeightSpec((x,) * depth, (other,) * depth, depth, tail), 10, 2)
    assert len(products) == 2 * depth  # separate objects: the general step


def test_raw_mark_convention_differs_by_x_power():
    # weighting the marked down-step z instead of x*z drops one x per mark
    order, z_order, k = 10, 3, 1
    x = x_weight(z_order, order)
    raw_mark = BivarSeries.monomial(1, 0, 1, z_order, order)
    tail = BivarSeries.from_series(catalan_series(order), z_order)
    raw = rv_cfrac(WeightSpec((x,) * k, (raw_mark,), k, tail), order, z_order)
    for r in range(z_order + 1):
        assert raw.z_slice(r).shift(r) == peak_gf(k, r, order)
    assert raw.z_slice(1) != peak_gf(k, 1, order)
    assert raw.z_slice(0) == peak_gf(k, 0, order)


# -- rv_cfrac against the level-by-level reference -------------------------


def bottom_up_cfrac(w, x_order, z_order):
    """Reference evaluator: from the tail upwards, one bivariate reciprocal
    per level, raising at the first level whose denominator has a zero
    constant term."""
    used = list(w.lambdas[: w.depth]) + list(w.mus[: w.depth]) + [w.tail]
    eff_x = min([x_order] + [u.x_order for u in used])
    eff_z = min([z_order] + [u.z_order for u in used])
    value = w.tail.truncate(eff_z, eff_x)
    for level in range(w.depth, 0, -1):
        lam = w.lambdas[level - 1].truncate(eff_z, eff_x)
        mu = w.mus[level - 1].truncate(eff_z, eff_x)
        den = 1 - (mu - lam) - lam * value
        if den.entries[0].coeffs[0] == 0:
            raise NonInvertibleError(f"denominator at level {level} is not invertible")
        value = den.reciprocal()
    return value


@st.composite
def weight_specs(draw, z_order, x_order):
    """Random specs over small-integer bivariate weights, some with a
    non-unit or zero constant term, some plus the dense C or xC2. Weights
    are built at or above the given orders; the tail sometimes has lower
    orders of its own."""

    def weight(z_order, x_order):
        total = BivarSeries.zero(z_order, x_order)
        for _ in range(draw(st.integers(0, 3))):
            coeff = draw(st.integers(-3, 3))
            x_power, z_power = draw(st.integers(0, 3)), draw(st.integers(0, 2))
            total = total + BivarSeries.monomial(coeff, x_power, z_power, z_order, x_order)
        dense = draw(st.sampled_from([None, None, "C", "xC2"]))
        if dense is not None:
            c = catalan_series(x_order)
            total = total + BivarSeries.from_series(c if dense == "C" else (c * c).shift(2), z_order)
        return total

    depth = draw(st.integers(0, 8))
    orders = (z_order + draw(st.integers(0, 1)), x_order + draw(st.integers(0, 2)))
    lambdas = tuple(weight(*orders) for _ in range(depth))
    mus = tuple(weight(*orders) for _ in range(depth))
    own_orders = (draw(st.integers(0, z_order)), draw(st.integers(0, x_order)))
    tail = weight(*draw(st.sampled_from([orders, orders, own_orders])))
    return WeightSpec(lambdas, mus, depth, tail)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 20), st.integers(0, 3), st.data())
def test_rv_cfrac_equals_the_bottom_up_reference(x_order, z_order, data):
    spec = data.draw(weight_specs(z_order, x_order))
    try:
        expected = bottom_up_cfrac(spec, x_order, z_order)
    except NonInvertibleError as exc:
        with pytest.raises(NonInvertibleError) as got:
            rv_cfrac(spec, x_order, z_order)
        assert str(got.value) == str(exc)
    else:
        assert rv_cfrac(spec, x_order, z_order) == expected


# -- the k-level closed form -----------------------------------------------


def test_lemma_rhs_base_case():
    order, z_order = 8, 3
    a = catalan_series(order) - 1
    assert lemma_rhs(1, a, order, z_order) == lemma_iterated_cfrac(1, a, order, z_order)
    # explicit base value: 1/(1 - z - x*A)
    one = Series.one(order)
    explicit = BivarSeries(
        z_order,
        order,
        (one - a.shift(1), -one) + (Series.zero(order),) * (z_order - 1),
    ).reciprocal()
    assert lemma_rhs(1, a, order, z_order) == explicit


def test_lemma_rhs_z0_slice_with_zero_tail_term():
    # with A = 0 the z^0 slice collapses to the bounded-height ratio
    assert lemma_rhs(2, Series.zero(10), 10, 3).z_slice(0) == r_series(2, 10)


@pytest.mark.parametrize("k", range(1, 7))
def test_lemma_rhs_equals_direct_evaluation(k):
    order, z_order = 20, 4
    a = catalan_series(order) - 1  # x*C^2
    assert lemma_rhs(k, a, order, z_order) == lemma_iterated_cfrac(k, a, order, z_order)


def test_lemma_requires_positive_k():
    with pytest.raises(ValueError):
        lemma_rhs(0, Series.zero(5), 5, 2)
    with pytest.raises(ValueError):
        lemma_iterated_cfrac(0, Series.zero(5), 5, 2)


# -- JSON weight specs -------------------------------------------------------


def test_weight_spec_json_catalan():
    doc = '{"depth": 9, "lambdas": "x", "mus": "x", "tail": 1}'
    spec = weight_spec_from_json(doc, 8, 0)
    assert rv_cfrac(spec, 8, 0).z_slice(0) == catalan_series(8)


def test_weight_spec_json_marked_level():
    # the peak-marking fraction at height 2 written out as JSON
    doc = '{"depth": 2, "lambdas": ["x", "x"], "mus": ["x", "x*z"], "tail": "C"}'
    spec = weight_spec_from_json(doc, 10, 3)
    got = rv_cfrac(spec, 10, 3)
    assert got == peak_bivar_cfrac(2, 10, 3)


def test_weight_spec_json_monomials_and_sums():
    doc = '{"depth": 1, "lambdas": ["2*x^2*z"], "mus": [["x", "z", -1]], "tail": "xC2"}'
    spec = weight_spec_from_json(doc, 6, 2)
    lam = spec.lambdas[0]
    assert lam.z_slice(1).coefficient(2) == 2
    mu = spec.mus[0]
    assert mu.z_slice(0).coefficient(0) == -1
    assert mu.z_slice(0).coefficient(1) == 1
    assert mu.z_slice(1).coefficient(0) == 1
    c = catalan_series(6)
    assert spec.tail.z_slice(0) == (c * c).shift(2)


def test_weight_spec_json_errors():
    with pytest.raises(ValueError, match="depth"):
        weight_spec_from_json('{"lambdas": "x", "mus": "x"}', 5, 0)
    with pytest.raises(ValueError, match="lambdas"):
        weight_spec_from_json('{"depth": 3, "lambdas": ["x"], "mus": "x"}', 5, 0)
    with pytest.raises(ValueError, match="parse"):
        weight_spec_from_json('{"depth": 1, "lambdas": "y", "mus": "x"}', 5, 0)
    with pytest.raises(ValueError, match="JSON"):
        weight_spec_from_json("{not json", 5, 0)
    with pytest.raises(ValueError, match="unknown"):
        weight_spec_from_json('{"depth": 1, "lambdas": "x", "mus": "x", "tails": 1}', 5, 0)


def test_weight_spec_needs_depth_weights():
    # the JSON parser checks list lengths itself, so only a direct
    # construction reaches this check
    x = x_weight(0, 4)
    with pytest.raises(ValueError, match="need at least `depth` lambda and mu weights"):
        WeightSpec((x, x), (x,), 2, BivarSeries.one(0, 4))


def test_weight_spec_keeps_its_weights_as_tuples():
    t = x_weight(0, 3)
    twin = WeightSpec((t,), (t,), 1, t)
    listed = WeightSpec([t], [t], 1, t)
    assert (type(listed.lambdas), type(listed.mus)) == (tuple, tuple)
    assert listed == twin and hash(listed) == hash(twin)


def test_weight_spec_is_a_frozen_value():
    x, one = x_weight(0, 1), BivarSeries.one(0, 1)
    x_text = "BivarSeries(z_order=0, x_order=1, entries=(Series(order=1, coeffs=(0, 1)),))"
    check_value_type(
        WeightSpec,
        {"lambdas": (x,), "mus": (x,), "depth": 1, "tail": x},
        WeightSpec((x,), (x,), 1, one),
        f"WeightSpec(lambdas=({x_text},), mus=({x_text},), depth=1, tail={x_text})",
    )
