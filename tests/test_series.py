"""Tests for the exact truncated-series layer."""

import copy
import gc
import pickle
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyckpeaks.series as series_module
from dyckpeaks.series import (
    BivarSeries,
    NonIntegralError,
    NonInvertibleError,
    Series,
    catalan_series,
)

# hand oracle: the first Catalan numbers by the convolution recurrence
CATALAN = [1]
for _n in range(1, 31):
    CATALAN.append(sum(CATALAN[i] * CATALAN[_n - 1 - i] for i in range(_n)))

FIB = [1, 1]
while len(FIB) < 41:
    FIB.append(FIB[-1] + FIB[-2])


def convolve(a, b):
    """Independent Cauchy-product oracle."""
    out = []
    for n in range(min(len(a), len(b))):
        out.append(sum(a[i] * b[n - i] for i in range(n + 1)))
    return out


def test_ring_ops_difference_of_squares():
    a = Series.from_coeffs([1, 1], 2)
    b = Series.from_coeffs([1, -1], 2)
    assert (a * b).coeffs == (1, 0, -1)


def test_add_zero_is_identity():
    a = Series.from_coeffs([3, 1, 4], 2)
    assert a + Series.zero(2) == a


def test_catalan_square_matches_convolution_oracle():
    expected = convolve(CATALAN[:5], CATALAN[:5])
    assert expected == [1, 2, 5, 14, 42]
    c = catalan_series(4)
    assert list((c * c).coeffs) == expected


def test_mixed_orders_truncate_to_min():
    a = Series.from_coeffs([1, 2, 3, 4], 3)
    b = Series.from_coeffs([1, 1], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a - b).order == 1


def test_scalar_ops():
    a = Series.from_coeffs([1, 2], 3)
    assert (2 * a).coeffs == (2, 4, 0, 0)
    assert (a * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, 0, 0)
    assert (1 - a).coeffs == (0, -2, 0, 0)
    assert (a + 5).coeffs == (6, 2, 0, 0)


def test_reciprocal_geometric():
    s = Series.from_coeffs([1, -1], 4).reciprocal()
    assert s.coeffs == (1, 1, 1, 1, 1)


def test_reciprocal_of_one():
    assert Series.one(3).reciprocal() == Series.one(3)


def test_reciprocal_fibonacci():
    # c_n = c_{n-1} + c_{n-2} by hand: 1, 1, 2, 3, 5, 8
    fib = [1, 1]
    for _ in range(4):
        fib.append(fib[-1] + fib[-2])
    s = Series.from_coeffs([1, -1, -1], 5).reciprocal()
    assert list(s.coeffs) == fib


def test_reciprocal_zero_constant_term_raises():
    with pytest.raises(NonInvertibleError):
        Series.from_coeffs([0, 1], 3).reciprocal()


class _FractionForbidden(Fraction):
    """Stands in for Fraction where creating one would be a defect."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a Fraction was created")


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ([1, -1, -1], lambda n: FIB[n]),  # 1/(1 - x - x^2)
        ([-1, 2], lambda n: -(2**n)),  # 1/(-1 + 2x) = -1/(1 - 2x)
    ],
)
def test_unit_constant_reciprocal_stays_in_ints(monkeypatch, coeffs, expected):
    monkeypatch.setattr(series_module, "Fraction", _FractionForbidden)
    inv = Series.from_coeffs(coeffs, 40).reciprocal()
    assert all(type(c) is int for c in inv.coeffs)
    assert list(inv.coeffs) == [expected(n) for n in range(41)]


def test_non_unit_constant_reciprocal_is_exact_fractions():
    inv = Series.from_coeffs([2, -1], 12).reciprocal()
    # 1/(2 - x) = sum of x^n / 2^(n+1)
    assert inv.coeffs == tuple(Fraction(1, 2 ** (n + 1)) for n in range(13))
    assert all(type(c) is Fraction for c in inv.coeffs)


def dense_quotient(num, den):
    """Reference quotient: the recurrence over every earlier coefficient, in
    Fractions, each result reduced to an int where its denominator is 1."""
    out = []
    for n in range(len(den)):
        out.append(Fraction(num[n] - sum(den[i] * out[n - i] for i in range(1, n + 1))) / den[0])
    return [v.numerator if v.denominator == 1 else v for v in out]


@settings(deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=8).filter(lambda cs: cs[0] != 0),
    st.integers(0, 30),
)
def test_reciprocal_of_a_polynomial_matches_the_dense_recurrence(poly, extra):
    # a polynomial padded with zeros up to the order: the sparse bound applies
    order = len(poly) - 1 + extra
    a = Series.from_coeffs(poly, order)
    assert list(a.reciprocal().coeffs) == dense_quotient([1] + [0] * order, a.coeffs)


def test_power_binomial():
    assert Series.from_coeffs([1, 1], 2).power(2).coeffs == (1, 2, 1)


def test_power_zero_exponent():
    a = Series.from_coeffs([7, 3], 2)
    assert a.power(0) == Series.one(2)


def test_catalan_cube_coefficient():
    # oracle: convolve the Catalan list three times
    expected = convolve(convolve(CATALAN[:3], CATALAN[:3]), CATALAN[:3])[2]
    assert expected == 9
    assert catalan_series(2).power(3).coeffs[2] == 9


def test_shift():
    assert Series.one(3).shift(2).coeffs == (0, 0, 1, 0)
    a = Series.from_coeffs([1, 2, 3], 2)
    assert a.shift(0) == a
    assert list(catalan_series(4).shift(1).coeffs) == [0, 1, 1, 2, 5]


def test_catalan_series_values():
    assert list(catalan_series(4).coeffs) == [1, 1, 2, 5, 14]
    assert list(catalan_series(0).coeffs) == [1]
    assert catalan_series(10).coeffs[10] == 16796
    assert list(catalan_series(30).coeffs) == CATALAN


def test_catalan_series_matches_convolution_and_binomial_oracles():
    oracle = [1]
    for n in range(1, 301):
        oracle.append(sum(oracle[i] * oracle[n - 1 - i] for i in range(n)))
    assert list(catalan_series(300).coeffs) == oracle
    assert oracle == [comb(2 * n, n) // (n + 1) for n in range(301)]


def test_coefficient_access():
    c = catalan_series(5)
    assert c.coefficient(3) == 5
    assert Series.one(0).coefficient(0) == 1
    with pytest.raises(ValueError):
        c.coefficient(6)
    with pytest.raises(ValueError):
        c.coefficient(-1)


def test_as_integer_sequence():
    assert Series.from_coeffs([1, 2], 1).as_integer_sequence() == [1, 2]
    assert catalan_series(5).as_integer_sequence() == [1, 1, 2, 5, 14, 42]
    with pytest.raises(NonIntegralError):
        Series.from_coeffs([0, Fraction(1, 2)], 1).as_integer_sequence()


def test_as_integer_sequence_of_ints_is_a_new_list():
    s = catalan_series(5)
    coeffs = s.as_integer_sequence()
    assert type(coeffs) is list and coeffs == list(s.coeffs)
    coeffs[0] = 99
    assert s.coeffs == (1, 1, 2, 5, 14, 42) and s.as_integer_sequence()[0] == 1


def test_as_integer_sequence_names_a_last_fractional_index():
    with pytest.raises(NonIntegralError, match=r"^coefficient of order 3 is non-integral: 1/3$"):
        Series.from_coeffs([1, 2, 3, Fraction(1, 3)], 3).as_integer_sequence()


def test_as_integer_sequence_keeps_a_bool_coefficient():
    coeffs = Series(1, (True, 2)).as_integer_sequence()
    assert coeffs == [1, 2] and coeffs[0] is True


def check_value_type(cls, fields, other, text, *, frozen=True, hashable=None):
    """Pin a value type's behaviour: construction by position and keyword,
    ``==`` against an equal value, ``other`` (a different value), another
    type and a plain tuple, hashing, ``repr`` (``text``), frozen fields, and
    pickle, copy and deepcopy round trips."""
    value, again = cls(*fields.values()), cls(**fields)
    assert repr(value) == repr(again) == text
    assert value == again and not value != again
    assert value != other and not value == other
    for foreign in (tuple(fields.values()), object(), None):
        assert value != foreign and not value == foreign
        assert value.__eq__(foreign) is NotImplemented
    with pytest.raises(TypeError):
        iter(value)
    if hashable is None:
        hashable = frozen
    if hashable:
        assert hash(value) == hash(again)
    else:
        with pytest.raises(TypeError):
            hash(value)
    if frozen:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and repr(copied) == text


def test_series_is_a_frozen_value():
    check_value_type(
        Series,
        {"order": 2, "coeffs": (1, Fraction(1, 2), 3)},
        Series(2, (1, 0, 3)),
        "Series(order=2, coeffs=(1, Fraction(1, 2), 3))",
    )
    assert Series(1, [1, Fraction(4, 2)]).coeffs == (1, 2)  # any iterable, normalized


def test_bivar_series_is_a_frozen_value():
    entries = (Series(1, (1, 2)), Series(1, (0, 1)))
    check_value_type(
        BivarSeries,
        {"z_order": 1, "x_order": 1, "entries": entries},
        BivarSeries(1, 1, entries[::-1]),
        "BivarSeries(z_order=1, x_order=1, entries=(Series(order=1, coeffs=(1, 2)), "
        "Series(order=1, coeffs=(0, 1))))",
    )
    assert Series(0, (1,)) != BivarSeries(0, 0, (Series(0, (1,)),))


def test_bivar_series_keeps_its_entries_as_a_tuple():
    # as Series keeps its coefficients: a list of entries makes the value
    # its tuple twin, equal and hashable
    entries = [Series.one(2), Series.zero(2)]
    twin = BivarSeries(1, 2, tuple(entries))
    for given in (entries, iter(entries)):
        value = BivarSeries(1, 2, given)
        assert type(value.entries) is tuple
        assert value == twin and hash(value) == hash(twin)


def test_bivar_series_refuses_an_entry_that_is_no_series():
    with pytest.raises(TypeError, match="^entry must be a Series, got int$"):
        BivarSeries(0, 2, (5,))
    with pytest.raises(TypeError, match="^entry must be a Series, got list$"):
        BivarSeries(1, 2, (Series.one(2), [0, 0, 0]))


def test_fraction_coefficients_normalize_to_int():
    s = Series.from_coeffs([Fraction(4, 2), Fraction(1, 3)], 1)
    assert s.coeffs[0] == 2 and isinstance(s.coeffs[0], int)
    assert s.coeffs[1] == Fraction(1, 3)


def test_constructor_rejects_non_rational_coefficients():
    with pytest.raises(TypeError):
        Series(1, (1, 0.5))
    with pytest.raises(TypeError):
        Series(0, (1.0,))
    with pytest.raises(TypeError):
        Series(0, ("1",))


def test_constructor_validates_length_and_order():
    with pytest.raises(ValueError):
        Series(2, (1, 2))
    with pytest.raises(ValueError):
        Series(-1, ())


def test_catalan_identity_xc2_equals_c_minus_1():
    c = catalan_series(100)
    assert (c * c).shift(1) == c - 1


int_coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=51)


@settings(deadline=None)
@given(int_coeffs.filter(lambda cs: cs[0] != 0))
def test_reciprocal_roundtrip(coeffs):
    order = len(coeffs) - 1
    a = Series.from_coeffs(coeffs, order)
    assert a * a.reciprocal() == Series.one(order)


@settings(deadline=None)
@given(int_coeffs, int_coeffs)
def test_multiplication_commutes(ca, cb):
    order = min(len(ca), len(cb)) - 1
    a = Series.from_coeffs(ca, order)
    b = Series.from_coeffs(cb, order)
    assert a * b == b * a


@settings(deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=20),
    st.lists(st.integers(-5, 5), min_size=1, max_size=20),
    st.lists(st.integers(-5, 5), min_size=1, max_size=20),
)
def test_multiplication_associates(ca, cb, cc):
    order = min(len(ca), len(cb), len(cc)) - 1
    a = Series.from_coeffs(ca, order)
    b = Series.from_coeffs(cb, order)
    c = Series.from_coeffs(cc, order)
    assert (a * b) * c == a * (b * c)


# -- bivariate layer -------------------------------------------------------


def test_bivar_geometric_in_z():
    one_minus_z = 1 - BivarSeries.monomial(1, 0, 1, 3, 2)
    inv = one_minus_z.reciprocal()
    assert all(entry == Series.one(2) for entry in inv.entries)


def test_bivar_difference_of_squares():
    z = BivarSeries.monomial(1, 0, 1, 2, 2)
    product = (1 + z) * (1 - z)
    assert product.z_slice(0) == Series.one(2)
    assert not product.z_slice(1)
    assert product.z_slice(2) == -Series.one(2)


def test_bivar_fine_number_slice():
    # z^0 slice of 1/(1 - z - x^2 C^2) is the no-peak-at-height-1 count
    c = catalan_series(6)
    z = BivarSeries.monomial(1, 0, 1, 3, 6)
    den = 1 - z - BivarSeries.from_series((c * c).shift(2), 3)
    inv = den.reciprocal()
    assert list(inv.z_slice(0).coeffs) == [1, 0, 1, 2, 6, 18, 57]


# Each operator applied to (a, b, c): a and b both univariate or both
# bivariate, c a nonzero scalar.
OPERATORS = {
    "add": lambda a, b, c: a + b,
    "sub": lambda a, b, c: a - b,
    "mul": lambda a, b, c: a * b,
    "truediv": lambda a, b, c: a / b,
    "reciprocal": lambda a, b, c: a.reciprocal(),
    "add_scalar": lambda a, b, c: a + c,
    "scalar_add": lambda a, b, c: c + a,
    "sub_scalar": lambda a, b, c: a - c,
    "scalar_sub": lambda a, b, c: c - a,
    "mul_scalar": lambda a, b, c: a * c,
    "scalar_mul": lambda a, b, c: c * a,
    "truediv_scalar": lambda a, b, c: a / c,
}


@pytest.mark.parametrize("name", OPERATORS)
@settings(deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=20).filter(lambda cs: cs[0] != 0),
    st.lists(st.integers(-9, 9), min_size=1, max_size=20).filter(lambda cs: cs[0] != 0),
    st.one_of(st.integers(-9, 9), st.fractions(max_denominator=9)).filter(bool),
)
def test_bivar_operators_agree_with_univariate_at_z_order_zero(name, ca, cb, c):
    # a and b of different orders check the mixed-order truncation too
    a, b = Series.from_coeffs(ca, len(ca) - 1), Series.from_coeffs(cb, len(cb) - 1)
    operator = OPERATORS[name]
    bivariate = operator(BivarSeries.from_series(a, 0), BivarSeries.from_series(b, 0), c)
    assert type(bivariate) is BivarSeries
    assert bivariate.z_slice(0) == operator(a, b, c)


def test_scalars_coerce_alike_and_a_foreign_operand_is_refused():
    a = Series.from_coeffs([2, 3, 4], 3)
    z = BivarSeries.monomial(1, 0, 1, 2, 3)
    assert a / 2 == a * Fraction(1, 2)
    with pytest.raises(TypeError):
        a / z
    with pytest.raises(TypeError):
        1 / a
    assert type(a * z) is BivarSeries
    assert a * z == BivarSeries.from_series(a, 2) * z
    assert type(1 - z) is BivarSeries
    assert 1 - z == BivarSeries.one(2, 3) - z


@pytest.mark.parametrize("foreign", ["x", None, 1.5])
@pytest.mark.parametrize(
    "value",
    [Series.from_coeffs([2, 3, 4], 3), BivarSeries.monomial(1, 0, 1, 2, 3)],
    ids=["Series", "BivarSeries"],
)
def test_a_foreign_operand_of_minus_is_refused_on_either_side(value, foreign):
    with pytest.raises(TypeError):
        value - foreign
    with pytest.raises(TypeError):
        foreign - value


def test_minus_is_plus_of_the_negation():
    a = Series.from_coeffs([2, 3, 4], 3)
    z = BivarSeries.monomial(1, 0, 1, 2, 3)
    assert 1 - a == -a + 1 == Series.from_coeffs([-1, -3, -4], 3)
    assert a - 1 == a + (-1) == Series.from_coeffs([1, 3, 4], 3)
    assert Fraction(1, 2) - a == -a + Fraction(1, 2)
    assert a - z == a + (-z) == BivarSeries(2, 3, (a, Series.from_coeffs([-1], 3), Series.zero(3)))
    assert z - a == z + (-a) == BivarSeries(2, 3, (-a, Series.one(3), Series.zero(3)))
    for left, right in ((1, a), (a, 1), (1, z), (z, 1), (a, z), (z, a), (z, z)):
        bivariate = isinstance(left, BivarSeries) or isinstance(right, BivarSeries)
        assert type(left - right) is (BivarSeries if bivariate else Series)


@pytest.mark.parametrize(
    "value",
    [
        Series.from_coeffs([2, 3, 4], 3),
        BivarSeries.monomial(1, 0, 1, 2, 3) + Series.from_coeffs([2, 3], 3),
    ],
    ids=["Series", "BivarSeries"],
)
def test_a_scalar_operand_touches_the_terms_without_a_constant_series(monkeypatch, value):
    # + moves the constant term (the z^0 entry's) and * scales every term;
    # the results equal those of the constant series the scalar stands for
    constant = {n: value._coerce(n) for n in (3, Fraction(1, 2), 2)}
    expected = {
        "a + 3": value + constant[3],
        "3 - a": constant[3] - value,
        "a * 1/2": value * constant[Fraction(1, 2)],
        "2 * a": constant[2] * value,
    }

    def refuse(self, other):
        raise AssertionError(f"{other!r} was coerced")

    monkeypatch.setattr(type(value), "_coerce", refuse)
    actual = {
        "a + 3": value + 3,
        "3 - a": 3 - value,
        "a * 1/2": value * Fraction(1, 2),
        "2 * a": 2 * value,
    }
    assert actual == expected
    assert all(type(result) is type(value) for result in actual.values())


def test_bivar_reciprocal_roundtrip():
    c = catalan_series(8)
    z = BivarSeries.monomial(1, 1, 1, 4, 8)
    a = BivarSeries.from_series(c, 4) + z
    assert a * a.reciprocal() == BivarSeries.one(4, 8)


def test_bivar_non_invertible_raises():
    with pytest.raises(NonInvertibleError):
        BivarSeries.monomial(1, 0, 1, 2, 2).reciprocal()


def test_bivar_mixed_orders_truncate():
    a = BivarSeries.one(3, 5)
    b = BivarSeries.one(1, 2)
    assert (a + b).z_order == 1
    assert (a * b).x_order == 2


def test_bivar_subs_z_one_sums_entries():
    z = BivarSeries.monomial(1, 0, 1, 2, 1)
    x = BivarSeries.monomial(1, 1, 0, 2, 1)
    total = (1 + z + z * z + x).subs_z_one()
    assert total.coeffs == (3, 1)


def test_bivar_slice_out_of_range():
    with pytest.raises(ValueError):
        BivarSeries.one(1, 1).z_slice(2)


@st.composite
def bivar_pairs(draw):
    """Two BivarSeries of one shape whose z-entries are often zero,
    including interior ones; the first has constant term 1 or -1."""
    z_order = draw(st.integers(0, 4))
    x_order = draw(st.integers(0, 6))
    entry = st.one_of(
        st.just([0] * (x_order + 1)),
        st.lists(st.integers(-4, 4), min_size=x_order + 1, max_size=x_order + 1),
    )

    def draw_entries():
        return [draw(entry) for _ in range(z_order + 1)]

    ea, eb = draw_entries(), draw_entries()
    ea[0][0] = draw(st.sampled_from([1, -1]))
    return ea, eb


def _bivar(entries):
    x_order = len(entries[0]) - 1
    return BivarSeries(
        len(entries) - 1, x_order, tuple(Series.from_coeffs(e, x_order) for e in entries)
    )


@settings(deadline=None)
@given(bivar_pairs())
def test_bivar_product_and_reciprocal_with_zero_entries(pair):
    ea, eb = pair
    a, b = _bivar(ea), _bivar(eb)
    product = a * b
    for j in range(len(ea)):
        expected = [0] * len(ea[0])
        for i in range(j + 1):
            expected = [s + t for s, t in zip(expected, convolve(ea[i], eb[j - i]))]
        assert list(product.z_slice(j).coeffs) == expected
    assert a * a.reciprocal() == BivarSeries.one(a.z_order, a.x_order)
    assert (b / a) * a == b


# -- the two kernels -----------------------------------------------------------


@st.composite
def sparse_and_dense(draw):
    """A polynomial with a few nonzero terms and a dense sequence, in either
    order and of possibly different lengths, with int or Fraction terms."""
    value = st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    )
    n_sparse = draw(st.integers(1, 30))
    sparse = [0] * n_sparse
    for i in draw(st.lists(st.integers(0, n_sparse - 1), max_size=4)):
        sparse[i] = draw(value)
    dense = draw(st.lists(value, min_size=1, max_size=30))
    return (sparse, dense) if draw(st.booleans()) else (dense, sparse)


@settings(deadline=None)
@given(sparse_and_dense())
def test_product_kernel_matches_a_double_loop(pair):
    a, b = pair
    n = min(len(a), len(b))
    expected = [sum((a[i] * b[m - i] for i in range(m + 1)), 0) for m in range(n)]
    assert series_module._product(a, b, 0) == expected
    assert series_module._product(b, a, 0) == expected


@settings(deadline=None)
@given(sparse_and_dense(), st.integers(0, 70))
def test_product_kernel_gives_n_terms_of_the_exact_product(pair, n):
    # n = len(a) + len(b) - 1 is the exact product; terms past it are zero
    a, b = pair
    exact = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            exact[i + j] += ai * bj
    assert series_module._product(a, b, 0, len(exact)) == exact
    assert series_module._product(a, b, 0, n) == series_module._product(b, a, 0, n) == (exact + [0] * n)[:n]


def test_product_kernel_with_an_explicit_length():
    assert series_module._product([1, 1], [1, 1], 0, 5) == [1, 2, 1, 0, 0]
    assert series_module._product([1, 1], [1, 1], 0, 0) == []
    assert series_module._product([1, 2, 3], [4, 5], 0) == [4, 13]


@settings(deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=25),
    st.lists(st.integers(-9, 9), min_size=1, max_size=25),
    st.sampled_from([1, -1, 2, -3, 5]),
)
def test_division_is_the_product_with_the_reciprocal(ca, cb, b0):
    # an integral quotient stays in the integers, whatever b0 is
    order = min(len(ca), len(cb)) - 1
    a = Series.from_coeffs(ca, order)
    b = Series.from_coeffs([b0] + cb[1:], order)
    quotient = a / b
    assert quotient == a * b.reciprocal()
    assert quotient * b == a
    integral = all(type(c) is int for c in quotient.coeffs)
    if b0 in (1, -1):
        assert integral
    if integral:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "Fraction", _FractionForbidden)
            assert a / b == quotient


@settings(deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=25),
    st.lists(st.integers(-9, 9), min_size=1, max_size=25),
    st.sampled_from([2, -3, 5, -1, 1]),
)
def test_exact_division_creates_no_fraction(cs, cb, b0):
    # (s * b) / b is integral, so every step divides exactly in Z
    order = min(len(cs), len(cb)) - 1
    s = Series.from_coeffs(cs, order)
    b = Series.from_coeffs([b0] + cb[1:], order)
    dividend = s * b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "Fraction", _FractionForbidden)
        quotient = dividend / b
    assert quotient == s
    assert all(type(c) is int for c in quotient.coeffs)


@st.composite
def bivar_quotients(draw):
    """A dividend and a divisor of one shape (z_order 0..3, x_order 0..5);
    the divisor is affine or dense in z, its (z^0, x^0) constant is 1, -1,
    2 or -3."""
    z_order = draw(st.integers(0, 3))
    x_order = draw(st.integers(0, 5))
    entry = st.lists(st.integers(-6, 6), min_size=x_order + 1, max_size=x_order + 1)
    num = [draw(entry) for _ in range(z_order + 1)]
    den = [draw(entry) for _ in range(z_order + 1)]
    if draw(st.booleans()):  # affine in z, like every continuant
        den[2:] = [[0] * (x_order + 1)] * (z_order - 1)
    den[0][0] = draw(st.sampled_from([1, -1, 2, -3]))
    return num, den


@settings(deadline=None)
@given(bivar_quotients())
def test_bivar_division_is_the_product_with_the_reciprocal(pair):
    a, b = _bivar(pair[0]), _bivar(pair[1])
    quotient = a / b
    assert quotient == a * b.reciprocal()
    assert quotient * b == a
    integral = all(type(c) is int for e in quotient.entries for c in e.coeffs)
    if b.entries[0].coeffs[0] in (1, -1):
        assert integral
    if integral:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "Fraction", _FractionForbidden)
            assert a / b == quotient


def _divide_forbidden(d, v):
    """Stands in for series._divide where a unit constant must divide in C."""
    raise AssertionError("_divide was called")


@pytest.mark.parametrize("c0", [1, -1])
@pytest.mark.parametrize(
    "num",
    [
        [3, -1, 4, 1, -5, 9, 2, 6],
        [Fraction(1, 2), 3, Fraction(-7, 3), 0, 1, Fraction(5, 6), -2, 4],
    ],
    ids=["ints", "fractions"],
)
def test_unit_constant_division_makes_no_python_call_per_coefficient(monkeypatch, c0, num):
    den = [c0, 2, 0, -3, 1, 0, 0, 5]
    monkeypatch.setattr(series_module, "_divide", _divide_forbidden)
    quotient = Series.from_coeffs(num, 7) / Series.from_coeffs(den, 7)
    reciprocal = Series.from_coeffs(den, 7).reciprocal()
    # a z^0 entry with a unit constant divides each z-entry the same way
    bivar = _bivar([num, num[::-1]]) / _bivar([den, [0, 1, 0, 0, 0, 0, 0, 2]])
    monkeypatch.undo()
    assert list(quotient.coeffs) == dense_quotient(num, den)
    assert list(reciprocal.coeffs) == dense_quotient([1] + [0] * 7, den)
    assert bivar * _bivar([den, [0, 1, 0, 0, 0, 0, 0, 2]]) == _bivar([num, num[::-1]])


def test_other_constants_still_divide_by_the_exact_step(monkeypatch):
    calls, divide = [], series_module._divide

    def counted(d, v):
        calls.append(d)
        return divide(d, v)

    monkeypatch.setattr(series_module, "_divide", counted)
    quotient = Series.from_coeffs([4, 1, 2], 5) / Series.from_coeffs([2, -1], 5)
    assert calls == [2] * 6
    assert list(quotient.coeffs) == dense_quotient([4, 1, 2, 0, 0, 0], [2, -1, 0, 0, 0, 0])


@settings(deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-50, 50), st.fractions(min_value=-5, max_value=5, max_denominator=7)),
        min_size=1,
        max_size=25,
    ),
    st.lists(st.integers(-9, 9), min_size=1, max_size=25),
    st.sampled_from([1, -1]),
)
def test_unit_constant_quotient_matches_the_dense_recurrence(num, cb, c0):
    order = min(len(num), len(cb)) - 1
    den = [c0] + cb[1 : order + 1]
    quotient = Series.from_coeffs(num, order) / Series.from_coeffs(den, order)
    expected = dense_quotient(num[: order + 1], den)
    assert list(quotient.coeffs) == expected
    assert list(map(type, quotient.coeffs)) == list(map(type, expected))


def test_division_by_a_zero_constant_raises():
    with pytest.raises(NonInvertibleError):
        Series.one(3) / Series.from_coeffs([0, 1], 3)
    with pytest.raises(NonInvertibleError):
        BivarSeries.one(1, 3) / BivarSeries.monomial(1, 1, 0, 1, 3)


def test_short_series_arithmetic_leaves_no_freed_tuples_behind():
    # a tuple built from a generator is resized to its length, and CPython's
    # free lists keep up to 2000 freed tuples of each short length, which
    # the short polynomials of the peak fraction showed as resident memory
    a = Series.from_coeffs([1, 2, 3], 6)
    b = BivarSeries.from_series(a, 2)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(3000):
        a + a, -a, a * 3, a - 1, 1 - a, a / a, a.reciprocal()
        b + b, -b, b * b, b / b, 1 - b, b.truncate(1, 6)
    assert sys.getallocatedblocks() - before < 500
