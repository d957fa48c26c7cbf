"""Truncated formal power series with exact rational coefficients.

Every series carries an explicit truncation order (the highest retained
exponent), supplied by the caller on construction. Operations on operands of
mixed order truncate to the smaller order, so precision loss is always
visible in the result. Coefficients are exact: Python ints, or
:class:`fractions.Fraction` when a denominator survives reduction. A quotient
stays in the integers whenever it is integral, whatever the divisor's
constant term: each step divides exactly when it can, and a ``Fraction``
appears only when a denominator survives. No floating point appears
anywhere.

The ring operations (``+``, ``-``, ``*``, ``/`` and ``reciprocal``) are
written once, in :class:`Series`, and :class:`BivarSeries` binds the same
functions. They read a few hooks of each type: its truncation orders, its
terms (coefficients, or z-entries that are themselves Series), its zero
term, ``_coerce``, which makes the other operand one of its own type, a
scalar becoming a constant, and ``_divider``, which divides a term by the
divisor's constant term. ``+`` and ``*`` need no constant for a scalar:
adding one moves the constant term (of a BivarSeries, the z^0 entry's) and
multiplying by one scales every term. A foreign operand gets
``NotImplemented``, so ``Series * BivarSeries`` reaches
:meth:`BivarSeries.__rmul__`, and ``a - b`` is ``a + (-b)``. Both types run
one truncated convolution, which visits only pairs of nonzero terms, so a
polynomial times a series costs its number of terms times the order, and
one quotient recurrence: a reciprocal is the quotient of 1, and a quotient
``a / b`` is one pass, not a reciprocal followed by a product. Each step
divides by the divisor's constant term: a :class:`Series` divides each
coefficient exactly, a :class:`BivarSeries` divides the z-entry by the
divisor's z^0 entry, so no bivariate reciprocal is ever formed. A constant
of 1 or -1, as almost every divisor of the counting formulas has, divides
by ``operator.pos`` or ``neg``: no Python call per coefficient.

Immutability: series, paths, profiles and weight specs derive from :class:`_Frozen`,
which keeps their fields in ``__slots__`` and refuses to set or delete one after ``__init__``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import partial
from operator import attrgetter, mul, neg, pos

Rational = int | Fraction
_SCALARS = (int, Fraction)  # the operand types that act as a Rational


class NonInvertibleError(ValueError):
    """Inversion was asked of a series whose constant term is zero."""


class NonIntegralError(ValueError):
    """A series expected to be a counting series has a fractional coefficient.
    Signals a bug in a counting formula, not bad input."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: two routes to the same object
    disagree, or a rewrite broke its own invariant. Signals a bug, not bad
    input."""


def _normalize(value: Rational) -> Rational:
    """Reduce a coefficient: Fractions with unit denominator become ints."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"coefficient must be int or Fraction, got {type(value).__name__}")


def _divide(d: Rational, v: Rational) -> Rational:
    """v / d, an int whenever d divides v exactly."""
    q, rem = divmod(v, d)
    return Fraction(v) / d if rem else q


def _product(a: Sequence, b: Sequence, zero, n: int | None = None) -> list:
    """Cauchy product of two coefficient sequences, its first ``n`` terms (by
    default the shorter one's length; n = len(a) + len(b) - 1 is the exact
    product of two polynomials); ``zero`` is the additive identity.

    Only pairs of nonzero terms are visited: the outer loop walks the
    support of the sparser operand, the inner one the support of the other,
    so a polynomial of d terms times a series of length n costs O(d*n).
    """
    n = min(len(a), len(b)) if n is None else n
    support_a = [i for i in range(min(n, len(a))) if a[i]]
    support_b = [j for j in range(min(n, len(b))) if b[j]]
    if len(support_b) < len(support_a):
        a, b, support_a, support_b = b, a, support_b, support_a
    out = [zero] * n
    for i in support_a:
        ai = a[i]
        for j in support_b:
            if i + j >= n:
                break
            out[i + j] += ai * b[j]
    return out


def _quotient(num: Sequence, den: Sequence, divide, zero) -> list:
    """Quotient num/den to the length of ``den``; ``divide(v)`` must return
    v / den[0].

    The recurrence is
    out[n] = divide(num[n] - sum(den[i] * out[n - i], 1 <= i <= min(n, top))),
    ``top`` being the last nonzero index of ``den``: dividing by a
    polynomial of degree d costs d products and one ``divide`` per
    coefficient.
    """
    top = len(den) - 1
    while not den[top]:
        top -= 1
    tail = den[1 : top + 1]
    out: list = []
    for n in range(len(den)):
        out.append(divide(num[n] - sum(map(mul, tail, reversed(out)), zero)))
    return out


def _common(a: Series | BivarSeries, b: Series | BivarSeries) -> tuple[Series | BivarSeries, ...]:
    """``a`` and ``b``, of one type, cut to the truncation orders they share."""
    if a._orders == b._orders:  # the common case: nothing to cut
        return a, b
    orders = list(map(min, a._orders, b._orders))
    return a.truncate(*orders), b.truncate(*orders)


class _Record:
    """A value whose fields are its ``__slots__``, compared and printed by them
    and pickled through its checking constructor; unhashable, as it has ``__eq__`` alone."""

    __slots__ = ()
    _fields = property(lambda self: tuple(map(self.__getattribute__, self.__slots__)))

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return self._fields == other._fields if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields


class _Frozen(_Record):
    """A :class:`_Record` closed to assignment and deletion, and hashed by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields)

    def _refuse(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _refuse


class Series(_Frozen):
    """A univariate power series truncated at ``order`` (inclusive).

    ``coeffs[i]`` is the coefficient of the i-th power of the variable;
    there are exactly ``order + 1`` of them. Instances are immutable and
    all operations are pure, so unrestricted concurrent use is safe.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Rational]) -> None:
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = tuple(coeffs)
        # Plain ints, the common case, need no per-coefficient normalization.
        if not {int}.issuperset(map(type, coeffs)):
            coeffs = tuple(map(_normalize, coeffs))
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients for order {order}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)  # not by _Record.__init__: every operation ends here
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Rational], order: int) -> Series:
        """Build from leading coefficients, zero-padded or cut to ``order``."""
        cs = list(coeffs)[: order + 1]
        cs.extend([0] * (order + 1 - len(cs)))
        return cls(order, tuple(cs))

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls.from_coeffs([], order)

    @classmethod
    def one(cls, order: int) -> Series:
        return cls.from_coeffs([1], order)

    @classmethod
    def monomial(cls, coeff: Rational, power: int, order: int) -> Series:
        """The single-term series ``coeff * var**power`` at the given order."""
        if power < 0:
            raise ValueError("power must be >= 0")
        cs = [0] * (order + 1)
        if power <= order:
            cs[power] = coeff
        return cls(order, tuple(cs))

    # -- basic queries ----------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def coefficient(self, n: int) -> Rational:
        """Coefficient of the n-th power; ``n`` must be within the order."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def as_integer_sequence(self) -> list[int]:
        """Coefficients as arbitrary-precision ints.

        Raises :class:`NonIntegralError` if any coefficient has a surviving
        denominator; for counting series that signals a formula or
        implementation bug upstream.
        """
        if not {int}.issuperset(map(type, self.coeffs)):  # plain ints, the common case, hold no Fraction
            for i, c in enumerate(self.coeffs):
                if isinstance(c, Fraction):
                    raise NonIntegralError(f"coefficient of order {i} is non-integral: {c}")
        return list(self.coeffs)

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return Series(order, self.coeffs[: order + 1])

    # -- ring operations, shared with BivarSeries --------------------------

    _orders = property(lambda self: (self.order,))
    _terms = property(attrgetter("coeffs"))
    _zero = 0

    def _coerce(self, other: object) -> Series | None:
        """``other`` as a Series; a scalar is a constant. None for any other type."""
        if isinstance(other, Series):
            return other
        if isinstance(other, _SCALARS):
            return Series.from_coeffs([other], self.order)
        return None

    def _divider(self) -> Callable[[Rational], Rational]:
        """Division of a coefficient by this divisor's constant term, exact
        when it can be: an integral quotient stays in the integers. A unit
        constant divides in C: 1 by ``pos`` and -1 by ``neg``, with no
        Python call per coefficient."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise NonInvertibleError("series with zero constant term has no reciprocal")
        return pos if c0 == 1 else neg if c0 == -1 else partial(_divide, c0)

    def _rebuild(self, terms: list) -> Series | BivarSeries:
        """A result of this operand's type and orders with the given terms."""
        # tuple() of a list is allocated at its final length. tuple() of a
        # generator resizes a 10-slot tuple, so freed tuples of other short
        # lengths pile up in CPython's per-length free lists, up to 2000 of
        # each: about 1.6 MB of resident memory for the short polynomials of
        # the peak fraction. So every result tuple is built from a list.
        return type(self)(*self._orders, tuple(terms))

    def __add__(self, other: Series | BivarSeries | Rational) -> Series | BivarSeries:
        if isinstance(other, _SCALARS):  # moves the constant term alone
            terms = list(self._terms)
            terms[0] += other
            return self._rebuild(terms)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _common(self, other)
        return a._rebuild([x + y for x, y in zip(a._terms, b._terms)])

    __radd__ = __add__

    def __neg__(self) -> Series | BivarSeries:
        return self._rebuild([-t for t in self._terms])

    def __sub__(self, other: Series | BivarSeries | Rational) -> Series | BivarSeries:
        return self + (-other)

    def __rsub__(self, other: Series | BivarSeries | Rational) -> Series | BivarSeries:
        return -self + other

    def __mul__(self, other: Series | BivarSeries | Rational) -> Series | BivarSeries:
        if isinstance(other, _SCALARS):  # scales every term
            return self._rebuild([t * other for t in self._terms])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _common(self, other)
        return a._rebuild(_product(a._terms, b._terms, a._zero))

    __rmul__ = __mul__

    def reciprocal(self) -> Series | BivarSeries:
        """Multiplicative inverse up to the truncation orders: the quotient 1/self.

        The constant term must be nonzero; otherwise
        :class:`NonInvertibleError` is raised.
        """
        return self._coerce(1) / self

    def __truediv__(self, other: Series | BivarSeries | Rational) -> Series | BivarSeries:
        """Quotient self/other in one pass of the quotient recurrence.

        Each step divides a term by the divisor's constant term (see
        ``_divider``), which must be nonzero; otherwise
        :class:`NonInvertibleError` is raised. The recurrence reads the
        divisor only up to its last nonzero term, so dividing by a
        polynomial of degree d costs d products per term.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _common(self, other)
        return a._rebuild(_quotient(a._terms, b._terms, b._divider(), a._zero))

    def power(self, m: int) -> Series:
        """m-th power by repeated truncated multiplication; ``a.power(0)`` is 1."""
        if m < 0:
            raise ValueError("exponent must be >= 0")
        result = Series.one(self.order)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def shift(self, p: int) -> Series:
        """Multiply by the p-th power of the variable, keeping the order."""
        if p < 0:
            raise ValueError("shift must be >= 0")
        if p == 0:
            return self
        cs = (0,) * min(p, self.order + 1) + self.coeffs[: max(self.order + 1 - p, 0)]
        return Series(self.order, cs)


def catalan_series(order: int) -> Series:
    """Counting series of balanced up/down excursions, indexed by semilength.

    Computed by the ratio recurrence c_0 = 1,
    c_{n+1} = c_n * (4n + 2) / (n + 2), whose division is always exact: one
    big-integer product per coefficient; all coefficients are positive ints.
    """
    cs = [1]
    for n in range(order):
        cs.append(cs[-1] * (4 * n + 2) // (n + 2))
    return Series(order, tuple(cs))


class BivarSeries(_Frozen):
    """Polynomial in a marker variable z, truncated in z, with Series entries.

    ``entries[j]`` is the univariate x-series multiplying the z^j term. All
    entries share ``x_order``. Immutable; operations are pure functions.
    """

    __slots__ = ("z_order", "x_order", "entries")

    def __init__(self, z_order: int, x_order: int, entries: Iterable[Series]) -> None:
        if z_order < 0:
            raise ValueError("z_order must be >= 0")
        entries = tuple(entries)
        if len(entries) != z_order + 1:
            raise ValueError(f"expected {z_order + 1} entries for z_order {z_order}, got {len(entries)}")
        for e in entries:
            if not isinstance(e, Series):
                raise TypeError(f"entry must be a Series, got {type(e).__name__}")
            if e.order != x_order:
                raise ValueError("all entries must share the same x_order")
        object.__setattr__(self, "z_order", z_order)  # not by _Record.__init__: every operation ends here
        object.__setattr__(self, "x_order", x_order)
        object.__setattr__(self, "entries", entries)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_series(cls, s: Series, z_order: int) -> BivarSeries:
        """Embed a univariate series as the z^0 entry."""
        zero = Series.zero(s.order)
        return cls(z_order, s.order, (s,) + (zero,) * z_order)

    @classmethod
    def zero(cls, z_order: int, x_order: int) -> BivarSeries:
        return cls.from_series(Series.zero(x_order), z_order)

    @classmethod
    def one(cls, z_order: int, x_order: int) -> BivarSeries:
        return cls.from_series(Series.one(x_order), z_order)

    @classmethod
    def monomial(
        cls, coeff: Rational, x_power: int, z_power: int, z_order: int, x_order: int
    ) -> BivarSeries:
        """The single term ``coeff * x**x_power * z**z_power``."""
        if z_power < 0:
            raise ValueError("z_power must be >= 0")
        entries = [Series.zero(x_order) for _ in range(z_order + 1)]
        if z_power <= z_order:
            entries[z_power] = Series.monomial(coeff, x_power, x_order)
        return cls(z_order, x_order, tuple(entries))

    # -- queries ----------------------------------------------------------

    def z_slice(self, j: int) -> Series:
        """The x-series multiplying z^j."""
        if not 0 <= j <= self.z_order:
            raise ValueError(f"z-degree {j} outside truncation order {self.z_order}")
        return self.entries[j]

    def subs_z_one(self) -> Series:
        """Substitute z = 1: the sum of all entries."""
        total = self.entries[0]
        for e in self.entries[1:]:
            total = total + e
        return total

    def truncate(self, z_order: int, x_order: int) -> BivarSeries:
        if z_order > self.z_order or x_order > self.x_order:
            raise ValueError("cannot extend truncation orders")
        if z_order == self.z_order and x_order == self.x_order:
            return self
        return BivarSeries(
            z_order, x_order, tuple([e.truncate(x_order) for e in self.entries[: z_order + 1]])
        )

    # -- ring operations: the hooks that Series's operators read ----------

    _orders = property(attrgetter("z_order", "x_order"))
    _terms = property(attrgetter("entries"))
    _zero = property(lambda self: Series.zero(self.x_order))

    def _coerce(self, other: object) -> BivarSeries | None:
        """``other`` as a BivarSeries; a Series or scalar is the z^0 entry.
        None for any other type."""
        if isinstance(other, BivarSeries):
            return other
        if isinstance(other, _SCALARS):
            other = Series.from_coeffs([other], self.x_order)
        if isinstance(other, Series):
            return BivarSeries.from_series(other, self.z_order)
        return None

    def _divider(self) -> Callable[[Series], Series]:
        """Division of a z-entry by this divisor's z^0 entry, a univariate
        quotient: no bivariate reciprocal is formed."""
        b0 = self.entries[0]
        if b0.coeffs[0] == 0:
            raise NonInvertibleError("bivariate series with zero constant term has no reciprocal")
        return lambda e: e / b0

    _rebuild = Series._rebuild
    __add__ = __radd__ = Series.__add__
    __neg__ = Series.__neg__
    __sub__ = Series.__sub__
    __rsub__ = Series.__rsub__
    __mul__ = __rmul__ = Series.__mul__
    reciprocal = Series.reciprocal
    __truediv__ = Series.__truediv__
