"""Finite-depth evaluation of weighted continued fractions over paths.

The general form assigns every up-step weight 1, every non-peak down-step
from height j weight lambda_j, and every peak down-step from height j weight
mu_j; the weighted path-counting series is then the nested fraction

    1 / (1 - (mu_1 - lambda_1) - lambda_1 / (1 - (mu_2 - lambda_2) - ...))

with one level per height. Evaluation covers ``depth`` levels with an
explicit tail: the tail is the value standing in for the whole fraction
below the last level, so a closed-form continuation (such as the full path
series for unmarked lower levels) costs nothing.

The fraction is carried as its Euler-Wallis continuants, built from the
innermost level outwards, and divided once at the end. With
d_j = 1 - (mu_j - lambda_j) and T the tail,

    K_j = d_j * K_{j+1} - lambda_j * K_{j+2},   K_{depth+1} = 1, K_{depth+2} = T,

the value of levels j..depth is K_{j+1} / K_j, so the whole fraction is
K_2 / K_1. A level costs two products (one when mu_j is lambda_j, the same
weight object, so that d_j = 1), and a weight that is a polynomial
of t terms costs t passes over the series it multiplies, since the product
kernel walks only nonzero terms. The series arithmetic truncates every
result to the smaller orders of its operands, so weights, tail and requested
orders may differ and the value comes out at the smallest of them.

The peak fraction, whose tail is the path-counting series C, keeps its
continuants as polynomials: K_j = alpha_j + beta_j*C, and
K_2/K_1 = (p + q*C)/N with polynomials N, p and q (see
:func:`peak_bivar_cfrac`). Only the mark level involves z, so the fraction
splits there: the levels above the mark run once, as univariate
continuants, and the mark level joins the two starts to them by
univariate products, one z-coefficient of N, p or q at a time. Its value
costs one polynomial times C and one division by N: O(z_order*x_order*k)
big-integer operations in place of the O(z_order*x_order^2) of dense
continuants. ``peak_bivar_cfrac(4, 3000, 2)`` takes 0.04 s (78 s densely) on
a 2-CPU host.

Every fraction the library builds itself is one marked fraction: all
down-steps weigh x, except the peak down-step at the innermost level k,
which carries a mark, and a tail stands in for the levels below. Mark x with
tail 1 is the uniform path fraction; mark x*z with tail C counts peaks at
height k; mark x + z with tail A gives the innermost denominator
1 - (z + x*A) of the lemma, whose closed form is :func:`lemma_rhs`.

Conventions: ``lambdas[i]`` and ``mus[i]`` are the weights for height i + 1
(level 1 is the outermost). The peak-marking fraction uses mu_k = x*z so
that z^r slices are series in semilength, directly comparable with
:func:`dyckpeaks.gfcount.peak_gf`; the raw mark mu_k = z is expressible
through :func:`rv_cfrac` and differs from the counts by a factor x^r. It
keeps the dense continuants: its N has x^1 coefficient -z + z^2 (checked
for k = 1..7), so no power of x cancels to leave an invertible divisor.
"""

from __future__ import annotations

import re

from .chebyshev import r_series
from .series import BivarSeries, InvariantError, NonInvertibleError, Series, _Frozen, catalan_series


class WeightSpec(_Frozen):
    """Per-height down-step weights, an evaluation depth, and a tail value."""

    __slots__ = ("lambdas", "mus", "depth", "tail")

    def __init__(self, lambdas: tuple[BivarSeries, ...], mus: tuple[BivarSeries, ...], depth: int, tail: BivarSeries):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if len(lambdas) < depth or len(mus) < depth:
            raise ValueError("need at least `depth` lambda and mu weights")
        super().__init__(tuple(lambdas), tuple(mus), depth, tail)  # tuples: equal specs compare and hash equal


def _continuants(lambdas: tuple, mus: tuple, k: Series | BivarSeries, k_next: Series | BivarSeries):
    """Run the continuant recurrence of the module docstring over levels
    depth = len(lambdas) .. 1 from (K_{depth+1}, K_{depth+2}) = (k, k_next),
    yielding (level, K_level, K_{level+1}) after each level; z-free weights
    and starts may be plain Series. A level whose mu is its lambda, the
    same object, has d_j = 1 and steps K_j = K_{j+1} - lambda_j*K_{j+2}:
    one product, and the same value and orders as the general step."""
    for level in range(len(lambdas), 0, -1):
        lam, mu = lambdas[level - 1], mus[level - 1]
        scaled = k if mu is lam else (1 - (mu - lam)) * k
        k_next, k = k, scaled - lam * k_next
        yield level, k, k_next


def rv_cfrac(w: WeightSpec, x_order: int, z_order: int) -> BivarSeries:
    """Evaluate the weighted fraction over ``w.depth`` levels and its tail.

    Runs the continuant recurrence of the module docstring from level
    ``w.depth`` up to level 1 and divides once. Level j's denominator is
    K_j / K_{j+1}, so its constant term vanishes exactly when the (x^0, z^0)
    constant of K_j does; :class:`NonInvertibleError` names the deepest
    such level. The result is truncated at the smallest of ``x_order``,
    ``z_order`` and the orders of the tail and the weights of levels
    1..depth. When every lambda weight has lowest x-degree >= 1 and
    depth >= x_order+1, coefficients up to x_order are exact regardless of
    the tail.
    """
    k, k_next = BivarSeries.one(z_order, x_order), w.tail
    for level, k, k_next in _continuants(w.lambdas[: w.depth], w.mus[: w.depth], k, k_next):
        if k.entries[0].coeffs[0] == 0:
            raise NonInvertibleError(f"denominator at level {level} is not invertible")
    return k_next / k


def _marked_fraction(depth: int, mark: BivarSeries, tail: BivarSeries) -> BivarSeries:
    """Every down-step weighs x except the peak down-step at level ``depth``,
    which weighs ``mark``: the fraction evaluated densely at the tail's orders."""
    x = BivarSeries.monomial(1, 1, 0, tail.z_order, tail.x_order)
    return rv_cfrac(WeightSpec((x,) * depth, (x,) * (depth - 1) + (mark,), depth, tail), tail.x_order, tail.z_order)


def _cancel_x_squared(terms: tuple[Series, ...], degree: int, z_order: int, x_order: int) -> BivarSeries:
    """b / x^2 at the given orders, for the z-coefficients ``terms`` (cut
    to ``z_order``, zero past the last) of a polynomial b of x-degree at
    most ``degree`` + 2 carried at a higher x-order.

    Raises :class:`InvariantError` unless x^2 divides every term and every
    coefficient above x^(degree + 2) is zero, so that padding the quotient
    to ``x_order`` drops no nonzero coefficient.
    """
    for e in terms:
        if e.coeffs[0] or e.coeffs[1]:
            raise InvariantError("x^2 does not divide the peak fraction's N, p or q")
        if any(e.coeffs[degree + 3 :]):
            raise InvariantError(f"the peak fraction's N, p or q exceeds x-degree {degree + 2}")
    entries = [Series.from_coeffs(e.coeffs[2:], x_order) for e in terms[: z_order + 1]]
    entries += [Series.zero(x_order)] * (z_order + 1 - len(terms))
    return BivarSeries(z_order, x_order, entries)


def catalan_cfrac(depth: int, order: int) -> Series:
    """Uniform specialization: all weights equal x, tail 1.

    Equals the path-counting series up to ``order`` whenever
    depth >= order + 1.
    """
    x = BivarSeries.monomial(1, 1, 0, 0, order)
    return _marked_fraction(depth, x, BivarSeries.one(0, order)).z_slice(0)


def peak_bivar_cfrac(k: int, x_order: int, z_order: int) -> BivarSeries:
    """k-level fraction with the peak mark at height k and a closed tail.

    Down-steps ending a peak at height k carry weight x*z, every other
    down-step carries x, and the continuation below level k is the full
    path-counting series C in closed form, so the result is exact at every
    retained order: the z^r slice equals ``peak_gf(k, r)`` and substituting
    z = 1 restores the unmarked path series (given z_order >= x_order).

    The continuants are never dense. The recurrence is linear in its
    start, so K_j = alpha_j + beta_j*C, where alpha and beta come from the
    same recurrence run from (K_{k+1}, K_{k+2}) = (1, 0) and (0, 1); they
    are polynomials in x and z, affine in z, of x-degree at most
    floor((k + 1)/2). Only the mark level involves z: d_k = 1 + x - x*z.
    Levels 1..k-1 are the plain level, lambda = mu = x, so one univariate
    run from (K_k, K_{k+1}) = (1, 0) gives A_j, and, the levels being
    alike, the run from (0, 1) is B_j = -x*A_{j+1} for j <= k, with
    B_{k+1} = 1. By linearity alpha_j = A_j*d_k + B_j and beta_j = -x*A_j.
    Level 1's step A_1 = A_2 - x*A_3 makes B_2 = A_1 - A_2, which holds at
    k = 1 too: no level runs, A_1 = 1, A_2 = 0 and B_2 = 1. With
    s = x*alpha_1 + beta_1, multiplying K_2 and K_1 by the conjugate of
    K_1 and using x*C^2 = C - 1 gives K_2/K_1 = (p + q*C)/N, where

        N = alpha_1*s + beta_1^2,
        p = alpha_2*s + beta_1*beta_2,
        q = beta_2*s - x*alpha_2*beta_1 - beta_1*beta_2.

    N, p and q have x-degree at most k + 2 and z-degree 2, and x^2 divides
    all three; after the cancel N(0, 0) is 1 for k >= 2 and 2 at k = 1, so
    every quotient step divides exactly in Z. They are built from their
    z-coefficients with univariate Series only: d_k = (1 + x) - x*z gives

        alpha_1 = (A_1*(1 + x) - x*A_2) - x*A_1*z,
        alpha_2 = (A_1 + x*A_2) - x*A_2*z,

    so alpha_j1 = beta_j, s_0 = x*alpha_10 + beta_1 and s_1 = x*alpha_11;
    then N_0 = alpha_10*s_0 + beta_1^2, N_1 = alpha_10*s_1 + alpha_11*s_0,
    N_2 = alpha_11*s_1, and p likewise. q has no z^2 term, and its z^1
    term beta_2*s_1 - x*alpha_21*beta_1 vanishes, since alpha_21 = beta_2
    and s_1 = x*beta_1, so q is its z^0 coefficient. Each is a tuple of its
    z-coefficients, built at x-order k + 4, where every product is exact;
    :func:`_cancel_x_squared` checks the cancel and the degree bound, cuts
    them to ``z_order`` and pads them to ``x_order``. What remains is one
    polynomial times C and one bivariate division by N: O(z_order*x_order*k)
    big-integer operations where the dense continuants cost
    O(z_order*x_order^2). On a 2-CPU host ``peak_bivar_cfrac(4, 1000, 2)``
    takes 0.008 s (1.06 s densely).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    small_x = k + 4
    plain = (Series.monomial(1, 1, small_x),) * (k - 1)  # lambda = mu = x, one object
    a_1, a_2 = Series.one(small_x), Series.zero(small_x)
    if k > 1:
        *_, (_, a_1, a_2) = _continuants(plain, plain, a_1, a_2)
    # the mark level's z^0 and z^1 coefficients, from d_k = (1 + x) - x*z
    x_a1, x_a2 = a_1.shift(1), a_2.shift(1)
    beta_1, beta_2 = -x_a1, -x_a2
    alpha_10, alpha_11 = a_1 + x_a1 - x_a2, beta_1
    alpha_20, alpha_21 = a_1 + x_a2, beta_2
    s_0, s_1 = alpha_10.shift(1) + beta_1, alpha_11.shift(1)
    b_12 = beta_1 * beta_2
    norm, p, q = (
        _cancel_x_squared(terms, k, z_order, x_order)
        for terms in (
            (alpha_10 * s_0 + beta_1 * beta_1, alpha_10 * s_1 + alpha_11 * s_0, alpha_11 * s_1),
            (alpha_20 * s_0 + b_12, alpha_20 * s_1 + alpha_21 * s_0, alpha_21 * s_1),
            (beta_2 * s_0 - (alpha_20 * beta_1).shift(1) - b_12,),
        )
    )
    tail = BivarSeries.from_series(catalan_series(x_order), z_order)
    return (p + q * tail) / norm


def lemma_rhs(k: int, a: Series, x_order: int, z_order: int) -> BivarSeries:
    """Closed form for the k-level fraction whose innermost denominator is
    1 - (z + x*A).

    Returns R_k * (1 - R_{k-1} * (z + x*A)) / (1 - R_k * (z + x*A)), with R
    the bounded-height ratios, at x-order min(x_order, a.order). Must
    coincide with :func:`lemma_iterated_cfrac`; the tests and the verify
    report check the two against each other coefficientwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    order = min(x_order, a.order)
    inner = BivarSeries.monomial(1, 0, 1, z_order, order) + a.shift(1)
    r_hi = r_series(k, order)
    r_lo = r_series(k - 1, order)
    return r_hi * (1 - r_lo * inner) / (1 - r_hi * inner)


def lemma_iterated_cfrac(k: int, a: Series, x_order: int, z_order: int) -> BivarSeries:
    """Direct evaluation of the same k-level fraction by :func:`rv_cfrac`.

    Every level has lambda = x; mu = x above level k and mu_k = x + z, and
    the tail is A, so the innermost denominator is 1 - (z + x*A) and each
    outer level wraps the value below it as 1 / (1 - x * inner).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    order = min(x_order, a.order)
    mark = BivarSeries.monomial(1, 1, 0, z_order, order) + BivarSeries.monomial(1, 0, 1, z_order, order)
    return _marked_fraction(k, mark, BivarSeries.from_series(a.truncate(order), z_order))


# -- JSON weight specifications ------------------------------------------
#
# Grammar per weight expression:
#   integer                          a constant
#   "c*x^a*z^b" (each part optional) a monomial, e.g. "x", "z", "2*x^2*z"
#   "C"                              the path-counting series
#   "xC2"                            x^2 * C(x)^2
#   [expr, expr, ...]                the sum of the parts
# `lambdas` and `mus` may be a single expression (used at every level)
# or a list of per-level expressions of length >= depth.

_MONOMIAL_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<coeff>\d+)?\s*"
    r"(?P<xpart>\*?\s*x(?:\^(?P<xp>\d+))?)?\s*"
    r"(?P<zpart>\*?\s*z(?:\^(?P<zp>\d+))?)?\s*$"
)


def _parse_atom(atom: object, z_order: int, x_order: int) -> BivarSeries:
    if isinstance(atom, bool):
        raise ValueError(f"invalid weight expression: {atom!r}")
    if isinstance(atom, int):
        return BivarSeries.monomial(atom, 0, 0, z_order, x_order)
    if not isinstance(atom, str):
        raise ValueError(f"invalid weight expression: {atom!r}")
    text = atom.strip()
    if text == "C":
        return BivarSeries.from_series(catalan_series(x_order), z_order)
    if text == "xC2":
        c = catalan_series(x_order)
        return BivarSeries.from_series((c * c).shift(2), z_order)
    m = _MONOMIAL_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse weight expression {atom!r}")
    has_x = m.group("xpart") is not None
    has_z = m.group("zpart") is not None
    if m.group("coeff") is None and not has_x and not has_z:
        raise ValueError(f"cannot parse weight expression {atom!r}")
    coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
    if m.group("sign") == "-":
        coeff = -coeff
    xp = int(m.group("xp")) if m.group("xp") else (1 if has_x else 0)
    zp = int(m.group("zp")) if m.group("zp") else (1 if has_z else 0)
    return BivarSeries.monomial(coeff, xp, zp, z_order, x_order)


def _parse_expression(expr: object, z_order: int, x_order: int) -> BivarSeries:
    if isinstance(expr, list):
        total = BivarSeries.zero(z_order, x_order)
        for part in expr:
            total = total + _parse_atom(part, z_order, x_order)
        return total
    return _parse_atom(expr, z_order, x_order)


def _parse_weight_list(
    raw: object, depth: int, z_order: int, x_order: int, field_name: str
) -> tuple[BivarSeries, ...]:
    # a bare expression broadcasts to every level; a list of lists is a list
    # of per-level sums only when the outer list is long enough, so per-level
    # entries must be given as a list when depth levels are spelled out
    if isinstance(raw, list):
        if len(raw) < depth:
            raise ValueError(f"{field_name} has {len(raw)} entries, need >= depth {depth}")
        return tuple(_parse_expression(e, z_order, x_order) for e in raw)
    broadcast = _parse_expression(raw, z_order, x_order)
    return (broadcast,) * depth


def weight_spec_from_json(text: str, x_order: int, z_order: int) -> WeightSpec:
    """Build a :class:`WeightSpec` from its JSON document.

    The document has keys ``depth`` (int), ``lambdas``, ``mus`` (expression
    or list of expressions, at least ``depth`` long) and optional ``tail``
    (expression, default 1).
    """
    import json  # only a weight spec is read as JSON, so no other command loads it
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("weight spec must be a JSON object")
    unknown = set(doc) - {"depth", "lambdas", "mus", "tail"}
    if unknown:
        raise ValueError(f"unknown weight spec keys: {sorted(unknown)}")
    if "depth" not in doc or not isinstance(doc["depth"], int) or isinstance(doc["depth"], bool):
        raise ValueError("weight spec needs an integer `depth`")
    depth = doc["depth"]
    if "lambdas" not in doc or "mus" not in doc:
        raise ValueError("weight spec needs `lambdas` and `mus`")
    lambdas = _parse_weight_list(doc["lambdas"], depth, z_order, x_order, "lambdas")
    mus = _parse_weight_list(doc["mus"], depth, z_order, x_order, "mus")
    tail = _parse_expression(doc.get("tail", 1), z_order, x_order)
    return WeightSpec(lambdas, mus, depth, tail)
