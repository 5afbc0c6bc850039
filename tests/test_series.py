"""Truncated power series arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpark import polynomials, series as series_module
from catpark.engine import fuss_catalan_series, gamma_series_closed
from catpark.polynomials import MultiPoly
from catpark.series import TruncatedSeries


def ints(series):
    return [series.coefficient(j).coefficient(()) for j in range(series.order + 1)]


def test_geometric_reciprocal():
    geom = TruncatedSeries((), [1, -1], 4).reciprocal()
    assert ints(geom) == [1, 1, 1, 1, 1]


def test_reciprocal_drops_cancelled_coefficients():
    # 1/(1 + x + x^2) = (1 - x)/(1 - x^3); its x^2 coefficient cancels
    inv = TruncatedSeries((), [1, 1, 1], 4).reciprocal()
    assert ints(inv) == [1, -1, 0, 1, -1]
    assert inv.coefficient(2) == MultiPoly.zero(())


def test_series_equal_only_in_variables_and_order_differ():
    """Equality asks for the same variables, order and every coefficient."""
    base = TruncatedSeries(("q",), [1, 2], 3)
    assert base == TruncatedSeries(("q",), [1, 2, 0], 3)
    assert base != TruncatedSeries(("q",), [1, 3], 3)
    assert base != TruncatedSeries(("q",), [1, 2], 4)
    assert base != TruncatedSeries(("t",), [1, 2], 3)


def test_repr_elides_only_past_the_fourth_coefficient():
    """The repr shows the coefficients of x^0..x^3 and marks any more."""
    assert repr(TruncatedSeries((), [1, 2, 3, 4], 3)) == (
        "TruncatedSeries(order=3, [1, 2, 3, 4])")
    assert repr(TruncatedSeries((), [1, 2, 3, 4, 5], 4)) == (
        "TruncatedSeries(order=4, [1, 2, 3, 4, ...])")


def test_reciprocal_requires_unit_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries((), [2, 1], 3).reciprocal()


def test_reciprocal_is_inverse():
    b = fuss_catalan_series(3, 8)
    product = b * b.reciprocal()
    assert ints(product) == [1] + [0] * 8


def test_mul_convolution_oracle():
    b2 = fuss_catalan_series(2, 3)
    # [x^2] B^2 by direct convolution of (1, 1, 3): 1*3 + 1*1 + 3*1
    assert ints(b2 * b2)[2] == 7
    b3 = fuss_catalan_series(3, 2)
    assert ints(b3**3)[1] == 3


def test_pow_matches_repeated_mul():
    b = fuss_catalan_series(2, 6)
    assert b**4 == b * b * b * b
    assert b**0 == TruncatedSeries.one((), 6)


def test_shifted():
    s = TruncatedSeries((), [1, 2, 3], 2).shifted(1)
    assert ints(s) == [0, 1, 2]
    assert ints(s.shifted(5)) == [0, 0, 0]
    for bad in (-1, 1.5):
        with pytest.raises(ValueError):
            s.shifted(bad)


def test_scale_arg():
    V = ("q", "v")
    b = fuss_catalan_series(2, 3, V)
    v = MultiPoly.variable(V, "v")
    scaled = b.scale_arg(v)
    assert scaled.coefficient(2) == MultiPoly(V, {(0, 2): 3})
    assert b.scale_arg(MultiPoly.const(V, 1)) == b
    with pytest.raises(ValueError):
        b.scale_arg(MultiPoly.variable(V, "q") + v)  # not a monomial
    with pytest.raises(ValueError):
        b.scale_arg(1.5)


def test_scale_arg_distributes_over_products():
    V = ("u", "v")
    b = fuss_catalan_series(2, 5, V)
    uv = MultiPoly.monomial(V, {"u": 1, "v": 1})
    assert (b * b).scale_arg(uv) == b.scale_arg(uv) * b.scale_arg(uv)


def test_constructor_rejects_non_ring_coefficients():
    for coeffs in ([1.5], [1, "2"], [None]):
        with pytest.raises(ValueError):
            TruncatedSeries((), coeffs)
    with pytest.raises(ValueError):
        TruncatedSeries((), [1], 2.0)


def test_order_and_variable_mismatch():
    a = TruncatedSeries((), [1, 1], 3)
    with pytest.raises(ValueError):
        a + TruncatedSeries((), [1], 2)
    with pytest.raises(ValueError):
        a * TruncatedSeries(("q",), [1], 3)


def test_coefficient_bounds():
    b = fuss_catalan_series(2, 3)
    with pytest.raises(ValueError):
        b.coefficient(4)


# -- products against the definition ------------------------------------------

V = ("q", "t")


def polys():
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            st.integers(-4, 4), max_size=3)
    return terms.map(lambda t: MultiPoly(V, t))


def series(order, unit=False):
    coeffs = st.lists(polys(), min_size=order + 1, max_size=order + 1)
    if unit:
        coeffs = coeffs.map(lambda cs: [MultiPoly.const(V, 1)] + cs[1:])
    return coeffs.map(lambda cs: TruncatedSeries(V, cs, order))


def convolution(a, b):
    """[x^n] of a*b by the definition: sum of a_i * b_(n-i)."""
    out = []
    for n in range(a.order + 1):
        total = MultiPoly.zero(V)
        for i in range(n + 1):
            total = total + a.coefficient(i) * b.coefficient(n - i)
        out.append(total)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(series(n), series(n))))
def test_mul_matches_naive_convolution(pair):
    a, b = pair
    product = a * b
    assert list(product.coeffs) == convolution(a, b)
    for c in product.coeffs:
        assert all(coeff for _, coeff in c.items())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: series(n, unit=True)))
def test_reciprocal_inverts_unit_constant_series(s):
    one = TruncatedSeries.one(V, s.order)
    inv = s.reciprocal()
    assert s * inv == one
    for c in inv.coeffs:
        assert all(coeff for _, coeff in c.items())
    assert inv * s == one
    assert s**3 == s * s * s


def test_gamma_series_validates_only_its_builder_inputs(monkeypatch):
    """Ring operations build through the trusted constructor; only the
    values gamma_series_closed's builders make pass the validating one."""
    real = MultiPoly.__init__
    calls = []

    def spy(self, variables, terms=None):
        calls.append(terms)
        real(self, variables, terms)

    monkeypatch.setattr(MultiPoly, "__init__", spy)
    gamma_series_closed(2, 6)
    # three Fuss-Catalan series of 7 integer constants, three series ones,
    # the variables q, t and v, and the monomials u*v and q*t*u^2*v^2
    assert len(calls) == 3 * 7 + 3 + 3 + 2


def test_gamma_series_term_products_stay_bounded(monkeypatch):
    """The monomial head multiplies the small first factor, not the dense
    finished product: at (m, order) = (2, 16) the term products summed over
    every _mul_into call stay at 16,163 (29,303 with the head applied last)."""
    real = polynomials._mul_into
    products = []

    def spy(acc, t1, t2):
        products.append(len(t1) * len(t2))
        real(acc, t1, t2)

    monkeypatch.setattr(polynomials, "_mul_into", spy)
    monkeypatch.setattr(series_module, "_mul_into", spy)
    gamma_series_closed(2, 16)
    assert sum(products) <= 16_163


# -- packed keys against a tuple-key oracle ------------------------------------

VARS4 = ("q", "t", "u", "v")


def tuple_terms(poly):
    return dict(poly.items())


def tuple_mul_into(acc, a, b):
    """The reference product on exponent tuples, summed into acc."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def tuple_series_mul(a, b):
    out = []
    for n in range(len(a)):
        acc = {}
        for i in range(n + 1):
            tuple_mul_into(acc, a[i], b[n - i])
        out.append({e: c for e, c in acc.items() if c})
    return out


def tuple_reciprocal(s):
    inv = [s[0]]  # the constant 1
    for j in range(1, len(s)):
        acc = {}
        for k in range(1, j + 1):
            tuple_mul_into(acc, s[k], inv[j - k])
        inv.append({e: -c for e, c in acc.items() if c})
    return inv


def wide_series(width, order, unit):
    exps = st.tuples(*[st.one_of(st.integers(0, 2), st.integers(0, 2**26))] * width)
    poly = st.dictionaries(exps, st.integers(-4, 4), max_size=3).map(
        lambda t: MultiPoly(VARS4[:width], t))
    coeffs = st.lists(poly, min_size=order + 1, max_size=order + 1)
    if unit:
        coeffs = coeffs.map(lambda cs: [MultiPoly.const(VARS4[:width], 1)] + cs[1:])
    return coeffs.map(lambda cs: TruncatedSeries(VARS4[:width], cs, order))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_products_and_reciprocals_match_the_tuple_oracle(data):
    width, order = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a = data.draw(wide_series(width, order, unit=False))
    b = data.draw(wide_series(width, order, unit=True))
    ta = [tuple_terms(c) for c in a.coeffs]
    tb = [tuple_terms(c) for c in b.coeffs]
    assert [tuple_terms(c) for c in (a * b).coeffs] == tuple_series_mul(ta, tb)
    assert [tuple_terms(c) for c in b.reciprocal().coeffs] == tuple_reciprocal(tb)


def test_series_products_refuse_an_exponent_past_the_limit():
    q = MultiPoly.variable(("q",), "q")
    big = q ** (2**30)
    # at order 1 the term q^(2^31) x^2 falls off before it is made
    assert (TruncatedSeries(("q",), [1, big], 1) ** 2).coefficient(1) == 2 * big
    with pytest.raises(ValueError):
        TruncatedSeries(("q",), [1, big], 2) ** 2
    with pytest.raises(ValueError):
        TruncatedSeries(("q",), [1, -big], 2).reciprocal()
    assert TruncatedSeries(("q",), [1, -big], 1).reciprocal().coefficient(1) == big
