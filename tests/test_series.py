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
