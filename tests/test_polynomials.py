"""Exact multivariate polynomial arithmetic and canonical form."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpark import polynomials
from catpark.polynomials import MultiPoly, complete_homogeneous

QT = ("q", "t")


def P(terms):
    return MultiPoly(QT, terms)


def value(poly, point):
    """poly at an integer point, summed term by term: the evaluation oracle."""
    total = 0
    for exps, coeff in poly.items():
        for var, e in zip(poly.variables, exps):
            coeff *= point[var] ** e
        total += coeff
    return total


def test_zero_coefficients_dropped():
    p = P({(1, 0): 0, (0, 1): 2})
    assert len(p) == 1
    assert p.coefficient((1, 0)) == 0


def test_exponent_width_checked():
    with pytest.raises(ValueError):
        MultiPoly(("q",), {(1, 2): 1})
    with pytest.raises(ValueError):
        MultiPoly(("q",), {(-1,): 1})


@pytest.mark.parametrize("terms", [
    {(1,): 1.5},
    {(1,): 2.0},
    {(1,): "3"},
    {(1.0,): 1},
    {(0.5,): 1},
    {1: 1},
])
def test_constructor_rejects_non_integer_terms(terms):
    with pytest.raises(ValueError):
        MultiPoly(("q",), terms)


def test_divide_by_monomial_rejects_bad_exponents():
    p = P({(2, 1): 3})
    for bad in (-1, 0.5):
        with pytest.raises(ValueError):
            p.divide_by_monomial({"q": bad})


def test_product_of_conjugates():
    """Each product cancels a coefficient; its term map keeps no 0."""
    for variables in (("q",), QT):
        q = MultiPoly.variable(variables, "q")
        t = MultiPoly.variable(variables, variables[-1])
        for product, want in [((q + t) * (q - t), q * q - t * t),
                              ((1 + q) * (1 - q), 1 - q**2),
                              ((1 + q) ** 2 * (1 - q) ** 2, 1 - 2 * q**2 + q**4)]:
            assert product == want
            assert_term_map_invariant(product)


def test_complete_homogeneous():
    assert complete_homogeneous(QT, 0) == MultiPoly.const(QT, 1)
    h2 = complete_homogeneous(QT, 2)
    assert h2.substitute({"q": 1, "t": 1}) == 3
    assert h2.render() == "q^2 + q*t + t^2"
    # h_d over v variables has binom(d+v-1, d) monomials
    from math import comb
    assert len(complete_homogeneous(("a", "b", "c"), 4)) == comb(6, 4)


def test_graded_lex_rendering():
    p = MultiPoly(("q",), {(4,): 1, (3,): 9, (2,): 39, (1,): 91})
    assert p.render() == "q^4 + 9*q^3 + 39*q^2 + 91*q"
    assert MultiPoly.zero(QT).render() == "0"
    assert MultiPoly.const(QT, -7).render() == "-7"
    p = P({(1, 1): -2, (2, 0): 1, (0, 0): 5})
    assert p.render() == "q^2 - 2*q*t + 5"


def test_variable_mismatch_raises():
    with pytest.raises(ValueError):
        MultiPoly.variable(("q",), "q") + MultiPoly.variable(("t",), "t")


def test_pow():
    q = MultiPoly.variable(QT, "q")
    assert (q + 1) ** 0 == MultiPoly.const(QT, 1)
    assert (q + 1) ** 3 == q**3 + 3 * q**2 + 3 * q + 1
    with pytest.raises(ValueError):
        q ** -1


def test_eval_and_substitute():
    p = P({(2, 1): 3, (0, 0): -1})  # 3q^2 t - 1
    assert p.substitute({"q": 2, "t": 5}) == 59
    part = p.substitute({"t": 5})
    assert part.variables == ("q",)
    assert part == MultiPoly(("q",), {(2,): 15, (0,): -1})
    assert p.substitute({}) == p


def test_rename_and_embed():
    p = MultiPoly(("q",), {(2,): 4})
    swapped = p.rename({"q": "t"})
    assert swapped.variables == ("t",)
    wide = p.rename(("q", "t", "u"))
    assert wide.coefficient((2, 0, 0)) == 4
    with pytest.raises(ValueError):
        P({(1, 1): 1}).rename({"q": "t"})  # would collapse q and t
    with pytest.raises(ValueError):
        p.rename(("q", "q"))


def test_divide_by_monomial():
    p = P({(2, 1): 3, (1, 1): 5})
    q = p.divide_by_monomial({"q": 1, "t": 1})
    assert q == P({(1, 0): 3, (0, 0): 5})
    with pytest.raises(ValueError):
        P({(1, 0): 1}).divide_by_monomial({"t": 1})


def test_serialization_roundtrip():
    p = P({(2, 1): 3, (0, 3): -2, (0, 0): 7})
    data = p.to_dict()
    assert data["variables"] == ["q", "t"]
    rebuilt = MultiPoly(tuple(data["variables"]),
                        {tuple(e): c for e, c in data["terms"]})
    assert rebuilt == p
    # term list is in descending graded-lex order
    assert data["terms"][0][0] in ([2, 1], [0, 3])
    assert data["terms"] == sorted(
        data["terms"], key=lambda tc: (sum(tc[0]), tc[0]), reverse=True
    )


def random_poly(rng, width=2, terms=4, degree=3, bound=20):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, degree) for _ in range(width))
        out[exps] = rng.randint(-bound, bound)
    return MultiPoly(QT[:width], out)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_arithmetic_agrees_with_integer_evaluation(seed):
    rng = random.Random(seed)
    a = random_poly(rng)
    b = random_poly(rng)
    point = {"q": rng.randint(-9, 9), "t": rng.randint(-9, 9)}
    assert value(a + b, point) == value(a, point) + value(b, point)
    assert value(a * b, point) == value(a, point) * value(b, point)
    assert value(a - b, point) == value(a, point) - value(b, point)
    assert value(a**2, point) == value(a, point) ** 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_render_is_stable_under_term_insertion_order(seed):
    rng = random.Random(seed)
    p = random_poly(rng, terms=6)
    items = p.items()
    rng.shuffle(items)
    again = MultiPoly(QT, dict(items))
    assert again.render() == p.render()
    assert again.to_dict() == p.to_dict()


# -- ring operations against a plain-dict oracle ------------------------------

EXPONENTS = st.integers(0, 3)
COEFFS = st.integers(-6, 6)


def term_maps(width):
    return st.dictionaries(st.tuples(*[EXPONENTS] * width), COEFFS, max_size=6)


def nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return nonzero(out)


def oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return nonzero(out)


def oracle_pow(a, k, width):
    out = {(0,) * width: 1}
    for _ in range(k):
        out = oracle_mul(out, a)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_operations_match_dict_oracle(data):
    width = data.draw(st.integers(0, 3))
    variables = ("q", "t", "u")[:width]
    ta = data.draw(term_maps(width))
    tb = data.draw(term_maps(width))
    k = data.draw(st.integers(0, 4))
    a, b = MultiPoly(variables, ta), MultiPoly(variables, tb)
    neg_b = {e: -c for e, c in tb.items()}
    # dict(items()) also exposes any zero coefficient a result kept
    assert dict((a + b).items()) == oracle_add(ta, tb)
    assert dict((a - b).items()) == oracle_add(ta, neg_b)
    assert dict((-b).items()) == nonzero(neg_b)
    assert dict((a * b).items()) == oracle_mul(ta, tb)
    assert dict((a**k).items()) == oracle_pow(ta, k, width)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cancellation_leaves_the_canonical_zero(data):
    width = data.draw(st.integers(0, 3))
    variables = ("q", "t", "u")[:width]
    p = MultiPoly(variables, data.draw(term_maps(width)))
    zero = MultiPoly.zero(variables)
    for diff in (p - p, p + (-p), p * 0, (p - p) * p):
        assert diff == zero
        assert hash(diff) == hash(zero)
        assert diff.render() == "0"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_add_walks_either_side_without_aliasing(data):
    """Addition gives the same sum whichever operand is the larger, drops
    the terms that cancel, and leaves both operands' term maps as they were."""
    width = data.draw(st.integers(0, 3))
    variables = ("q", "t", "u")[:width]
    ta = data.draw(term_maps(width))
    # b shares some of a's exponents, some with negated coefficients
    shared = data.draw(st.lists(st.sampled_from(sorted(ta)), unique=True)
                       if ta else st.just([]))
    tb = {e: -ta[e] if data.draw(st.booleans()) else ta[e] for e in shared}
    tb.update(data.draw(term_maps(width)))
    a, b = MultiPoly(variables, ta), MultiPoly(variables, tb)
    before_a, before_b = dict(a._terms), dict(b._terms)
    total = a + b
    assert total == b + a
    assert dict(total.items()) == oracle_add(ta, tb)
    assert all(coeff for _, coeff in total.items())
    assert a._terms == before_a and b._terms == before_b
    assert total._terms is not a._terms and total._terms is not b._terms


# -- packed exponent keys ------------------------------------------------------

LIMIT = 2**31 - 1  # the largest exponent a polynomial holds
VARS4 = ("q", "t", "u", "v")


def test_the_largest_exponent_is_held_and_its_square_refused():
    top = MultiPoly(("q",), {(LIMIT,): 1})
    assert top.render() == f"q^{LIMIT}" and top.total_degree() == LIMIT
    wide = MultiPoly(VARS4, {(0, LIMIT, 0, LIMIT): 3})
    assert wide.coefficient((0, LIMIT, 0, LIMIT)) == 3
    assert wide.total_degree() == 2 * LIMIT
    half = MultiPoly(VARS4, {(0, 2**30, 0, 0): 1})
    assert (half * MultiPoly(VARS4, {(0, 2**30 - 1, 0, 0): 1})).coefficient(
        (0, LIMIT, 0, 0)) == 1
    for poly in (top, wide, half):
        with pytest.raises(ValueError):
            poly * poly
        with pytest.raises(ValueError):
            poly ** 3


@pytest.mark.parametrize("exps", [(2**31,), (2**32,), (2**40,), (-1,)])
def test_constructor_refuses_an_exponent_out_of_range(exps):
    with pytest.raises(ValueError):
        MultiPoly(("q",), {exps: 1})
    with pytest.raises(ValueError):
        MultiPoly(VARS4, {(0, 0) + exps + (0,): 1})


def test_constructor_names_which_end_of_the_range_an_exponent_misses():
    """A vector with a zero entry and one past the top is too large, not
    negative; one with a negative entry is negative, whatever else it
    holds."""
    with pytest.raises(ValueError, match=rf"exponent above {LIMIT} in"):
        MultiPoly(("q", "t"), {(0, LIMIT + 1): 1})
    with pytest.raises(ValueError, match="negative exponent in"):
        MultiPoly(("q", "t"), {(-1, LIMIT + 1): 1})


def test_divide_by_monomial_refuses_a_borrow():
    # the t field is short by one and the q field is large: a carry-free
    # subtraction would borrow from q and leave t at 2**32 - 1
    p = MultiPoly(QT, {(5, 0): 1, (1, 1): 2})
    with pytest.raises(ValueError, match=r"term \(5, 0\) is not divisible"):
        p.divide_by_monomial({"q": 1, "t": 1})
    with pytest.raises(ValueError):
        MultiPoly(VARS4, {(9, 9, 0, 9): 1}).divide_by_monomial({"u": 1})
    with pytest.raises(ValueError):
        MultiPoly(("q",), {(3,): 1}).divide_by_monomial({"q": 4})
    with pytest.raises(ValueError):
        MultiPoly(("q",), {(3,): 1}).divide_by_monomial({"q": 2**31})
    assert MultiPoly.zero(("q",)).divide_by_monomial({"q": 2**31}) == 0
    top = MultiPoly(QT, {(LIMIT, LIMIT): 7})
    assert top.divide_by_monomial({"q": LIMIT, "t": 1}) == P({(0, LIMIT - 1): 7})


@pytest.mark.parametrize("exps", [
    (), (1,), (1, 0, 0), (-1, 1), (1, -1), (2**31, 0), (0, 2**32), (1.0, 0),
])
def test_coefficient_of_a_vector_no_term_has_is_zero(exps):
    p = P({(1, 0): 5, (0, 1): 6, (0, 0): 7})
    assert p.coefficient(exps) == 0
    assert p.coefficient([0, 1]) == 6 and p.coefficient((True, False)) == 5


def _equal_and_hash_equal(*polys):
    for p in polys[1:]:
        assert p == polys[0] and hash(p) == hash(polys[0])
        assert p.render() == polys[0].render()


def test_every_route_to_a_polynomial_gives_one_key():
    """3*q^2*t + 5*t^3 - 1, by the constructor, a product, a renaming, a
    re-embedding in another variable order and a substitution."""
    built = P({(2, 1): 3, (0, 3): 5, (0, 0): -1})
    q, t = MultiPoly.variable(QT, "q"), MultiPoly.variable(QT, "t")
    product = (3 * q * q + 5 * t * t) * t - 1
    renamed = MultiPoly(("a", "t"), {(2, 1): 3, (0, 3): 5, (0, 0): -1}
                        ).rename({"a": "q"})
    reordered = MultiPoly(("t", "q"), {(1, 2): 3, (3, 0): 5, (0, 0): -1}
                          ).rename(QT)
    widened = MultiPoly(("t",), {(3,): 5, (0,): -1}).rename(QT) + 3 * q**2 * t
    # u sits between q and t, so t's field moves when u goes
    substituted = MultiPoly(("q", "u", "t"), {(2, 2, 1): 3, (0, 1, 3): 5,
                                              (0, 0, 0): -1, (1, 1, 0): 4,
                                              (1, 0, 0): -4}).substitute({"u": 1})
    _equal_and_hash_equal(built, product, renamed, reordered, widened, substituted)
    assert substituted.variables == QT


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_and_embed_match_a_tuple_oracle(data):
    width = data.draw(st.integers(1, 4))
    variables = VARS4[:width]
    terms = data.draw(term_maps(width))
    p = MultiPoly(variables, terms)
    chosen = data.draw(st.lists(st.sampled_from(variables), unique=True))
    assignment = {v: data.draw(st.integers(-3, 3)) for v in chosen}
    kept = [i for i, v in enumerate(variables) if v not in assignment]
    want = {}
    for exps, coeff in terms.items():
        for i, v in enumerate(variables):
            if v in assignment:
                coeff *= assignment[v] ** exps[i]
        key = tuple(exps[i] for i in kept)
        want[key] = want.get(key, 0) + coeff
    got = p.substitute(assignment)
    assert got.variables == tuple(variables[i] for i in kept)
    assert dict(got.items()) == nonzero(want)
    wide = ("z",) + variables[::-1] + ("y",)
    embedded = p.rename(wide)
    assert dict(embedded.items()) == {
        (0,) + exps[::-1] + (0,): c for exps, c in nonzero(terms).items()}
    assert embedded.total_degree() == p.total_degree()


def assert_term_map_invariant(poly):
    """No coefficient in poly's term map is 0 and no key has a guard bit."""
    guard = polynomials._LAYOUTS[len(poly.variables)].guard
    assert all(poly._terms.values())
    assert not any(key & guard for key in poly._terms)


WIDE_EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, 2**30 - 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_with_wide_exponents_match_the_tuple_oracle(data):
    """Fields up to 2**30 - 1 never reach the guard bit in one product, and
    a product term is still the tuple-wise sum of its factors' exponents."""
    width = data.draw(st.integers(0, 4))
    variables = VARS4[:width]
    maps = st.dictionaries(st.tuples(*[WIDE_EXPONENTS] * width), COEFFS,
                           max_size=5)
    ta, tb = data.draw(maps), data.draw(maps)
    a, b = MultiPoly(variables, ta), MultiPoly(variables, tb)
    product, total = a * b, a + b
    assert dict(product.items()) == oracle_mul(ta, tb)
    assert dict(total.items()) == oracle_add(ta, tb)
    assert_term_map_invariant(product)
    assert_term_map_invariant(total)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_items_run_in_descending_graded_lex_order(data):
    width = data.draw(st.integers(0, 4))
    p = MultiPoly(VARS4[:width], data.draw(st.dictionaries(
        st.tuples(*[WIDE_EXPONENTS] * width), COEFFS, max_size=8)))
    exps = [e for e, _ in p.items()]
    assert exps == sorted(exps, key=lambda e: (sum(e), e), reverse=True)
    assert p.total_degree() == max((sum(e) for e in exps), default=0)


# -- the degree bound that spares a product its guard scan ---------------------

HALF = 2**30  # two fields of this size sum past the limit


@pytest.mark.parametrize("width", [1, 2])
def test_factors_whose_degrees_sum_to_the_limit_run_no_guard_scan(width, guard_scans):
    """The product's degree bound is exactly MAX_EXPONENT, so no key is
    scanned; q ** MAX_EXPONENT ends on q^(2^30 - 1) * q^(2^30), the same."""
    variables = VARS4[:width]
    zero = (0,) * width
    ta = {zero: 1, (HALF,) + zero[1:]: 2}
    tb = {zero: 3, zero[1:] + (HALF - 1,): -1}
    product = MultiPoly(variables, ta) * MultiPoly(variables, tb)
    assert dict(product.items()) == oracle_mul(ta, tb)
    top = MultiPoly.variable(variables, "q") ** LIMIT
    assert dict(top.items()) == {(LIMIT,) + zero[1:]: 1}
    assert guard_scans == []


def test_a_degree_bound_past_the_limit_scans_fields_still_in_range(guard_scans):
    """q^(2^30) * t^(2^30) has total degree 2^31: every key is scanned, and
    the product, its fields in range, is the tuple-wise one."""
    ta = {(0, 0): 1, (HALF, 0): 1}
    tb = {(0, HALF): 5, (1, 1): -2}
    assert dict((P(ta) * P(tb)).items()) == oracle_mul(ta, tb)
    tc = {(HALF // 2, HALF // 2): 1, (0, 0): 1}
    assert dict((P(tc) ** 2).items()) == oracle_pow(tc, 2, 2)
    assert guard_scans == [4, 3]


@pytest.mark.parametrize("width", [1, 2, 4])
def test_one_field_past_the_limit_is_still_refused(width, guard_scans):
    variables = VARS4[:width]
    zero = (0,) * width
    big = MultiPoly(variables, {(HALF,) + zero[1:]: 1, zero: 1})
    other = MultiPoly(variables, {(HALF,) + (5,) * (width - 1): 1})
    with pytest.raises(ValueError, match=rf"a product exponent exceeds {LIMIT}"):
        big * other
    with pytest.raises(ValueError, match=rf"a product exponent exceeds {LIMIT}"):
        big ** 2
    assert len(guard_scans) == 2

