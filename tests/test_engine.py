"""Generating-function identities, h-basis decomposition, and the tensor."""

from itertools import combinations_with_replacement

import pytest

from catpark.caterpillar import build_caterpillar, is_tree_pk, simulate
from catpark.engine import (
    IdentityCheck,
    fuss_catalan_series,
    gamma_poly_brute,
    gamma_series_closed,
    h_decompose,
    h_series,
    joint_count_tensor,
    joint_count_tensors,
    multi_stat_poly_brute,
    multi_stat_variables,
    r_poly_brute,
    r_series_closed,
    verify_convolution_identity,
    verify_functional_equation,
    verify_gamma_series,
    verify_multi_stat_product,
    verify_r_series,
    verify_tensor_symmetries,
    verify_tensor_symmetry,
    verify_thm_rec,
)
from catpark.errors import HBasisError
from catpark.polynomials import MultiPoly, complete_homogeneous
from catpark.series import TruncatedSeries

QT_UV = ("q", "t", "u", "v")

# printed q-luck polynomials for n = 0..4
TABLE_5 = {
    2: ["1", "q", "q^2 + 2*q", "q^3 + 4*q^2 + 7*q",
        "q^4 + 6*q^3 + 18*q^2 + 30*q"],
    3: ["1", "q", "q^2 + 3*q", "q^3 + 6*q^2 + 15*q",
        "q^4 + 9*q^3 + 39*q^2 + 91*q"],
    4: ["1", "q", "q^2 + 4*q", "q^3 + 8*q^2 + 26*q",
        "q^4 + 12*q^3 + 68*q^2 + 204*q"],
}

# printed h-basis coefficient vectors (degree n-1 down to 0) for n = 1..4
GAMMA_VECTORS = {
    2: [(1,), (1, 1), (1, 3, 3), (1, 5, 12, 12)],
    3: [(1,), (1, 2), (1, 5, 9), (1, 8, 30, 52)],
    4: [(1,), (1, 3), (1, 7, 18), (1, 11, 56, 136)],
}


def ints(series):
    return [series.coefficient(j).coefficient(()) for j in range(series.order + 1)]


def test_fuss_catalan_series_rows():
    assert ints(fuss_catalan_series(2, 4)) == [1, 1, 3, 12, 55]
    assert ints(fuss_catalan_series(3, 4)) == [1, 1, 4, 22, 140]
    assert ints(fuss_catalan_series(4, 2)) == [1, 1, 5]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_functional_equation(m):
    assert verify_functional_equation(m, 12).ok


def test_functional_equation_detects_mutation(monkeypatch):
    import catpark.engine as engine

    real = engine.fuss_catalan_upto

    def corrupted(m, n):
        return [b + (j == 3) for j, b in enumerate(real(m, n))]

    monkeypatch.setattr(engine, "fuss_catalan_upto", corrupted)
    check = engine.verify_functional_equation(2, 6)
    assert not check.ok
    assert check.mismatches[0][0] in (3, 4)


def test_r_poly_table5():
    for m, rows in TABLE_5.items():
        for n, text in enumerate(rows):
            assert r_poly_brute(m, n).render() == text


@pytest.mark.parametrize("m", [1, 2, 3])
def test_r_series_matches_brute(m):
    assert verify_r_series(m, 6).ok


def test_r_series_x0_is_one():
    for m in (1, 2, 3, 4):
        assert r_series_closed(m, 5).coefficient(0) == MultiPoly.const(("q",), 1)


def test_r_series_literal_fails_at_n2():
    check = verify_r_series(2, 3, literal=True)
    assert not check.ok
    n, brute, stated = check.mismatches[0]
    assert (n, brute, stated) == (2, "q^2 + 2*q", "q^2 + q")


def test_r_series_literal_agrees_for_m1():
    assert verify_r_series(1, 6, literal=True).ok


def brute_quad_stats(seq, m):
    """Definitional statistics used as an oracle for the gamma polynomial."""
    n = len(seq)
    luck = sum(1 for i, v in enumerate(seq, start=1) if v == m * i - m + 1)
    ones = seq.count(1)
    f = g = n + 1
    for k in range(2, n + 1):
        if m * (k - 2) + 2 <= seq[k - 1] <= m * (k - 1) + 1:
            f = k
            break
    for k in range(2, n + 1):
        if seq[k - 1] == m * (k - 1) + 1:
            g = k
            break
    return luck, ones, f, g


def test_gamma_poly_small_cases():
    assert gamma_poly_brute(2, 0) == MultiPoly.const(QT_UV, 1)
    assert gamma_poly_brute(2, 1).render() == "q*t*u^2*v^2"
    # n = 2: members (1,1), (1,2), (1,3) with hand-derived statistics
    expected = MultiPoly(QT_UV, {
        brute_quad_stats((1, 1), 2): 1,
        brute_quad_stats((1, 2), 2): 1,
        brute_quad_stats((1, 3), 2): 1,
    })
    assert gamma_poly_brute(2, 2) == expected
    head = MultiPoly.monomial(QT_UV, {"q": 1, "t": 1, "u": 2, "v": 2})
    tail = (MultiPoly.variable(QT_UV, "q") + MultiPoly.variable(QT_UV, "v")
            + MultiPoly.monomial(QT_UV, {"t": 1, "u": 1, "v": 1}))
    assert gamma_poly_brute(2, 2) == head * tail


@pytest.mark.parametrize("m,order", [(2, 5), (3, 4)])
def test_gamma_series_matches_brute(m, order):
    assert verify_gamma_series(m, order).ok


def test_gamma_series_literal_mismatch_at_2_2():
    check = verify_gamma_series(2, 2, literal=True)
    assert not check.ok
    n, brute, stated = check.mismatches[0]
    assert n == 2
    head = MultiPoly.monomial(QT_UV, {"q": 1, "t": 1, "u": 2, "v": 2})
    one = MultiPoly.const(QT_UV, 1)
    qv = MultiPoly.monomial(QT_UV, {"q": 1, "v": 1})
    tuv = MultiPoly.monomial(QT_UV, {"t": 1, "u": 1, "v": 1})
    assert stated == (head * (one + qv + tuv)).render()
    q = MultiPoly.variable(QT_UV, "q")
    v = MultiPoly.variable(QT_UV, "v")
    assert brute == (head * (q + v + tuv)).render()


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gamma_series_closed_equals_head_last_product(m, literal):
    """The closed form equals its product written out with the monomial head
    applied last, to the finished product."""
    v = MultiPoly.variable(QT_UV, "v")
    uv = MultiPoly.monomial(QT_UV, {"u": 1, "v": 1})
    head = MultiPoly.monomial(QT_UV, {"q": 1, "t": 1, "u": 2, "v": 2})
    for order in range(9):
        bq = r_series_closed(m, order, QT_UV, "q")
        bt = r_series_closed(m, order, QT_UV, "t")
        b = fuss_catalan_series(m, order, QT_UV)
        if literal:
            product = (b ** (m - 1)) * bq.scale_arg(v) * bt.scale_arg(uv)
        else:
            product = bq * (b.scale_arg(v) ** (m - 1)) * bt.scale_arg(uv)
        one = TruncatedSeries.one(QT_UV, order)
        assert (gamma_series_closed(m, order, literal=literal)
                == one + (head * product).shifted(1)), (m, order)


def test_gamma_specializes_to_r_series():
    """Setting t = u = v = 1 recovers the q-luck series."""
    m, order = 2, 6
    gamma = gamma_series_closed(m, order)
    rq = r_series_closed(m, order)
    for n in range(order + 1):
        flat = gamma.coefficient(n).substitute({"t": 1, "u": 1, "v": 1})
        assert flat == rq.coefficient(n)


def test_gamma_qt_symmetry():
    for m in (1, 2, 3, 4):
        for n in range(6):
            flat = gamma_poly_brute(m, n).substitute({"u": 1, "v": 1})
            swapped = flat.rename({"q": "t", "t": "q"}).rename(("q", "t"))
            assert flat == swapped


def test_h_series_examples():
    # (2,1,1) is the canonical family: the series is the count series itself
    assert ints(h_series(2, 1, 1, 6)) == ints(fuss_catalan_series(2, 6))
    assert ints(h_series(3, 1, 1, 2))[2] == 9
    assert ints(h_series(2, 2, 0, 2))[2] == 18


@pytest.mark.parametrize("m", [2, 3])
def test_count_series_power_grid(m):
    for k in (1, 2, 3):
        for r in range(m):
            assert verify_thm_rec(m, k, r, 7).ok


def gamma_h_vector(m, n):
    flat = gamma_poly_brute(m, n).substitute({"u": 1, "v": 1})
    coeffs = h_decompose(flat)
    return tuple(coeffs[d] for d in sorted(coeffs, reverse=True))


def test_gamma_h_decomposition_tables():
    for m, vectors in GAMMA_VECTORS.items():
        for n in range(1, 5):
            assert gamma_h_vector(m, n) == vectors[n - 1], (m, n)


def test_h_decompose_multi_stat():
    assert h_decompose(multi_stat_poly_brute(2, 4)) == {3: 1, 2: 4, 1: 7}


def test_h_decompose_rejects_non_combination():
    V = ("q", "t")
    q = MultiPoly.variable(V, "q")
    t = MultiPoly.variable(V, "t")
    with pytest.raises(HBasisError):
        h_decompose(q * t * (q + 2 * t))  # asymmetric residual
    with pytest.raises(HBasisError):
        h_decompose(q + t)  # not divisible by q*t


def independent_tree_poly(m, n):
    """Enumerate tree distributions by filtering raw candidates; no theta."""
    tree = build_caterpillar(m, n)
    size = tree.node_count
    variables = multi_stat_variables(m)
    terms = {}
    for cand in combinations_with_replacement(range(1, size + 1), size):
        if not is_tree_pk(tree, cand):
            continue
        outcome = simulate(tree, cand)
        key = (len(outcome.lucky_set),) + tuple(
            sum(1 for vv in cand if vv == j) for j in range(1, m + 1)
        )
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(variables, terms)


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (3, 3)])
def test_multi_stat_poly_matches_filter_route(m, n):
    assert multi_stat_poly_brute(m, n) == independent_tree_poly(m, n)


def test_multi_stat_examples():
    V = multi_stat_variables(2)
    assert multi_stat_poly_brute(2, 1).render() == "q0*q1"
    base = MultiPoly.monomial(V, {"q0": 1, "q1": 1, "q2": 1})
    assert multi_stat_poly_brute(2, 2) == base * complete_homogeneous(V, 1)
    assert multi_stat_poly_brute(2, 3) == base * (
        complete_homogeneous(V, 2) + 2 * complete_homogeneous(V, 1)
    )


def test_multi_stat_product_formula():
    check = verify_multi_stat_product(2, 4)
    assert check.ok
    assert check.params["order_one_gap"] == ("q0*q1", "q0*q1*q2")
    check = verify_multi_stat_product(3, 3)
    assert check.ok
    assert check.params["order_one_gap"] == ("q0*q1", "q0*q1*q2*q3")
    check = verify_multi_stat_product(1, 5)
    assert check.ok
    assert check.params["order_one_gap"] is None


@pytest.mark.parametrize("m,order", [(2, 10), (3, 8)])
def test_multi_stat_product_past_enumeration(m, order):
    check = verify_multi_stat_product(m, order)
    assert check.ok, check.mismatches[:1]
    assert check.params["order_one_gap"] == (
        "q0*q1", "*".join(f"q{i}" for i in range(m + 1)))


def test_tensor_table_values():
    tensor = joint_count_tensor(2, 4)
    expected = {
        (1, 1, 2): 7, (1, 1, 3): 4, (1, 1, 4): 1,
        (1, 2, 1): 7, (1, 2, 2): 4, (1, 2, 3): 1,
        (1, 3, 1): 4, (1, 3, 2): 1, (1, 4, 1): 1,
        (2, 1, 1): 7, (2, 1, 2): 4, (2, 1, 3): 1,
        (2, 2, 1): 4, (2, 2, 2): 1, (2, 3, 1): 1,
        (3, 1, 1): 4, (3, 1, 2): 1, (3, 2, 1): 1,
        (4, 1, 1): 1,
    }
    assert tensor.entries == expected
    assert tensor.count((1, 1, 1)) == 0
    assert tensor.total() == 55


def test_tensor_symmetry():
    for n in range(1, 6):
        assert verify_tensor_symmetry(2, n).ok
    for n in range(1, 5):
        assert verify_tensor_symmetry(3, n).ok


@pytest.mark.parametrize("m,max_n", [(2, 0), (2, 6), (3, 5)])
def test_tensor_pass_gives_every_length(m, max_n):
    """One pass yields the tensor and the symmetry check of each length
    1..max_n, as the per-length functions give them."""
    lengths = range(1, max_n + 1)
    assert list(joint_count_tensors(m, max_n)) == [
        joint_count_tensor(m, n) for n in lengths]
    assert [(c.name, c.params, c.mismatches)
            for c in verify_tensor_symmetries(m, max_n)] == [
        (c.name, c.params, c.mismatches)
        for c in (verify_tensor_symmetry(m, n) for n in lengths)]


@pytest.mark.parametrize("m,n", [(2, 12), (3, 9)])
def test_tensor_symmetry_past_enumeration(m, n):
    check = verify_tensor_symmetry(m, n)
    assert check.ok, check.mismatches[:1]


def test_convolution_identity_examples():
    # two variables, m=2, n=3: coefficients match the luck counts (7, 4, 1)
    V = ("q0", "q1")
    lhs = MultiPoly.zero(V)
    for k in range(4):
        a = r_poly_brute(2, k).rename({"q": "q0"}).rename(V)
        b = r_poly_brute(2, 3 - k).rename({"q": "q1"}).rename(V)
        lhs = lhs + a * b
    rhs = (complete_homogeneous(V, 3) + 4 * complete_homogeneous(V, 2)
           + 7 * complete_homogeneous(V, 1))
    assert lhs == rhs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_convolution_identity(m):
    assert verify_convolution_identity(m, 5).ok


def test_convolution_identity_n0_convention():
    check = verify_convolution_identity(2, 0)
    assert check.ok


def test_convolution_identity_reports_a_broken_luck_polynomial(monkeypatch):
    """One extra q in R_2 (m=2) cancels at n = 2, where R_2 enters both
    sides once, and first shows at (t, n) = (2, 3): the lhs picks up
    2*q0*q1 from R_1(q0)R_2(q1) + R_2(q0)R_1(q1)."""
    import catpark.engine as engine

    real = engine.r_polys_brute
    q = MultiPoly.variable(("q",), "q")

    def broken(m, order):
        return (poly + q if n == 2 else poly
                for n, poly in enumerate(real(m, order)))

    monkeypatch.setattr(engine, "r_polys_brute", broken)
    check = verify_convolution_identity(2, 4)
    assert [index for index, _, _ in check.mismatches] == [
        (2, 3), (2, 4), (3, 3), (3, 4)]
    assert check.mismatches[0] == (
        (2, 3),
        "q0^3 + q0^2*q1 + q0*q1^2 + q1^3 + 4*q0^2 + 6*q0*q1 + 4*q1^2"
        " + 7*q0 + 7*q1",
        "q0^3 + q0^2*q1 + q0*q1^2 + q1^3 + 4*q0^2 + 4*q0*q1 + 4*q1^2"
        " + 7*q0 + 7*q1",
    )


# each series check's brute side, with the DP it runs
SERIES_CHECKS = [(verify_r_series, "luck"), (verify_gamma_series, "quad"),
                 (verify_multi_stat_product, "multi"),
                 (verify_convolution_identity, "luck")]


@pytest.mark.parametrize("check,statistic", SERIES_CHECKS)
@pytest.mark.parametrize("m,order", [(2, 0), (2, 1), (2, 2), (3, 6), (1, 9)])
def test_series_check_runs_one_pass(transfer_steps, check, statistic, m, order):
    """Order N reads the lengths 0..N from one pass: N-1 steps, k = 2..N."""
    assert check(m, order).ok
    assert transfer_steps == [(statistic, m, k) for k in range(2, order + 1)]


# identity-orders' brute-vs-closed phase, as perfbench/workloads.py runs it
IDENTITY_ORDERS_BRUTE = (
    [(verify_r_series, m, order) for m, order in ((1, 12), (2, 10), (3, 9), (4, 8))]
    + [(verify_gamma_series, m, order) for m, order in ((2, 9), (3, 8), (4, 7))]
    + [(verify_multi_stat_product, m, order) for m, order in ((2, 7), (3, 6))]
    + [(verify_convolution_identity, 3, 7)]
    + [(verify_tensor_symmetry, m, n) for m, n in ((2, 7), (3, 6))]
)


def test_identity_orders_brute_phase_runs_84_steps(transfer_steps):
    """One pass per check: 84 steps, where a DP per length ran 328."""
    for check, m, order in IDENTITY_ORDERS_BRUTE:
        assert check(m, order).ok
    assert len(transfer_steps) == 84


def test_convolution_identity_validates_only_its_inputs(monkeypatch):
    """The series products, the h-basis sums and their integer scalings
    build through the trusted constructor; each h_k is built once per
    width."""
    real = MultiPoly.__init__
    calls = []

    def spy(self, variables, terms=None):
        calls.append(terms)
        real(self, variables, terms)

    monkeypatch.setattr(MultiPoly, "__init__", spy)
    assert verify_convolution_identity(3, 7).ok
    # 8 luck polynomials; per width t = 2, 3, 4: h_0..h_7 and the one zero
    # that starts each rhs sum
    assert len(calls) == 8 + 3 * (8 + 1)


def test_identity_check_renames_consistently():
    """Series identities survive variable renaming."""
    a = r_series_closed(2, 5, ("q",), "q")
    b = r_series_closed(2, 5, ("z",), "z")
    for n in range(6):
        assert a.coefficient(n).rename({"q": "z"}) == b.coefficient(n)


def test_identity_check_dataclass():
    check = IdentityCheck("demo", {"m": 1})
    assert check.ok
    check.mismatches.append((0, "1", "2"))
    assert not check.ok
