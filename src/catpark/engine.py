"""Generating functions, statistic polynomials, and identity checks.

Brute-force polynomials are the ground truth.  The q-luck, joint
four-statistic and tree multi-statistic ones are exact DP counts from
``catpark.kernels``, whose oracle in the tests is plain enumeration; the
tree one is carried to the trees by the ``theta`` transport.  Closed forms
are built from truncated series and must match the brute values
coefficient by coefficient.

Two published closed forms disagree with enumeration and are implemented in
both variants: the q-luck series (the stated reciprocal omits an exponent m)
and the four-variable functional equation (the stated form attaches the
argument substitutions to the wrong factors).  ``literal=True`` selects the
uncorrected variant so the verification harness can demonstrate the
mismatch; the corrected form is always the default.  The multi-statistic
product formula has a third, narrower defect: its x^1 coefficient counts a
node the smallest tree does not have (see verify_multi_stat_product).
"""

from collections import namedtuple
from functools import reduce
from operator import mul

from catpark.errors import HBasisError
from catpark.polynomials import MultiPoly, complete_homogeneous
from catpark.sequences import count_u_pk, fuss_catalan, BoundFamily
from catpark.series import TruncatedSeries
from catpark import kernels

QT_UV = ("q", "t", "u", "v")


class IdentityCheck:
    """Coefficient-by-coefficient comparison result; mismatches holds
    (index, lhs, rhs) triples, a fresh list unless one is given."""

    def __init__(self, name, params, mismatches=None):
        self.name = name
        self.params = params
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self):
        return not self.mismatches


def _compare(name, params, order, lhs, rhs):
    """Compare lhs(n) with rhs(n) for n = 0..order; each mismatch is
    recorded as (n, lhs(n).render(), rhs(n).render())."""
    check = IdentityCheck(name, params)
    for n in range(order + 1):
        left, right = lhs(n), rhs(n)
        if left != right:
            check.mismatches.append((n, left.render(), right.render()))
    return check


# -- series builders -----------------------------------------------------


def fuss_catalan_series(m, order, variables=()):
    """Series whose x^n coefficient is the n-th count for regularity m."""
    return TruncatedSeries.from_function(
        variables, order, lambda j: fuss_catalan(m, j)
    )


def verify_functional_equation(m, order):
    """Check B = 1 + x*B^(m+1) coefficient-wise."""
    b = fuss_catalan_series(m, order)
    rhs = TruncatedSeries.one((), order) + (b ** (m + 1)).shifted(1)
    return _compare("functional-equation", {"m": m, "order": order}, order,
                    b.coefficient, rhs.coefficient)


def _require_length(n):
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")


def r_poly_brute(m, n):
    """Sum of q^luck over all canonically bounded distributions of length n."""
    _require_length(n)
    hist = kernels.luck_histogram(m, n)
    return MultiPoly(("q",), {(k,): c for k, c in enumerate(hist) if c})


def r_series_closed(m, order, variables=("q",), qvar="q", literal=False):
    """The q-luck generating series 1/(1 - q*x*B^m).

    literal=True evaluates the uncorrected exponent variant 1/(1 - q*x*B),
    which disagrees with enumeration from n=2 on (for m >= 2).
    """
    variables = tuple(variables)
    b = fuss_catalan_series(m, order, variables)
    tail = b if literal else b**m
    q = MultiPoly.variable(variables, qvar)
    return (TruncatedSeries.one(variables, order) - (q * tail).shifted(1)).reciprocal()


def verify_r_series(m, order, literal=False):
    name = "q-luck-series" + ("-literal" if literal else "")
    closed = r_series_closed(m, order, literal=literal)
    return _compare(name, {"m": m, "order": order}, order,
                    lambda n: r_poly_brute(m, n), closed.coefficient)


def gamma_poly_brute(m, n):
    """Sum of q^luck t^(freq of 1) u^f v^g over length-n distributions;
    the empty length contributes the constant 1."""
    _require_length(n)
    if n == 0:
        return MultiPoly.const(QT_UV, 1)
    return MultiPoly(QT_UV, kernels.stat_quad_histogram(m, n))


def gamma_series_closed(m, order, literal=False):
    """Four-variable functional equation for the joint statistics.

    Corrected form: 1 + x*q*t*(uv)^2 * B(x;q) * B(vx)^(m-1) * B(uvx;t).
    literal=True instead attaches the substitutions as
    B(x)^(m-1) * B(vx;q) * B(uvx;t), which fails against enumeration at
    m=2, n=2.

    The monomial head q*t*(uv)^2 multiplies the first, small factor (137
    terms at m=2, order 16), not the finished product: the last product is
    dense, with no colliding terms, so a head applied last would cost as
    much again as that product (13,277 terms there).
    """
    bq = r_series_closed(m, order, QT_UV, "q")
    bt = r_series_closed(m, order, QT_UV, "t")
    b = fuss_catalan_series(m, order, QT_UV)
    v = MultiPoly.variable(QT_UV, "v")
    uv = MultiPoly.monomial(QT_UV, {"u": 1, "v": 1})
    head = MultiPoly.monomial(QT_UV, {"q": 1, "t": 1, "u": 2, "v": 2})
    if literal:
        product = (head * b ** (m - 1)) * bq.scale_arg(v) * bt.scale_arg(uv)
    else:
        product = (head * bq) * (b.scale_arg(v) ** (m - 1)) * bt.scale_arg(uv)
    return TruncatedSeries.one(QT_UV, order) + product.shifted(1)


def verify_gamma_series(m, order, literal=False):
    name = "joint-series" + ("-literal" if literal else "")
    closed = gamma_series_closed(m, order, literal=literal)
    return _compare(name, {"m": m, "order": order}, order,
                    lambda n: gamma_poly_brute(m, n), closed.coefficient)


def h_series(m, k, r, order):
    """Series of exact counts for the bound family (m, k, r)."""
    fam = BoundFamily(m, k, r)
    return TruncatedSeries.from_function(
        (), order, lambda n: count_u_pk(n, fam)
    )


def verify_thm_rec(m, k, r, order):
    """Check that the (m,k,r) count series equals B^(mk-r)."""
    counted = h_series(m, k, r, order)
    powered = fuss_catalan_series(m, order) ** (m * k - r)
    return _compare("count-series-power",
                    {"m": m, "k": k, "r": r, "order": order}, order,
                    counted.coefficient, powered.coefficient)


# -- complete homogeneous decomposition -----------------------------------


def h_decompose(poly):
    """Write poly / (product of all variables) as sum of c_d * h_d.

    The input must be divisible by every variable.  c_d is read off the pure
    power (first variable)^d, then the residual is checked to be exactly
    zero; a nonzero residual raises HBasisError.  Returns {degree: coeff}
    with zero coefficients omitted.
    """
    variables = poly.variables
    if not variables:
        raise ValueError("need at least one variable")
    try:
        reduced = poly.divide_by_monomial({v: 1 for v in variables})
    except ValueError as exc:
        raise HBasisError(str(exc)) from exc
    coeffs = {}
    width = len(variables)
    for d in range(reduced.total_degree() + 1):
        exps = (d,) + (0,) * (width - 1)
        c = reduced.coefficient(exps)
        if c:
            coeffs[d] = c
    rebuilt = MultiPoly.zero(variables)
    for d, c in coeffs.items():
        rebuilt = rebuilt + complete_homogeneous(variables, d) * c
    if rebuilt != reduced:
        raise HBasisError(
            f"{poly.render()} is not a combination of complete homogeneous "
            f"polynomials after factoring {'*'.join(variables)}"
        )
    return coeffs


# -- multi-statistic polynomials on the trees ------------------------------


def multi_stat_variables(m):
    return tuple(f"q{i}" for i in range(m + 1))


def multi_stat_poly_brute(m, n):
    """Sum of q0^luck * prod_j qj^(freq of node j) over all parking
    distributions on the (m, n) tree, luck being the number of lucky cars.

    Counted on the bounded sequences by ``kernels.multi_stat_histogram``
    and carried over by ``theta``: it keeps luck and the frequency of 1,
    and for n >= 2 adds one copy of each leaf label, so of each of 2..m.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    leaf = 1 if n >= 2 else 0  # the one-node tree has no leaves
    terms = {(luck, ones) + tuple(w + leaf for w in rest): count
             for (luck, ones, *rest), count
             in kernels.multi_stat_histogram(m, n).items()}
    return MultiPoly(multi_stat_variables(m), terms)


def verify_multi_stat_product(m, order):
    """Compare the multi-statistic series with 1 + x * prod q_i B(x;q_i).

    The product formula is exact at every order except x^1 when m >= 2: the
    single-node tree has no node j >= 2, so the tree coefficient is
    q0*q1 while the product yields q0*...*qm.  That known gap is returned
    separately in ``order_one_gap`` instead of being counted as a mismatch.
    """
    variables = multi_stat_variables(m)
    rhs = TruncatedSeries.one(variables, order)
    if order >= 1:
        product = TruncatedSeries.one(variables, order)
        for i in range(m + 1):
            qi = MultiPoly.variable(variables, f"q{i}")
            product = product * (
                qi * r_series_closed(m, order, variables, f"q{i}")
            )
        rhs = rhs + product.shifted(1)
    check = _compare("multi-stat-product", {"m": m, "order": order}, order,
                     lambda n: (MultiPoly.const(variables, 1) if n == 0
                                else multi_stat_poly_brute(m, n)),
                     rhs.coefficient)
    # both sides are 1 at n = 0, so an x^1 mismatch comes first
    gap = None
    if m >= 2 and check.mismatches and check.mismatches[0][0] == 1:
        gap = check.mismatches.pop(0)[1:]
    check.params["order_one_gap"] = gap
    return check


class JointCountTensor(namedtuple("JointCountTensor", "m n entries")):
    """Counts of distributions on the (m, n) tree by the full statistic
    vector (luck, freq of node 1, ..., freq of node m)."""

    __slots__ = ()

    def count(self, key):
        return self.entries.get(tuple(key), 0)

    def total(self):
        return sum(self.entries.values())


def joint_count_tensor(m, n):
    poly = multi_stat_poly_brute(m, n)
    return JointCountTensor(m, n, {e: c for e, c in poly.items()})


def verify_tensor_symmetry(m, n):
    """Entries with equal coordinate sums must be equal."""
    check = IdentityCheck("tensor-symmetry", {"m": m, "n": n})
    tensor = joint_count_tensor(m, n)
    by_sum = {}
    for key, count in sorted(tensor.entries.items()):
        by_sum.setdefault(sum(key), []).append((key, count))
    for total, got in sorted(by_sum.items()):
        counts = {c for _, c in got}
        if len(counts) > 1:
            check.mismatches.append((total, got, None))
    return check


# -- convolution identity ---------------------------------------------------


def verify_convolution_identity(m, n_max):
    """Check that summing products of q-luck polynomials over weak
    compositions equals the count-weighted h-basis combination.

    For every n <= n_max and every width 2 <= t <= m+1:
        sum over t-compositions a of n of prod_i R_(a_i)(q_(i-1))
        == sum_k C_(n,k) * h_k(q_0, ..., q_(t-1)).
    The left side is the x^n coefficient of the product of the t series
    sum_n R_n(q_i) x^n.
    """
    check = IdentityCheck("luck-convolution", {"m": m, "n_max": n_max,
                                               "t_max": m + 1})
    r_polys = [r_poly_brute(m, n) for n in range(n_max + 1)]
    for t in range(2, m + 2):
        variables = tuple(f"q{i}" for i in range(t))
        lhs = reduce(mul, (
            TruncatedSeries(variables, [p.rename({"q": f"q{i}"}).rename(variables)
                                        for p in r_polys])
            for i in range(t)))
        h = [complete_homogeneous(variables, k) for k in range(n_max + 1)]
        zero = MultiPoly.zero(variables)
        for n, poly in enumerate(r_polys):  # poly's q^k coefficient is C_(n,k)
            left = lhs.coefficient(n)
            right = sum((h[k] * c for (k,), c in poly.items()), zero)
            if left != right:
                check.mismatches.append(((t, n), left.render(), right.render()))
    return check
