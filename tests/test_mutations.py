"""Each check catches a broken part: one row per mutation, with the name
it patches where the check reads it and the counterexample it must
report."""

from itertools import chain

import pytest

from catpark import engine, harness
from catpark.caterpillar import CaterpillarTree
from catpark.engine import JointCountTensor
from catpark.harness import run_verification
from catpark.polynomials import MultiPoly


def _move_one_count(tensor):
    """The tensor with one count moved from its least key to the next key
    of the same coordinate sum; unchanged when no two keys share a sum."""
    keys = sorted(tensor.entries, key=lambda key: (sum(key), key))
    for low, high in zip(keys, keys[1:]):
        if sum(low) == sum(high):
            entries = dict(tensor.entries)
            entries[low] -= 1
            entries[high] += 1
            return JointCountTensor(tensor.m, tensor.n, entries)
    return tensor


def _without_backbone(tree):
    """The tree with an empty backbone mask, so that no car climbs."""
    return CaterpillarTree(tree.m, tree.n, tree.node_count, tree.parent,
                           tree.backbone_labels, 0, tree.subtree_size)


def _lucky_leaves(real):
    """The parking step, run a car at a time, that also counts a car which
    parks at its preferred leaf as lucky."""
    def step(tree, state, cars):
        for car in cars:
            taken = state[0]
            occupied, luck, parked = state = real(tree, state, (car,))
            if (car - 1) % tree.m and not taken >> car & 1:
                state = occupied, luck + 1, parked
        return state
    return step


def _every_variable(m):
    """The monomial q0*q1*...*qm."""
    return MultiPoly(engine.multi_stat_variables(m), {(1,) * (m + 1): 1})


# (scope, options, module, name, stand-in made from the real function,
#  counterexample the failing entry reports); the count-reading scopes'
#  stand-ins count one too many
MUTATIONS = [
    ("counting", {"m": 2, "max_n": 4}, harness, "count_u_pk",
     lambda real: lambda n, family: real(n, family) + (n == 3),
     {"m": 2, "n": 3, "dp": 13, "closed": 12, "enumerated": 12}),
    ("recurrence", {"m": 2, "max_n": 4}, harness, "count_for_bounds",
     lambda real: lambda bounds: real(bounds) + (len(bounds) == 2),
     {"k": 1, "r": 0, "n": 2, "lhs": 8, "rhs": 9}),
    ("hbasis", {"m": 2, "max_n": 4}, harness, "count_for_bounds",
     lambda real: lambda bounds: real(bounds) + (len(bounds) == 2),
     {"n": 3, "degree": 0, "coeff": 3, "convolution": 4}),
    ("hseries", {"m": 2, "order": 4}, engine, "count_u_pk",
     lambda real: lambda n, family: real(n, family) + (n == 2),
     {"k": 1, "r": 0, "first": (2, "8", "7")}),
    # the closed series read r_series_closed; each stand-in builds some of
    # its series in the uncorrected 1/(1 - q*x*B) form, or in a wrong variable
    ("gamma", {"m": 2, "order": 3}, engine, "r_series_closed",
     lambda real: lambda m, order, variables=("q",), qvar="q", literal=False:
         real(m, order, variables, qvar, literal=literal or qvar == "t"),
     (3, "q*t^3*u^4*v^4 + 2*q*t^2*u^4*v^4 + q^2*t^2*u^3*v^3"
         " + q*t^2*u^3*v^4 + q^3*t*u^2*v^2 + q^2*t*u^2*v^3"
         " + 3*q*t*u^2*v^4 + 2*q^2*t*u^2*v^2",
      "q*t^3*u^4*v^4 + q*t^2*u^4*v^4 + q^2*t^2*u^3*v^3"
      " + q*t^2*u^3*v^4 + q^3*t*u^2*v^2 + q^2*t*u^2*v^3"
      " + 3*q*t*u^2*v^4 + 2*q^2*t*u^2*v^2")),
    ("qluck", {"m": 2, "order": 3}, engine, "r_series_closed",
     lambda real: lambda m, order, variables=("q",), qvar="q", literal=False:
         real(m, order, variables, qvar, literal=True),
     (2, "q^2 + 2*q", "q^2 + q")),
    ("multistat", {"m": 1, "order": 3}, engine, "r_series_closed",
     lambda real: lambda m, order, variables=("q",), qvar="q", literal=False:
         real(m, order, variables, "q0" if qvar == "q1" else qvar, literal),
     (2, "q0^2*q1 + q0*q1^2", "2*q0^2*q1")),
    # tree-iso-transport, one row per reason, each at p = (1, 1, 3), whose
    # image on the (2, 3) tree is (1, 1, 2, 3, 4)
    ("theta", {"m": 2, "max_n": 4}, harness, "is_tree_pk",
     lambda real: lambda tree, seq: real(tree, seq) and seq != (1, 1, 2, 3, 4),
     {"n": 3, "p": (1, 1, 3), "image": (1, 1, 2, 3, 4),
      "reason": "image not a distribution"}),
    ("theta", {"m": 2, "max_n": 4}, harness, "_theta_inv",
     lambda real: lambda seq, leaves: (real(seq, leaves)[::-1]
                                       if seq == (1, 1, 2, 3, 4)
                                       else real(seq, leaves)),
     {"n": 3, "p": (1, 1, 3), "image": (1, 1, 2, 3, 4), "reason": "roundtrip"}),
    ("theta", {"m": 2, "max_n": 4}, harness, "_luck",
     lambda real: lambda seq, m: real(seq, m) + (seq == (1, 1, 3)),
     {"n": 3, "p": (1, 1, 3), "reason": "luck transport"}),
    ("theta", {"m": 2, "max_n": 4}, harness, "u_omega",
     lambda real: lambda seq, j: real(seq, j) + (seq == (1, 1, 3) and j == 2),
     {"n": 3, "p": (1, 1, 3), "reason": "omega_2 transport"}),
    ("theta", {"m": 2, "max_n": 4}, harness, "fuss_catalan",
     lambda real: lambda m, n: real(m, n) + (n == 3),
     {"n": 3, "reason": "count"}),
    # the parking step counts a leaf car that parks at its preference as
    # lucky: on the (2, 2) tree, car 3 of (1, 1, 2)
    ("theta", {"m": 2, "max_n": 4}, harness, "_park_cars", _lucky_leaves,
     {"n": 2, "p": (1, 1), "reason": "luck transport"}),
    # condition-vs-process on the four-node path: a process where a car
    # whose node is taken exits at once, and a condition that accepts one
    # non-distribution
    ("parking", {"m": 1, "max_n": 4}, harness, "_park_cars",
     lambda real: lambda tree, state, cars: real(
         _without_backbone(tree), state, cars),
     {"m": 1, "n": 4, "seq": (1, 1, 1, 1), "condition": True,
      "parked": False}),
    ("parking", {"m": 1, "max_n": 4}, harness, "is_tree_pk",
     lambda real: lambda tree, seq: real(tree, seq) or seq == (1, 2, 4, 4),
     {"m": 1, "n": 4, "seq": (1, 2, 4, 4), "condition": True,
      "parked": False}),
    # tensor-symmetry alone, as the m = 3 run has no tensor-table: on the
    # (3, 2) tree the four keys of sum 5 each count one
    ("tensor", {"m": 3, "max_n": 3}, engine, "joint_count_tensor",
     lambda real: lambda m, n: _move_one_count(real(m, n)),
     {"n": 2, "first": (5, [((1, 1, 1, 2), 0), ((1, 1, 2, 1), 2),
                            ((1, 2, 1, 1), 1), ((2, 1, 1, 1), 1)], None)}),
]


def _row_id(row):
    """The scope, and the patched name when several rows share the scope."""
    scope, name = row[0], row[3]
    shared = sum(other[0] == scope for other in MUTATIONS) > 1
    return f"{scope}-{name}" if shared else scope


@pytest.mark.parametrize("scope,opts,module,name,mutate,counterexample",
                         MUTATIONS, ids=list(map(_row_id, MUTATIONS)))
def test_mutation_is_caught(monkeypatch, scope, opts, module, name, mutate,
                            counterexample):
    assert run_verification(scope, **opts).ok
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    report = run_verification(scope, **opts)
    assert [entry.status for entry in report.entries] == ["fail"]
    assert report.entries[0].counterexample == counterexample


# Scopes that report several entries: (scope, options, module, name,
# stand-in, the identity that must fail, its counterexample); every other
# entry keeps its status.  An erratum row removes the mismatch that the
# entry demonstrates.
SHARED_SCOPE_MUTATIONS = [
    ("tensor", {"m": 2, "max_n": 2}, harness, "joint_count_tensor",
     lambda real: lambda m, n: _move_one_count(real(m, n)),
     "tensor-table", {"entry": (1, 1, 2), "got": 6, "want": 7}),
    # one row too many in the enumerated count of the (2, 3) sequences
    ("errata", {}, harness, "enumerate_u_pk",
     lambda real: lambda n, family: chain(real(n, family), [()]),
     "stated-count-erratum", {"enumerated": 13, "stated": 4}),
    # a printed series whose corrected form is checked in its literal form
    ("errata", {}, harness, "verify_r_series",
     lambda real: lambda m, order, literal=False: real(m, order, literal=True),
     "q-luck-exponent-erratum", {"literal_ok": False, "corrected_ok": False}),
    ("errata", {}, harness, "verify_gamma_series",
     lambda real: lambda m, order, literal=False: real(m, order, literal=True),
     "joint-series-arguments-erratum",
     {"literal_ok": False, "corrected_ok": False}),
    # the one-node tree's polynomial is the product's q0*...*qm: the order-1
    # gap is gone, and the product identity still holds
    ("multistat", {"m": 2}, engine, "multi_stat_poly_brute",
     lambda real: lambda m, n: _every_variable(m) if n == 1 else real(m, n),
     "multi-stat-product-order1", {"enumerated": None, "stated": None}),
    ("multistat", {"m": 3}, engine, "multi_stat_poly_brute",
     lambda real: lambda m, n: _every_variable(m) if n == 1 else real(m, n),
     "multi-stat-product-order1", {"enumerated": None, "stated": None}),
]


def _shared_id(row):
    """The failing identity, and the options when several rows share it."""
    identity = row[5]
    if sum(other[5] == identity for other in SHARED_SCOPE_MUTATIONS) > 1:
        return "-".join([identity, *(f"{k}{v}" for k, v in row[1].items())])
    return identity


@pytest.mark.parametrize(
    "scope,opts,module,name,mutate,identity,counterexample",
    SHARED_SCOPE_MUTATIONS, ids=list(map(_shared_id, SHARED_SCOPE_MUTATIONS)))
def test_mutation_fails_one_entry(monkeypatch, scope, opts, module, name,
                                  mutate, identity, counterexample):
    before = run_verification(scope, **opts)
    assert before.ok
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    report = run_verification(scope, **opts)
    assert ([(entry.identity, entry.status) for entry in report.entries]
            == [(entry.identity,
                 "fail" if entry.identity == identity else entry.status)
                for entry in before.entries])
    [failed] = [entry for entry in report.entries if entry.status == "fail"]
    assert failed.counterexample == counterexample
