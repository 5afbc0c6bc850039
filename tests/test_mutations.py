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


def _with_a_phantom_count(tensor):
    """The tensor with one count at the all-zero key, which no distribution
    has (every one parks a lucky car) and no spot entry reads."""
    return tensor._replace(entries={**tensor.entries, (0,) * (tensor.m + 1): 1})


def _every_variable(m):
    """The monomial q0*q1*...*qm."""
    return MultiPoly(engine.multi_stat_variables(m), {(1,) * (m + 1): 1})


def _one_node_tree_as_product(real):
    """multi_stat_polys_brute with the one-node tree's polynomial replaced
    by q0*...*qm, the product formula's x^1 coefficient."""
    return lambda m, order: (_every_variable(m) if n == 1 else poly
                             for n, poly in enumerate(real(m, order)))


def _refusing(image):
    """The stand-in for harness._sorted_tree_pk whose test also refuses
    image."""
    def mutate(real):
        def build(tree):
            test = real(tree)
            return lambda seq: seq != image and test(seq)
        return build
    return mutate


def _theta_state_at(index, change):
    """The stand-in for harness._theta_step whose state after p = (1, 1, 3)
    has field index replaced by change(field)."""
    def mutate(real):
        def step(*args):
            state = real(*args)
            if state[0] != (1, 1, 3):
                return state
            return state[:index] + (change(state[index]),) + state[index + 1:]
        return step
    return mutate


# pytest.param(scope, options, module, name, stand-in made from the real
#  function, counterexample the failing entry reports, id=the scope, and
#  the name when several rows share the scope); the count-reading scopes'
#  stand-ins count one too many
MUTATIONS = [
    pytest.param(
        "counting", {"m": 2, "max_n": 4}, harness, "count_u_pk",
        lambda real: lambda n, family: real(n, family) + (n == 3),
        {"m": 2, "n": 3, "dp": 13, "closed": 12, "enumerated": 12},
        id="counting"),
    pytest.param(
        "recurrence", {"m": 2, "max_n": 4}, harness, "count_for_bounds",
        lambda real: lambda bounds: real(bounds) + (len(bounds) == 2),
        {"k": 1, "r": 0, "n": 2, "lhs": 8, "rhs": 9}, id="recurrence"),
    # one half of the luck/ones exchange broken: tau(1, 1, 3) = (1, 3, 3)
    # counts one lucky position too many
    pytest.param(
        "involution", {"m": 2, "max_n": 4}, harness, "_luck",
        lambda real: lambda seq, m: real(seq, m) + (seq == (1, 3, 3)),
        {"n": 3, "p": (1, 1, 3), "tau": (1, 3, 3),
         "reason": "statistic exchange"}, id="involution"),
    pytest.param(
        "hbasis", {"m": 2, "max_n": 4}, harness, "count_for_bounds",
        lambda real: lambda bounds: real(bounds) + (len(bounds) == 2),
        {"n": 3, "degree": 0, "coeff": 3, "convolution": 4}, id="hbasis"),
    # the h_0 coefficient one too many, so the one-node tree's vector is off
    pytest.param(
        "hbasis", {"m": 2, "max_n": 4}, harness, "h_decompose",
        lambda real: lambda poly: {d: c + (d == 0)
                                   for d, c in real(poly).items()},
        {"n": 1, "vector": (2,), "expected": (1,)}, id="hbasis-h_decompose"),
    # component-rebuild-bijection, one row per statistic the image must
    # carry over from p's blocks, each read one too high on every image of
    # length 3, whose blocks are shorter; then one image too few
    pytest.param(
        "eta", {"m": 2, "max_n": 4}, harness, "u_omega",
        lambda real: lambda seq, j: real(seq, j) + (j == 1 and len(seq) == 3),
        {"n": 3, "p": (1, 1, 1), "reason": "omega_1"}, id="eta-omega_1"),
    pytest.param(
        "eta", {"m": 2, "max_n": 4}, harness, "u_omega",
        lambda real: lambda seq, j: real(seq, j) + (j == 2 and len(seq) == 3),
        {"n": 3, "p": (1, 1, 1), "reason": "omega_2"}, id="eta-omega_2"),
    pytest.param(
        "eta", {"m": 2, "max_n": 4}, harness, "count_u_pk",
        lambda real: lambda n, family: real(n, family) + (n == 3),
        {"n": 3, "reason": "not surjective"}, id="eta-count_u_pk"),
    pytest.param(
        "hseries", {"m": 2, "order": 4}, engine, "count_u_pk",
        lambda real: lambda n, family: real(n, family) + (n == 2),
        {"k": 1, "r": 0, "first": (2, "8", "7")}, id="hseries"),
    # the closed series read r_series_closed; each stand-in builds some of
    # its series in the uncorrected 1/(1 - q*x*B) form, or in a wrong variable
    pytest.param(
        "gamma", {"m": 2, "order": 3}, engine, "r_series_closed",
        lambda real: lambda m, order, variables=("q",), qvar="q",
        literal=False: real(m, order, variables, qvar,
                            literal=literal or qvar == "t"),
        (3, "q*t^3*u^4*v^4 + 2*q*t^2*u^4*v^4 + q^2*t^2*u^3*v^3"
            " + q*t^2*u^3*v^4 + q^3*t*u^2*v^2 + q^2*t*u^2*v^3"
            " + 3*q*t*u^2*v^4 + 2*q^2*t*u^2*v^2",
         "q*t^3*u^4*v^4 + q*t^2*u^4*v^4 + q^2*t^2*u^3*v^3"
         " + q*t^2*u^3*v^4 + q^3*t*u^2*v^2 + q^2*t*u^2*v^3"
         " + 3*q*t*u^2*v^4 + 2*q^2*t*u^2*v^2"), id="gamma"),
    pytest.param(
        "qluck", {"m": 2, "order": 3}, engine, "r_series_closed",
        lambda real: lambda m, order, variables=("q",), qvar="q",
        literal=False: real(m, order, variables, qvar, literal=True),
        (2, "q^2 + 2*q", "q^2 + q"), id="qluck"),
    pytest.param(
        "multistat", {"m": 1, "order": 3}, engine, "r_series_closed",
        lambda real: lambda m, order, variables=("q",), qvar="q",
        literal=False: real(m, order, variables,
                            "q0" if qvar == "q1" else qvar, literal),
        (2, "q0^2*q1 + q0*q1^2", "2*q0^2*q1"), id="multistat"),
    # tree-iso-transport, one row per reason, each at p = (1, 1, 3), whose
    # image on the (2, 3) tree is (1, 1, 2, 3, 4).  _sorted_tree_pk restates
    # is_tree_pk for sorted images, and the fold _luck and u_omega in the
    # state fields 3 and 4 (p's counts of 1 and 2); their rows keep those
    # names
    pytest.param(
        "theta", {"m": 2, "max_n": 4}, harness, "_sorted_tree_pk",
        _refusing((1, 1, 2, 3, 4)),
        {"n": 3, "p": (1, 1, 3), "image": (1, 1, 2, 3, 4),
         "reason": "image not a distribution"}, id="theta-is_tree_pk"),
    pytest.param(
        "theta", {"m": 2, "max_n": 4}, harness, "_theta_inv",
        lambda real: lambda seq, leaves: (real(seq, leaves)[::-1]
                                          if seq == (1, 1, 2, 3, 4)
                                          else real(seq, leaves)),
        {"n": 3, "p": (1, 1, 3), "image": (1, 1, 2, 3, 4),
         "reason": "roundtrip"}, id="theta-_theta_inv"),
    pytest.param(
        "theta", {"m": 2, "max_n": 4}, harness, "_theta_step",
        _theta_state_at(3, lambda luck: luck + 1),
        {"n": 3, "p": (1, 1, 3), "reason": "luck transport"},
        id="theta-_luck"),
    # the image's count of label 1, field 2, one too many
    pytest.param(
        "theta", {"m": 2, "max_n": 4}, harness, "_theta_step",
        _theta_state_at(2, lambda counts: (counts[0] + 1, counts[1])),
        {"n": 3, "p": (1, 1, 3), "reason": "omega_1 transport"},
        id="theta-omega_1"),
    pytest.param(
        "theta", {"m": 2, "max_n": 4}, harness, "_theta_step",
        _theta_state_at(4, lambda counts: (counts[0], counts[1] + 1)),
        {"n": 3, "p": (1, 1, 3), "reason": "omega_2 transport"},
        id="theta-u_omega"),
    pytest.param(
        "theta", {"m": 2, "max_n": 4}, harness, "fuss_catalan",
        lambda real: lambda m, n: real(m, n) + (n == 3),
        {"n": 3, "reason": "count"}, id="theta-fuss_catalan"),
    # the parking step counts a leaf car that parks at its preference as
    # lucky: on the (2, 2) tree, car 3 of (1, 1, 2)
    pytest.param(
        "theta", {"m": 2, "max_n": 4}, harness, "_park_cars", _lucky_leaves,
        {"n": 2, "p": (1, 1), "reason": "luck transport"},
        id="theta-_park_cars"),
    # the parking step whose all-parked flag is that of cars that never
    # climb, its taken nodes and luck kept: car 2 of (1, 1, 2) on the (2, 2)
    # tree finds node 1 taken
    pytest.param(
        "theta", {"m": 2, "max_n": 4}, harness, "_park_cars",
        lambda real: lambda tree, state, cars: real(tree, state, cars)[:2] + (
            real(_without_backbone(tree), state, cars)[2],),
        {"n": 2, "p": (1, 1), "image": (1, 1, 2),
         "reason": "image not a distribution"}, id="theta-all-parked"),
    # a decoder that reads each entry one too low
    pytest.param(
        "lattice", {"m": 2, "max_n": 3}, harness, "from_lattice_path",
        lambda real: lambda word, m: tuple(v - 1 for v in real(word, m)),
        {"m": 2, "p": (1,), "word": "N"}, id="lattice"),
    # condition-vs-process on the four-node path: a process where a car
    # whose node is taken exits at once, and a condition that accepts one
    # non-distribution
    pytest.param(
        "parking", {"m": 1, "max_n": 4}, harness, "_park_cars",
        lambda real: lambda tree, state, cars: real(
            _without_backbone(tree), state, cars),
        {"m": 1, "n": 4, "seq": (1, 1, 1, 1), "condition": True,
         "parked": False}, id="parking-_park_cars"),
    pytest.param(
        "parking", {"m": 1, "max_n": 4}, harness, "is_tree_pk",
        lambda real: lambda tree, seq: real(tree, seq) or seq == (1, 2, 4, 4),
        {"m": 1, "n": 4, "seq": (1, 2, 4, 4), "condition": True,
         "parked": False}, id="parking-is_tree_pk"),
    # the enumerated (2, 5) shape: a listing that swaps each row's last
    # entry, the root's, for a 1 leaves leaf 8 of its first row without a car
    pytest.param(
        "parking", {"m": 2, "max_n": 5}, harness, "enumerate_caterpillar_pk",
        lambda real: lambda m, n: ((1,) + row[:-1] for row in real(m, n)),
        {"m": 2, "n": 5, "seq": (1, 1, 1, 1, 1, 1, 2, 4, 6)},
        id="parking-enumerated"),
    # tensor-symmetry alone, as the m = 3 run has no tensor-table: on the
    # (3, 2) tree the four keys of sum 5 each count one
    pytest.param(
        "tensor", {"m": 3, "max_n": 3}, engine, "joint_count_tensors",
        lambda real: lambda m, max_n: map(_move_one_count, real(m, max_n)),
        {"n": 2, "first": (5, [((1, 1, 1, 2), 0), ((1, 1, 2, 1), 2),
                               ((1, 2, 1, 1), 1), ((2, 1, 1, 1), 1)], None)},
        id="tensor"),
]


@pytest.mark.parametrize("scope,opts,module,name,mutate,counterexample",
                         MUTATIONS)
def test_mutation_is_caught(monkeypatch, scope, opts, module, name, mutate,
                            counterexample):
    assert run_verification(scope, **opts).ok
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    report = run_verification(scope, **opts)
    assert [entry.status for entry in report.entries] == ["fail"]
    assert report.entries[0].counterexample == counterexample


# Scopes that report several entries: pytest.param(scope, options, module,
# name, stand-in, the identity that must fail, its counterexample, id=the
# identity, and the options or reason when several rows share it); every
# other entry keeps its status.  An erratum row removes the mismatch that
# the entry demonstrates.
SHARED_SCOPE_MUTATIONS = [
    pytest.param(
        "tensor", {"m": 2, "max_n": 2}, harness, "joint_count_tensor",
        lambda real: lambda m, n: _move_one_count(real(m, n)),
        "tensor-table", {"entry": (1, 1, 2), "got": 6, "want": 7},
        id="tensor-table"),
    # every spot entry holds, but the total counts one too many
    pytest.param(
        "tensor", {"m": 2, "max_n": 2}, harness, "joint_count_tensor",
        lambda real: lambda m, n: _with_a_phantom_count(real(m, n)),
        "tensor-table", {"reason": "total"}, id="tensor-table-total"),
    # one row too many in the enumerated count of the (2, 3) sequences
    pytest.param(
        "errata", {}, harness, "enumerate_u_pk",
        lambda real: lambda n, family: chain(real(n, family), [()]),
        "stated-count-erratum", {"enumerated": 13, "stated": 4},
        id="stated-count-erratum"),
    # a printed series whose corrected form is checked in its literal form
    pytest.param(
        "errata", {}, harness, "verify_r_series",
        lambda real: lambda m, order, literal=False: real(m, order,
                                                         literal=True),
        "q-luck-exponent-erratum", {"literal_ok": False, "corrected_ok": False},
        id="q-luck-exponent-erratum"),
    pytest.param(
        "errata", {}, harness, "verify_gamma_series",
        lambda real: lambda m, order, literal=False: real(m, order,
                                                         literal=True),
        "joint-series-arguments-erratum",
        {"literal_ok": False, "corrected_ok": False},
        id="joint-series-arguments-erratum"),
    # the one-node tree's polynomial is the product's q0*...*qm: the order-1
    # gap is gone, and the product identity still holds
    pytest.param(
        "multistat", {"m": 2}, engine, "multi_stat_polys_brute",
        _one_node_tree_as_product,
        "multi-stat-product-order1", {"enumerated": None, "stated": None},
        id="multi-stat-product-order1-m2"),
    pytest.param(
        "multistat", {"m": 3}, engine, "multi_stat_polys_brute",
        _one_node_tree_as_product,
        "multi-stat-product-order1", {"enumerated": None, "stated": None},
        id="multi-stat-product-order1-m3"),
]


@pytest.mark.parametrize(
    "scope,opts,module,name,mutate,identity,counterexample",
    SHARED_SCOPE_MUTATIONS)
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
