"""Each check catches a broken count: one row per scope of a mutation, the
name it patches where the check reads it, and the counterexample it must
report."""

import pytest

from catpark import engine, harness
from catpark.harness import run_verification


# (scope, options, module, name, stand-in made from the real function,
#  counterexample the failing entry reports); each stand-in counts one too many
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
]


@pytest.mark.parametrize("scope,opts,module,name,mutate,counterexample",
                         MUTATIONS, ids=[row[0] for row in MUTATIONS])
def test_mutation_is_caught(monkeypatch, scope, opts, module, name, mutate,
                            counterexample):
    assert run_verification(scope, **opts).ok
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    report = run_verification(scope, **opts)
    assert [entry.status for entry in report.entries] == ["fail"]
    assert report.entries[0].counterexample == counterexample
