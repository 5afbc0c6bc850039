"""Seeded uniform samples at sizes enumeration never reaches.

Deep first-return nesting is where tau's explicit stack and eta_inv's
placement could break, and where the core assembles every level without a
check; enumeration stops at n = 7.  The tree multi-statistic DP rests on
the theta transport at every size, so theta is sampled here too.  Each
sample goes through the public entry points only.
"""

import random

import pytest

from catpark.caterpillar import build_caterpillar, is_tree_pk, simulate, theta, theta_inv
from catpark.decomposition import eta, eta_inv, tau, u_luck, u_omega
from catpark.sequences import canonical_family, is_u_pk


def sample_u_pk(m, n, rng):
    """A uniform in-bounds sequence of length n, by the cycle lemma.

    Shuffle n up-steps of +m and mn+1 down-steps of -1; exactly one
    rotation keeps every proper prefix >= 0.  The i-th up-step of that
    rotation, after x_i down-steps, gives entry x_i + 1.
    """
    steps = [m] * n + [-1] * (m * n + 1)
    rng.shuffle(steps)
    # the good rotation starts just after the first minimum prefix sum
    low, start, total = 0, 0, 0
    for i, step in enumerate(steps, start=1):
        total += step
        if total < low:
            low, start = total, i
    steps = steps[start:] + steps[:start]
    seq, downs = [], 0
    for step in steps:
        if step < 0:
            downs += 1
        else:
            seq.append(downs + 1)
    return tuple(seq)


@pytest.mark.parametrize("m, n, count", [(2, 50, 300), (3, 200, 200)])
def test_tau_and_eta_on_large_samples(m, n, count):
    rng = random.Random(m * 1000 + n)
    fam = canonical_family(m)
    for _ in range(count):
        p = sample_u_pk(m, n, rng)
        assert len(p) == n and is_u_pk(p, fam)
        q = tau(p, m)
        assert is_u_pk(q, fam) and tau(q, m) == p, p
        assert u_luck(p, m) == u_omega(q, 1) and u_omega(p, 1) == u_luck(q, m), p
        image = eta(p, m)
        assert is_u_pk(image, fam) and eta_inv(image, m) == p, p


@pytest.mark.parametrize("m, n, count", [(2, 50, 300), (3, 200, 200)])
def test_theta_on_large_samples(m, n, count):
    rng = random.Random(m * 1000 + n + 1)
    tree = build_caterpillar(m, n)
    for _ in range(count):
        p = sample_u_pk(m, n, rng)
        image = theta(p, m, n)
        outcome = simulate(tree, image)
        assert is_tree_pk(tree, image) and outcome.all_parked, p
        assert theta_inv(image, m, n) == p, p
        # luck and the frequency of 1 carry over; each of 2..m gains its leaf
        assert len(outcome.lucky_set) == u_luck(p, m), p
        assert u_omega(image, 1) == u_omega(p, 1), p
        for j in range(2, m + 1):
            assert u_omega(image, j) == u_omega(p, j) + 1, (p, j)
