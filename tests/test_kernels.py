"""The counting kernels against their definitional oracle.

The histograms are exact DP counts.  Their oracle is written here: plain
enumeration plus literal restatements of the statistics, with none of the
bookkeeping the kernels use.
"""

import pytest

from catpark import kernels
from catpark.decomposition import f_stat, g_stat

GRID = [(1, 5), (2, 5), (2, 6), (3, 4), (3, 5), (4, 3),
        (1, 10), (2, 8), (3, 7), (4, 6)]


def canonical_bounds(m, n):
    return [m * i - m + 1 for i in range(1, n + 1)]


def oracle_stats(seq, m):
    """(luck, ones, first window hit, first top hit) from the definitions."""
    n = len(seq)
    luck = sum(1 for i, v in enumerate(seq, start=1) if v == m * i - m + 1)
    ones = sum(1 for v in seq if v == 1)
    first_win = n + 1
    for k in range(2, n + 1):
        if m * (k - 2) + 2 <= seq[k - 1] <= m * (k - 1) + 1:
            first_win = k
            break
    first_top = n + 1
    for k in range(2, n + 1):
        if seq[k - 1] == m * (k - 1) + 1:
            first_top = k
            break
    return luck, ones, first_win, first_top


@pytest.mark.parametrize("m,n", GRID + [(2, 0), (3, 1)])
def test_luck_histogram_against_oracle(m, n):
    expected = [0] * (n + 1)
    for seq in kernels.iter_bounded(canonical_bounds(m, n)):
        expected[oracle_stats(seq, m)[0]] += 1
    assert kernels.luck_histogram(m, n) == expected


@pytest.mark.parametrize("m,n", GRID + [(3, 1)])
def test_quad_histogram_against_oracle(m, n):
    expected = {}
    for seq in kernels.iter_bounded(canonical_bounds(m, n)):
        key = oracle_stats(seq, m)
        # the window and top hits are the type-1 and type-m fixed points
        assert key[2:] == (f_stat(seq, m), g_stat(seq, m))
        expected[key] = expected.get(key, 0) + 1
    assert kernels.stat_quad_histogram(m, n) == expected


def test_iter_bounded_edge_cases():
    assert list(kernels.iter_bounded([])) == [()]
    assert list(kernels.iter_bounded([0, 3])) == []
    assert list(kernels.iter_bounded([2])) == [(1,), (2,)]


def test_luck_histogram_empty_length():
    assert kernels.luck_histogram(3, 0) == [1]
    assert kernels.stat_quad_histogram(3, 0) == {}


def test_dispatch_exports():
    assert kernels.BACKEND == "pure"
    assert list(kernels.iter_bounded([1, 3]))[0] == (1, 1)
