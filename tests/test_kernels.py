"""The counting kernels against their definitional oracle.

The histograms are exact DP counts.  Their oracle is written here: plain
enumeration plus literal restatements of the statistics, with none of the
bookkeeping the kernels use.  The tree multi-statistic polynomial, counted
by the DP and carried to the trees by the theta transport, is checked
against enumerating and simulating every tree distribution.  Past
enumeration's reach, the luck DP meets its Lagrange-inversion closed form.
"""

from collections import Counter
from itertools import accumulate
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catpark import kernels
from catpark.caterpillar import build_caterpillar, enumerate_caterpillar_pk, simulate
from catpark.decomposition import f_stat, g_stat
from catpark.engine import multi_stat_poly_brute, multi_stat_variables
from catpark.polynomials import MultiPoly

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


@pytest.mark.parametrize("m,n", [(1, 5), (2, 6), (3, 5), (4, 3), (5, 3), (3, 1)])
def test_multi_stat_histogram_against_oracle(m, n):
    expected = {}
    for seq in kernels.iter_bounded(canonical_bounds(m, n)):
        key = (oracle_stats(seq, m)[0],) + tuple(
            sum(1 for v in seq if v == j) for j in range(1, m + 1))
        expected[key] = expected.get(key, 0) + 1
    assert kernels.multi_stat_histogram(m, n) == expected


def oracle_histograms(m, n):
    """The luck, four-statistic and multi-statistic histograms of the
    length-n sequences, counted from the definitions; the empty length has
    no four-statistic key."""
    luck, quad, multi = [0] * (n + 1), Counter(), Counter()
    for seq in kernels.iter_bounded(canonical_bounds(m, n)):
        stats = oracle_stats(seq, m)
        luck[stats[0]] += 1
        if n:
            quad[stats] += 1
        multi[(stats[0],) + tuple(seq.count(j) for j in range(1, m + 1))] += 1
    return luck, dict(quad), dict(multi)


@pytest.mark.parametrize("m,n", GRID)
def test_every_length_pass_against_single_lengths_and_oracle(m, n):
    passes = zip(kernels.luck_histograms(m, n),
                 kernels.stat_quad_histograms(m, n),
                 kernels.multi_stat_histograms(m, n), strict=True)
    for j, got in enumerate(passes):
        assert got == oracle_histograms(m, j), (m, j)
        assert got == (kernels.luck_histogram(m, j),
                       kernels.stat_quad_histogram(m, j),
                       kernels.multi_stat_histogram(m, j)), (m, j)
    assert j == n


def test_every_length_pass_of_the_empty_length(transfer_steps):
    assert list(kernels.luck_histograms(3, 0)) == [[1]]
    assert list(kernels.stat_quad_histograms(3, 0)) == [{}]
    assert list(kernels.multi_stat_histograms(3, 0)) == [{(0, 0, 0, 0): 1}]
    assert transfer_steps == []


def test_every_length_pass_steps_once_per_position(transfer_steps):
    """A pass to length n runs positions 2..n once each, one step per
    length asked for."""
    lengths = kernels.stat_quad_histograms(2, 6)
    for _ in range(3):
        next(lengths)
    assert transfer_steps == [("quad", 2, 2)]
    list(lengths)
    assert transfer_steps == [("quad", 2, k) for k in range(2, 7)]


def tree_multi_stat_poly(m, n):
    """Sum of q0^luck * prod_j qj^(freq of node j) over every parking
    distribution on the (m, n) tree, with luck read off the simulation."""
    tree = build_caterpillar(m, n)
    terms = {}
    for seq in enumerate_caterpillar_pk(m, n):
        key = (len(simulate(tree, seq).lucky_set),) + tuple(
            seq.count(j) for j in range(1, m + 1))
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(multi_stat_variables(m), terms)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 8), (2, 1), (2, 2), (2, 7),
                                 (3, 1), (3, 6), (4, 4), (5, 3)])
def test_multi_stat_poly_against_tree_enumeration(m, n):
    assert multi_stat_poly_brute(m, n) == tree_multi_stat_poly(m, n)


def lagrange_luck_count(m, n, k):
    """[x^n q^k] of 1/(1 - q*x*B^m) for 1 <= k <= n, as the exact fraction
    (numerator, denominator) = (mk * C((m+1)n-k, n-k), (m+1)n-k)."""
    total = (m + 1) * n - k
    return m * k * comb(total, n - k), total


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 16)]
                         + [(2, 60), (3, 40)])
def test_luck_histogram_against_lagrange_closed_form(m, n):
    hist = kernels.luck_histogram(m, n)
    assert hist[0] == 0
    for k in range(1, n + 1):
        numerator, denominator = lagrange_luck_count(m, n, k)
        assert hist[k] * denominator == numerator, (m, n, k)


def odometer(bounds):
    """The walker's oracle: every nondecreasing p over 1..max(bounds), in
    odometer order (bump the rightmost entry below the top and reset every
    entry after it to the new value), kept when p[i] <= bounds[i]."""
    n = len(bounds)
    if n == 0:
        yield ()
        return
    top = max(bounds)
    p = [1] * n
    while top >= 1:
        if all(v <= b for v, b in zip(p, bounds)):
            yield tuple(p)
        j = n - 1
        while j >= 0 and p[j] >= top:
            j -= 1
        if j < 0:
            return
        p[j:] = [p[j] + 1] * (n - j)


# text frames: bare joins, and frames whose head and tail are not empty
FRAMES = (("", ",", ""), ("", ",\n      ", ""), ("", ",", "\n"),
          (",\n    [\n      ", ",\n      ", "\n    ]"), ("(", " ", ")"))
# (m, k, r): every canonical family (r = m - 1) and a few others
FAMILIES = [(1, 1, 0), (2, 1, 1), (3, 1, 2), (4, 1, 3), (2, 1, 0), (3, 1, 0),
            (3, 1, 1), (1, 2, 0), (2, 2, 0), (2, 2, 1), (3, 2, 2)]


@pytest.mark.parametrize("bounds", [[], [0, 3]] + [
    [m * (i + k - 1) - r for i in range(1, n + 1)]
    for m, k, r in FAMILIES for n in range(1, 7)], ids=str)
def test_iter_bounded_against_odometer(bounds):
    rows = list(odometer(bounds))
    assert list(kernels.iter_bounded(bounds)) == rows
    for text in FRAMES:
        head, sep, tail = text
        assert ("".join(kernels.iter_bounded(bounds, text=text))
                == "".join(head + sep.join(map(str, row)) + tail
                           for row in rows))


@pytest.mark.parametrize("bounds", [[], [0], [3], [0, 3], [3, 2], [2, 5, 5]]
                         + [[m * (i + k - 1) - r for i in range(1, n + 1)]
                            for m, k, r in FAMILIES[:6] for n in (2, 4)],
                         ids=str)
@pytest.mark.parametrize("leaves", [(), (2, 4), (5, 1, 3, 3)], ids=str)
def test_iter_bounded_text_batches(bounds, leaves):
    """Text rows come one string per (n-1)-prefix: joined in order, the
    strings are the framed rows, and each ends where a row ends."""
    rows = list(kernels.iter_bounded(bounds, leaves))
    prefixes = kernels.count_for_bounds(kernels._caps(bounds)[:-1])
    for head, sep, tail in FRAMES:
        framed = [head + sep.join(map(str, row)) + tail for row in rows]
        batches = list(kernels.iter_bounded(bounds, leaves,
                                            (head, sep, tail)))
        assert "".join(batches) == "".join(framed)
        assert all(batch.endswith(tail) for batch in batches)
        # every batch boundary is a row boundary, so each holds whole rows
        assert (set(accumulate(map(len, batches)))
                <= set(accumulate(map(len, framed))))
        assert len(batches) == (prefixes if rows else 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 9), max_size=6))
# empty, a zero bound, a later bound that caps the first, equal caps, and
# negative bounds first and last
@example([])
@example([0, 3])
@example([3, 2])
@example([3, 3])
@example([-1, 4])
@example([4, -1])
def test_count_for_bounds_against_odometer(bounds):
    assert kernels.count_for_bounds(bounds) == len(list(odometer(bounds)))


def _fold_p_and_pieces(state, v, piece):
    p, joined = state
    return p + (v,), joined + piece


@pytest.mark.parametrize("bounds", [[0, 3], [3, 2], [3, 3], [2, 5, 5]] + [
    [m * (i + k - 1) - r for i in range(1, n + 1)]
    for m, k, r in FAMILIES[:6] for n in range(1, 6)], ids=str)
@pytest.mark.parametrize("leaves", [(), (2, 4), (5, 1, 3, 3)], ids=str)
def test_fold_bounded_against_iter_bounded(bounds, leaves):
    """Folding (p, pieces so far) gives every row of iter_bounded with its p,
    and the row is its pieces joined."""
    folded = list(kernels.fold_bounded(bounds, leaves, _fold_p_and_pieces,
                                       ((), ())))
    assert [row for row, _ in folded] == list(kernels.iter_bounded(bounds, leaves))
    assert [p for _, (p, _) in folded] == list(odometer(bounds))
    assert all(row == joined for row, (_, joined) in folded)


def test_fold_bounded_edge_cases():
    start = ((), ())
    assert list(kernels.fold_bounded([], (), _fold_p_and_pieces, start)) == [
        ((), start)]
    # no position to fold the labels into: the start state comes back
    assert list(kernels.fold_bounded([], (3, 1), _fold_p_and_pieces, start)) == [
        ((1, 3), start)]
    # one position and no labels, as on the one-node tree
    assert list(kernels.fold_bounded([1], (), _fold_p_and_pieces, start)) == [
        ((1,), ((1,), (1,)))]


def test_quad_histogram_luck_ones_symmetry():
    """The paper's (luck, omega_1) symmetry, at sizes past enumeration."""
    for m, n in ((2, 12), (3, 9)):
        marginal = Counter()
        for (luck, ones, _, _), count in kernels.stat_quad_histogram(m, n).items():
            marginal[luck, ones] += count
        assert all(marginal[a, b] == marginal[b, a] for a, b in marginal)


def test_iter_bounded_edge_cases():
    assert list(kernels.iter_bounded([])) == [()]
    assert list(kernels.iter_bounded([0, 3])) == []
    assert list(kernels.iter_bounded([2])) == [(1,), (2,)]
    # a later bound caps the earlier entries too
    assert list(kernels.iter_bounded([3, 2])) == [(1, 1), (1, 2), (2, 2)]
    # a text row is framed whole: with no position the labels alone sit
    # between head and tail, and with one position each piece carries both
    text = ("<", ",", ">")
    assert list(kernels.iter_bounded([], text=text)) == ["<>"]
    assert list(kernels.iter_bounded([], (3, 1), text)) == ["<1,3>"]
    assert "".join(kernels.iter_bounded([2], (1,), text)) == "<1,1><1,2>"
    assert list(kernels.iter_bounded([0, 3], (1,), text)) == []
    assert list(kernels.iter_bounded([0], (1,), text)) == []


def test_luck_histogram_empty_length():
    assert kernels.luck_histogram(3, 0) == [1]
    assert kernels.stat_quad_histogram(3, 0) == {}
    assert kernels.multi_stat_histogram(3, 0) == {(0, 0, 0, 0): 1}


def test_dispatch_exports():
    assert kernels.BACKEND == "pure"
    assert list(kernels.iter_bounded([1, 3]))[0] == (1, 1)
