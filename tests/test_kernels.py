"""The counting kernels against their definitional oracle.

The histograms are exact DP counts.  Their oracle is written here: plain
enumeration plus literal restatements of the statistics, with none of the
bookkeeping the kernels use.  The tree multi-statistic polynomial, counted
by the DP and carried to the trees by the theta transport, is checked
against enumerating and simulating every tree distribution.  Past
enumeration's reach, the luck DP meets its Lagrange-inversion closed form.
"""

from collections import Counter
from itertools import accumulate, groupby
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catpark import kernels
from catpark.caterpillar import (build_caterpillar, enumerate_caterpillar_pk,
                                 non_backbone_labels, simulate)
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


def batch_count(bounds, leaves, text, framed):
    """The batches the walk yields for bounds' framed rows.  The rows under
    an (n-2)-prefix of p ending at prev are the prefix's text before each
    of prev's tails.  At the second prefix ending at prev, prev gets a list
    of its tails when their length fits what the lists before it left of
    kernels.BATCH_SIZE.  A prefix whose prev has a list and whose rows hold
    at most BATCH_SIZE characters is one batch; any other is one per
    (n-1)-prefix of p below it."""
    n = len(bounds)
    if n < 2:
        return min(len(framed), 1)
    head, sep, _ = text
    room, listed, batches = kernels.BATCH_SIZE, {}, 0
    for start, group in groupby(zip(odometer(bounds), framed),
                                lambda row: row[0][:n - 2]):
        group = list(group)
        prev = start[-1] if start else 1
        # the prefix's values and the labels below its last value
        items = sorted(start + tuple(v for v in leaves if v < prev))
        prefix = head + sep.join(map(str, items)) if start else ""
        length = sum(len(row) for _, row in group)
        if listed.get(prev) is False:
            tails = length - len(group) * len(prefix)
            listed[prev] = tails <= room
            room -= tails if listed[prev] else 0
        elif prev not in listed:
            listed[prev] = False
        if listed[prev] and length <= kernels.BATCH_SIZE:
            batches += 1
        else:
            batches += len({p[:n - 1] for p, _ in group})
    return batches


@pytest.mark.parametrize("bounds", [[], [0], [3], [0, 3], [3, 2], [2, 5, 5]]
                         + [[m * (i + k - 1) - r for i in range(1, n + 1)]
                            for m, k, r in FAMILIES[:6] for n in range(2, 6)]
                         + [canonical_bounds(m, 6) for m in (1, 2)],
                         ids=str)
@pytest.mark.parametrize("leaves", [(), (2, 4), (5, 1, 3, 3)], ids=str)
def test_iter_bounded_text_batches(bounds, leaves):
    """Text rows come one string per (n-2)-prefix while its rows fit
    BATCH_SIZE, else one per (n-1)-prefix: joined in order, the strings are
    the framed rows, and each ends where a row ends."""
    rows = list(kernels.iter_bounded(bounds, leaves))
    for head, sep, tail in FRAMES:
        framed = [head + sep.join(map(str, row)) + tail for row in rows]
        batches = list(kernels.iter_bounded(bounds, leaves,
                                            (head, sep, tail)))
        assert "".join(batches) == "".join(framed)
        assert all(batch.endswith(tail) for batch in batches)
        # every batch boundary is a row boundary, so each holds whole rows
        assert (set(accumulate(map(len, batches)))
                <= set(accumulate(map(len, framed))))
        assert len(batches) == batch_count(bounds, leaves, (head, sep, tail),
                                           framed)


def test_iter_bounded_batch_of_exactly_batch_size(monkeypatch):
    """The rows under (2, 2), the second (n-2)-prefix to end at 2, are one
    batch when they hold exactly BATCH_SIZE characters; one character less
    splits them, one batch per (n-1)-prefix."""
    text = ("<", ",", ">")
    rows = "<2,2,2,2><2,2,2,3><2,2,3,3>"
    monkeypatch.setattr(kernels, "BATCH_SIZE", len(rows))
    assert rows in list(kernels.iter_bounded([2, 3, 3, 3], (), text))
    monkeypatch.setattr(kernels, "BATCH_SIZE", len(rows) - 1)
    batches = list(kernels.iter_bounded([2, 3, 3, 3], (), text))
    assert batches[-3:-1] == ["<2,2,2,2><2,2,2,3>", "<2,2,3,3>"]
    # the tails of 2 hold 15 characters, leaving exactly the 5 of 3's
    monkeypatch.setattr(kernels, "BATCH_SIZE", 20)
    walk = kernels.iter_bounded([2, 3, 3, 3], (), text)
    for _ in walk:
        kept = dict(walk.gi_frame.f_locals["tails"])
    assert (kept[1], kept[2][1], kept[3]) == (False, 15, ([",3,3>"], 5))


@pytest.mark.parametrize("size", [0, 2000, kernels.BATCH_SIZE, 1 << 60])
@pytest.mark.parametrize("bounds,leaves", [
    ([], ()), ([], (3, 1)), ([2], ()), ([3], (1, 2)), ([3, 2], ()),
    ([1, 4], (2, 3)), ([1, 4, 7], ()), ([1, 4, 7], (2, 3, 5, 6)),
    ([2, 5, 5], (5, 1, 3, 3)), ([1, 3, 5, 7], (5, 1, 3, 3)),
    ([3, 4, 6, 6], (2, 5)), ([1, 5, 9, 13], non_backbone_labels(4, 4)),
    ([1, 4, 7, 10, 13], non_backbone_labels(3, 5)),
    ([1, 31, 61], non_backbone_labels(30, 3))], ids=str)
def test_iter_bounded_tails_against_odometer(monkeypatch, bounds, leaves,
                                             size):
    """Tuple and text rows match the odometer at n = 0..5 whatever
    BATCH_SIZE is, at 0 in one batch per (n-1)-prefix; batches are counted
    as batch_count says, the lists of tails the walk keeps hold at most
    BATCH_SIZE in all, and no batch is longer than BATCH_SIZE or the
    longest batch of one (n-1)-prefix."""
    rows = [tuple(sorted(p + leaves)) for p in odometer(bounds)]
    text = ("<", ",", ">")
    framed = ["<" + ",".join(map(str, row)) + ">" for row in rows]
    monkeypatch.setattr(kernels, "BATCH_SIZE", 0)
    per_parent = list(map(len, kernels.iter_bounded(bounds, leaves, text)))
    assert len(per_parent) == kernels.count_for_bounds(
        kernels._caps(bounds)[:-1])
    monkeypatch.setattr(kernels, "BATCH_SIZE", size)
    assert list(kernels.iter_bounded(bounds, leaves)) == rows
    walk = kernels.iter_bounded(bounds, leaves, text)
    batches = []
    for batch in walk:
        batches.append(batch)
        kept = walk.gi_frame.f_locals.get("tails", {}).values()
        assert sum(sum(map(len, known[0])) for known in kept if known) <= size
    assert "".join(batches) == "".join(framed)
    assert len(batches) == batch_count(bounds, leaves, text, framed)
    assert max(map(len, batches)) <= max([size] + per_parent)


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
