"""Enumeration and counting kernels over nondecreasing bounded sequences.

``count_for_bounds`` is the one counter, and the walk has two forms: plain,
``iter_bounded``, behind every enumeration, and folded, ``fold_bounded``,
which also carries a caller's state along each row.  All run under the
suffix minima of the bounds, ``_caps``, as no entry can exceed a later
bound.  Both walkers go depth first with an explicit stack and build each
row as its parent prefix plus one precomputed piece from ``_pieces``, the
one piece rule; the plain walker yields the rows that differ only in the
last position as one batch per parent, and the folded one steps each
prefix's state once, for every row below it.  Each row may carry merge
labels, which the tree enumeration uses for its leaf labels: a piece is the
labels in [prev, v) followed by v, and a last-position piece also holds the
labels >= v, so every row is the sorted merge without a sort.  Pieces are
tuples, or, in the plain walk, text already joined by the caller's
separator and framed by its head and tail: a first-position piece starts
with the head, a last-position piece ends with the tail, so a text row
comes out whole and is never converted, joined or framed again.  In text,
a parent's batch is one string, its rows concatenated: the walker yields
strings that, joined in order, are the framed rows, each string holding
one or more whole rows, so a text caller writes what it reads.

The three histogram kernels -- luck, the four statistics (luck, freq of 1,
first window hit, first top hit), and (luck, freq of 1, ..., freq of m) --
never walk: they count the canonically bounded sequences (1, m+1, 2m+1, ...)
by an exact transfer-matrix DP over (last value, statistic state).  All
three run one transfer step, ``_extend``, with the same prefix sums as
``count_for_bounds``, once per position, and one pass yields every length:
``luck_histograms(m, n)`` and its two siblings yield the histograms of the
lengths 0..n in turn, and the single-length kernel is the pass's last one.
Plain enumeration with the statistics restated from their definitions is
their oracle in tests/test_kernels.py.

Callers validate their inputs: m >= 1 and n >= 0.
"""

from bisect import bisect_left
from itertools import accumulate, count, repeat

BACKEND = "pure"


def _pieces(prevs, cap, leaves, last, piece):
    """where[prev] = (pieces, offset) for prev in 1..prevs, where
    pieces[offset:] are the pieces for the next values v = prev..cap.

    A piece is piece(labels in [prev, v) + [v]), plus the labels >= v when
    v is the last position.  The prevs with no label between them share
    one list, so a walk without labels keeps one list per position.
    """
    where = [None]
    group = None
    for prev in range(1, prevs + 1):
        start = bisect_left(leaves, prev)
        if start != group:
            group, low, pieces = start, prev, []
            for v in range(prev, cap + 1):
                stop = bisect_left(leaves, v)
                pieces.append(piece(leaves[start:stop] + [v]
                                    + (leaves[stop:] if last else [])))
        where.append((pieces, prev - low))
    return where


def _caps(bounds):
    """The suffix minima of bounds, the largest value each position can
    hold in a nondecreasing sequence under them."""
    return list(accumulate(reversed(bounds), min))[::-1]


def count_for_bounds(bounds):
    """Exact number of nondecreasing p with 1 <= p[i] <= bounds[i], the
    rows of iter_bounded(bounds), by prefix sums in O(max cap) memory:
    ending[v-1] counts the prefixes that end at v, and the next position's
    are the running sums of ending padded with zeros up to its cap.
    """
    caps = _caps(bounds)
    if not caps:
        return 1
    if caps[0] < 1:
        return 0
    # the empty prefix ends at 1, the least first value
    ending = [1]
    for cap in caps[:-1]:
        ending = list(accumulate(ending + [0] * (cap - len(ending))))
    # the last position's counts are only summed
    return sum(accumulate(ending)) + (caps[-1] - len(ending)) * sum(ending)


def iter_bounded(bounds, leaves=(), text=None):
    """Yield every nondecreasing p with 1 <= p[i] <= bounds[i], merged with
    the labels in leaves.

    Rows come in strictly increasing lexicographic order of p.  A row is
    the tuple sorted(p + leaves), yielded one by one, or, given the triple
    text = (head, sep, tail), the string head + sep.join(map(str,
    sorted(p + leaves))) + tail.  Text rows come in batches: each yielded
    string is one or more whole rows concatenated, here the rows under one
    (n-1)-prefix, so the strings joined in order are the framed rows.  The
    empty bound list yields the row of the labels alone once.

    The walk runs under the caps, so every prefix it visits completes.  Its
    piece tables keep, per position, one list for each run of previous
    values with no label between them: at most len(bounds) * max(bounds)
    pieces when leaves is empty.
    """
    leaves = sorted(leaves)
    if text is None:
        def frame(first, last):
            return tuple
    else:
        head, sep, tail = text

        # the first position's pieces open the row, the last's close it
        def frame(first, last):
            before, after = head if first else sep, tail if last else ""
            return lambda items: before + sep.join(map(str, items)) + after
    n = len(bounds)
    if n == 0:
        yield frame(True, True)(leaves)
        return
    caps = _caps(bounds)
    top = n - 1
    tables = [_pieces(caps[d - 1] if d else 1, cap, leaves, d == top,
                      frame(d == 0, d == top))
              for d, cap in enumerate(caps)]
    pieces, _ = tables[0][1]
    if top == 0:
        if text is None:
            yield from pieces
        elif pieces:
            yield "".join(pieces)
        return
    # stack[d] yields the (prefix, last value) pairs still to visit at depth
    # d + 1; a pushed level runs to its end before its parent resumes
    stack = [zip(pieces, count(1))]
    while stack:
        depth = len(stack)
        where = tables[depth]
        for prefix, prev in stack[-1]:
            pieces, offset = where[prev]
            if depth == top:
                if text is None:
                    yield from map(prefix.__add__, pieces[offset:])
                else:
                    # the pieces run from prev to a cap >= prev, so at
                    # least one, and prefix before each is the batch
                    yield prefix + prefix.join(pieces[offset:])
            else:
                stack.append(zip(map(prefix.__add__, pieces[offset:]),
                                 count(prev)))
                break
        else:
            stack.pop()


def fold_bounded(bounds, leaves, step, start):
    """Yield (row, state) for every tuple row of iter_bounded(bounds, leaves),
    in its order, where state folds step over the row's positions: start
    before the first, then step(state, v, piece) after each value v, whose
    piece is the tuple of labels that the row adds with v (see
    ``_pieces``).  A state is computed once per prefix and shared by every
    row below it, so step must not mutate it.  The empty bound list yields
    the labels alone once, with state start.
    """
    leaves = sorted(leaves)
    n = len(bounds)
    if n == 0:
        yield tuple(leaves), start
        return
    caps = _caps(bounds)
    top = n - 1
    tables = [_pieces(caps[d - 1] if d else 1, cap, leaves, d == top, tuple)
              for d, cap in enumerate(caps)]
    # stack[d] yields the (prefix, state, last value) triples still to visit
    # at depth d, from the empty prefix, whose next value starts at 1
    stack = [iter([((), start, 1)])]
    while stack:
        depth = len(stack) - 1
        where = tables[depth]
        for prefix, state, prev in stack[-1]:
            pieces, offset = where[prev]
            pieces = pieces[offset:]
            rows = map(prefix.__add__, pieces)
            states = map(step, repeat(state), count(prev), pieces)
            if depth == top:
                yield from zip(rows, states)
            else:
                stack.append(zip(rows, states, count(prev)))
                break
        else:
            stack.pop()


def _extend(rows, k, m, moves):
    """Append 1-based position k to every prefix counted in rows.

    rows maps a statistic state to the counts of prefixes in that state,
    indexed by last value (index 0 unused, no all-zero row).  Position k has
    bound hi = m(k-1)+1, and every value past the previous bound lies in the
    window [m(k-2)+2, hi] of the fixed points.  moves(state, k) gives the
    states after a next value of 1, 2, ..., s (a tuple of s <= m states, one
    per value the statistic tells apart), of any other value up to the
    previous bound, inside the window below hi, and of hi itself.
    """
    hi = m * (k - 1) + 1
    out = {}

    def row(state):
        counts = out.get(state)
        if counts is None:
            counts = out[state] = [0] * (hi + 1)
        return counts

    for state, counts in rows.items():
        low, below, window, top = moves(state, k)
        size = len(counts)
        run = 0
        for v, after in enumerate(low, start=1):
            if v < size:
                run += counts[v]
            if run:
                row(after)[v] += run
        start = len(low) + 1
        if size > start:
            same = row(below)
            for v in range(start, size):
                run += counts[v]
                same[v] += run
        start = max(start, size)
        if start < hi:
            inside = row(window)
            for v in range(start, hi):
                inside[v] += run
        row(top)[hi] += run
    return out


def _run(m, n, start, moves):
    """Yield the counts of the sequences of each length 1..n by final
    state, from the one-entry prefix (1) in state start: one _extend per
    length, run when the next length is asked for."""
    rows = {start: [0, 1]}
    for k in range(1, n + 1):
        if k > 1:
            rows = _extend(rows, k, m, moves)
        yield {state: sum(counts) for state, counts in rows.items()}


def _last(lengths):
    """The last item of a pass, which holds one length at a time."""
    for last in lengths:
        pass
    return last


def _luck_moves(luck, k):
    return (luck,), luck, luck, luck + 1


def _quad_moves(state, k):
    luck, ones, first_win, first_top = state
    hit = first_win or k
    return (((luck, ones + 1, first_win, first_top),), state,
            (luck, ones, hit, first_top), (luck + 1, ones, hit, first_top or k))


def _multi_moves(state, k):
    return (tuple(state[:j] + (state[j] + 1,) + state[j + 1:]
                  for j in range(1, len(state))),
            state, state, (state[0] + 1,) + state[1:])


def luck_histograms(m, n):
    """Yield luck_histogram(m, j) for j = 0..n, from one DP pass."""
    yield [1]
    # position 1 holds 1, its bound, so it is lucky
    for j, counts in enumerate(_run(m, n, 1, _luck_moves), start=1):
        hist = [0] * (j + 1)
        for luck, count in counts.items():
            hist[luck] = count
        yield hist


def luck_histogram(m, n):
    """Histogram of the luck statistic over all length-n sequences bounded by
    (1, m+1, 2m+1, ...).

    Position i (1-based) is lucky when its value equals m*(i-1)+1, which for
    this bound family is exactly the positional bound.  Returns a list of
    length n+1 with hist[k] = number of sequences having k lucky positions.
    """
    return _last(luck_histograms(m, n))


def stat_quad_histograms(m, n):
    """Yield stat_quad_histogram(m, j) for j = 0..n, from one DP pass."""
    yield {}
    for absent, counts in enumerate(_run(m, n, (1, 1, 0, 0), _quad_moves),
                                    start=2):
        # 0 marks a hit not seen yet
        yield {(luck, ones, first_win or absent, first_top or absent): count
               for (luck, ones, first_win, first_top), count in counts.items()}


def stat_quad_histogram(m, n):
    """Joint histogram of (luck, freq of 1, first window hit, first top hit).

    Runs over the same bounded sequences as luck_histogram.  The third
    statistic is the first position k > 1 whose value lands in
    [m(k-2)+2, m(k-1)+1]; the fourth is the first k > 1 hitting the window
    top m(k-1)+1 exactly.  Missing hits are encoded as n+1.  Returns a dict
    keyed by the 4-tuple of statistic values.
    """
    return _last(stat_quad_histograms(m, n))


def multi_stat_histograms(m, n):
    """Yield multi_stat_histogram(m, j) for j = 0..n, from one DP pass."""
    yield {(0,) * (m + 1): 1}
    yield from _run(m, n, (1, 1) + (0,) * (m - 1), _multi_moves)


def multi_stat_histogram(m, n):
    """Joint histogram of (luck, freq of 1, freq of 2, ..., freq of m).

    Runs over the same bounded sequences as luck_histogram and returns a
    dict keyed by the (m+1)-tuple of statistic values; the empty sequence
    has the all-zero tuple.
    """
    return _last(multi_stat_histograms(m, n))
