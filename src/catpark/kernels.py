"""Counting kernels over nondecreasing bounded sequences.

``iter_bounded`` walks every sequence under a bound list.  The three
histogram kernels -- luck, the four statistics (luck, freq of 1, first
window hit, first top hit), and (luck, freq of 1, ..., freq of m) -- never
walk: they count the canonically bounded sequences (1, m+1, 2m+1, ...) by
an exact transfer-matrix DP over (last value, statistic state).  All three
run one transfer step, ``_extend``, with the same prefix sums as
``sequences.count_for_bounds``.  Plain enumeration with the statistics
restated from their definitions is their oracle in tests/test_kernels.py.

Callers validate their inputs: m >= 1 and n >= 0.
"""

BACKEND = "pure"


def iter_bounded(bounds):
    """Yield every nondecreasing tuple p with 1 <= p[i] <= bounds[i].

    Output is in strictly increasing lexicographic order.  The empty bound
    list yields the empty tuple once.
    """
    n = len(bounds)
    if n == 0:
        yield ()
        return
    if min(bounds) < 1:
        return
    p = [1] * n
    while True:
        yield tuple(p)
        j = n - 1
        while j >= 0 and p[j] >= bounds[j]:
            j -= 1
        if j < 0:
            return
        v = p[j] + 1
        for k in range(j, n):
            p[k] = v


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
    """Count the length-n sequences by final state, from the one-entry
    prefix (1) in state start; n >= 1."""
    rows = {start: [0, 1]}
    for k in range(2, n + 1):
        rows = _extend(rows, k, m, moves)
    return {state: sum(counts) for state, counts in rows.items()}


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


def luck_histogram(m, n):
    """Histogram of the luck statistic over all length-n sequences bounded by
    (1, m+1, 2m+1, ...).

    Position i (1-based) is lucky when its value equals m*(i-1)+1, which for
    this bound family is exactly the positional bound.  Returns a list of
    length n+1 with hist[k] = number of sequences having k lucky positions.
    """
    hist = [0] * (n + 1)
    if n == 0:
        hist[0] = 1
        return hist
    # position 1 holds 1, its bound, so it is lucky
    for luck, count in _run(m, n, 1, _luck_moves).items():
        hist[luck] = count
    return hist


def stat_quad_histogram(m, n):
    """Joint histogram of (luck, freq of 1, first window hit, first top hit).

    Runs over the same bounded sequences as luck_histogram.  The third
    statistic is the first position k > 1 whose value lands in
    [m(k-2)+2, m(k-1)+1]; the fourth is the first k > 1 hitting the window
    top m(k-1)+1 exactly.  Missing hits are encoded as n+1.  Returns a dict
    keyed by the 4-tuple of statistic values.
    """
    if n == 0:
        return {}
    absent = n + 1
    # 0 marks a hit not seen yet
    return {(luck, ones, first_win or absent, first_top or absent): count
            for (luck, ones, first_win, first_top), count
            in _run(m, n, (1, 1, 0, 0), _quad_moves).items()}


def multi_stat_histogram(m, n):
    """Joint histogram of (luck, freq of 1, freq of 2, ..., freq of m).

    Runs over the same bounded sequences as luck_histogram and returns a
    dict keyed by the (m+1)-tuple of statistic values; the empty sequence
    has the all-zero tuple.
    """
    if n == 0:
        return {(0,) * (m + 1): 1}
    return _run(m, n, (1, 1) + (0,) * (m - 1), _multi_moves)
