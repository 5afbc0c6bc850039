"""Aggregated verification of every identity the package implements.

Each named check produces report entries with status "pass", "fail", or
"erratum".  An erratum entry records a published formula that demonstrably
disagrees with enumeration while the corrected variant passes; errata are
expected and do not fail the run.  The overall run fails (exit code 1 from
the CLI) only when a corrected-form identity breaks or an expected erratum
stops reproducing.

Every entry is made by ``_report``, which times one callable returning
(status, counterexample); an entry's millis covers that call alone, and a
callable that raises makes a fail entry naming the exception, unless it
ran out of memory, recursion depth or machine-sized integers, which
propagates to the caller (the CLI exits 3).
``_verdict`` turns an engine IdentityCheck into that pair.

``SCOPES`` declares each scope once, as a ``Scope`` row: the option it
reads (order or max_n; none for the errata); its default per m, whose keys
are the m it runs at without --m and, for a strict scope, the only m it
accepts; whether it walks every canonically bounded sequence, which puts
it under the cap guard; and its entries, (settings, --m) -> [(identity,
params, fn)].  ``_settings`` resolves a row into [{"m": m, option: value}]:
--m alone or every key, and the explicit option value (0 included) or the
m's default; an m outside the table gets the scope's smallest default.
``_run`` reports each entry except one whose params name an m other than
--m, so the errata and ``tensor-table`` run without --m or at --m 2 only.
A row's cost predicts its time from its settings, in microseconds as
measured at the defaults: a walking row's is its weight per sequence times
the sequences it walks, and any other row's its weight per m.  Only the
ratios matter; ``_split`` reads them.

A run of two or more scopes, where two or more CPUs are usable, runs in two
processes: this one and one child made with os.fork, each with its lane of
scopes (``_split``, before the fork, so the split repeats).  The report's
order and content do not change, and each entry's millis is timed in the
process that ran it; see ``_Lanes``.
"""

import marshal
import os
import select
import signal
import threading
import time
from collections import deque, namedtuple
from functools import cache, partial
from itertools import combinations_with_replacement
from operator import itemgetter, le

from catpark.caterpillar import (
    _park_cars,
    _theta_inv,
    build_caterpillar,
    enumerate_caterpillar_pk,
    from_lattice_path,
    is_tree_pk,
    non_backbone_labels,
    to_lattice_path,
)
from catpark.decomposition import (
    _RETURN_START,
    _eta,
    _eta_inv,
    _luck,
    _return_blocks,
    _return_step,
    _tau,
    u_omega,
)
from catpark.engine import (
    gamma_polys_brute,
    h_decompose,
    joint_count_tensor,
    r_polys_brute,
    verify_convolution_identity,
    verify_functional_equation,
    verify_gamma_series,
    verify_multi_stat_product,
    verify_r_series,
    verify_tensor_symmetries,
    verify_thm_rec,
)
from catpark.errors import RESOURCE_ERRORS, LaneError
from catpark.kernels import fold_bounded
from catpark.sequences import (
    DEFAULT_MAX_OBJECTS,
    _require_under_cap,
    canonical_family,
    count_for_bounds,
    count_u_pk,
    enumerate_u_pk,
    fuss_catalan,
    is_u_pk,
)

# expected h-basis coefficient vectors (degree n-1 down to 0) for n = 1..4
GAMMA_H_VECTORS = {
    2: [(1,), (1, 1), (1, 3, 3), (1, 5, 12, 12)],
    3: [(1,), (1, 2), (1, 5, 9), (1, 8, 30, 52)],
    4: [(1,), (1, 3), (1, 7, 18), (1, 11, 56, 136)],
}
# (m, n) trees checked over every multiset of labels, and by enumeration
PARKING_SMALL = ((1, 4), (2, 3), (2, 4), (3, 2), (3, 3))
PARKING_LARGER = ((2, 5), (3, 4))


class ReportEntry:
    def __init__(self, identity, status, params, counterexample=None,
                 millis=0):
        self.identity = identity
        self.status = status  # pass | fail | erratum
        self.params = params
        self.counterexample = counterexample
        self.millis = millis

    def to_dict(self):
        out = {
            "identity": self.identity,
            "status": self.status,
            "params": self.params,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        out["millis"] = self.millis
        return out


class VerificationReport:
    def __init__(self, entries=None):
        self.entries = [] if entries is None else entries

    @property
    def ok(self):
        return all(e.status != "fail" for e in self.entries)

    @property
    def exit_code(self):
        """The exit status of ``catpark verify``: 1 when a check fails."""
        return 0 if self.ok else 1

    def to_dict(self):
        return {"ok": self.ok, "checks": [e.to_dict() for e in self.entries]}


# one row of SCOPES; see the module docstring
Scope = namedtuple("Scope", "option defaults entries cost strict walks",
                   defaults=(False, False))


def _walked(weight):
    """The cost of a walking row: weight per sequence it walks."""
    return lambda settings: weight * sum(
        fuss_catalan(params["m"], n)
        for params in settings for n in range(params["max_n"] + 1))


def _per_m(weight):
    """The cost of any other row: weight per m it runs."""
    return lambda settings: weight * len(settings)


def _report(entries, identity, params, fn):
    """Time fn, which returns (status, counterexample), and append its entry.
    Every report entry's millis comes from here.  An exception from fn makes
    a fail entry whose counterexample names its type and message, except an
    exhausted resource (errors.RESOURCE_ERRORS), which is no verdict and
    propagates."""
    start = time.perf_counter()
    try:
        status, counterexample = fn()
    except RESOURCE_ERRORS:
        raise
    except Exception as exc:
        status, counterexample = "fail", {"exception": type(exc).__name__,
                                          "message": str(exc)}
    millis = int((time.perf_counter() - start) * 1000)
    entries.append(ReportEntry(identity, status, params, counterexample, millis))


def _verdict(check):
    """An engine IdentityCheck as (status, counterexample)."""
    return ("pass" if check.ok else "fail",
            check.mismatches[0] if check.mismatches else None)


def _settings(row, opts):
    """[{"m": m, option: value}] for row; see the module docstring."""
    m, value = opts.get("m"), opts.get(row.option)
    fallback = min(row.defaults.values())
    return [{"m": k, row.option: (row.defaults.get(k, fallback)
                                  if value is None else value)}
            for k in (row.defaults if m is None else (m,))]


def _each_m(identity, body):
    """The entries of a scope that reports identity under each m's
    settings, running body(m, option=value)."""
    return lambda settings, m: [(identity, params, partial(body, **params))
                                for params in settings]


# -- individual checks -----------------------------------------------------


def check_counting(m, max_n):
    for n in range(max_n + 1):
        fam = canonical_family(m)
        dp = count_u_pk(n, fam)
        fc = fuss_catalan(m, n)
        walked = sum(1 for _ in enumerate_u_pk(n, fam))
        if not dp == fc == walked:
            return "fail", {"m": m, "n": n, "dp": dp, "closed": fc,
                            "enumerated": walked}
    return "pass", None


def check_funceq(m, order):
    return _verdict(verify_functional_equation(m, order))


def check_hseries(m, order):
    for k in (1, 2, 3):
        for r in range(m):
            check = verify_thm_rec(m, k, r, order)
            if not check.ok:
                return "fail", {"k": k, "r": r, "first": check.mismatches[0]}
    return "pass", None


def check_recurrence(m, max_n):
    """The two convolution recurrences satisfied by the (m,k,r) counts;
    each count is made once."""
    @cache
    def h(k, r, n):
        return count_for_bounds([m * (i + k - 1) - r for i in range(1, n + 1)])

    for k in (1, 2, 3):
        for r in range(m):
            for n in range(max_n + 1):
                lhs = h(k, r, n)
                if r < m - 1:
                    rhs = sum(h(k, r + 1, j) * h(1, m - 1, n - j)
                              for j in range(n + 1))
                else:
                    rhs = sum(h(k - 1, 0, j) * h(1, m - 1, n - j)
                              for j in range(n + 1))
                if lhs != rhs:
                    return "fail", {"k": k, "r": r, "n": n,
                                    "lhs": lhs, "rhs": rhs}
    return "pass", None


def check_involution(m, max_n):
    """One tau table per m: the walk runs by increasing length, so every
    component of p is already in it and each tau is one pass of _tau's
    loop.  The walk folds _return_step along each p, which hands p's
    blocks to _tau and gives p's luck and multiplicity of 1, so no p is
    cut, bound-checked or counted again: each visit is one assembly.

    Each orbit {p, q = tau(p)} is checked at its later member.  A p with
    q > p waits in pending under q, with its luck and ones, and a q that
    another sequence already claimed fails.  The walk reaching q shows that
    q is in bounds, and q's own image must be p, with luck and ones swapped.
    A fixed point must have luck equal to ones.  A q < p that is not
    pending fails, and so does a q still pending when its length is done,
    which the walk never reached; only these two fail paths run is_u_pk,
    to tell an image out of bounds.  Below max_n the table keeps each p's
    image; images of the top length are never stored, which keeps the
    table small.
    """
    fam = canonical_family(m)
    step = partial(_return_step, m)

    def unmatched(n, p, q):  # p's image q, whose orbit the walk never closed
        if is_u_pk(q, fam):
            return "fail", {"n": n, "p": p, "tau": q}
        return "fail", {"n": n, "p": p, "tau": q, "reason": "bounds"}

    images = {(): ()}
    for n in range(max_n + 1):
        pending = {}
        for p, state in fold_bounded(fam.bounds(n), (), step, _RETURN_START):
            q = _tau(p, m, images, _return_blocks(state, m))
            luck, ones = state[1], state[2]
            claim = pending.pop(p, None)
            if claim is not None:
                earlier, its_luck, its_ones = claim
                if q != earlier:
                    return "fail", {"n": n, "p": earlier, "tau": p}
                if luck != its_ones or ones != its_luck:
                    return "fail", {"n": n, "p": earlier, "tau": p,
                                    "reason": "statistic exchange"}
            elif q > p:
                if q in pending:
                    return "fail", {"n": n, "p": p, "tau": q,
                                    "reason": "not injective"}
                pending[q] = p, luck, ones
            elif q < p:
                return unmatched(n, p, q)
            elif luck != ones:
                return "fail", {"n": n, "p": p, "tau": q,
                                "reason": "statistic exchange"}
            if n < max_n:
                images[p] = q
        if pending:
            q = min(pending)
            return unmatched(n, pending[q][0], q)
    return "pass", None


def check_gamma(m, order):
    return _verdict(verify_gamma_series(m, order))


def check_qluck(m, order):
    return _verdict(verify_r_series(m, order))


def _hbasis(settings, m):
    # GAMMA_H_VECTORS holds data for n = 1..4 only; the report says so
    return _each_m("h-basis-decomposition", check_hbasis)(
        [{**params, "max_n": min(params["max_n"], 4)} for params in settings], m)


def check_hbasis(m, max_n):
    fam_counts = [count_for_bounds(
        [m * i - 1 for i in range(1, r + 1)]) for r in range(max_n + 1)]
    # one pass of each kernel, read a length at a time: the luck
    # histograms C_(j, k) of the lengths j < n, and gamma_n
    lucks = r_polys_brute(m, max_n)
    gammas = gamma_polys_brute(m, max_n)
    next(gammas)  # gamma_0 = 1
    hists = []
    for n in range(1, max_n + 1):
        hists.append({k: c for (k,), c in next(lucks).items()})
        flat = next(gammas).substitute({"u": 1, "v": 1})
        coeffs = h_decompose(flat)
        degrees = sorted(coeffs, reverse=True)
        vector = tuple(coeffs[d] for d in degrees)
        if vector != GAMMA_H_VECTORS[m][n - 1]:
            return "fail", {"n": n, "vector": vector,
                            "expected": GAMMA_H_VECTORS[m][n - 1]}
        # cross-check: c_k = sum_r h_(r,1,1) * C_(n-r-1, k)
        for k, c in coeffs.items():
            other = sum(fam_counts[r] * hists[n - r - 1].get(k, 0)
                        for r in range(n))
            if other != c:
                return "fail", {"n": n, "degree": k, "coeff": c,
                                "convolution": other}
    return "pass", None


def check_eta(m, max_n):
    """The walk folds _return_step along each p, which gives p's blocks,
    for eta's core and the block relations, and p's luck and multiplicity
    of 1, so p is never cut; each image gets one is_u_pk bound check before
    it goes into _eta_inv.  _eta_inv giving back every p makes eta
    injective, so the images number the walked p, and eta is onto exactly
    when those number count_u_pk.

    Besides the bijection, each p is checked against the criterion behind
    the paper's m-statistic extension: a statistic is its value on one
    first-return block plus a constant.  luck is 1 + luck of the last block
    and the multiplicity of 1 is 1 + that of the first; their exchange,
    which makes them equidistributed, is luck-ones-involution's check.
    """
    fam = canonical_family(m)
    step = partial(_return_step, m)
    for n in range(1, max_n + 1):
        walked = 0
        for p, state in fold_bounded(fam.bounds(n), (), step, _RETURN_START):
            comps = _return_blocks(state, m)
            image = _eta(comps, m)
            if not is_u_pk(image, fam):
                return "fail", {"n": n, "p": p, "eta": image, "reason": "bounds"}
            if _eta_inv(image, m) != p:
                return "fail", {"n": n, "p": p, "eta": image}
            walked += 1
            luck, ones = state[1], state[2]
            if luck != 1 + _luck(comps[m], m):
                return "fail", {"n": n, "p": p, "reason": "luck of last block"}
            if ones != 1 + u_omega(comps[0], 1):
                return "fail", {"n": n, "p": p,
                                "reason": "omega_1 of first block"}
            if u_omega(image, 1) != 1 + u_omega(comps[0], 1):
                return "fail", {"n": n, "p": p, "reason": "omega_1"}
            for j in range(2, m + 2):
                if u_omega(image, j) != u_omega(comps[j - 1], 1):
                    return "fail", {"n": n, "p": p, "reason": f"omega_{j}"}
        if walked != count_u_pk(n, fam):
            return "fail", {"n": n, "reason": "not surjective"}
    return "pass", None


def _sorted_tree_pk(tree):
    """is_tree_pk for sorted images on tree, as a test built once per tree.

    One ascending pass over the parent links sizes every subtree and raises
    ValueError unless each parent label exceeds its child's and every
    subtree is one node or the labels 1..L of its root L, as on a
    caterpillar.  A sorted image holds at least L entries up to L exactly
    when its entry L is at most L, so the test takes an image with one entry
    per node, each in 1..node_count, whose entry L is at most L for every
    such prefix and which holds every other one-node subtree's label."""
    top = tree.node_count
    sizes = [1] * (top + 1)
    prefixes, leaves = [], set()
    # ascending labels = children before parents, once each parent check holds
    for label in range(1, top + 1):
        size = sizes[label]
        if size == label:
            prefixes.append(label)
        elif size == 1:
            leaves.add(label)
        else:
            raise ValueError(f"the subtree of {label} is neither one node "
                             f"nor the labels 1..{label}")
        up = tree.parent[label]
        if up:
            if up <= label:
                raise ValueError(f"parent {up} of {label} is not above it")
            sizes[up] += size
    # the prefixes' entries, and the last one, at most node_count: the rest
    # of the test implies that bound, but the second index keeps at's result
    # a tuple on the one-node tree, whose only prefix is 1
    at = itemgetter(*[label - 1 for label in prefixes], -1)
    bounds = (*prefixes, top)
    return lambda image: (len(image) == top and image[0] > 0
                          and all(map(le, at(image), bounds))
                          and leaves.issubset(image))


def _theta_fold(tree, rows):
    """(step, start) of check_theta's fold, for kernels.fold_bounded, over
    rows positions of p on tree; see _theta_step.  Its parking runs live in
    this fold alone."""
    zeros = (0,) * tree.m
    start = ((), (0, 0, True), zeros, 0, zeros)
    return partial(_theta_step, tree, rows, {}), start


def _theta_step(tree, rows, runs, state, v, piece):
    """check_theta's fold step: append v to p, park the cars of its piece in
    order with _park_cars, and count.

    state is (p, _park_cars's state, the image's counts of the labels 1..m,
    p's luck, p's counts of the values 1..m).  The piece is fold_bounded's
    for v after prev = p's last value (1 before position 1), fixed by (prev,
    v) and whether v is the last position, and every car in it prefers a
    label at least prev.  _park_cars reads no taken node below a car's
    preference, so the piece's run depends only on the taken nodes from
    prev on: runs keeps it, from those nodes and no luck, under (taken nodes
    >> prev, prev, v, last), and the step puts back the nodes below prev and
    adds the luck.

    A piece starting above m holds no label up to m, as the image is sorted;
    v at position k is lucky when it is m(k-1)+1.
    """
    p, (occupied, run_luck, parked), counts, luck, p_counts = state
    m = tree.m
    k = len(p)
    prev = p[-1] if p else 1
    key = occupied >> prev, prev, v, k + 1 == rows
    run = runs.get(key)
    if run is None:
        run = runs[key] = _park_cars(tree, (key[0] << prev, 0, True), piece)
    high, more_luck, all_parked = run
    parking = (occupied & ((1 << prev) - 1) | high, run_luck + more_luck,
               parked and all_parked)
    if piece[0] <= m:
        counts = list(counts)
        for label in piece:
            if label > m:
                break
            counts[label - 1] += 1
        counts = tuple(counts)
    if v <= m:
        p_counts = p_counts[:v - 1] + (p_counts[v - 1] + 1,) + p_counts[v:]
    luck += v == m * k + 1
    return p + (v,), parking, counts, luck, p_counts


def check_theta(m, max_n):
    """The walk merges the leaf labels into each p, so its row is theta(p),
    and it folds _theta_step along the way: each image comes with p, its
    parking run, its counts of the labels 1..m, and p's luck and counts of
    the values 1..m, every prefix stepped once.  Per image, _sorted_tree_pk's
    test, built once per tree, and the parking run's all-parked flag each
    state that it is a distribution, so is_tree_pk runs in check_parking
    only; _theta_inv must give back p; the run's luck must equal p's, and
    the image's counts p's plus one leaf for 2..m.
    """
    fam = canonical_family(m)
    for n in range(1, max_n + 1):
        tree = build_caterpillar(m, n)
        leaves = non_backbone_labels(m, n)
        leaf = 1 if n >= 2 else 0  # the one-node tree has no leaves
        parks = _sorted_tree_pk(tree)
        step, start = _theta_fold(tree, n)
        total = 0
        walk = fold_bounded(fam.bounds(n), leaves, step, start)
        for image, (p, (_, luck, parked), counts, p_luck, p_counts) in walk:
            total += 1
            if not (parks(image) and parked):
                return "fail", {"n": n, "p": p, "image": image,
                                "reason": "image not a distribution"}
            if _theta_inv(image, leaves) != p:
                return "fail", {"n": n, "p": p, "image": image,
                                "reason": "roundtrip"}
            if luck != p_luck:
                return "fail", {"n": n, "p": p, "reason": "luck transport"}
            if counts[0] != p_counts[0]:
                return "fail", {"n": n, "p": p, "reason": "omega_1 transport"}
            for j in range(2, m + 1):
                if counts[j - 1] != p_counts[j - 1] + leaf:
                    return "fail", {"n": n, "p": p,
                                    "reason": f"omega_{j} transport"}
        if total != fuss_catalan(m, n):
            return "fail", {"n": n, "reason": "count"}
    return "pass", None


def _parking(settings, m):
    """One entry over the (m, n) shapes whose n is at most their m's max_n."""
    bound = {params["m"]: params["max_n"] for params in settings}
    small, larger = ([(k, n) for k, n in shapes if n <= bound.get(k, -1)]
                     for shapes in (PARKING_SMALL, PARKING_LARGER))
    return [("condition-vs-process", {"small": small, "enumerated": larger},
             partial(check_parking, small, larger))]


def check_parking(small, larger):
    """Subtree condition coincides with the parking process succeeding:
    is_tree_pk reads parent links, and one _park_cars run per candidate the
    backbone mask alone."""
    for m, n in small:
        tree = build_caterpillar(m, n)
        size = tree.node_count
        for cand in combinations_with_replacement(range(1, size + 1), size):
            cond = is_tree_pk(tree, cand)
            parked = _park_cars(tree, (0, 0, True), cand)[2]
            if cond != parked:
                return "fail", {"m": m, "n": n, "seq": cand,
                                "condition": cond, "parked": parked}
    for m, n in larger:
        tree = build_caterpillar(m, n)
        for seq in enumerate_caterpillar_pk(m, n):
            if not (is_tree_pk(tree, seq)
                    and _park_cars(tree, (0, 0, True), seq)[2]):
                return "fail", {"m": m, "n": n, "seq": seq}
    return "pass", None


def _lattice(settings, m):
    """One entry over every m; its params name the m only under --m."""
    params = settings[0] if m is not None else {"max_n": settings[0]["max_n"]}
    return [("lattice-codec", params, partial(check_lattice, settings))]


def check_lattice(settings):
    for params in settings:
        m = params["m"]
        fam = canonical_family(m)
        for n in range(params["max_n"] + 1):
            for p in enumerate_u_pk(n, fam):
                word = to_lattice_path(p, m)
                x = y = 0
                for ch in word:
                    if ch == "N":
                        if x > m * y:
                            return "fail", {"m": m, "p": p,
                                            "reason": "constraint"}
                        y += 1
                    else:
                        x += 1
                if from_lattice_path(word, m) != p:
                    return "fail", {"m": m, "p": p, "word": word}
    return "pass", None


def _multistat(settings, m):
    for params in settings:
        yield "multi-stat-product", params, partial(check_multistat, **params)
        if params["m"] >= 2 and params["order"] >= 1:
            # the gap sits in the x^1 coefficient
            yield ("multi-stat-product-order1", {"m": params["m"], "order": 1},
                   partial(_order_one_gap, params["m"]))


def check_multistat(m, order):
    return _verdict(verify_multi_stat_product(m, order))


def _order_one_gap(m):
    gap = verify_multi_stat_product(m, 1).params["order_one_gap"]
    # expected: enumerated q0*q1 vs the product's full q0*...*qm
    expected_rhs = "*".join(f"q{i}" for i in range(m + 1))
    return ("erratum" if gap == ("q0*q1", expected_rhs) else "fail",
            {"enumerated": gap[0] if gap else None,
             "stated": gap[1] if gap else None})


def _tensor(settings, m):
    return [("tensor-table", {"m": 2, "n": 4}, check_tensor_table),
            *_each_m("tensor-symmetry", check_tensor_symmetry)(settings, m)]


def check_tensor_table():
    tensor = joint_count_tensor(2, 4)
    spot = {(1, 1, 2): 7, (2, 1, 1): 7, (1, 1, 4): 1, (3, 1, 1): 4,
            (1, 1, 1): 0, (2, 2, 2): 1}
    for key, want in spot.items():
        if tensor.count(key) != want:
            return "fail", {"entry": key, "got": tensor.count(key),
                            "want": want}
    if tensor.total() != fuss_catalan(2, 4):
        return "fail", {"reason": "total"}
    return "pass", None


def check_tensor_symmetry(m, max_n):
    for check in verify_tensor_symmetries(m, max_n):
        if not check.ok:
            return "fail", {"n": check.params["n"],
                            "first": check.mismatches[0]}
    return "pass", None


def _convolution(settings, m):
    for params in settings:
        k, n_max = params["m"], params["max_n"]
        yield ("luck-convolution", {"m": k, "n_max": n_max, "t_max": k + 1},
               partial(check_convolution, k, n_max))


def check_convolution(m, n_max):
    return _verdict(verify_convolution_identity(m, n_max))


def _errata(settings, m):
    """The printed m=2 claims; each name is read when its check runs."""
    return [("stated-count-erratum", {"m": 2, "n": 3}, check_stated_count),
            ("q-luck-exponent-erratum", {"m": 2},
             lambda: _literal_erratum(verify_r_series, 4)),
            ("joint-series-arguments-erratum", {"m": 2},
             lambda: _literal_erratum(verify_gamma_series, 2))]


def check_stated_count():
    enumerated = sum(1 for _ in enumerate_u_pk(3, canonical_family(2)))
    # the printed path-count claim: index n-1 at regularity m+1
    stated = fuss_catalan(2 + 1, 3 - 1)
    if enumerated == 12 and stated == 4:
        return "erratum", {"enumerated": enumerated, "stated": stated}
    return "fail", {"enumerated": enumerated, "stated": stated}


def _literal_erratum(verify, order):
    """A printed m=2 series: its literal form first disagrees with
    enumeration at n = 2, while the corrected form passes."""
    literal = verify(2, order, literal=True)
    corrected = verify(2, order)
    if corrected.ok and not literal.ok and literal.mismatches[0][0] == 2:
        idx, brute, stated = literal.mismatches[0]
        return "erratum", {"n": idx, "enumerated": brute, "stated": stated}
    return "fail", {"literal_ok": literal.ok, "corrected_ok": corrected.ok}


# scope -> its row, in report order; see the module docstring
SCOPES = {
    "counting": Scope("max_n", dict.fromkeys((1, 2, 3, 4), 6),
                      _each_m("counting", check_counting), _walked(0.26),
                      walks=True),
    "funceq": Scope("order", dict.fromkeys((1, 2, 3, 4), 12),
                    _each_m("functional-equation", check_funceq), _per_m(290)),
    "hseries": Scope("order", {2: 6, 3: 6},
                     _each_m("count-series-power", check_hseries),
                     _per_m(1240)),
    "recurrence": Scope("max_n", dict.fromkeys((1, 2, 3), 7),
                        _each_m("count-recurrence", check_recurrence),
                        _per_m(450)),
    "involution": Scope("max_n", dict.fromkeys((1, 2, 3), 6),
                        _each_m("luck-ones-involution", check_involution),
                        _walked(3.9), walks=True),
    "gamma": Scope("order", {2: 5, 3: 4}, _each_m("joint-series", check_gamma),
                   _per_m(790)),
    "qluck": Scope("order", dict.fromkeys((1, 2, 3), 6),
                   _each_m("q-luck-series", check_qluck), _per_m(270)),
    "hbasis": Scope("max_n", dict.fromkeys(GAMMA_H_VECTORS, 4), _hbasis,
                    _per_m(490), strict=True),
    "eta": Scope("max_n", dict.fromkeys((1, 2, 3), 5),
                 _each_m("component-rebuild-bijection", check_eta),
                 _walked(13), walks=True),
    "theta": Scope("max_n", dict.fromkeys((1, 2, 3), 6),
                   _each_m("tree-iso-transport", check_theta), _walked(5.0),
                   walks=True),
    # each m's default is the largest n of its shapes
    "parking": Scope("max_n", dict(sorted(PARKING_SMALL + PARKING_LARGER)),
                     _parking, _per_m(3900), strict=True),
    "lattice": Scope("max_n", dict.fromkeys((1, 2, 3), 5), _lattice,
                     _walked(4.2), walks=True),
    "multistat": Scope("order", {1: 5, 2: 4, 3: 3}, _multistat, _per_m(1020),
                       strict=True),
    "tensor": Scope("max_n", {2: 5, 3: 4}, _tensor, _per_m(530), strict=True),
    "convolution": Scope("max_n", dict.fromkeys((1, 2, 3), 5), _convolution,
                         _per_m(1210)),
    "errata": Scope(None, {2: None}, _errata, _per_m(1110)),
}


def _run(name, entries, opts):
    """Report the entries of scope name; see the module docstring.  In a run
    of two lanes, opts holds the run's _Lanes under "lanes", which gives
    them."""
    lanes = opts.get("lanes")
    if lanes is not None:
        entries.extend(lanes.take(name))
        return
    row, m = SCOPES[name], opts.get("m")
    for identity, params, fn in row.entries(_settings(row, opts), m):
        if m in (None, params.get("m", m)):
            _report(entries, identity, params, fn)


# scope -> its check, called as check(entries, opts)
CHECKS = {name: partial(_run, name) for name in SCOPES}


def _check_caps(names, opts):
    """Raise, before any check runs, the EnumerationCapError that
    enumerate_u_pk would raise first in this run: the first n, in check
    order, whose closed-form count exceeds DEFAULT_MAX_OBJECTS.  It guards
    the walking scopes, as fold_bounded has no cap of its own."""
    for name in names:
        row = SCOPES[name]
        if row.walks:
            for params in _settings(row, opts):
                fam = canonical_family(params["m"])
                for n in range(params["max_n"] + 1):
                    _require_under_cap(n, fam, DEFAULT_MAX_OBJECTS)


def _split(names, opts):
    """(this process's scopes, the child's), each in report order: longest
    predicted cost first, each scope goes to the less loaded lane, this
    process's on a tie.  It reads only the scopes and their settings."""
    load, child = [0, 0], set()
    costs = {name: SCOPES[name].cost(_settings(SCOPES[name], opts))
             for name in names}
    for name in sorted(names, key=costs.get, reverse=True):
        lane = load[1] < load[0]
        load[lane] += costs[name]
        if lane:
            child.add(name)
    return ([name for name in names if name not in child],
            [name for name in names if name in child])


def _send(fd, outcome):
    """Write outcome to fd as one frame: its marshal bytes behind their
    length."""
    body = marshal.dumps(outcome)
    data = memoryview(len(body).to_bytes(8, "little") + body)
    while data:
        data = data[os.write(fd, data):]


def _serve(names, opts, fd):
    """The child's lane: run names in report order and send each scope's
    outcome to fd, its entries as a list of field tuples, or for an
    exhausted resource (kind's index in RESOURCE_ERRORS, message), which ends
    the lane.  It never returns and writes nothing to stdout or stderr: it
    leaves through os._exit, which runs none of the parent's clean-up."""
    status = 1
    try:
        for name in names:
            entries = []
            try:
                _run(name, entries, opts)
            except RESOURCE_ERRORS as exc:
                kind = next(i for i, error in enumerate(RESOURCE_ERRORS)
                            if isinstance(exc, error))
                _send(fd, (kind, str(exc)))
                break
            _send(fd, [(e.identity, e.status, e.params, e.counterexample,
                        e.millis) for e in entries])
        status = 0
    finally:
        os._exit(status)


class _Lanes:
    """One run's scopes in two processes, this one and a forked child, each
    with its lane from _split.  The child runs its lane in report order and
    sends each scope's outcome down a pipe (_serve), and this process, which
    calls every check in report order, takes them in that order.  take runs
    one of this process's scopes when its check is called, unless it already
    ran; at one of the child's scopes whose outcome has not come, it runs
    this process's next scope meanwhile, and it waits only when none is
    left.  An exhausted resource in either lane is raised when the run
    reaches its scope, and a child that ends before reporting a scope raises
    LaneError there.  close kills the child if it still runs, and reaps it.
    """

    def __init__(self, own, opts, pid, fd):
        self.pending, self.opts, self.pid, self.fd = deque(own), opts, pid, fd
        self.done = {}  # scope -> its entries, or the exception to raise

    def take(self, name):
        """The entries of scope name."""
        if self.pending and self.pending[0] == name:
            self._run_next()
        if name not in self.done:  # the child's
            while self.pending and not select.select([self.fd], [], [], 0)[0]:
                self._run_next()
            self.done[name] = self._receive(name)
        outcome = self.done.pop(name)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def _run_next(self):
        name, entries = self.pending.popleft(), []
        try:
            _run(name, entries, self.opts)
        except RESOURCE_ERRORS as exc:
            entries = exc
        self.done[name] = entries

    def _receive(self, name):
        """The child's next outcome, which is scope name's."""
        size = int.from_bytes(self._read(8, name), "little")
        outcome = marshal.loads(self._read(size, name))
        if isinstance(outcome, tuple):
            kind, message = outcome
            return RESOURCE_ERRORS[kind](message)
        return [ReportEntry(*fields) for fields in outcome]

    def _read(self, size, name):
        data = b""
        while len(data) < size:
            chunk = os.read(self.fd, size - len(data))
            if not chunk:
                raise LaneError(f"the child process running scope {name!r} "
                                "ended before reporting it")
            data += chunk
        return data

    def close(self):
        """Kill the child if it still runs, and reap it."""
        os.close(self.fd)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _lanes(names, opts):
    """The run's _Lanes, or None to run every scope here: for fewer than two
    scopes or usable CPUs (none counted where os.sched_getaffinity is
    missing, as off Linux), while another thread runs, which a fork would
    not copy, or when the fork fails."""
    if (len(names) < 2 or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2
            or threading.active_count() > 1):
        return None
    own, theirs = _split(names, opts)
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: run every scope here
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        os.close(read)
        _serve(theirs, opts, write)
    os.close(write)
    return _Lanes(own, opts, pid, read)


def run_verification(scope="all", **opts):
    """Run the selected checks and return a VerificationReport.

    opts may set order and max_n (each >= 0; an explicit 0 is honoured) and
    m (>= 1) to restrict every check to one regularity; an m other than 2
    leaves out the m=2 errata and tensor table.  The errata and
    ``tensor-table`` are fixed demonstrations that take no order or max_n.
    Values out of range, an m that a selected strict check has no data for,
    or --scope errata with an m other than 2 raise ValueError before any
    check runs; messages name the matching CLI options.  A max_n at which
    an enumeration would exceed DEFAULT_MAX_OBJECTS raises
    EnumerationCapError, also before any check runs.

    With two or more scopes selected and two or more CPUs usable, the scopes
    run in two processes, this one and one forked child (see _Lanes); the
    report's order and content do not change, and each entry's millis is
    timed in the process that ran it.  Every check in CHECKS is still called
    once per scope, in order, in this process.  An exhausted resource in the
    child raises here with its type, and a child that ends before reporting
    its scopes raises LaneError; whether the run returns or raises, no child
    is left running.
    """
    if scope == "all":
        names = list(SCOPES)
    elif scope in SCOPES:
        names = [scope]
    else:
        raise ValueError(
            f"unknown --scope {scope!r}; valid scopes: all, {', '.join(CHECKS)}"
        )
    for key, flag in (("order", "--order"), ("max_n", "--max-n")):
        if opts.get(key) is not None and opts[key] < 0:
            raise ValueError(f"{flag} must be >= 0, got {opts[key]}")
    m = opts.get("m")
    if m is not None:
        if m < 1:
            raise ValueError(f"--m must be >= 1, got {m}")
        for name in names:
            row = SCOPES[name]
            listed = ", ".join(map(str, row.defaults))
            if m in row.defaults:
                continue
            if row.strict:
                raise ValueError(f"--m {m} is not supported by check {name!r} "
                                 f"(m in {listed})")
            if row.option is None and name == scope:  # it would report nothing
                raise ValueError(f"--scope {name} runs at m={listed} only, "
                                 f"got --m {m}")
    _check_caps(names, opts)
    report = VerificationReport()
    lanes = _lanes(names, opts)
    run_opts = opts if lanes is None else {**opts, "lanes": lanes}
    try:
        for name in names:
            CHECKS[name](report.entries, run_opts)
    finally:
        if lanes is not None:
            lanes.close()
    return report
