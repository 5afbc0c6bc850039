"""Aggregated verification of every identity the package implements.

Each named check produces report entries with status "pass", "fail", or
"erratum".  An erratum entry records a published formula that demonstrably
disagrees with enumeration while the corrected variant passes; errata are
expected and do not fail the run.  The overall run fails (exit code 1 from
the CLI) only when a corrected-form identity breaks or an expected erratum
stops reproducing.

Every entry is made by ``_report``, which times one callable returning
(status, counterexample); an entry's millis covers that call alone, and a
callable that raises makes a fail entry naming the exception.
``_verdict`` turns an engine IdentityCheck into that pair.

``DEFAULTS`` is the one table of what each per-m check runs: for each scope,
the option it reads (order or max_n) and its default value per m.  The keys
are the m values a check runs at without --m.  ``_settings`` resolves it
into [(m, value)]: --m alone or every key, and the explicit option value
(0 included) or the m's default; an m outside the table gets the scope's
smallest default.  ``_per_m(scope, identity)`` builds the checks that
report one body per m under {"m": m, option: value}.
"""

import time
from functools import cache, partial
from itertools import combinations_with_replacement

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
    _cut,
    _eta,
    _eta_inv,
    _fixed_points,
    _luck,
    _tau,
    u_omega,
)
from catpark.engine import (
    gamma_poly_brute,
    h_decompose,
    joint_count_tensor,
    r_poly_brute,
    verify_convolution_identity,
    verify_functional_equation,
    verify_gamma_series,
    verify_multi_stat_product,
    verify_r_series,
    verify_tensor_symmetry,
    verify_thm_rec,
)
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
# scope -> (option, {m: default}); see the module docstring
DEFAULTS = {
    "counting": ("max_n", dict.fromkeys((1, 2, 3, 4), 6)),
    "funceq": ("order", dict.fromkeys((1, 2, 3, 4), 12)),
    "hseries": ("order", {2: 6, 3: 6}),
    "recurrence": ("max_n", dict.fromkeys((1, 2, 3), 7)),
    "involution": ("max_n", dict.fromkeys((1, 2, 3), 6)),
    "gamma": ("order", {2: 5, 3: 4}),
    "qluck": ("order", dict.fromkeys((1, 2, 3), 6)),
    "hbasis": ("max_n", dict.fromkeys(GAMMA_H_VECTORS, 4)),
    "eta": ("max_n", dict.fromkeys((1, 2, 3), 5)),
    "theta": ("max_n", dict.fromkeys((1, 2, 3), 6)),
    "lattice": ("max_n", dict.fromkeys((1, 2, 3), 5)),
    "multistat": ("order", {1: 5, 2: 4, 3: 3}),
    "tensor": ("max_n", {2: 5, 3: 4}),
    "convolution": ("max_n", dict.fromkeys((1, 2, 3), 5)),
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


def _report(entries, identity, params, fn):
    """Time fn, which returns (status, counterexample), and append its entry.
    Every report entry's millis comes from here.  An exception from fn makes
    a fail entry whose counterexample names its type and message."""
    start = time.perf_counter()
    try:
        status, counterexample = fn()
    except Exception as exc:
        status, counterexample = "fail", {"exception": type(exc).__name__,
                                          "message": str(exc)}
    millis = int((time.perf_counter() - start) * 1000)
    entries.append(ReportEntry(identity, status, params, counterexample, millis))


def _verdict(check):
    """An engine IdentityCheck as (status, counterexample)."""
    return ("pass" if check.ok else "fail",
            check.mismatches[0] if check.mismatches else None)


def _settings(scope, opts):
    """[(m, value)] for scope; see the module docstring."""
    option, defaults = DEFAULTS[scope]
    m, value = opts.get("m"), opts.get(option)
    fallback = min(defaults.values())
    return [(k, defaults.get(k, fallback) if value is None else value)
            for k in (defaults if m is None else (m,))]


def _per_m(scope, identity):
    """Turn body(m, **{option: value}) -> (status, counterexample) into a
    CHECKS callable that reports identity [m=m option=value] for each
    (m, value) of _settings(scope)."""
    option = DEFAULTS[scope][0]

    def make(body):
        def check(entries, opts):
            for m, value in _settings(scope, opts):
                _report(entries, identity, {"m": m, option: value},
                        lambda: body(m, **{option: value}))
        return check
    return make


# -- individual checks -----------------------------------------------------


@_per_m("counting", "counting")
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


@_per_m("funceq", "functional-equation")
def check_funceq(m, order):
    return _verdict(verify_functional_equation(m, order))


@_per_m("hseries", "count-series-power")
def check_hseries(m, order):
    for k in (1, 2, 3):
        for r in range(m):
            check = verify_thm_rec(m, k, r, order)
            if not check.ok:
                return "fail", {"k": k, "r": r, "first": check.mismatches[0]}
    return "pass", None


@_per_m("recurrence", "count-recurrence")
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


@_per_m("involution", "luck-ones-involution")
def check_involution(m, max_n):
    """One tau table per m: enumeration runs by increasing length, so every
    component of p is already in it and each tau is one pass of _tau's
    loop, one cut and one assembly.

    Each orbit {p, q = tau(p)} is computed once, from its first member p:
    q gets the one is_u_pk bound check, tau(q) is computed only when q != p
    and must give back p, and luck and the multiplicity of 1 must swap.
    That settles q too, so a q after p in the walk is held in a pending set
    and skipped when the walk reaches it; one still pending when its length
    is done was never enumerated and fails.  Below max_n the table keeps
    both images of the orbit; images of the top length are never stored,
    which keeps the table small.
    """
    fam = canonical_family(m)
    images = {(): ()}
    for n in range(max_n + 1):
        pending = set()
        for p in enumerate_u_pk(n, fam):
            if p in pending:
                pending.remove(p)
                continue
            q = _tau(p, m, images)
            if not is_u_pk(q, fam):
                return "fail", {"n": n, "p": p, "tau": q, "reason": "bounds"}
            if q != p and _tau(q, m, images) != p:
                return "fail", {"n": n, "p": p, "tau": q}
            if _luck(p, m) != u_omega(q, 1) or u_omega(p, 1) != _luck(q, m):
                return "fail", {"n": n, "p": p, "tau": q,
                                "reason": "statistic exchange"}
            if q > p:
                pending.add(q)
            if n < max_n:
                images[p] = q
                images[q] = p
        if pending:
            q = min(pending)
            return "fail", {"n": n, "p": _tau(q, m, images), "tau": q}
    return "pass", None


@_per_m("gamma", "joint-series")
def check_gamma(m, order):
    return _verdict(verify_gamma_series(m, order))


@_per_m("qluck", "q-luck-series")
def check_qluck(m, order):
    return _verdict(verify_r_series(m, order))


def check_hbasis(entries, opts):
    for m, n_max in _settings("hbasis", opts):
        n_max = min(n_max, 4)  # GAMMA_H_VECTORS holds data for n = 1..4 only

        def run(m=m, n_max=n_max):
            fam_counts = [count_for_bounds(
                [m * i - 1 for i in range(1, r + 1)]) for r in range(n_max + 1)]
            # luck histograms C_(j, k) of the lengths j < n_max
            hists = [{k: c for (k,), c in r_poly_brute(m, j).items()}
                     for j in range(n_max)]
            for n in range(1, n_max + 1):
                flat = gamma_poly_brute(m, n).substitute({"u": 1, "v": 1})
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

        _report(entries, "h-basis-decomposition", {"m": m, "max_n": n_max}, run)


@_per_m("eta", "component-rebuild-bijection")
def check_eta(m, max_n):
    """p is cut once, for eta's core and the block relations; each image
    gets one is_u_pk bound check before it goes into _eta_inv.

    Besides the bijection, each p is checked against the criterion behind
    the paper's m-statistic extension: a statistic is its value on one
    first-return block plus a constant.  luck is 1 + luck of the last block
    and the multiplicity of 1 is 1 + that of the first; their exchange,
    which makes them equidistributed, is luck-ones-involution's check.
    """
    fam = canonical_family(m)
    for n in range(1, max_n + 1):
        seen = set()
        for p in enumerate_u_pk(n, fam):
            comps = _cut(p, _fixed_points(p, m))
            image = _eta(comps, m)
            if not is_u_pk(image, fam):
                return "fail", {"n": n, "p": p, "eta": image, "reason": "bounds"}
            if _eta_inv(image, m) != p:
                return "fail", {"n": n, "p": p, "eta": image}
            seen.add(image)
            if _luck(p, m) != 1 + _luck(comps[m], m):
                return "fail", {"n": n, "p": p, "reason": "luck of last block"}
            if u_omega(p, 1) != 1 + u_omega(comps[0], 1):
                return "fail", {"n": n, "p": p,
                                "reason": "omega_1 of first block"}
            if u_omega(image, 1) != 1 + u_omega(comps[0], 1):
                return "fail", {"n": n, "p": p, "reason": "omega_1"}
            for j in range(2, m + 2):
                if u_omega(image, j) != u_omega(comps[j - 1], 1):
                    return "fail", {"n": n, "p": p, "reason": f"omega_{j}"}
        if len(seen) != count_u_pk(n, fam):
            return "fail", {"n": n, "reason": "not surjective"}
    return "pass", None


def _theta_step(tree, state, v, piece):
    """check_theta's fold step: append v to p and park the cars of its
    piece in order with _park_cars.

    state is (p, _park_cars's state, counts of the labels 1..m in the
    image).  Only the labels up to m are counted; as the image is sorted,
    a piece starting above m holds none.
    """
    p, parking, counts = state
    parking = _park_cars(tree, parking, piece)
    if piece[0] <= tree.m:
        counts = list(counts)
        for label in piece:
            if label > tree.m:
                break
            counts[label - 1] += 1
        counts = tuple(counts)
    return p + (v,), parking, counts


@_per_m("theta", "tree-iso-transport")
def check_theta(m, max_n):
    """The walk merges the leaf labels into each p, so its row is theta(p),
    and it folds _theta_step along the way: each image comes with p, its
    parking run and its counts of the labels 1..m, every prefix parked
    once.  Per image, one is_tree_pk is the distribution check, with the
    parking run's all-parked flag; _theta_inv must give back p; the run's
    luck must equal p's, and the counts p's plus one leaf for 2..m.
    """
    fam = canonical_family(m)
    start = ((), (0, 0, True), (0,) * m)
    for n in range(1, max_n + 1):
        tree = build_caterpillar(m, n)
        leaves = non_backbone_labels(m, n)
        leaf = 1 if n >= 2 else 0  # the one-node tree has no leaves
        total = 0
        for image, (p, (_, luck, parked), counts) in fold_bounded(
                fam.bounds(n), leaves, partial(_theta_step, tree), start):
            total += 1
            try:
                parks = is_tree_pk(tree, image)
            except ValueError:
                parks = False
            if not (parks and parked):
                return "fail", {"n": n, "p": p, "image": image,
                                "reason": "image not a distribution"}
            if _theta_inv(image, leaves) != p:
                return "fail", {"n": n, "p": p, "image": image,
                                "reason": "roundtrip"}
            if luck != _luck(p, m):
                return "fail", {"n": n, "p": p, "reason": "luck transport"}
            if counts[0] != u_omega(p, 1):
                return "fail", {"n": n, "p": p, "reason": "omega_1 transport"}
            for j in range(2, m + 1):
                if counts[j - 1] != u_omega(p, j) + leaf:
                    return "fail", {"n": n, "p": p,
                                    "reason": f"omega_{j} transport"}
        if total != fuss_catalan(m, n):
            return "fail", {"n": n, "reason": "count"}
    return "pass", None


def check_parking(entries, opts):
    """Subtree condition coincides with the parking process succeeding, on
    the (m, n) shapes that --m and --max-n leave: is_tree_pk reads parent
    links, and one _park_cars run per candidate the backbone mask alone."""
    m, max_n = opts.get("m"), opts.get("max_n")

    def keep(shapes):
        return tuple(shape for shape in shapes if m in (None, shape[0])
                     and (max_n is None or shape[1] <= max_n))

    small, larger = keep(PARKING_SMALL), keep(PARKING_LARGER)

    def run():
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

    _report(entries, "condition-vs-process", {"small": list(small),
                                              "enumerated": list(larger)}, run)


def check_lattice(entries, opts):
    settings = _settings("lattice", opts)

    def run():
        for m, n_max in settings:
            fam = canonical_family(m)
            for n in range(n_max + 1):
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

    params = {"max_n": settings[0][1]}
    if opts.get("m") is not None:
        params = {"m": opts["m"], **params}
    _report(entries, "lattice-codec", params, run)


def check_multistat(entries, opts):
    for m, order in _settings("multistat", opts):
        _report(entries, "multi-stat-product", {"m": m, "order": order},
                lambda: _verdict(verify_multi_stat_product(m, order)))
        if m >= 2 and order >= 1:  # the gap sits in the x^1 coefficient
            _report(entries, "multi-stat-product-order1", {"m": m, "order": 1},
                    lambda: _order_one_gap(m))


def _order_one_gap(m):
    gap = verify_multi_stat_product(m, 1).params["order_one_gap"]
    # expected: enumerated q0*q1 vs the product's full q0*...*qm
    expected_rhs = "*".join(f"q{i}" for i in range(m + 1))
    return ("erratum" if gap == ("q0*q1", expected_rhs) else "fail",
            {"enumerated": gap[0] if gap else None,
             "stated": gap[1] if gap else None})


@_per_m("tensor", "tensor-symmetry")
def _check_tensor_symmetry(m, max_n):
    for n in range(1, max_n + 1):
        check = verify_tensor_symmetry(m, n)
        if not check.ok:
            return "fail", {"n": n, "first": check.mismatches[0]}
    return "pass", None


def check_tensor(entries, opts):
    def run():
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

    if opts.get("m") in (None, 2):
        _report(entries, "tensor-table", {"m": 2, "n": 4}, run)
    _check_tensor_symmetry(entries, opts)


def check_convolution(entries, opts):
    for m, n_max in _settings("convolution", opts):
        _report(entries, "luck-convolution",
                {"m": m, "n_max": n_max, "t_max": m + 1},
                lambda: _verdict(verify_convolution_identity(m, n_max)))


def _literal_erratum(verify, order):
    """A printed m=2 series: its literal form first disagrees with
    enumeration at n = 2, while the corrected form passes."""
    literal = verify(2, order, literal=True)
    corrected = verify(2, order)
    if corrected.ok and not literal.ok and literal.mismatches[0][0] == 2:
        idx, brute, stated = literal.mismatches[0]
        return "erratum", {"n": idx, "enumerated": brute, "stated": stated}
    return "fail", {"literal_ok": literal.ok, "corrected_ok": corrected.ok}


def check_errata(entries, opts):
    def run_prop1():
        enumerated = sum(1 for _ in enumerate_u_pk(3, canonical_family(2)))
        # the printed path-count claim: index n-1 at regularity m+1
        stated = fuss_catalan(2 + 1, 3 - 1)
        if enumerated == 12 and stated == 4:
            return "erratum", {"enumerated": enumerated, "stated": stated}
        return "fail", {"enumerated": enumerated, "stated": stated}

    _report(entries, "stated-count-erratum", {"m": 2, "n": 3}, run_prop1)
    _report(entries, "q-luck-exponent-erratum", {"m": 2},
            lambda: _literal_erratum(verify_r_series, 4))
    _report(entries, "joint-series-arguments-erratum", {"m": 2},
            lambda: _literal_erratum(verify_gamma_series, 2))


CHECKS = {
    "counting": check_counting,
    "funceq": check_funceq,
    "hseries": check_hseries,
    "recurrence": check_recurrence,
    "involution": check_involution,
    "gamma": check_gamma,
    "qluck": check_qluck,
    "hbasis": check_hbasis,
    "eta": check_eta,
    "theta": check_theta,
    "parking": check_parking,
    "lattice": check_lattice,
    "multistat": check_multistat,
    "tensor": check_tensor,
    "convolution": check_convolution,
    "errata": check_errata,
}


# Checks that walk every canonically bounded sequence of each length up to
# their max_n: with enumerate_u_pk, or for theta with fold_bounded, which
# has no cap of its own, so _check_caps is its guard.
ENUMERATED = ("counting", "involution", "eta", "theta", "lattice")


def _check_caps(names, opts):
    """Raise, before any check runs, the EnumerationCapError that
    enumerate_u_pk would raise first in this run: the first n, in check
    order, whose closed-form count exceeds DEFAULT_MAX_OBJECTS."""
    for name in names:
        if name not in ENUMERATED:
            continue
        for m, max_n in _settings(name, opts):
            fam = canonical_family(m)
            for n in range(max_n + 1):
                _require_under_cap(n, fam, DEFAULT_MAX_OBJECTS)


# Checks that read per-m reference data run only at the m it covers.
M_SUPPORT = {scope: DEFAULTS[scope][1]
             for scope in ("hbasis", "multistat", "tensor")}
M_SUPPORT["parking"] = dict.fromkeys(m for m, _ in PARKING_SMALL)


def run_verification(scope="all", **opts):
    """Run the selected checks and return a VerificationReport.

    opts may set order and max_n (each >= 0; an explicit 0 is honoured) and
    m (>= 1) to restrict every check to one regularity; an m other than 2
    leaves out the m=2 errata and tensor table.  The errata and
    ``tensor-table`` are fixed demonstrations that take no order or max_n.
    Values out of range, an m that a selected check has no data for, or
    --scope errata with an m other than 2 raise ValueError before any check
    runs; messages name the matching CLI options.  A max_n at which an
    enumeration would exceed DEFAULT_MAX_OBJECTS raises EnumerationCapError,
    also before any check runs.
    """
    if scope == "all":
        names = list(CHECKS)
    elif scope in CHECKS:
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
            supported = M_SUPPORT.get(name)
            if supported is not None and m not in supported:
                raise ValueError(f"--m {m} is not supported by check {name!r} "
                                 f"(m in {', '.join(map(str, supported))})")
        if m != 2:  # the errata demonstrate formulas printed for m=2
            if scope == "errata":
                raise ValueError(f"--scope errata runs at m=2 only, got --m {m}")
            names = [name for name in names if name != "errata"]
    _check_caps(names, opts)
    report = VerificationReport()
    for name in names:
        CHECKS[name](report.entries, opts)
    return report
