"""Verification harness: statuses, scoping, and report structure."""

import os
from functools import partial
from itertools import chain, combinations_with_replacement
from types import SimpleNamespace

import pytest

from catpark import decomposition, harness, kernels
from catpark.caterpillar import (
    CaterpillarTree,
    _park,
    build_caterpillar,
    is_tree_pk,
    non_backbone_labels,
    theta,
)
from catpark.decomposition import _luck, decompose, tau, u_omega
from catpark.engine import IdentityCheck
from catpark.errors import EnumerationCapError, LaneError
from catpark.harness import CHECKS, run_verification
from catpark.sequences import canonical_family, enumerate_u_pk, fuss_catalan


def _count_calls(monkeypatch, calls, module, name):
    """Count calls to module.name under calls["<module>.<name>"]."""
    real = getattr(module, name)
    key = f"{module.__name__.rpartition('.')[2]}.{name}"

    def counted(*args):
        calls[key] = calls.get(key, 0) + 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


# (identity, params, status) of every entry of the default report
DEFAULT_REPORT = [
    ("counting", {"m": 1, "max_n": 6}, "pass"),
    ("counting", {"m": 2, "max_n": 6}, "pass"),
    ("counting", {"m": 3, "max_n": 6}, "pass"),
    ("counting", {"m": 4, "max_n": 6}, "pass"),
    ("functional-equation", {"m": 1, "order": 12}, "pass"),
    ("functional-equation", {"m": 2, "order": 12}, "pass"),
    ("functional-equation", {"m": 3, "order": 12}, "pass"),
    ("functional-equation", {"m": 4, "order": 12}, "pass"),
    ("count-series-power", {"m": 2, "order": 6}, "pass"),
    ("count-series-power", {"m": 3, "order": 6}, "pass"),
    ("count-recurrence", {"m": 1, "max_n": 7}, "pass"),
    ("count-recurrence", {"m": 2, "max_n": 7}, "pass"),
    ("count-recurrence", {"m": 3, "max_n": 7}, "pass"),
    ("luck-ones-involution", {"m": 1, "max_n": 6}, "pass"),
    ("luck-ones-involution", {"m": 2, "max_n": 6}, "pass"),
    ("luck-ones-involution", {"m": 3, "max_n": 6}, "pass"),
    ("joint-series", {"m": 2, "order": 5}, "pass"),
    ("joint-series", {"m": 3, "order": 4}, "pass"),
    ("q-luck-series", {"m": 1, "order": 6}, "pass"),
    ("q-luck-series", {"m": 2, "order": 6}, "pass"),
    ("q-luck-series", {"m": 3, "order": 6}, "pass"),
    ("h-basis-decomposition", {"m": 2, "max_n": 4}, "pass"),
    ("h-basis-decomposition", {"m": 3, "max_n": 4}, "pass"),
    ("h-basis-decomposition", {"m": 4, "max_n": 4}, "pass"),
    ("component-rebuild-bijection", {"m": 1, "max_n": 5}, "pass"),
    ("component-rebuild-bijection", {"m": 2, "max_n": 5}, "pass"),
    ("component-rebuild-bijection", {"m": 3, "max_n": 5}, "pass"),
    ("tree-iso-transport", {"m": 1, "max_n": 6}, "pass"),
    ("tree-iso-transport", {"m": 2, "max_n": 6}, "pass"),
    ("tree-iso-transport", {"m": 3, "max_n": 6}, "pass"),
    ("condition-vs-process",
     {"small": [(1, 4), (2, 3), (2, 4), (3, 2), (3, 3)],
      "enumerated": [(2, 5), (3, 4)]}, "pass"),
    ("lattice-codec", {"max_n": 5}, "pass"),
    ("multi-stat-product", {"m": 1, "order": 5}, "pass"),
    ("multi-stat-product", {"m": 2, "order": 4}, "pass"),
    ("multi-stat-product-order1", {"m": 2, "order": 1}, "erratum"),
    ("multi-stat-product", {"m": 3, "order": 3}, "pass"),
    ("multi-stat-product-order1", {"m": 3, "order": 1}, "erratum"),
    ("tensor-table", {"m": 2, "n": 4}, "pass"),
    ("tensor-symmetry", {"m": 2, "max_n": 5}, "pass"),
    ("tensor-symmetry", {"m": 3, "max_n": 4}, "pass"),
    ("luck-convolution", {"m": 1, "n_max": 5, "t_max": 2}, "pass"),
    ("luck-convolution", {"m": 2, "n_max": 5, "t_max": 3}, "pass"),
    ("luck-convolution", {"m": 3, "n_max": 5, "t_max": 4}, "pass"),
    ("stated-count-erratum", {"m": 2, "n": 3}, "erratum"),
    ("q-luck-exponent-erratum", {"m": 2}, "erratum"),
    ("joint-series-arguments-erratum", {"m": 2}, "erratum"),
]


# (identity, params["m"]) -> counterexample of every erratum entry of the
# default report: each printed claim next to what enumeration finds
DEFAULT_ERRATA = {
    ("multi-stat-product-order1", 2): {"enumerated": "q0*q1",
                                       "stated": "q0*q1*q2"},
    ("multi-stat-product-order1", 3): {"enumerated": "q0*q1",
                                       "stated": "q0*q1*q2*q3"},
    ("stated-count-erratum", 2): {"enumerated": 12, "stated": 4},
    ("q-luck-exponent-erratum", 2): {"n": 2, "enumerated": "q^2 + 2*q",
                                     "stated": "q^2 + q"},
    ("joint-series-arguments-erratum", 2): {
        "n": 2,
        "enumerated": "q*t^2*u^3*v^3 + q^2*t*u^2*v^2 + q*t*u^2*v^3",
        "stated": "q*t^2*u^3*v^3 + q^2*t*u^2*v^3 + q*t*u^2*v^2"},
}


@pytest.fixture(scope="module")
def default_report():
    return run_verification("all")


def test_default_report_is_pinned(default_report):
    assert [(e.identity, e.params, e.status)
            for e in default_report.entries] == DEFAULT_REPORT
    assert {(e.identity, e.params["m"]): e.counterexample
            for e in default_report.entries
            if e.status == "erratum"} == DEFAULT_ERRATA


def test_full_run_is_green(default_report):
    report = default_report
    assert report.ok
    assert report.exit_code == 0
    assert len(report.entries) == 46
    statuses = {}
    for entry in report.entries:
        statuses.setdefault(entry.status, []).append(entry.identity)
    assert "fail" not in statuses
    assert set(statuses["erratum"]) == {
        "multi-stat-product-order1",
        "stated-count-erratum",
        "q-luck-exponent-erratum",
        "joint-series-arguments-erratum",
    }


def test_scope_selection():
    report = run_verification("funceq")
    assert {e.identity for e in report.entries} == {"functional-equation"}
    assert len(report.entries) == 4  # one per regularity


def test_scope_with_m_restriction():
    report = run_verification("involution", m=2, max_n=4)
    assert len(report.entries) == 1
    assert report.entries[0].params == {"m": 2, "max_n": 4}


def test_unknown_scope():
    with pytest.raises(ValueError):
        run_verification("bogus")


def test_all_scopes_registered():
    assert set(CHECKS) == {
        "counting", "funceq", "hseries", "recurrence", "involution",
        "gamma", "qluck", "hbasis", "eta", "theta", "parking", "lattice",
        "multistat", "tensor", "convolution", "errata",
    }


def test_report_serialization():
    report = run_verification("errata")
    data = report.to_dict()
    assert data["ok"] is True
    for entry in data["checks"]:
        assert entry["status"] in ("pass", "fail", "erratum")
        assert isinstance(entry["millis"], int)


def test_identity_checks_are_timed(monkeypatch):
    clock = [0.0]
    real = harness.verify_r_series

    def slow(*args, **kwargs):
        clock[0] += 1.0
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(harness, "verify_r_series", slow)
    report = run_verification("qluck", m=2)
    assert [e.identity for e in report.entries] == ["q-luck-series"]
    assert report.entries[0].millis >= 1000


def test_every_entry_is_timed_once(monkeypatch):
    """Each entry reads the clock twice, around its own work only."""
    ticks = iter(range(10**6))
    monkeypatch.setattr(harness, "time",
                        SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    report = run_verification("all", max_n=2, order=2)
    assert report.entries
    assert [(e.identity, e.millis) for e in report.entries] == [
        (e.identity, 1000) for e in report.entries]


# every (scope, m) that the table lists: 45 pairs, 48 entries at order and
# max_n 0
SCOPE_M = [(name, m) for name, row in harness.SCOPES.items()
           for m in row.defaults]
ERRATA = ["stated-count-erratum", "q-luck-exponent-erratum",
          "joint-series-arguments-erratum"]


def test_the_table_lists_45_scope_m_pairs():
    assert len(SCOPE_M) == 45
    assert [m for name, m in SCOPE_M if name == "errata"] == [2]


@pytest.mark.parametrize("scope, m", SCOPE_M)
def test_every_scope_honours_m_and_an_explicit_zero(scope, m):
    report = run_verification(scope, m=m, order=0, max_n=0)
    assert report.ok
    identities = [e.identity for e in report.entries]
    if scope == "errata":
        assert identities == ERRATA
        return
    if scope == "tensor":
        assert identities[:-1] == (["tensor-table"] if m == 2 else [])
    else:
        assert len(identities) == 1
    entry = report.entries[-1]
    assert entry.status == "pass"
    if scope == "parking":
        assert entry.params == {"small": [], "enumerated": []}
    elif scope == "convolution":
        assert entry.params == {"m": m, "n_max": 0, "t_max": m + 1}
    else:
        assert entry.params == {"m": m, harness.SCOPES[scope].option: 0}


@pytest.mark.parametrize("opts, count", [({}, 46), ({"m": 2}, 20)])
def test_checks_run_as_bare_callables(monkeypatch, opts, count):
    """perfbench times each scope by swapping its CHECKS value for a plain
    (entries, opts) function without attributes: each is still called once,
    in CHECKS order, and the run reads its rows from SCOPES."""
    called = []
    for name, check in list(CHECKS.items()):
        def bare(entries, opts, name=name, check=check):
            called.append(name)
            check(entries, opts)
        monkeypatch.setitem(CHECKS, name, bare)
    report = run_verification("all", **opts)
    assert called == list(CHECKS)
    assert report.ok and len(report.entries) == count


def _without_millis(entries):
    return [{key: value for key, value in entry.to_dict().items()
             if key != "millis"} for entry in entries]


@pytest.mark.parametrize("opts", [{}, {"m": 2}])
def test_two_lanes_report_the_single_scope_runs(two_lanes, opts):
    """Entry for entry, apart from millis, a run of every scope in two
    processes reports what each scope reports run alone in this one."""
    report = run_verification("all", **opts)
    assert len(two_lanes) == 1
    alone = [entry for name in CHECKS
             for entry in run_verification(name, **opts).entries]
    assert len(two_lanes) == 1
    assert _without_millis(report.entries) == _without_millis(alone)


@pytest.mark.parametrize("opts", [{}, {"m": 2}, {"max_n": 7, "order": 2}])
def test_the_split_repeats_and_keeps_report_order(opts):
    names = list(harness.SCOPES)
    own, theirs = harness._split(names, opts)
    assert harness._split(names, opts) == (own, theirs)
    assert own and theirs and sorted(own + theirs) == sorted(names)
    for lane in (own, theirs):
        assert lane == [name for name in names if name in lane]


@pytest.mark.parametrize("cpus, scope, forks", [
    ({0}, "all", 0), ({0, 1}, "counting", 0), ({0, 1}, "all", 1)])
def test_only_several_scopes_and_cpus_fork(monkeypatch, cpus, scope, forks):
    """One scope or one usable CPU runs in this process; a fork that fails
    runs every scope here too."""
    tried = []

    def fork():
        tried.append(scope)
        raise BlockingIOError("no process to spare")

    expected = run_verification(scope, max_n=2, order=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", fork)
    report = run_verification(scope, max_n=2, order=2)
    assert len(tried) == forks
    assert _without_millis(report.entries) == _without_millis(expected.entries)


def _exhausted(parent):
    """A stand-in that raises RecursionError."""
    def exhausted(*args):
        raise RecursionError("deep")
    return exhausted


def _in_the_child(parent):
    """A stand-in that ends the process it runs in, which must not be
    parent."""
    def end(*args):
        assert os.getpid() != parent
        os._exit(0)
    return end


@pytest.mark.parametrize("stand_in, error, text", [
    (_exhausted, RecursionError, "deep"),
    (_in_the_child, LaneError, "scope 'involution' ended before reporting"),
], ids=["resource", "child-ended"])
def test_a_failing_child_lane_raises_and_its_child_is_reaped(
        two_lanes, monkeypatch, stand_in, error, text):
    """An exhausted resource in the child raises with its type, and a child
    that ends unreported raises LaneError; neither leaves a child behind."""
    assert "involution" in harness._split(list(CHECKS), {})[1]
    monkeypatch.setattr(harness, "_tau", stand_in(os.getpid()))
    with pytest.raises(error, match=text):
        run_verification("all")
    assert len(two_lanes) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_explicit_zero_is_honoured():
    report = run_verification("counting", m=2, max_n=0)
    assert report.entries[0].params == {"m": 2, "max_n": 0}
    report = run_verification("funceq", m=2, order=0)
    assert report.entries[0].params == {"m": 2, "order": 0}


def test_hbasis_honours_max_n(monkeypatch):
    """One gamma pass up to max_n, read from gamma_0 = 1 to gamma_max_n."""
    orders, lengths = [], []
    real = harness.gamma_polys_brute

    def spy(m, order):
        orders.append(order)
        for n, poly in enumerate(real(m, order)):
            lengths.append(n)
            yield poly

    monkeypatch.setattr(harness, "gamma_polys_brute", spy)
    report = run_verification("hbasis", m=2, max_n=2)
    assert report.ok and orders == [2] and lengths == [0, 1, 2]
    assert [e.params for e in report.entries] == [{"m": 2, "max_n": 2}]
    orders.clear()
    lengths.clear()
    report = run_verification("hbasis", m=3, max_n=0)
    assert orders == [0] and lengths == [0]
    assert report.entries[0].params == {"m": 3, "max_n": 0}
    orders.clear()
    lengths.clear()
    # reference vectors exist up to n = 4 only; the report says so
    report = run_verification("hbasis", m=4, max_n=9)
    assert orders == [4] and lengths == [0, 1, 2, 3, 4]
    assert report.entries[0].params == {"m": 4, "max_n": 4}


def test_tensor_symmetry_honours_max_n(monkeypatch):
    lengths = []
    real = harness.verify_tensor_symmetries

    def spy(m, max_n):
        for check in real(m, max_n):
            lengths.append(check.params["n"])
            yield check

    monkeypatch.setattr(harness, "verify_tensor_symmetries", spy)
    report = run_verification("tensor", m=3, max_n=2)
    assert report.ok and lengths == [1, 2]
    assert [(e.identity, e.params) for e in report.entries] == [
        ("tensor-symmetry", {"m": 3, "max_n": 2})]
    lengths.clear()
    report = run_verification("tensor", m=3, max_n=0)
    assert lengths == [] and report.entries[0].params == {"m": 3, "max_n": 0}
    # without --max-n each m keeps its own largest size
    report = run_verification("tensor", m=3)
    assert lengths == [1, 2, 3, 4] and report.entries[0].params == {"m": 3, "max_n": 4}


def test_tensor_symmetry_runs_one_pass_per_m(transfer_steps):
    """Per m, one multi-statistic pass to max_n; m = 2 also runs the
    tensor-table's pass to length 4."""
    assert run_verification("tensor", max_n=9).ok
    assert sorted(transfer_steps) == sorted(
        [("multi", 2, k) for k in (2, 3, 4)]
        + [("multi", m, k) for m in (2, 3) for k in range(2, 10)])


def test_lattice_honours_m(monkeypatch):
    regularities = set()
    real = harness.to_lattice_path

    def spy(seq, m):
        regularities.add(m)
        return real(seq, m)

    monkeypatch.setattr(harness, "to_lattice_path", spy)
    report = run_verification("lattice", m=4, max_n=3)
    assert report.ok and regularities == {4}
    assert [(e.identity, e.params) for e in report.entries] == [
        ("lattice-codec", {"m": 4, "max_n": 3})]
    regularities.clear()
    report = run_verification("lattice", max_n=3)
    assert regularities == {1, 2, 3}
    assert report.entries[0].params == {"max_n": 3}


def _word_with_ten_extra_e_steps(seq, m):
    return "E" * 10 + "N" * len(seq)


def test_a_check_that_raises_is_a_fail_entry(monkeypatch):
    """The decoder raises on the empty sequence's broken word; _report
    turns the exception into the check's fail entry."""
    monkeypatch.setattr(harness, "to_lattice_path", _word_with_ten_extra_e_steps)
    report = run_verification("lattice")
    assert not report.ok and report.exit_code == 1
    assert [e.to_dict() for e in report.entries] == [{
        "identity": "lattice-codec", "status": "fail", "params": {"max_n": 5},
        "counterexample": {
            "exception": "NonMembershipError",
            "message": "word has 10 E steps; a length-0 path needs 0"},
        "millis": report.entries[0].millis}]


def _raise(error):
    def raising(*args, **kwargs):
        raise error
    return raising


@pytest.mark.parametrize("error", (MemoryError, RecursionError,
                                   OverflowError))
def test_a_check_that_runs_out_of_a_resource_gives_no_entry(monkeypatch,
                                                            error):
    """An exhausted resource is no verdict: it leaves _report and
    run_verification, and no fail entry is made of it."""
    monkeypatch.setattr(harness, "verify_functional_equation", _raise(error))
    entries = []
    with pytest.raises(error):
        harness._report(entries, "functional-equation", {}, partial(
            harness.check_funceq, 2, 3))
    assert entries == []
    with pytest.raises(error):
        run_verification("funceq", m=2)


def test_lattice_walk_reports_the_constraint(monkeypatch):
    """The x <= m*y walk runs before the decoder, so a word that breaks it
    is reported as a constraint failure rather than a decoder error."""
    real = harness.to_lattice_path
    monkeypatch.setattr(
        harness, "to_lattice_path",
        lambda seq, m: _word_with_ten_extra_e_steps(seq, m) if seq else real(seq, m))
    report = run_verification("lattice", m=2, max_n=3)
    assert [(e.identity, e.status) for e in report.entries] == [
        ("lattice-codec", "fail")]
    assert report.entries[0].counterexample == {"m": 2, "p": (1,),
                                                "reason": "constraint"}


def test_hbasis_runs_one_pass_of_each_kernel_per_m(transfer_steps):
    """Per m, one luck pass to length 3 and one quad pass to length 4."""
    assert run_verification("hbasis").ok
    assert sorted(transfer_steps) == sorted(
        [("luck", m, k) for m in (2, 3, 4) for k in (2, 3)]
        + [("quad", m, k) for m in (2, 3, 4) for k in (2, 3, 4)])


def test_hbasis_reads_each_luck_histogram_once(monkeypatch):
    """One r_polys_brute pass per m, each length 0..3 read once, at
    m = 2, 3, 4."""
    passes, read = [], []
    real = harness.r_polys_brute

    def spy(m, order):
        passes.append(m)
        for n, poly in enumerate(real(m, order)):
            read.append((m, n))
            yield poly

    monkeypatch.setattr(harness, "r_polys_brute", spy)
    report = run_verification("hbasis")
    assert report.ok and len(report.entries) == 3
    assert sorted(passes) == [2, 3, 4]
    assert sorted(read) == [(m, n) for m in (2, 3, 4) for n in range(4)]


def test_parking_honours_m(monkeypatch):
    shapes = set()
    real = harness.build_caterpillar

    def spy(m, n):
        shapes.add((m, n))
        return real(m, n)

    monkeypatch.setattr(harness, "build_caterpillar", spy)
    report = run_verification("parking", m=3)
    assert report.ok and shapes == {(3, 2), (3, 3), (3, 4)}
    assert report.entries[0].params == {"small": [(3, 2), (3, 3)],
                                        "enumerated": [(3, 4)]}


@pytest.mark.parametrize("scope, m", [("hbasis", 1), ("multistat", 4),
                                      ("tensor", 1), ("tensor", 4),
                                      ("parking", 4)])
def test_unsupported_m_is_refused(scope, m):
    """The refusal lists exactly the m the scope's row (for parking, its
    tree shapes) has."""
    listed = {"hbasis": "2, 3, 4", "multistat": "1, 2, 3", "tensor": "2, 3",
              "parking": "1, 2, 3"}[scope]
    row = harness.SCOPES[scope]
    assert row.strict
    assert ", ".join(map(str, row.defaults)) == listed
    if scope == "parking":
        assert set(row.defaults) == {m for m, _ in harness.PARKING_SMALL}
    with pytest.raises(ValueError) as info:
        run_verification(scope, m=m)
    assert str(info.value) == (f"--m {m} is not supported by check "
                               f"'{scope}' (m in {listed})")


@pytest.mark.parametrize("m, order", [(1, 4), (2, 5), (4, 4)])
def test_m_outside_the_table_gets_the_smallest_default(monkeypatch, m, order):
    """gamma's table is {2: 5, 3: 4}; any other --m runs order 4."""
    calls = []

    def spy(m, order):
        calls.append((m, order))
        return IdentityCheck("joint-series", {})

    monkeypatch.setattr(harness, "verify_gamma_series", spy)
    report = run_verification("gamma", m=m)
    assert calls == [(m, order)]
    assert [(e.identity, e.params) for e in report.entries] == [
        ("joint-series", {"m": m, "order": order})]


def test_parking_honours_max_n(monkeypatch):
    shapes = set()
    real = harness.build_caterpillar

    def spy(m, n):
        shapes.add((m, n))
        return real(m, n)

    monkeypatch.setattr(harness, "build_caterpillar", spy)
    report = run_verification("parking", max_n=3)
    assert report.ok and shapes == {(2, 3), (3, 2), (3, 3)}
    assert report.entries[0].params == {"small": [(2, 3), (3, 2), (3, 3)],
                                        "enumerated": []}
    shapes.clear()
    report = run_verification("parking", m=3, max_n=2)
    assert report.ok and shapes == {(3, 2)}
    assert report.entries[0].params == {"small": [(3, 2)], "enumerated": []}
    shapes.clear()
    report = run_verification("parking", max_n=0)
    assert report.ok and shapes == set()
    assert report.entries[0].params == {"small": [], "enumerated": []}
    # without --max-n every shape runs
    report = run_verification("parking")
    assert report.entries[0].params == {
        "small": list(harness.PARKING_SMALL),
        "enumerated": list(harness.PARKING_LARGER)}


def test_checks_pinned_to_m2_follow_m():
    pinned = {"tensor-table", "stated-count-erratum",
              "q-luck-exponent-erratum", "joint-series-arguments-erratum"}
    report = run_verification("tensor", m=3)
    assert [e.identity for e in report.entries] == ["tensor-symmetry"]
    report = run_verification("tensor", m=2)
    assert [e.identity for e in report.entries] == ["tensor-table",
                                                    "tensor-symmetry"]
    with pytest.raises(ValueError, match="m=2"):
        run_verification("errata", m=3)
    assert len(run_verification("errata", m=2).entries) == 3
    identities = {e.identity for e in run_verification("all", m=3, max_n=2,
                                                       order=2).entries}
    assert identities and not identities & pinned


def test_involution_table_holds_no_top_length(monkeypatch):
    tables = []
    real = harness._tau

    def spy(seq, m, images, *comps):
        if not any(t is images for t in tables):
            tables.append(images)
        return real(seq, m, images, *comps)

    monkeypatch.setattr(harness, "_tau", spy)
    report = run_verification("involution", max_n=5)
    assert report.ok and len(tables) == 3  # one table per m
    assert all(len(key) < 5 for table in tables for key in table)
    assert max(len(key) for table in tables for key in table) == 4


def test_involution_reports_a_broken_image(monkeypatch):
    real = harness._tau

    def broken(seq, m, images, *comps):
        return (1, 1) if seq == (1, 2) else real(seq, m, images, *comps)

    monkeypatch.setattr(harness, "_tau", broken)
    report = run_verification("involution", m=2, max_n=3)
    assert [(e.identity, e.status) for e in report.entries] == [
        ("luck-ones-involution", "fail")]
    assert report.entries[0].counterexample == {"n": 2, "p": (1, 2), "tau": (1, 1)}


def test_theta_reports_an_image_that_is_not_a_distribution(monkeypatch):
    """The walk merges one leaf too few into every image from n = 2 on."""
    real = harness.non_backbone_labels

    def drop_leaf(m, n):
        return real(m, n)[1:]

    monkeypatch.setattr(harness, "non_backbone_labels", drop_leaf)
    report = run_verification("theta", m=2, max_n=3)
    assert [(e.identity, e.status) for e in report.entries] == [
        ("tree-iso-transport", "fail")]
    assert report.entries[0].counterexample["reason"] == "image not a distribution"
    assert report.entries[0].counterexample["n"] == 2


def test_theta_reports_an_image_with_a_label_past_the_tree(monkeypatch):
    """The walk merges one more leaf, past the last node, into every image:
    its car parks off the tree, so only the subtree test refuses it."""
    real = harness.non_backbone_labels

    def extra_leaf(m, n):
        return real(m, n) + (m * n - m + 2,)

    monkeypatch.setattr(harness, "non_backbone_labels", extra_leaf)
    report = run_verification("theta", m=2, max_n=3)
    assert report.entries[0].counterexample == {
        "n": 1, "p": (1,), "image": (1, 2), "reason": "image not a distribution"}


def test_theta_subtree_test_refuses_an_image_one_entry_short():
    """Two positions of p on the (2, 3) tree, every leaf merged in: each
    image misses one entry, which only the subtree test's length sees."""
    test = harness._sorted_tree_pk(build_caterpillar(2, 3))
    images = list(kernels.iter_bounded([1, 3], non_backbone_labels(2, 3)))
    assert images == [(1, 1, 2, 4), (1, 2, 2, 4), (1, 2, 3, 4)]
    assert [test(image) for image in images] == [False] * 3


# sorted images with one entry per node of the (2, 3) tree, whose leaves are
# 2 and 4, that each fail one part of the subtree test alone: leaf 4 has no
# entry, the last entry is past the root 5, and the first is below 1
@pytest.mark.parametrize("image", [
    (1, 1, 2, 3, 5), (1, 2, 3, 4, 6), (0, 1, 2, 3, 4)],
    ids=["missing-leaf", "past-the-tree", "below-1"])
def test_theta_subtree_test_refuses_an_image_that_is_no_distribution(image):
    assert harness._sorted_tree_pk(build_caterpillar(2, 3))(image) is False


def test_theta_checks_each_object_once(monkeypatch):
    """One _theta_inv per tree distribution visited; the subtree test
    decides the condition, so no is_tree_pk or entry check runs per
    image."""
    from catpark import caterpillar

    calls = {}
    _count_calls(monkeypatch, calls, harness, "is_tree_pk")
    _count_calls(monkeypatch, calls, caterpillar, "is_tree_pk")
    _count_calls(monkeypatch, calls, caterpillar, "_validate_entries")
    _count_calls(monkeypatch, calls, harness, "_theta_inv")
    report = run_verification("theta", max_n=4)
    assert report.ok and len(report.entries) == 3
    objects = sum(fuss_catalan(m, n) for m in (1, 2, 3) for n in range(1, 5))
    assert calls == {"harness._theta_inv": objects}


@pytest.mark.parametrize("m", (1, 2, 3))
def test_theta_fold_against_theta_and_park(m):
    """check_theta's folded state on every image, n <= 6, against the
    definitions: enumerate_u_pk's p order, theta and the walker's rows,
    _park's run, the counts of the labels 1..m, p's luck and counts of the
    values 1..m, and the subtree test against is_tree_pk."""
    fam = canonical_family(m)
    for n in range(1, 7):
        tree = build_caterpillar(m, n)
        leaves = non_backbone_labels(m, n)
        test = harness._sorted_tree_pk(tree)
        step, start = harness._theta_fold(tree, n)
        folded = list(kernels.fold_bounded(fam.bounds(n), leaves, step, start))
        assert [state[0] for _, state in folded] == list(enumerate_u_pk(n, fam))
        assert ([image for image, _ in folded]
                == list(kernels.iter_bounded(fam.bounds(n), leaves)))
        for image, (p, (occupied, luck, parked), counts, p_luck,
                    p_counts) in folded:
            assert image == theta(p, m, n)
            outcome = _park(tree, image)
            assert parked == outcome.all_parked
            assert luck == len(outcome.lucky_set)
            assert occupied == sum(1 << node for node in outcome.assignment
                                   if node)
            assert counts == tuple(image.count(j) for j in range(1, m + 1))
            assert p_luck == _luck(p, m)
            assert p_counts == tuple(u_omega(p, j) for j in range(1, m + 1))
            assert test(image) is is_tree_pk(tree, image) is True


def _every_preference_list(tree):
    """The fold of check_theta's step over every nondecreasing preference
    list with one entry per node, and no labels merged in."""
    step, start = harness._theta_fold(tree, tree.node_count)
    return kernels.fold_bounded([tree.node_count] * tree.node_count, (),
                                step, start)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_theta_step_against_park_where_cars_fall_out(m, n):
    """Every image is a distribution, so on the walk above every car parks;
    here preferences run over every node, and the step's taken nodes, luck
    and all-parked flag, put together from its memoized runs, must agree
    with _park on the cars that fall out too.  Then p of each length up to
    n + 1 over every node with the leaves merged in: a last piece carries
    the leaves from v on and a piece before it does not, so a memo that
    ignored the last position would hand one piece's run to the other."""
    tree = build_caterpillar(m, n)
    leaves = non_backbone_labels(m, n)
    folds = [_every_preference_list(tree)]
    for rows in range(1, n + 2):
        step, start = harness._theta_fold(tree, rows)
        folds.append(kernels.fold_bounded([tree.node_count] * rows, leaves,
                                          step, start))
    fallen = 0
    for prefs, (_, run, *_) in chain.from_iterable(folds):
        outcome = _park(tree, prefs)
        assert run == (sum(1 << node for node in outcome.assignment if node),
                       len(outcome.lucky_set), outcome.all_parked), prefs
        fallen += not run[2]
    assert fallen


def test_theta_parks_each_piece_once_per_reachable_occupancy(monkeypatch):
    """Each fold parks a piece once per (taken nodes from prev on, prev, v,
    last position) and keeps the run: every _park_cars call of the theta
    scope is one entry of a fold's memo, and on the (3, 6) tree the memo
    holds far fewer entries than the fold takes steps."""
    runs, steps = {}, {}
    real_fold = harness._theta_fold

    def fold(tree, rows):
        step, start = real_fold(tree, rows)
        key = tree.m, tree.n
        runs[key], steps[key] = step.args[2], 0

        def counted(*args):
            steps[key] += 1
            return step(*args)
        return counted, start

    calls = {}
    _count_calls(monkeypatch, calls, harness, "_park_cars")
    monkeypatch.setattr(harness, "_theta_fold", fold)
    assert run_verification("theta").ok
    assert len(runs) == 18  # n = 1..6 at m = 1..3
    assert calls["harness._park_cars"] == sum(map(len, runs.values()))
    assert [len(runs[m, 6]) for m in (1, 2, 3)] == [51, 146, 291]
    assert steps[3, 6] > fuss_catalan(3, 6) > 20 * len(runs[3, 6])


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_sorted_tree_pk_is_is_tree_pk_on_sorted_lists(m, n):
    """The subtree test is is_tree_pk on every sorted preference list, the
    many that are no distribution included; the ones it passes are the
    sorted theta images, as many as the bounded sequences."""
    tree = build_caterpillar(m, n)
    test = harness._sorted_tree_pk(tree)
    size = tree.node_count
    passed = 0
    for prefs in combinations_with_replacement(range(1, size + 1), size):
        assert test(prefs) is is_tree_pk(tree, prefs)
        passed += test(prefs)
    assert passed == fuss_catalan(m, n)


# every subtree a label interval, but no caterpillar: 1 hangs from 2, 3 from
# 4, and 2 and 4 from the root 5, so the subtree of 4 is {3, 4}
FORKED = CaterpillarTree(1, 5, 5, (0, 2, 5, 4, 5, 0), (), 0, (0, 1, 2, 1, 2, 5))


def test_theta_fold_refuses_subtrees_that_are_not_label_intervals():
    """The subtree test refuses a tree with a subtree that is neither one
    node nor a label prefix: 1 and 2 hang from 3 and 4, 3 from 4, so the
    subtree of 3 is {1, 3}; then FORKED.  Then a node that is its own
    parent."""
    tree = CaterpillarTree(1, 4, 4, (0, 3, 4, 4, 0), (1, 2, 3, 4), 0b11110,
                           (0, 1, 1, 2, 4))
    with pytest.raises(ValueError, match="subtree of 3 is neither one node "
                                         "nor the labels 1..3"):
        harness._sorted_tree_pk(tree)
    with pytest.raises(ValueError, match="subtree of 4 is neither one node "
                                         "nor the labels 1..4"):
        harness._sorted_tree_pk(FORKED)
    tree = CaterpillarTree(1, 2, 2, (0, 2, 2), (2,), 0b100, (0, 1, 2))
    with pytest.raises(ValueError, match="parent 2 of 2 is not above it"):
        harness._sorted_tree_pk(tree)


def test_involution_checks_each_image_once(monkeypatch):
    """Each image is checked at its own visit, from the walk's fold: a
    passing sweep bound-checks, cuts, scans for fixed points and counts a
    statistic of no sequence."""
    calls = {}
    for name in ("is_u_pk", "_luck", "u_omega"):
        _count_calls(monkeypatch, calls, harness, name)
    for name in ("is_u_pk", "_cut", "_fixed_points"):
        _count_calls(monkeypatch, calls, decomposition, name)
    report = run_verification("involution", max_n=5)
    assert report.ok and len(report.entries) == 3
    assert calls == {}


def test_involution_runs_one_tau_per_walked_sequence(monkeypatch):
    """Each visited p costs one _tau, a fixed point or not, handed p's
    blocks from the walk's fold; no image is computed a second time, and
    each is public tau's."""
    calls = []
    real = harness._tau

    def spy(seq, m, images, comps):
        image = real(seq, m, images, comps)
        calls.append((m, seq, comps, image))
        return image

    monkeypatch.setattr(harness, "_tau", spy)
    assert run_verification("involution", max_n=5).ok
    assert [(m, p) for m, p, _, _ in calls] == [
        (m, p) for m in (1, 2, 3) for n in range(6)
        for p in enumerate_u_pk(n, canonical_family(m))]
    fixed = 0
    for m, p, comps, image in calls:
        assert comps == (decompose(p, m).components if p else ((),) * (m + 1))
        assert image == tau(p, m)
        fixed += image == p
    assert 0 < fixed < len(calls)


def test_involution_catches_two_sequences_with_one_image(monkeypatch):
    """p1 < p2 < q, where tau(p1) = q and p2 is a fixed point, all with one
    lucky position per 1.  Sending p2 to q and q to p2 keeps every
    exchange, and q's image is the later claimant, so only refusing a
    second claim on q fails the sweep."""
    p1, p2, q = (1, 1, 2, 7), (1, 1, 4, 7), (1, 1, 5, 6)
    assert tau(p1, 2) == q and tau(p2, 2) == p2
    assert {(_luck(s, 2), u_omega(s, 1)) for s in (p1, p2, q)} == {(2, 2)}
    swap = {p2: q, q: p2}
    real = harness._tau
    monkeypatch.setattr(harness, "_tau", lambda seq, m, images, *comps:
                        swap.get(seq) or real(seq, m, images, *comps))
    report = run_verification("involution", m=2, max_n=4)
    assert [(e.identity, e.status) for e in report.entries] == [
        ("luck-ones-involution", "fail")]
    assert report.entries[0].counterexample == {
        "n": 4, "p": p2, "tau": q, "reason": "not injective"}


def test_involution_catches_a_broken_skipped_partner(monkeypatch):
    """The later member q of a pair at the top length is never visited, so
    breaking tau on q must fail at the earlier member p."""
    p, q = (1, 1, 1), (1, 3, 5)
    assert tau(p, 2) == q and p < q
    real = harness._tau

    def broken(seq, m, images, *comps):
        return (1, 1, 2) if seq == q else real(seq, m, images, *comps)

    monkeypatch.setattr(harness, "_tau", broken)
    report = run_verification("involution", m=2, max_n=3)
    assert [(e.identity, e.status) for e in report.entries] == [
        ("luck-ones-involution", "fail")]
    assert report.entries[0].counterexample == {"n": 3, "p": p, "tau": q}


def test_involution_reports_a_partner_never_enumerated(monkeypatch):
    """An in-bounds image of another length that passes every check of its
    orbit is never reached by the walk of p's length, and fails."""
    swap = {(1,): (1, 2), (1, 2): (1,)}
    real = harness._tau
    monkeypatch.setattr(harness, "_tau", lambda seq, m, images, *comps:
                        swap.get(seq) or real(seq, m, images, *comps))
    report = run_verification("involution", m=2, max_n=1)
    assert report.entries[0].status == "fail"
    assert report.entries[0].counterexample == {"n": 1, "p": (1,),
                                                "tau": (1, 2)}


WALKING = ("counting", "involution", "eta", "theta", "lattice")


def test_the_walking_scopes_are_the_capped_ones():
    assert tuple(name for name, row in harness.SCOPES.items()
                 if row.walks) == WALKING


@pytest.mark.parametrize("scope", WALKING)
def test_enumeration_cap_is_checked_before_any_check(monkeypatch, scope):
    """The cap refusal comes before the first check body, with the message
    enumerate_u_pk gives at the first n over the cap."""
    ran = []
    for name in CHECKS:
        monkeypatch.setitem(CHECKS, name,
                            lambda entries, opts, name=name: ran.append(name))
    with pytest.raises(EnumerationCapError) as caught:
        run_verification(scope, m=5, max_n=9)
    assert str(caught.value) == ("enumeration would yield more than 100000000 "
                                 "objects, exceeding the cap of 100000000")
    assert caught.value.projected == 115607310
    assert ran == []
    run_verification(scope, m=5, max_n=8)
    assert ran == [scope]


def test_involution_reports_an_image_out_of_bounds(monkeypatch):
    real = harness._tau

    def broken(seq, m, images, *comps):
        return (1, 4) if seq == (1, 2) else real(seq, m, images, *comps)

    monkeypatch.setattr(harness, "_tau", broken)
    report = run_verification("involution", m=2, max_n=3)
    assert report.entries[0].status == "fail"
    assert report.entries[0].counterexample == {
        "n": 2, "p": (1, 2), "tau": (1, 4), "reason": "bounds"}


def test_eta_reports_an_image_out_of_bounds(monkeypatch):
    monkeypatch.setattr(harness, "_eta", lambda comps, m: (2,))
    report = run_verification("eta", m=2, max_n=3)
    assert report.entries[0].status == "fail"
    assert report.entries[0].counterexample == {
        "n": 1, "p": (1,), "eta": (2,), "reason": "bounds"}


def _zero_luck(real):
    """The fold step, with the luck of every prefix 0."""
    def step(m, state, v, piece):
        after = real(m, state, v, piece)
        return after[:1] + (0,) + after[2:]
    return step


def _double_ones(real):
    """The fold step, counting every 1 twice."""
    def step(m, state, v, piece):
        after = real(m, state, v, piece)
        return after[:2] + (after[2] + (v == 1),) + after[3:]
    return step


@pytest.mark.parametrize("mutate, reason", [
    (_zero_luck, "luck of last block"),
    (_double_ones, "omega_1 of first block"),
], ids=["luck", "omega_1"])
def test_eta_reports_a_broken_block_relation(monkeypatch, mutate, reason):
    """p's luck and multiplicity of 1 come from the walk's fold step."""
    monkeypatch.setattr(harness, "_return_step", mutate(harness._return_step))
    report = run_verification("eta", m=2, max_n=3)
    assert [(e.identity, e.status) for e in report.entries] == [
        ("component-rebuild-bijection", "fail")]
    assert report.entries[0].counterexample == {"n": 1, "p": (1,),
                                                "reason": reason}


def test_eta_checks_each_object_once(monkeypatch):
    """No walked p is cut, as the fold gives its blocks, and its image gets
    the one membership check: one is_u_pk per object, none at the public
    boundary."""
    calls = {}
    _count_calls(monkeypatch, calls, harness, "is_u_pk")
    _count_calls(monkeypatch, calls, decomposition, "_cut")
    _count_calls(monkeypatch, calls, decomposition, "_fixed_points")
    _count_calls(monkeypatch, calls, decomposition, "_require_canonical")
    _count_calls(monkeypatch, calls, decomposition, "is_u_pk")
    report = run_verification("eta")
    assert report.ok and len(report.entries) == 3
    objects = sum(fuss_catalan(m, n) for m in (1, 2, 3) for n in range(1, 6))
    assert objects == 1544
    assert calls == {"harness.is_u_pk": objects}
