"""Command-line interface: verbs, formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import catpark
from catpark import cli, harness, sequences
from catpark.caterpillar import enumerate_caterpillar_pk
from catpark.cli import MAP_NAMES, POLY_NAMES, build_parser, main, seq_str
from catpark.harness import CHECKS
from catpark.polynomials import MultiPoly
from catpark.sequences import (BoundFamily, canonical_family, count_u_pk,
                               enumerate_u_pk)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_csv_matches_table2_left(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "3",
                             "--kind", "u", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p1,p2,p3"
    assert lines[1] == "1,1,1"
    assert lines[-1] == "1,3,5"
    assert len(lines) == 13
    assert "\r" not in out


def test_enumerate_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "2")
    assert code == 0 and out == "1,1\n1,2\n1,3\n"
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "2",
                           "--format", "json")
    assert json.loads(out)["sequences"] == [[1, 1], [1, 2], [1, 3]]


def test_enumerate_caterpillar(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "3",
                           "--kind", "cat")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "1,1,1,2,4"


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--m", "2", "--n", "8")
    assert code == 0 and out == "43263\n"
    code, out, _ = run_cli(capsys, "count", "--m", "2", "--n", "2",
                           "--k", "2", "--r", "0", "--format", "json")
    assert json.loads(out)["count"] == 18


def _digits(value):
    """str(value) past the int digit limit of Python 3.11 and 3.10.7+."""
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is None:
        return str(value)
    limit = sys.get_int_max_str_digits()
    lift(0)
    try:
        return str(value)
    finally:
        lift(limit)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_count_prints_past_the_int_digit_limit(capsys, fmt):
    """A 4970-digit count prints in every format, at once, and the digit
    limit is back in place afterwards."""
    n = 6000
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--m", "2", "--n", str(n),
                             "--format", fmt)
    assert time.perf_counter() - start < 1.0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert code == 0 and err == ""
    digits = _digits(math.comb(3 * n, n) // (2 * n + 1))
    assert len(digits) == 4970
    expected = {"text": f"{digits}\n",
                "csv": f"m,k,r,n,kind,count\n2,1,1,{n},u,{digits}\n",
                "json": f'"count": {digits}\n}}\n'}[fmt]
    assert out.endswith(expected) and (fmt == "json" or out == expected)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int digit limit")
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_poly_prints_past_the_int_digit_limit(capsys, fmt):
    """Under the least digit limit Python allows, 640, poly B at n = 800
    prints its 659-digit top coefficient in full, and the limit is back at
    640 afterwards."""
    n = 800
    top = _digits(math.comb(3 * n, n) // (2 * n + 1))
    assert len(top) == 659
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "poly", "--name", "B", "--m", "2",
                                 "--n", str(n), "--max-order", str(n),
                                 "--format", fmt)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and err == ""
    expected = {"text": f"{top}*x^{n} + ", "csv": f"\n{n},{top}\n",
                "json": f"{top}"}[fmt]
    assert expected in out


def test_count_matches_the_dp_on_every_small_family(capsys):
    """count reads the closed form; count_u_pk's DP is its oracle."""
    for m in range(1, 4):
        for k in range(1, 4):
            for r in range(m):
                family = BoundFamily(m, k, r)
                for n in range(13):
                    code, out, _ = run_cli(capsys, "count", "--m", str(m),
                                           "--n", str(n), "--k", str(k),
                                           "--r", str(r))
                    assert (code, out) == (0, f"{count_u_pk(n, family)}\n")


def test_map_tau(capsys):
    code, out, _ = run_cli(capsys, "map", "--name", "tau", "--m", "2",
                           "--seq", "1,1,4")
    assert code == 0 and out == "1,2,5\n"


def test_map_theta_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "map", "--name", "theta", "--m", "2",
                           "--seq", "1,1,3")
    assert code == 0 and out == "1,1,2,3,4\n"
    code, out, _ = run_cli(capsys, "map", "--name", "theta-inv", "--m", "2",
                           "--seq", "1,1,2,3,4")
    assert code == 0 and out == "1,1,3\n"
    # the map sorts after its subtree check, so any order of a distribution
    # gives the preimage of the sorted one
    code, out, _ = run_cli(capsys, "map", "--name", "theta-inv", "--m", "2",
                           "--seq", "4,2,1,2,1")
    assert code == 0 and out == "1,1,2\n"


def test_map_paths(capsys):
    code, out, _ = run_cli(capsys, "map", "--name", "to-path", "--m", "2",
                           "--seq", "1,1,3")
    assert code == 0 and out == "NNEENEE\n"
    code, out, _ = run_cli(capsys, "map", "--name", "from-path", "--m", "2",
                           "--word", "NNEENEE")
    assert code == 0 and out == "1,1,3\n"


def test_map_errors_name_flag(capsys):
    code, out, err = run_cli(capsys, "map", "--name", "tau", "--m", "2",
                             "--seq", "1,2,x")
    assert code == 2 and "--seq" in err
    code, out, err = run_cli(capsys, "map", "--name", "from-path", "--m", "2")
    assert code == 2 and "--word" in err
    code, out, err = run_cli(capsys, "map", "--name", "tau", "--m", "2",
                             "--seq", "1,2,6")
    assert code == 2 and "--seq" in err


def test_seq_refuses_empty_entries(capsys):
    """An empty entry is refused, not dropped; the empty string stays the
    empty sequence."""
    for seq in ("1,,2", "1,2,", ",1,2", ","):
        code, out, err = run_cli(capsys, "stats", "--m", "2", "--seq", seq)
        assert (code, out) == (2, "")
        assert err == (f"catpark stats: --seq must be comma-separated "
                       f"integers, got {seq!r}\n")
    code, out, _ = run_cli(capsys, "map", "--name", "tau", "--m", "2",
                           "--seq", "")
    assert (code, out) == (0, "\n")


def test_stats(capsys):
    code, out, _ = run_cli(capsys, "stats", "--m", "2", "--seq", "1,1,4")
    assert code == 0
    assert out == "luck 1\nomega1 2\nf 3\ng 4\n"
    code, out, _ = run_cli(capsys, "stats", "--m", "2", "--kind", "cat",
                           "--seq", "1,1,2,3,4", "--format", "json")
    data = json.loads(out)
    assert data == {"luck": 1, "parked": True, "omega1": 2, "omega2": 1}


def test_stats_checks_its_sequence_once(capsys, monkeypatch):
    """One bounds check per stats call, with the messages of the checks
    u_luck and f_stat made in turn."""
    checked = []
    real = sequences.is_u_pk
    monkeypatch.setattr(sequences, "is_u_pk",
                        lambda seq, fam: checked.append(seq) or real(seq, fam))
    code, out, _ = run_cli(capsys, "stats", "--m", "3", "--seq", "1,2,5,10")
    assert (code, out) == (0, "luck 2\nomega1 1\nf 2\ng 4\n")
    assert checked == [(1, 2, 5, 10)]
    assert run_cli(capsys, "stats", "--m", "2", "--seq", "") == (
        2, "", "catpark stats: --seq: sequence must be nonempty\n")
    assert run_cli(capsys, "stats", "--m", "2", "--seq", "-1") == (
        2, "", "catpark stats: --seq: (-1,) is not within the canonical "
               "bounds for m=2\n")


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--m", "3",
                           "--seq", "1,2,5,10,10,16")
    assert code == 0
    assert out.splitlines() == [
        "p1 ()", "p2 (1,4)", "p3 ()", "p4 (1,1,7)", "fixed-points (2,4,4)",
    ]


def test_poly_r(capsys):
    code, out, _ = run_cli(capsys, "poly", "--name", "R", "--m", "3",
                           "--n", "4")
    assert code == 0 and out == "q^4 + 9*q^3 + 39*q^2 + 91*q\n"


def test_poly_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "poly", "--name", "gamma", "--m", "2",
                           "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    poly = MultiPoly(tuple(data["variables"]),
                     {tuple(e): c for e, c in data["terms"]})
    assert poly.variables == ("q", "t", "u", "v")
    assert poly.substitute({"q": 1, "t": 1, "u": 1, "v": 1}) == 3


def test_poly_b_series(capsys):
    code, out, _ = run_cli(capsys, "poly", "--name", "B", "--m", "2",
                           "--n", "4")
    assert code == 0 and out == "55*x^4 + 12*x^3 + 3*x^2 + x + 1\n"


B_M3 = [1, 1, 4, 22, 140, 969, 7084]  # Fuss-Catalan numbers, m = 3


@pytest.mark.parametrize("fmt, expected", [
    ("text", "7084*x^6 + 969*x^5 + 140*x^4 + 22*x^3 + 4*x^2 + x + 1\n"),
    ("csv", "x,coeff\n6,7084\n5,969\n4,140\n3,22\n2,4\n1,1\n0,1\n"),
    ("json", json.dumps({"variables": ["x"],
                         "terms": [[[j], B_M3[j]] for j in range(6, -1, -1)]},
                        indent=2) + "\n"),
])
def test_poly_b_reads_the_fuss_catalan_numbers(capsys, fmt, expected):
    code, out, _ = run_cli(capsys, "poly", "--name", "B", "--m", "3",
                           "--n", "6", "--format", fmt)
    assert code == 0 and out == expected


def test_poly_refuses_an_n_past_the_exponent_limit(capsys):
    code, out, err = run_cli(capsys, "poly", "--name", "B", "--m", "2",
                             "--n", "2147483648", "--max-order", "2147483648")
    assert code == 2 and out == ""
    assert err == ("catpark poly: --n must be <= 2147483647, the largest "
                   "exponent a polynomial holds, got 2147483648\n")


def test_poly_order_cap(capsys):
    code, out, err = run_cli(capsys, "poly", "--name", "R", "--m", "2",
                             "--n", "30")
    assert code == 3 and "--max-order" in err


def test_tensor_csv(capsys):
    code, out, _ = run_cli(capsys, "tensor", "--m", "2", "--n", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k0,k1,k2,count"
    assert "1,1,2,7" in lines
    assert "4,1,1,1" in lines


def test_tables_text(capsys):
    code, out, _ = run_cli(capsys, "tables", "--id", "2")
    assert code == 0
    assert "(1,3,5) | (1,2,3,4,5)" in out
    code, out, err = run_cli(capsys, "tables", "--id", "99")
    assert code == 2 and "--id" in err


def test_tables_csv_annotation_free(capsys):
    code, out, _ = run_cli(capsys, "tables", "--id", "1", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 13  # header + 12 rows, no annotations


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--m", "0", "--n", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "count", "--m", "2", "--n", "3",
                           "--k", "2")
    assert code == 2 and "--k" in err
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "enumerate", "--m", "2")  # missing --n
    assert exc.value.code == 2


def test_resource_cap_exit_3(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--m", "4", "--n", "9",
                           "--max-objects", "1000")
    assert code == 3 and "exceeding" in err


@pytest.mark.parametrize("verb", [
    ["tensor"], ["poly", "--name", "multi"], ["enumerate", "--kind", "cat"],
    ["enumerate"],
])
def test_every_cap_refusal_has_one_text(capsys, verb):
    code, out, err = run_cli(capsys, *verb, "--m", "2", "--n", "3",
                             "--max-objects", "11")
    assert code == 3 and out == ""
    assert err == (f"catpark {verb[0]}: enumeration would yield more than 11 "
                   "objects, exceeding the cap of 11\n")


@pytest.mark.parametrize("argv", [
    # each once ended in a traceback: an OverflowError, a MemoryError, and a
    # MemoryError after seconds of DP under a 1 GiB address-space limit
    ["--name", "R", "--m", "1000000000000000000000", "--n", "3"],
    ["--name", "gamma", "--m", "100000000000", "--n", "3"],
    ["--name", "R", "--m", "100000", "--n", "24"],
])
def test_poly_refuses_a_dp_table_past_the_cap(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "poly", *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 3 and out == ""
    assert err == ("catpark poly: the DP table would hold more than 100000000 "
                   "objects, exceeding the cap of 100000000\n")


@pytest.mark.parametrize("name,size", [
    # two lengths' rows of m(n-1)+2 = 6 counts, 2 luck or 2^4 gamma states
    ("R", 2 * 2 * 6), ("gamma", 2 * 2**4 * 6)])
def test_poly_dp_cap_is_the_table_size(capsys, name, size):
    argv = ["poly", "--name", name, "--m", "4", "--n", "2", "--max-objects"]
    code, out, _ = run_cli(capsys, *argv, str(size))
    assert code == 0 and out
    code, out, err = run_cli(capsys, *argv, str(size - 1))
    assert code == 3 and out == "" and "the DP table would hold" in err


def test_cap_refusal_past_the_digit_limit_is_one_line(capsys):
    # the projected count has about 4800 digits, more than Python writes
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "10000")
    assert code == 3 and out == ""
    assert err == ("catpark enumerate: enumeration would yield more than "
                   "100000000 objects, exceeding the cap of 100000000\n")


def test_cap_refusal_at_a_count_of_millions_of_digits_is_fast(capsys):
    # the count has about 9 million digits; the guard stops past the cap
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--m", "1000000000",
                             "--n", "1000000", "--format", "csv")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == ("catpark enumerate: enumeration would yield more than "
                   "100000000 objects, exceeding the cap of 100000000\n")


def test_cap_refusal_at_large_m_is_fast(capsys):
    # the projection is a closed form, not a DP over bounds up to 3m
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--m", "1000000", "--n", "3",
                             "--max-objects", "10")
    assert time.perf_counter() - start < 0.1
    assert code == 3 and out == "" and "exceeding the cap of 10" in err


def _raise(error):
    def raising(*args, **kwargs):
        raise error
    return raising


@pytest.mark.parametrize("module,name,error,argv,text", [
    # a verify check, a verb handler's map, a verb's own arithmetic, and a
    # check in the child's lane of a run of every scope
    (harness, "verify_functional_equation", MemoryError,
     ["verify", "--scope", "funceq", "--m", "2"], "out of memory"),
    (cli, "tau", RecursionError, ["map", "--name", "tau", "--m", "2",
                                  "--seq", "1,1,4"], "recursion too deep"),
    (cli, "_raney_count", OverflowError, ["count", "--m", "2", "--n", "3"],
     "a size past this machine's limits"),
    (harness, "_tau", MemoryError, ["verify"], "out of memory"),
])
def test_an_exhausted_resource_is_exit_3_in_one_line(capsys, monkeypatch,
                                                     two_lanes, module, name,
                                                     error, argv, text):
    assert "involution" in harness._split(list(CHECKS), {})[1]
    monkeypatch.setattr(module, name, _raise(error))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"catpark {argv[0]}: {text}\n")
    assert len(two_lanes) == (argv == ["verify"])
    with pytest.raises(ChildProcessError):  # no child is left behind
        os.waitpid(-1, os.WNOHANG)


def test_a_verify_child_that_ends_unreported_is_exit_3_in_one_line(
        capsys, monkeypatch, two_lanes):
    parent = os.getpid()

    def end(*args):
        assert os.getpid() != parent
        os._exit(0)

    monkeypatch.setattr(harness, "_tau", end)
    code, out, err = run_cli(capsys, "verify", "--format", "json")
    assert (code, out, err) == (3, "", "catpark verify: the child process "
                                "running scope 'involution' ended before "
                                "reporting it\n")
    assert len(two_lanes) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_scope_funceq(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "funceq",
                           "--order", "12")
    assert code == 0
    assert out.count("pass") == 5  # four checks + summary line
    assert "summary:" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "errata",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    statuses = {entry["identity"]: entry["status"] for entry in data["checks"]}
    assert statuses["stated-count-erratum"] == "erratum"
    assert statuses["q-luck-exponent-erratum"] == "erratum"
    assert statuses["joint-series-arguments-erratum"] == "erratum"
    for entry in data["checks"]:
        assert set(entry) <= {"identity", "status", "params",
                              "counterexample", "millis"}
        assert isinstance(entry["millis"], int)


def test_verify_unknown_scope(capsys):
    """The refusal is the one place the scopes are listed, in CHECKS order
    on one stderr line."""
    code, out, err = run_cli(capsys, "verify", "--scope", "nope")
    assert (code, out) == (2, "") and "--scope" in err
    line, = err.splitlines()
    assert err == line + "\n"
    assert line.split("valid scopes: ")[1].split(", ") == ["all", *CHECKS]


def test_verify_detects_seeded_mutation(capsys, monkeypatch):
    import catpark.engine as engine

    real = engine.fuss_catalan_upto

    def corrupted(m, n):
        return [b + ((m, j) == (2, 4)) for j, b in enumerate(real(m, n))]

    monkeypatch.setattr(engine, "fuss_catalan_upto", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--scope", "funceq")
    assert code == 1
    assert "fail" in out


def test_verify_reports_a_raising_check_as_a_failure(capsys, monkeypatch):
    """A check body that raises is a fail entry (exit 1), not a usage
    error, and no traceback reaches stderr."""
    monkeypatch.setattr(harness, "to_lattice_path",
                        lambda seq, m: "E" * 10 + "N" * len(seq))
    code, out, err = run_cli(capsys, "verify", "--scope", "lattice")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == [
        "         counterexample: {'exception': 'NonMembershipError', "
        "'message': 'word has 10 E steps; a length-0 path needs 0'}",
        "summary: 0 passed, 0 errata demonstrated, 1 failed"]


def test_byte_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "tables", "--id", "5",
                               "--format", "csv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "poly", "--name", "multi", "--m", "2",
                               "--n", "3", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_refuses_an_enumeration_over_the_cap(capsys, monkeypatch):
    import catpark.harness as harness

    monkeypatch.setattr(harness, "enumerate_u_pk", None)  # no check may run
    code, out, err = run_cli(capsys, "verify", "--scope", "counting",
                             "--m", "5", "--max-n", "9")
    assert code == 3 and out == ""
    assert err == ("catpark verify: enumeration would yield more than "
                   "100000000 objects, exceeding the cap of 100000000\n")


@pytest.mark.parametrize("argv", [
    ["--max-n", "-1"],
    ["--order", "-1"],
    ["--scope", "multistat", "--m", "4"],
    ["--scope", "hbasis", "--m", "5"],
    ["--scope", "tensor", "--m", "4"],
    ["--scope", "parking", "--m", "4"],
    ["--scope", "errata", "--m", "3"],
])
def test_verify_rejects_unsupported_options(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and argv[-2] in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--m", "2", "--n", "-1"],
    ["count", "--m", "2", "--n", "-1"],
    ["count", "--kind", "cat", "--m", "2", "--n", "0"],
    ["tensor", "--m", "0", "--n", "3"],
    ["poly", "--name", "B", "--m", "2", "--n", "-3"],
    ["map", "--name", "theta-inv", "--m", "0", "--seq", "1"],
    ["stats", "--kind", "cat", "--m", "0", "--seq", "1"],
    ["poly", "--name", "R", "--m", "0", "--n", "3"],
    ["stats", "--m", "2"],
    ["decompose", "--m", "2"],
    ["enumerate", "--m", "2", "--n", "3", "--max-objects", "-1"],
    ["poly", "--name", "R", "--m", "2", "--n", "0", "--max-order", "-1"],
    ["verify", "--max-order", "-1"],
    ["map", "--name", "theta", "--m", "2", "--seq", ","],
    ["poly", "--name", "R", "--m", "2", "--n", "-1"],
    ["tensor", "--m", "2", "--n", "-1"],
    # an empty --seq entry, inside, last or first
    ["stats", "--m", "2", "--seq", "1,,2"],
    ["stats", "--m", "2", "--seq", "1,2,"],
    ["decompose", "--m", "2", "--seq", ",1,2"],
    ["map", "--name", "tau", "--m", "2", "--seq", "1,1,,4"],
])
def test_bad_values_exit_2_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("verb", [["enumerate"], ["count"], ["tensor"],
                                  ["poly", "--name", "R"], ["poly", "--name", "B"]])
def test_negative_n_names_the_flag(capsys, verb):
    code, out, err = run_cli(capsys, *verb, "--m", "2", "--n", "-1")
    assert code == 2 and out == ""
    assert err.endswith("--n must be >= 0, got -1\n")


def _pick(valid, invalid):
    """A valid value nine times in ten, else an invalid one."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(invalid if i == 9 else valid))


def _int(lo, hi, low_bad=-1):
    """A decimal in lo..hi, or else one in low_bad..lo-1 or a non-number."""
    return _pick([str(v) for v in range(lo, hi + 1)],
                 [str(v) for v in range(low_bad, lo)] + ["x"])


def _choice(values):
    return _pick(list(values), ["bogus"])


SEQ = st.one_of(
    # mostly nondecreasing from 1: running sums of small steps
    st.lists(st.integers(-1, 4), max_size=7).map(
        lambda steps: ",".join(map(str, accumulate([1] + steps)))),
    st.lists(st.integers(-1, 14), max_size=7).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["x", "1,,2", ",", ""]),
)
FORMAT = _choice(("text", "csv", "json"))
# (required options, optional options) of each verb, with small values:
# n <= 6, order <= 6
VERB_OPTIONS = {
    "enumerate": ({"--m": _int(1, 4), "--n": _int(0, 6)},
                  {"--k": _int(1, 3), "--r": _int(0, 2),
                   "--kind": _choice(("u", "cat")),
                   "--max-objects": _int(0, 3000)}),
    "count": ({"--m": _int(1, 4), "--n": _int(0, 6)},
              {"--k": _int(1, 3), "--r": _int(0, 2),
               "--kind": _choice(("u", "cat"))}),
    "stats": ({"--m": _int(1, 4), "--seq": SEQ},
              {"--kind": _choice(("u", "cat"))}),
    "decompose": ({"--m": _int(1, 4), "--seq": SEQ}, {}),
    "map": ({"--m": _int(1, 4), "--name": _choice(MAP_NAMES)},
            {"--seq": SEQ, "--word": st.text("NEx", max_size=12)}),
    "poly": ({"--m": _int(1, 4), "--n": _int(0, 6),
              "--name": _choice(POLY_NAMES)},
             {"--max-objects": _int(0, 3000), "--max-order": _int(0, 6)}),
    "tensor": ({"--m": _int(1, 4), "--n": _int(0, 6)},
               {"--max-objects": _int(0, 3000)}),
    "tables": ({"--id": _int(1, 10, low_bad=0)}, {}),
    # the full default suite is the slow case; fuzz one scope at a time
    "verify": ({"--scope": _choice(CHECKS)},
               {"--m": _int(1, 5), "--order": _int(0, 6),
                "--max-n": _int(0, 6), "--max-order": _int(0, 6)}),
}


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERB_OPTIONS)))
    required, optional = VERB_OPTIONS[verb]
    values = {**required, **optional, "--format": FORMAT}
    argv = [verb]
    for flag in draw(st.permutations(sorted(values))):
        # a required option is left out one time in ten, others half the time
        if draw(st.integers(0, 9)) < (9 if flag in required else 5):
            argv += [flag, draw(values[flag])]
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    """An exception escaping main fails the test by propagating."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    # every error comes before the first write to stdout
    if code in (2, 3):
        assert out.getvalue() == "", argv


def _call(argv):
    """main(argv) in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_verify_errata_names_its_m():
    code, out, err = _call(["verify", "--scope", "errata", "--m", "3"])
    assert code == 2 and out == "" and "m=2" in err


def test_shared_parser_matches_fresh_parser(monkeypatch):
    """One parser serves every main call in a process; no value leaks."""
    session = [
        ["count", "--m", "2", "--n"],  # usage error
        ["count", "--m", "2", "--n", "3", "--k", "2", "--r", "0"],
        ["count", "--m", "2", "--n", "3"],
        ["stats", "--m", "2", "--seq", "1,1,4", "--format", "json"],
        ["stats", "--m", "2", "--seq", "1,1,4"],
        ["map", "--name", "tau", "--m", "2", "--seq", "1,1,4"],
        ["decompose", "--m", "3", "--seq", "1,1,2,5"],
        ["verify", "--scope", "counting"],
    ]

    def run_session():
        results = []
        for argv in session:
            code, out, _ = _call(argv)
            results.append((code, re.sub(r"\(\d+ ms\)", "(ms)", out)))
        return results

    assert cli._parser() is cli._parser()
    shared = run_session()
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert shared == run_session()
    assert shared[0] == (2, "")
    assert shared[1][1] != shared[2][1]  # --k 2 --r 0 counts another family
    assert shared[3][1].startswith("{") and shared[4][1].startswith("luck ")
    assert build_parser() is not build_parser()


def _fresh_parse(argv):
    """A fresh top-level parser's (exit code, stdout, stderr) on argv; the
    code is None when it parses."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["nosuch"],
    ["nosuch", "--m", "2"],
    ["stats", "--help"],
    ["verify", "--help"],
    ["stats", "--m", "2", "--seq", "1,1,4", "--bogus"],
    ["stats", "--m", "2", "--seq", "1,1,4", "stray"],
    ["count", "--m", "2", "stray", "--n", "3", "--bogus", "x"],
    ["stats", "--m", "x", "--seq", "1"],
    ["count", "--m", "2", "--n"],
], ids=" ".join)
def test_parse_errors_match_the_top_level_parser(argv):
    """Help and usage errors, whichever parser main uses, print what the
    top-level parser prints and exit with its code."""
    expected = _fresh_parse(argv)
    assert expected[0] in (0, 2)
    assert _call(argv) == expected


def test_a_plain_argv_builds_no_parser(monkeypatch):
    """A plain argv is read from the tables and builds no argparse parser;
    any other form, such as --flag=value, goes through the top-level
    parser, which builds one parser per verb under it."""
    built = []
    real_init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    monkeypatch.setattr(cli, "_parser", functools.cache(build_parser))
    assert _call(["count", "--m", "2", "--n", "3"]) == (0, "12\n", "")
    assert built == []
    assert _call(["count", "--m=2", "--n", "3"]) == (0, "12\n", "")
    assert len(built) == 1 + len(cli.VERBS)


# int option values, --seq and --word values, and the forms a plain argv
# does not take; each drawn argv gets at most one of those forms
INT_VALUES = (None, "-1", "0", "1", "2", "7", "x", "", "3_0")
SEQ_VALUES = (None, "", "0", "1,,2", "x", "3,1", "1,1,4")
FORMS = (None, None, None, None, "repeat", "stray", "equals", "abbreviate")


def _draw_argv(rng):
    """A verb and a random subset of its options, in random order, from
    VERBS and OPTIONS: each choice, or one bad value, and each int or text
    value from its list; verify always names one scope, as the full suite
    is the slow case."""
    verb = rng.choice(list(cli.VERBS))
    keys = cli.VERBS[verb][2].split()
    rng.shuffle(keys)
    argv = [verb]
    for key in keys:
        flag, spec = key.rpartition(":")[2], cli.OPTIONS[key]
        if "choices" in spec:
            values = (None, *spec["choices"], "bogus")
        elif flag == "--scope":
            values = (*CHECKS, "bogus")
        elif spec.get("type") is int or flag == "--id":
            values = INT_VALUES
        else:
            values = SEQ_VALUES
        value = rng.choice(values)
        if value is not None:
            argv += [flag, value]
    form = rng.choice(FORMS) if len(argv) > 1 else None
    pair = rng.randrange(1, len(argv), 2) if form else None
    if form == "repeat":
        argv += [argv[pair], rng.choice(("1", "2", "text"))]
    elif form == "stray":
        argv.insert(rng.randrange(1, len(argv) + 1), "stray")
    elif form == "equals":
        argv[pair:pair + 2] = [f"{argv[pair]}={argv[pair + 1]}"]
    elif form == "abbreviate":
        argv[pair] = argv[pair][:-1]
    return argv


def _usage_free(err):
    """The lines of stderr past argparse's usage text, if any leads it."""
    lines = err.splitlines()
    if lines and lines[0].startswith("usage:"):
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    return lines


def test_drawn_argv_parse_as_the_top_level_parser_and_exit_cleanly():
    """Every argv the table path accepts gets the Namespace a fresh
    top-level parser gives, and every argv ends in 0, 1, 2 or 3 with at
    most one line of its own on stderr.  enumerate lists up to
    --max-objects rows and verify's sweeps have no cost bound yet, so those
    two verbs are parsed but not run when a value is 7 or 3_0."""
    rng = random.Random(29)
    plain = 0
    for _ in range(3000):
        argv = _draw_argv(rng)
        namespace = cli._parse_plain(argv)
        if namespace is not None:
            plain += 1
            assert namespace == build_parser().parse_args(argv), argv
        values = {token.rpartition("=")[2] for token in argv}
        if argv[0] in ("enumerate", "verify") and values & {"7", "3_0"}:
            continue
        code, out, err = _call(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert len(_usage_free(err)) <= 1 and "Traceback" not in err, argv
        if code in (2, 3):
            assert out == "", argv
    assert plain > 300


FORMAT_CHOICES = ("text", "csv", "json")
# verb -> (flag, dest, type, default, required, choices) of each option in
# --help order, as the parser has declared them since before its tables
SURFACE = {
    "enumerate": [
        ("--m", "m", int, None, True, None),
        ("--n", "n", int, None, True, None),
        ("--k", "k", int, None, False, None),
        ("--r", "r", int, None, False, None),
        ("--kind", "kind", None, "u", False, ("u", "cat")),
        ("--max-objects", "max_objects", int, 10**8, False, None),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
    "count": [
        ("--m", "m", int, None, True, None),
        ("--n", "n", int, None, True, None),
        ("--k", "k", int, None, False, None),
        ("--r", "r", int, None, False, None),
        ("--kind", "kind", None, "u", False, ("u", "cat")),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
    "stats": [
        ("--m", "m", int, None, True, None),
        ("--seq", "seq", str, None, False, None),
        ("--kind", "kind", None, "u", False, ("u", "cat")),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
    "decompose": [
        ("--m", "m", int, None, True, None),
        ("--seq", "seq", str, None, False, None),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
    "map": [
        ("--name", "name", None, None, True,
         ("theta", "theta-inv", "tau", "eta", "eta-inv", "to-path",
          "from-path")),
        ("--word", "word", str, None, False, None),
        ("--m", "m", int, None, True, None),
        ("--seq", "seq", str, None, False, None),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
    "poly": [
        ("--name", "name", None, None, True, ("R", "gamma", "multi", "B")),
        ("--m", "m", int, None, True, None),
        ("--n", "n", int, None, True, None),
        ("--max-objects", "max_objects", int, 10**8, False, None),
        ("--max-order", "max_order", int, 24, False, None),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
    "tensor": [
        ("--m", "m", int, None, True, None),
        ("--n", "n", int, None, True, None),
        ("--max-objects", "max_objects", int, 10**8, False, None),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
    "tables": [
        ("--id", "id", str, None, True, None),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
    "verify": [
        ("--scope", "scope", None, "all", False, None),
        ("--order", "order", int, None, False, None),
        ("--max-n", "max_n", int, None, False, None),
        ("--m", "m", int, None, False, None),
        ("--max-order", "max_order", int, 24, False, None),
        ("--format", "format", None, "text", False, FORMAT_CHOICES),
    ],
}


def test_every_verb_keeps_its_options():
    """No verb gains, loses or reorders an option, nor changes one's dest,
    type, default, requiredness or choices."""
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    verbs = subparsers.choices
    assert list(verbs) == list(SURFACE)
    for verb, options in SURFACE.items():
        actions = [a for a in verbs[verb]._actions if a.dest != "help"]
        assert [(*a.option_strings, a.dest, a.type, a.default, a.required,
                 a.choices) for a in actions] == options, verb
        assert verbs[verb].get_default("fn") is getattr(cli, f"cmd_{verb}")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.sampled_from(("u", "cat")),
       st.sampled_from(("text", "csv", "json")), st.sampled_from((None, (2, 1))))
@example(2, 0, "u", "text", None)
@example(2, 0, "u", "csv", None)
@example(2, 0, "u", "json", None)
# one position: each row is one piece, carrying the frame's head and tail
@example(2, 1, "u", "text", None)
@example(2, 1, "u", "csv", None)
@example(2, 1, "u", "json", None)
@example(2, 1, "cat", "text", None)
@example(2, 1, "cat", "csv", None)
@example(2, 1, "cat", "json", None)
@example(3, 4, "u", "csv", (2, 1))
def test_enumerate_json_bytes(m, n, kind, fmt, kr):
    """Every enumerate format, byte for byte, against the tuple enumeration
    written by json.dumps, csv.writer or seq_str.  kr is a (--k, --r) family."""
    assume(kr is None or (kind == "u" and 2 <= m <= 3))
    assume(kind == "u" or n >= 1)
    argv = ["enumerate", "--m", str(m), "--n", str(n), "--kind", kind,
            "--format", fmt]
    if kind == "cat":
        sequences = list(enumerate_caterpillar_pk(m, n))
        length = m * n - m + 1
    elif kr is None:
        sequences = list(enumerate_u_pk(n, canonical_family(m)))
        length = n
    else:
        sequences = list(enumerate_u_pk(n, BoundFamily(m, *kr)))
        length = n
        argv += ["--k", str(kr[0]), "--r", str(kr[1])]
    if fmt == "json":
        expected = json.dumps({"m": m, "n": n, "kind": kind,
                               "sequences": [list(s) for s in sequences]},
                              indent=2) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([f"p{i}" for i in range(1, length + 1)])
        writer.writerows(sequences)
        expected = buffer.getvalue()
    else:
        expected = "".join(seq_str(s) + "\n" for s in sequences)
    assert _call(argv) == (0, expected, "")


class _Writes(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("write_size", [1, 1000])
@pytest.mark.parametrize("kind,fmt", [("cat", "csv"), ("u", "json")])
def test_enumerate_writes_whole_batches_up_to_the_write_size(
        monkeypatch, kind, fmt, write_size):
    """The bytes do not depend on the write size.  Every write but the last
    reaches it, and none holds more than one batch past it, besides the
    text around the rows."""
    argv = ["enumerate", "--m", "3", "--n", "5", "--kind", kind,
            "--format", fmt]
    expected = _call(argv)
    batches = []

    def recorded(real):
        def rows(*args, **kwargs):
            for batch in real(*args, **kwargs):
                batches.append(len(batch))
                yield batch
        return rows

    for name in ("enumerate_u_pk", "enumerate_caterpillar_pk"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    monkeypatch.setattr(cli, "WRITE_SIZE", write_size)
    out = _Writes()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert (0, out.getvalue(), "") == expected
    assert all(size >= write_size for size in out.sizes[:-1])
    around = len(expected[1]) - sum(batches)
    assert max(out.sizes) < around + write_size + max(batches)


class _Closed(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_without_a_descriptor_is_one_line():
    """A stdout with no file descriptor, as here, is left untouched."""
    err = io.StringIO()
    with contextlib.redirect_stdout(_Closed()), contextlib.redirect_stderr(err):
        code = main(["enumerate", "--m", "2", "--n", "3"])
    assert code == 1
    assert err.getvalue() == "catpark enumerate: output closed early\n"


def _child_env():
    """This catpark on the path, and stdout buffered, as by default."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(catpark.__file__).resolve().parents[1])
    return env


def test_closed_pipe_exits_1_without_a_traceback():
    """A reader that stops after the first line, as head -n 1 does: the
    child says so in one line on stderr and exits 1."""
    argv = [sys.executable, "-m", "catpark.cli", "enumerate", "--m", "2",
            "--n", "9", "--format", "csv"]
    # 246,675 rows, far more than a pipe holds, so the child is still
    # writing when the pipe closes
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_child_env()) as child:
        assert child.stdout.readline() == b"p1,p2,p3,p4,p5,p6,p7,p8,p9\n"
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert err == b"catpark enumerate: output closed early\n"
    assert code == 1


def test_pipe_closed_before_the_output_exits_1():
    """Output that fits stdout's buffer meets the closed pipe at main's
    flush; the flush at exit then finds devnull, so it cannot raise again
    (that would print "Exception ignored" and exit 120)."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "catpark.cli", "count", "--m", "2", "--n",
             "3"], stdout=write, stderr=subprocess.PIPE, env=_child_env(),
            timeout=60)
    finally:
        os.close(write)
    assert done.stderr == b"catpark count: output closed early\n"
    assert done.returncode == 1


TABLE_1 = ["(1,1,1,2,4)", "(1,1,2,2,4)", "(1,1,2,3,4)", "(1,1,2,4,4)",
           "(1,1,2,4,5)", "(1,2,2,2,4)", "(1,2,2,3,4)", "(1,2,2,4,4)",
           "(1,2,2,4,5)", "(1,2,3,3,4)", "(1,2,3,4,4)", "(1,2,3,4,5)"]
TABLE_1_TITLE = "Parking distributions on the regularity-2, length-3 caterpillar"
TABLE_1_NOTE = ("the printed source lists (1,2,3,4,4) twice and omits "
                "(1,2,2,4,4); the corrected set is shown")
ERRATA_CHECKS = [
    ("stated-count-erratum", {"m": 2, "n": 3},
     {"enumerated": 12, "stated": 4}),
    ("q-luck-exponent-erratum", {"m": 2},
     {"n": 2, "enumerated": "q^2 + 2*q", "stated": "q^2 + q"}),
    ("joint-series-arguments-erratum", {"m": 2},
     {"n": 2, "enumerated": "q*t^2*u^3*v^3 + q^2*t*u^2*v^2 + q*t*u^2*v^3",
      "stated": "q*t^2*u^3*v^3 + q^2*t*u^2*v^3 + q*t*u^2*v^2"}),
]
# (argv, text, csv, json payload): one small call of every verb but
# enumerate, as printed before the three formats shared one writer
PINNED_OUTPUTS = [
    (["count", "--m", "2", "--n", "3"],
     "12\n",
     "m,k,r,n,kind,count\n2,1,1,3,u,12\n",
     {"m": 2, "k": 1, "r": 1, "n": 3, "kind": "u", "count": 12}),
    (["stats", "--m", "2", "--kind", "cat", "--seq", "1,1,2,3,4"],
     "luck 1\nparked True\nomega1 2\nomega2 1\n",
     "luck,parked,omega1,omega2\n1,True,2,1\n",
     {"luck": 1, "parked": True, "omega1": 2, "omega2": 1}),
    (["decompose", "--m", "2", "--seq", "1,2,4,5"],
     "p1 ()\np2 (1,3,4)\np3 ()\nfixed-points (2,5)\n",
     'component,values\np1,\np2,"1,3,4"\np3,\nfixed-points,"2,5"\n',
     {"components": [[], [1, 3, 4], []], "fixed_points": [2, 5]}),
    (["map", "--name", "to-path", "--m", "2", "--seq", "1,1,3"],
     "NNEENEE\n",
     "result\nNNEENEE\n",
     {"result": "NNEENEE"}),
    (["poly", "--name", "R", "--m", "2", "--n", "2"],
     "q^2 + 2*q\n",
     "q,coeff\n2,1\n1,2\n",
     {"variables": ["q"], "terms": [[[2], 1], [[1], 2]]}),
    (["tensor", "--m", "2", "--n", "2"],
     "1,1,2 1\n1,2,1 1\n2,1,1 1\n",
     "k0,k1,k2,count\n1,1,2,1\n1,2,1,1\n2,1,1,1\n",
     {"m": 2, "n": 2, "entries": [{"key": [1, 1, 2], "count": 1},
                                  {"key": [1, 2, 1], "count": 1},
                                  {"key": [2, 1, 1], "count": 1}]}),
    (["tables", "--id", "1"],
     "\n".join([TABLE_1_TITLE, "distribution"] + TABLE_1
               + [f"note: {TABLE_1_NOTE}"]) + "\n",
     "distribution\n" + "".join(f'"{row}"\n' for row in TABLE_1),
     {"id": "1", "title": TABLE_1_TITLE, "header": ["distribution"],
      "rows": [[row] for row in TABLE_1], "annotations": [TABLE_1_NOTE]}),
    (["verify", "--scope", "errata"],
     "erratum  stated-count-erratum [m=2 n=3] (0 ms)\n"
     "erratum  q-luck-exponent-erratum [m=2] (0 ms)\n"
     "erratum  joint-series-arguments-erratum [m=2] (0 ms)\n"
     "summary: 0 passed, 3 errata demonstrated, 0 failed\n",
     "identity,status,params,millis\n"
     'stated-count-erratum,erratum,"{""m"": 2, ""n"": 3}",0\n'
     'q-luck-exponent-erratum,erratum,"{""m"": 2}",0\n'
     'joint-series-arguments-erratum,erratum,"{""m"": 2}",0\n',
     {"ok": True, "checks": [
         {"identity": identity, "status": "erratum", "params": params,
          "counterexample": counterexample, "millis": 0}
         for identity, params, counterexample in ERRATA_CHECKS]}),
]


@pytest.mark.parametrize("argv, text, csv_text, payload", PINNED_OUTPUTS,
                         ids=[case[0][0] for case in PINNED_OUTPUTS])
def test_pinned_outputs(monkeypatch, argv, text, csv_text, payload):
    """Every format of every verb but enumerate, byte for byte; a frozen
    clock makes verify's millis 0."""
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    expected = {"text": text, "csv": csv_text,
                "json": json.dumps(payload, indent=2) + "\n"}
    for fmt, want in expected.items():
        assert _call(argv + ["--format", fmt]) == (0, want, "")
