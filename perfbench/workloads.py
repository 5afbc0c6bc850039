"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  ``run_pass`` runs one pass and returns a
``PassResult``; an operation is one harness check (verify-suite), one
identity call (identity-orders) or one ``cli.main`` call (cli-session).

Every input comes from the seed through this module's own generator, and
every check uses this module's own arithmetic, never a catpark result it is
meant to check.  catpark is reached through module attributes
(``engine.verify_r_series``, ``cli.main``) so that the traced run's wrappers
see every call.
"""

import contextlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from math import comb

from catpark import cli, engine, harness
from refclock import clock


@dataclass
class PassResult:
    wall_s: float  # time spent inside catpark calls, checks excluded
    op_ms: list = field(default_factory=list)  # latency per measured operation
    attempted: int = 0
    failed: int = 0
    rows: int = 0  # cli-session bulk phase only
    bulk_s: float = 0.0
    ref_s: float = 0.0  # mean reference-loop time over the pass (timed passes)


class NullProbe:
    """Stands in for the tracer in untraced passes."""

    def begin_op(self, label):
        pass


def fuss(m, n):
    return comb(m * n + n, n) // (m * n + 1)


def call_cli(argv):
    """One in-process ``cli.main`` call; returns (exit code, stdout, seconds).

    An exception escaping ``main`` is reported on stderr and returned as
    exit code None, so the operation counts as failed and the loop goes on.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = clock()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            traceback.print_exc(file=sys.__stderr__)
        elapsed = clock() - start
    return rc, out.getvalue(), elapsed


# -- verify-suite ------------------------------------------------------------

# Report statuses each default check must produce, in order.  The five errata
# are the three stated ones and the two multi-stat-product-order1 gaps.
VERIFY_EXPECTED = {
    "counting": ("pass",) * 4,
    "funceq": ("pass",) * 4,
    "hseries": ("pass",) * 2,
    "recurrence": ("pass",) * 3,
    "involution": ("pass",) * 3,
    "gamma": ("pass",) * 2,
    "qluck": ("pass",) * 3,
    "hbasis": ("pass",) * 3,
    "eta": ("pass",) * 3,
    "theta": ("pass",) * 3,
    "parking": ("pass",),
    "lattice": ("pass",),
    "multistat": ("pass", "pass", "erratum", "pass", "erratum"),
    "tensor": ("pass",) * 3,
    "convolution": ("pass",) * 3,
    "errata": ("erratum",) * 3,
}
VERIFY_ERRATA = sorted([
    "stated-count-erratum", "q-luck-exponent-erratum",
    "joint-series-arguments-erratum", "multi-stat-product-order1",
    "multi-stat-product-order1",
])


def verify_report_ok(rc, out):
    """Exit 0, ``ok: true``, 46 entries: 41 pass and the 5 known errata."""
    if rc != 0:
        return False
    try:
        report = json.loads(out)
    except ValueError:
        return False
    entries = report.get("checks", [])
    statuses = [e.get("status") for e in entries]
    errata = sorted(e.get("identity") for e in entries if e.get("status") == "erratum")
    return (report.get("ok") is True and len(entries) == 46
            and statuses.count("pass") == 41 and errata == VERIFY_ERRATA)


class VerifySuite:
    """The default suite through ``catpark verify --format json``.

    The suite is fixed, so the seed changes nothing here.  Each check is
    timed from outside by wrapping the ``harness.CHECKS`` callables; the
    report's own ``millis`` is not used.
    """

    def __init__(self, seed):
        self.seed = seed

    def run_pass(self, index, probe):
        seen = []  # (check, seconds, statuses)

        def timed(name, check):
            def run(entries, opts):
                probe.begin_op(name)
                before = len(entries)
                start = clock()
                check(entries, opts)
                seen.append((name, clock() - start,
                             tuple(e.status for e in entries[before:])))
            return run

        originals = dict(harness.CHECKS)
        harness.CHECKS.update({n: timed(n, c) for n, c in originals.items()})
        try:
            rc, out, wall = call_cli(["verify", "--format", "json"])
        finally:
            harness.CHECKS.update(originals)
        result = PassResult(wall, [s * 1000 for _, s, _ in seen],
                            attempted=len(VERIFY_EXPECTED))
        if not verify_report_ok(rc, out) or len(seen) != len(VERIFY_EXPECTED):
            result.failed = result.attempted
        else:
            result.failed = sum(1 for name, _, statuses in seen
                                if VERIFY_EXPECTED.get(name) != statuses)
        return result


# -- identity-orders -----------------------------------------------------------

# Brute-vs-closed phase: enumeration-backed checks at higher orders than the
# default suite, so kernels and the brute statistic polynomials dominate.
BRUTE_OPS = (
    [("verify_r_series", m, order) for m, order in ((1, 12), (2, 10), (3, 9), (4, 8))]
    + [("verify_gamma_series", m, order) for m, order in ((2, 9), (3, 8), (4, 7))]
    + [("verify_multi_stat_product", m, order) for m, order in ((2, 7), (3, 6))]
    + [("verify_convolution_identity", 3, 7)]
    + [("verify_tensor_symmetry", m, n) for m, n in ((2, 7), (3, 6))]
)
# Closed-only phase: series arithmetic alone, far past enumeration's reach.
CLOSED_OPS = (
    [("gamma_series_closed", m, order) for m, order in ((2, 16), (3, 16), (4, 14))]
    + [("r_series_closed", m, 30) for m in (2, 3, 4)]
)


def closed_counts_ok(series, m, order):
    """Every coefficient specialised to all variables = 1 is the m-th
    Fuss-Catalan number."""
    return all(sum(c for _, c in series.coefficient(n).items()) == fuss(m, n)
               for n in range(order + 1))


class IdentityOrders:
    """A fixed batch of identity checks; the seed changes nothing here."""

    def __init__(self, seed):
        self.seed = seed

    def run_pass(self, index, probe):
        result = PassResult(0.0)
        for name, m, order in BRUTE_OPS + CLOSED_OPS:
            probe.begin_op(name)
            start = clock()
            try:
                value = getattr(engine, name)(m, order)
            except Exception:
                traceback.print_exc(file=sys.__stderr__)
                value = None
            result.op_ms.append((clock() - start) * 1000)
            result.attempted += 1
            if name.endswith("_closed"):
                result.failed += value is None or not closed_counts_ok(value, m, order)
            else:
                result.failed += value is None or not value.ok
        result.wall_s = sum(result.op_ms) / 1000
        return result


# -- cli-session ---------------------------------------------------------------


def bound(m, i):
    """Canonical ceiling m*(i-1)+1 at 1-based position i."""
    return m * (i - 1) + 1


def random_sequence(rng, m, n):
    """A canonically bounded nondecreasing sequence of length n whose steps
    stay near the diagonal, so first-return blocks of every type occur."""
    seq = [1]
    for i in range(2, n + 1):
        seq.append(min(bound(m, i), seq[-1] + rng.randint(0, m + 1)))
    return tuple(seq)


def leaf_labels(m, n):
    return tuple(j for j in range(1, m * n - m + 2) if (j - 1) % m)


def tree_image(seq, m):
    """theta by definition: merge one copy of every leaf label."""
    return tuple(sorted(seq + leaf_labels(m, len(seq))))


def luck(seq, m):
    return sum(1 for i, v in enumerate(seq, start=1) if v == bound(m, i))


def first_fixed_point(seq, m, kind):
    """Smallest k > 1 with m(k-2)+1+kind <= seq[k] <= m(k-1)+1, else n+1."""
    for k in range(2, len(seq) + 1):
        if m * (k - 2) + 1 + kind <= seq[k - 1] <= bound(m, k):
            return k
    return len(seq) + 1


def text(seq):
    return ",".join(str(v) for v in seq)


def parse_seq(out):
    return tuple(int(v) for v in out.strip().split(","))


def is_bounded(seq, m):
    return (all(1 <= v <= bound(m, i) for i, v in enumerate(seq, start=1))
            and all(a <= b for a, b in zip(seq, seq[1:])))


def stats_u(rng, call):
    m = rng.randint(1, 4)
    seq = random_sequence(rng, m, rng.randint(3, 12))
    rc, out = call(["stats", "--m", str(m), "--seq", text(seq)])
    want = (f"luck {luck(seq, m)}\nomega1 {seq.count(1)}\n"
            f"f {first_fixed_point(seq, m, 1)}\ng {first_fixed_point(seq, m, m)}\n")
    return rc == 0 and out == want


def stats_cat(rng, call):
    m = rng.randint(1, 4)
    seq = random_sequence(rng, m, rng.randint(3, 10))
    rc, out = call(["stats", "--m", str(m), "--kind", "cat",
                    "--seq", text(tree_image(seq, m))])
    lines = out.splitlines()
    # theta carries luck over, and every theta image parks all its cars
    return rc == 0 and lines[:2] == [f"luck {luck(seq, m)}", "parked True"]


def decompose_one(rng, call):
    m = rng.randint(1, 4)
    seq = random_sequence(rng, m, rng.randint(3, 12))
    rc, out = call(["decompose", "--m", str(m), "--seq", text(seq)])
    lines = out.splitlines()
    fixed = tuple(first_fixed_point(seq, m, kind) for kind in range(1, m + 1))
    if rc != 0 or len(lines) != m + 2:
        return False
    blocks = [line[line.index("(") + 1:-1] for line in lines[:-1]]
    total = sum(len(b.split(",")) for b in blocks if b)
    return lines[-1] == f"fixed-points ({text(fixed)})" and total == len(seq) - 1


def map_pair(forward, backward):
    """Apply forward then backward; the second call must return the input."""
    def step(rng, call):
        m = rng.randint(1, 4)
        seq = random_sequence(rng, m, rng.randint(3, 12))
        if forward == "theta-inv":
            seq = tree_image(seq, m)
        rc, out = call(["map", "--name", forward, "--m", str(m), "--seq", text(seq)])
        if rc != 0:
            return False
        image = out.strip()
        arg = ["--word", image] if backward == "from-path" else ["--seq", image]
        rc, out = call(["map", "--name", backward, "--m", str(m)] + arg)
        return rc == 0 and parse_seq(out) == seq
    return step


def count_one(rng, call):
    m, n = rng.randint(1, 4), rng.randint(0, 30)
    rc, out = call(["count", "--m", str(m), "--n", str(n)])
    return rc == 0 and out == f"{fuss(m, n)}\n"


# One block of single-object steps; weights are fixed so every seed sees the
# same mix, and the seed only draws the objects and the order.
SESSION_BLOCK = (
    [stats_u] * 2 + [stats_cat] + [decompose_one] * 2 + [count_one]
    + [map_pair("tau", "tau"), map_pair("eta", "eta-inv"),
       map_pair("theta", "theta-inv"), map_pair("to-path", "from-path")]
)
SESSION_BLOCKS = 40
TABLE_IDS = tuple(str(i) for i in range(1, 11))

# Bulk phase (m, n) shapes: 53820 + 43263 = 97083 rows per kind.
BULK_SHAPES = ((3, 7), (2, 8))


def check_cat_csv(out, m, n):
    lines = out.splitlines()
    size = m * n - m + 1
    if lines[0] != ",".join(f"p{i}" for i in range(1, size + 1)):
        return False
    leaves = leaf_labels(m, n)
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    if len(rows) != fuss(m, n) or any(a >= b for a, b in zip(rows, rows[1:])):
        return False
    for row in rows:
        rest = list(row)
        for label in leaves:
            rest.remove(label)
        if len(row) != size or list(row) != sorted(row) or not is_bounded(rest, m):
            return False
    return True


def check_u_json(out, m, n):
    payload = json.loads(out)
    rows = [tuple(r) for r in payload["sequences"]]
    return (payload["m"] == m and payload["n"] == n and len(rows) == fuss(m, n)
            and all(a < b for a, b in zip(rows, rows[1:]))
            and all(len(r) == n and is_bounded(r, m) for r in rows))


class CliSession:
    """A stream of single-object ``cli.main`` calls, then a bulk phase."""

    def __init__(self, seed):
        self.seed = seed
        self.tables_seen = {}  # table id -> first output, later calls must match
        self.bulk_seen = {}  # argv -> output already checked in full

    def run_pass(self, index, probe):
        rng = random.Random(self.seed * 1_000_003 + index)
        result = PassResult(0.0)

        def call(argv):
            probe.begin_op(argv[0])
            rc, out, elapsed = call_cli(argv)
            result.op_ms.append(elapsed * 1000)
            result.attempted += 1
            return rc, out

        def table(rng, call):
            table_id = tables.pop()
            rc, out = call(["tables", "--id", table_id])
            first = self.tables_seen.setdefault(table_id, out)
            return rc == 0 and out == first and len(out.splitlines()) > 2

        tables = list(TABLE_IDS) * (SESSION_BLOCKS // len(TABLE_IDS))
        rng.shuffle(tables)
        for _ in range(SESSION_BLOCKS):
            block = list(SESSION_BLOCK) + [table]
            rng.shuffle(block)
            for step in block:
                calls_before = result.attempted
                try:
                    ok = step(rng, call)
                except (ValueError, IndexError):  # output too malformed to parse
                    ok = False
                if not ok:
                    result.failed += result.attempted - calls_before
        self.run_bulk(result, probe)
        result.wall_s = sum(result.op_ms) / 1000 + result.bulk_s
        return result

    def run_bulk(self, result, probe):
        for kind, fmt, check in (("cat", "csv", check_cat_csv),
                                 ("u", "json", check_u_json)):
            for m, n in BULK_SHAPES:
                argv = ["enumerate", "--m", str(m), "--n", str(n),
                        "--kind", kind, "--format", fmt]
                probe.begin_op("enumerate")
                rc, out, elapsed = call_cli(argv)
                result.attempted += 1
                result.bulk_s += elapsed
                result.rows += fuss(m, n)
                key = tuple(argv)
                if key not in self.bulk_seen:
                    try:
                        ok = rc == 0 and check(out, m, n)
                    except (ValueError, IndexError, KeyError, TypeError):
                        ok = False
                    if ok:
                        self.bulk_seen[key] = out
                else:
                    ok = rc == 0 and out == self.bulk_seen[key]
                result.failed += not ok


WORKLOADS = {
    "verify-suite": VerifySuite,
    "identity-orders": IdentityOrders,
    "cli-session": CliSession,
}
