"""catpark benchmark: three closed-loop workloads and a traced per-layer run.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --compare OLD.json NEW.json

Runs catpark from the checkout's own ``src`` (it need not be installed).
Each measurement runs in a fresh child interpreter (worker.py).  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--out FILE`` also saves the full record
(environment, every named metric, per-pass samples) for ``--compare``.
See README.md for the workloads and metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-suite", "identity-orders", "cli-session")
RUN_LIMIT_S = 170  # every run ends well inside 180 s
# Defined on every workload; the record's other metrics exist on one only.
END_TO_END = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "peak_rss_mib": "MiB",
}
# The per-layer metrics defined on every workload.  Times appear here only
# for layers that all three workloads exercise; the others, such as the
# per-check harness times, are in the saved record (--out).
PER_LAYER = {
    **{f"decomposition.{f}.calls": "count"
       for f in ("tau", "decompose", "recompose", "eta", "eta_inv")},
    "decomposition.is_u_pk_per_tau": "calls/call",
    "decomposition.decompose_per_tau": "calls/call",
    **{f"caterpillar.{f}.calls": "count"
       for f in ("simulate", "is_tree_pk", "theta", "theta_inv")},
    "caterpillar.simulate.self_s": "s",
    "caterpillar.enumerate_caterpillar_pk.rows": "count",
    "kernels.luck_histogram.self_s": "s",
    "kernels.stat_quad_histogram.self_s": "s",
    "kernels.objects_counted": "count",
    "kernels.objects_per_s": "1/s",
    "kernels.iter_bounded.rows": "count",
    "sequences.is_u_pk.calls": "count",
    "sequences.count_for_bounds.calls": "count",
    "sequences.count_for_bounds.self_s": "s",
    "sequences.enumerate_u_pk.rows": "count",
    "polynomials.mul.calls": "count",
    "polynomials.mul.self_s": "s",
    "polynomials.add.calls": "count",
    "polynomials.add.self_s": "s",
    "series.mul.calls": "count",
    "engine.brute.self_s": "s",
    "engine.coefficients_compared": "count",
    "trace.overhead_ratio": "ratio",
}
# Work counters that must repeat exactly between two traced runs.
EXACT_COUNTERS = ("decomposition.is_u_pk_per_tau", "decomposition.decompose_per_tau",
                  "kernels.objects_counted", "engine.coefficients_compared",
                  "trace.spans")


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def child(args, deadline):
    """Run a Python child to completion; its last stdout line, or exit."""
    try:
        done = subprocess.run([sys.executable] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"child {args[:2]} did not finish within the run limit")
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        fail(f"child {args[:2]} exited with code {done.returncode}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    return done.stdout.strip().splitlines()[-1]


def worker(workload, seed, seconds, trace, deadline, spans=None):
    args = [str(HERE / "worker.py"), workload, str(seed), str(seconds), str(trace)]
    return json.loads(child(args + ([spans] if spans else []), deadline))


def timed_record(workload, result):
    """End-to-end metrics from the worker's passes (the warm-up pass left
    out) and set-up probes, plus the names each workload is known by.

    ``setup_s`` and ``pass_ref_s`` are at reference speed: the host's
    CPU-speed drift slows the reference loop too and cancels (refclock.py).
    The loop does not cancel the slowest stretches in full, so a pass made
    in one still reads high, never low; ``pass_ref_s`` is therefore the
    first quartile of the passes, which such stretches reach only when they
    fill most of the run.
    """
    passes = result["passes"][1:]
    walls = [p["wall_s"] for p in passes]
    ref_walls = [at_reference_speed(p["wall_s"], p["ref_s"]) for p in passes]
    probes = result["setup_probes"]
    metrics = {
        "setup_s": statistics.median(at_reference_speed(s, ref) for s, ref in probes),
        "pass_ref_s": (statistics.quantiles(ref_walls, n=4)[0] if len(ref_walls) > 1
                       else ref_walls[0]),
        "peak_rss_mib": result["peak_rss_mib"],
        "setup_wall_s": statistics.median(s for s, _ in probes),
        "pass_wall_s": statistics.median(walls),
    }
    if workload == "verify-suite":
        metrics["verify_s"] = statistics.median(walls)
    elif workload == "identity-orders":
        metrics["identity_s"] = statistics.median(walls)
    else:
        call_ms = [ms for p in passes for ms in p["op_ms"]]
        metrics["cli_ms_p50"] = statistics.median(call_ms)
        metrics["cli_ms_p90"] = statistics.quantiles(call_ms, n=10)[8]
        metrics["enumerate_rows_per_s"] = (sum(p["rows"] for p in passes)
                                           / sum(p["bulk_s"] for p in passes))
    return metrics


def exact_mismatches(first, second):
    keys = [k for k in first if k.endswith((".calls", ".rows")) or k in EXACT_COUNTERS]
    return {k: (first[k], second.get(k)) for k in keys if first[k] != second.get(k)}


def run(args):
    if not (SRC / "catpark" / "__init__.py").is_file():
        fail(f"no catpark sources under {SRC}; run from a full checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        first, second = (worker(args.workload, args.seed, args.seconds, 1, deadline, spans)
                         for spans in (args.spans, None))
        layers = first["layers"]
        mismatched = exact_mismatches(layers, second["layers"])
        for key, (a, b) in mismatched.items():
            sys.stderr.write(f"perfbench: counter {key} differs between traced runs: {a} != {b}\n")
        passes = first["passes"] + second["passes"]
        record = {"metrics": layers, "counters_repeat": not mismatched}
        shown = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        first = worker(args.workload, args.seed, args.seconds, 0, deadline)
        passes = first["passes"]
        mismatched = {}
        record = {"metrics": timed_record(args.workload, first),
                  "samples": {"pass_wall_s": [p["wall_s"] for p in passes],
                              "pass_ref_loop_s": [p["ref_s"] for p in passes],
                              "setup_wall_s": [s for s, _ in first["setup_probes"]],
                              "setup_ref_loop_s": [ref for _, ref in first["setup_probes"]]}}
        shown = {name: (record["metrics"][name], unit) for name, unit in END_TO_END.items()}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record["metrics"]["failed_ratio"] = failed / attempted
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=len(passes), attempted=attempted,
                  failed=failed, env=dict(first["env"], git_sha=git_sha(), seed=args.seed))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for name, value in sorted(record["metrics"].items()):
        print(f"{name:48s} {value}")
    print(json.dumps({
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))


def compare(old_path, new_path):
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for key in ("workload", "trace"):
        if old[key] != new[key]:
            fail(f"refusing to compare {key} {old[key]!r} with {new[key]!r}")
    if old["env"]["backend"] != new["env"]["backend"]:
        fail(f"refusing to compare kernel backends {old['env']['backend']!r} and "
             f"{new['env']['backend']!r}: the compiled kernels run 5-25x faster")
    print(f"{old['workload']}: {old['env'].get('git_sha')} -> {new['env'].get('git_sha')}")
    for name in sorted(set(old["metrics"]) & set(new["metrics"])):
        a, b = old["metrics"][name], new["metrics"][name]
        ratio = f"{b / a:.3f}x" if a else "-"
        print(f"{name:48s} {a:>14.6g} {b:>14.6g} {ratio:>9s}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="save the full record as JSON")
    parser.add_argument("--spans", help="traced run: write every span as JSON lines")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print new/old ratios of two saved records")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
