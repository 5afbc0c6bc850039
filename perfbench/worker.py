"""One fresh process per measurement; started by run.py, not by hand.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [SPANS_FILE]

TRACE 0 runs a warm-up pass, then passes until SECONDS have elapsed (at
least one), each timed against the reference loop (refclock.py) and
followed by three set-up probes, each in a fresh interpreter.  It reports
every pass, every probe and the process's peak RSS, so one workload's peak
never leaks into another's.  TRACE 1 runs the same pass three times: twice
untraced, then traced, and reports the passes and the traced pass's per-layer
metrics.  The result is the last stdout line.
"""

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))
MIN_SETUP_PROBES = 9
SETUP_PROBES_PER_PASS = 3

# Time from a fresh interpreter's first statement to a built CLI parser.
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import catpark.cli\n"
    "catpark.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)

import catpark  # noqa: E402
from refclock import Sampler, reference_s  # noqa: E402
from workloads import WORKLOADS, NullProbe  # noqa: E402


def environment():
    return {
        "catpark_file": catpark.__file__,
        "catpark_version": catpark.__version__,
        "backend": catpark.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def setup_probe():
    """[set-up seconds, mean reference-loop time just before and after]."""
    before = reference_s()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True)
    return [float(done.stdout), (before + reference_s()) / 2]


def timed_passes(workload, seconds):
    """A warm-up pass, then passes until ``seconds`` have elapsed, with
    set-up probes after each, so the set-up samples spread over the same
    stretch of time as the passes.  The warm-up pass is checked like the
    others and comes first in the list."""
    setup_probe()  # fills the bytecode cache
    passes, setup = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        with Sampler() as sampler:
            result = workload.run_pass(len(passes), NullProbe())
        result.ref_s = sampler.mean_s
        passes.append(result)
        setup.extend(setup_probe() for _ in range(SETUP_PROBES_PER_PASS))
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(setup_probe())
    return passes, setup


def traced_passes(workload, spans_file):
    from tracing import Tracer

    # The first pass pays for first-touch memory and full output checks, so
    # the overhead ratio compares the traced pass with a second, warm one.
    warm_up = workload.run_pass(0, NullProbe())
    untraced = workload.run_pass(0, NullProbe())
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(0, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    if spans_file:
        with open(spans_file, "w") as out:
            for span in tracer.iter_spans():
                out.write(json.dumps(span) + "\n")
    return [warm_up, untraced, traced], layers


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    workload = WORKLOADS[name](seed)
    record = {"env": environment()}
    if trace:
        passes, record["layers"] = traced_passes(workload, argv[4] if len(argv) > 4 else None)
    else:
        passes, record["setup_probes"] = timed_passes(workload, seconds)
        record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["passes"] = [vars(p) for p in passes]
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
