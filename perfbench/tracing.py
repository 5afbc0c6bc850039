"""Span tracing for the traced run, installed from outside the package.

``Tracer.install`` wraps each layer's public functions where they are bound:
the defining module, and every catpark module that bound the same function
object with ``from ... import`` (harness, engine, cli, tables, ...).  Without
the second step those calls would bypass the wrapper.  ``uninstall`` puts
every original back.

A span is (name, start, end, parent, op); spans stay in compact in-memory
arrays until ``layer_metrics`` reduces them at the end of the run.  A span's
self time is its duration minus the time its child spans cover.  Generators
are not spanned, because their bodies run inside the consumer's frame;
their rows are counted instead.
"""

import sys
import time
from array import array

from catpark import caterpillar, cli, decomposition, engine, harness, kernels
from catpark import polynomials, sequences, series, tables

clock = time.perf_counter

# (module, function, layer, span name); module-level functions only.
SPANNED = (
    [(sequences, f, "sequences", f) for f in ("is_u_pk", "count_for_bounds")]
    + [(kernels, f, "kernels", f) for f in ("luck_histogram", "stat_quad_histogram")]
    + [(caterpillar, f, "caterpillar", f)
       for f in ("simulate", "is_tree_pk", "theta", "theta_inv")]
    + [(decomposition, f, "decomposition", f)
       for f in ("tau", "decompose", "recompose", "eta", "eta_inv")]
    + [(engine, f, "engine", f) for f in (
        "r_poly_brute", "gamma_poly_brute", "multi_stat_poly_brute",
        "r_series_closed", "gamma_series_closed", "fuss_catalan_series",
        "verify_functional_equation", "verify_r_series", "verify_gamma_series",
        "verify_thm_rec", "verify_multi_stat_product", "verify_tensor_symmetry",
        "verify_convolution_identity")]
    + [(harness, "run_verification", "harness", "run_verification"),
       (tables, "build_table", "tables", "build_table"),
       (cli, "main", "cli", "main"),
       (cli, "build_parser", "cli", "build_parser")]
)
# Functions returning an iterator: counted by rows yielded.
COUNTED = (
    (sequences, "enumerate_u_pk", "sequences"),
    (kernels, "iter_bounded", "kernels"),
    (caterpillar, "enumerate_caterpillar_pk", "caterpillar"),
)
# (class, dunder, layer, span name)
METHODS = (
    [(polynomials.MultiPoly, d, "polynomials", "mul") for d in ("__mul__", "__rmul__")]
    + [(polynomials.MultiPoly, d, "polynomials", "add") for d in ("__add__", "__radd__")]
    + [(polynomials.MultiPoly, "__eq__", "polynomials", "eq")]
    + [(series.TruncatedSeries, d, "series", "mul") for d in ("__mul__", "__rmul__")]
    + [(series.TruncatedSeries, "__pow__", "series", "pow"),
       (series.TruncatedSeries, "reciprocal", "series", "reciprocal")]
)
BRUTE = ("r_poly_brute", "gamma_poly_brute", "multi_stat_poly_brute")
CLOSED = ("r_series_closed", "gamma_series_closed", "fuss_catalan_series")
VERBS = ("enumerate", "count", "stats", "decompose", "map", "tables", "verify")


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "catpark" or name.startswith("catpark."))]


class Tracer:
    def __init__(self):
        self.names = []  # span name table, indexed by the ids below
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.op_labels = []
        self.verbs = {}  # span index of each cli.main call -> verb
        self.rows = {}
        self.objects_counted = 0
        self.patches = []  # (owner, attribute, original)

    def begin_op(self, label):
        """Start the next operation: one check, identity call or invocation."""
        self.op_id = len(self.op_labels)
        self.op_labels.append(label)

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents, ops = self.name.append, self.parent.append, self.op.append
        starts, ends, end, stack = self.start.append, self.end.append, self.end, self.stack

        def wrapper(*args, **kwargs):
            index = len(end)
            names(name_id)
            parents(stack[-1])
            ops(self.op_id)
            ends(0.0)
            stack.append(index)
            starts(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(index, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        self.rows[name] = 0

        def wrapper(*args, **kwargs):
            return self._count_rows(name, fn(*args, **kwargs))

        return wrapper

    def _count_rows(self, name, rows):
        seen = 0
        try:
            for row in rows:
                seen += 1
                yield row
        finally:
            self.rows[name] += seen

    def _histogram_objects(self, index, args, result):
        self.objects_counted += sum(
            result.values() if isinstance(result, dict) else result)

    def _record_verb(self, index, args, result):
        argv = args[0] if args else None
        self.verbs[index] = argv[0] if argv else "?"

    def _wrapped_parser(self, index, args, parser):
        parser.parse_args = self.span("cli.parse_args", parser.parse_args)

    # -- install / uninstall ------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace every binding of ``original`` in the package's modules."""
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        after = {"luck_histogram": self._histogram_objects,
                 "stat_quad_histogram": self._histogram_objects,
                 "main": self._record_verb,
                 "build_parser": self._wrapped_parser}
        for mod, fn, layer, name in SPANNED:
            original = getattr(mod, fn)
            self._rebind(original, self.span(f"{layer}.{name}", original, after.get(fn)))
        for mod, fn, layer in COUNTED:
            original = getattr(mod, fn)
            self._rebind(original, self.counted(f"{layer}.{fn}.rows", original))
        wrappers = {}
        for cls, attr, layer, name in METHODS:
            original = vars(cls)[attr]
            key = (id(original), f"{layer}.{name}")
            if key not in wrappers:
                wrappers[key] = self.span(f"{layer}.{name}", original)
            self.patches.append((cls, attr, original))
            setattr(cls, attr, wrappers[key])
        for check, original in list(harness.CHECKS.items()):
            self.patches.append((harness.CHECKS, check, original))
            harness.CHECKS[check] = self.span(f"harness.{check}", original)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.patches.clear()

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics, named ``<module>.<function>.<stat>``."""
        count = len(self.end)
        covered = array("d", bytes(8 * count))
        inside_tau = bytearray(count)
        tau_id = self.name_ids["decomposition.tau"]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(count):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
                inside_tau[i] = names[p] == tau_id or inside_tau[p]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        under_tau = [0] * len(self.names)
        eq_in_verify = 0
        eq_id = self.name_ids["polynomials.eq"]
        verify_ids = {i for i, n in enumerate(self.names) if n.startswith("engine.verify_")}
        by_verb = {verb: [0, 0.0] for verb in VERBS}
        for i in range(count):
            n = names[i]
            duration = ends[i] - starts[i]
            calls[n] += 1
            total[n] += duration
            self_s[n] += duration - covered[i]
            under_tau[n] += inside_tau[i]
            if n == eq_id and parents[i] >= 0 and names[parents[i]] in verify_ids:
                eq_in_verify += 1
        for index, verb in self.verbs.items():
            slot = by_verb.setdefault(verb, [0, 0.0])
            slot[0] += 1
            slot[1] += ends[index] - starts[index]

        stat = {name: (calls[i], total[i], self_s[i]) for i, name in enumerate(self.names)}
        out = {}

        def emit(name, *kinds):
            c, t, s = stat[name]
            values = {"calls": c, "self_s": s, "s": t,
                      "us_per_call": t / c * 1e6 if c else 0.0}
            out.update({f"{name}.{kind}": values[kind] for kind in kinds})

        for f in ("tau", "decompose", "recompose", "eta", "eta_inv"):
            emit(f"decomposition.{f}", "calls", "self_s", "us_per_call")
        tau_calls = stat["decomposition.tau"][0]
        for f, name in (("is_u_pk", "sequences.is_u_pk"),
                        ("decompose", "decomposition.decompose")):
            inner = under_tau[self.name_ids[name]]
            out[f"decomposition.{f}_per_tau"] = inner / tau_calls if tau_calls else 0.0
        for f in ("simulate", "is_tree_pk", "theta", "theta_inv"):
            emit(f"caterpillar.{f}", "calls", "self_s")
        emit("kernels.luck_histogram", "self_s")
        emit("kernels.stat_quad_histogram", "self_s")
        kernel_s = (stat["kernels.luck_histogram"][2]
                    + stat["kernels.stat_quad_histogram"][2])
        out["kernels.objects_counted"] = self.objects_counted
        out["kernels.objects_per_s"] = self.objects_counted / kernel_s if kernel_s else 0.0
        for f in ("is_u_pk", "count_for_bounds"):
            emit(f"sequences.{f}", "calls", "self_s")
        for f in ("mul", "add"):
            emit(f"polynomials.{f}", "calls", "self_s")
        emit("series.mul", "calls", "self_s")
        emit("series.pow", "self_s")
        emit("series.reciprocal", "self_s")
        out["engine.brute.self_s"] = sum(stat[f"engine.{f}"][2] for f in BRUTE)
        out["engine.closed.self_s"] = sum(stat[f"engine.{f}"][2] for f in CLOSED)
        out["engine.coefficients_compared"] = eq_in_verify
        for check in harness.CHECKS:
            out[f"harness.{check}.s"] = stat[f"harness.{check}"][1]
        out["harness.self_s"] = sum(s for name, (_, _, s) in stat.items()
                                    if name.startswith("harness."))
        emit("tables.build_table", "s")
        out["cli.parse.self_s"] = (stat["cli.build_parser"][2]
                                   + stat.get("cli.parse_args", (0, 0.0, 0.0))[2])
        emit("cli.main", "self_s")
        for verb, (c, t) in sorted(by_verb.items()):
            out[f"cli.ms_by_verb.{verb}"] = t / c * 1000 if c else 0.0
        out.update(self.rows)
        out["trace.spans"] = count
        return out

    def iter_spans(self):
        """Every span as (name, start, end, parent index, op label)."""
        for i in range(len(self.end)):
            op = self.op[i]
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.op_labels[op] if op >= 0 else None)
