"""Command-line interface.

Verbs: enumerate, count, stats, decompose, map, poly, tensor, tables,
verify.  Output formats are text (default), csv, and json; identical
invocations produce identical bytes (verify timing fields excepted).

Exit codes: 0 success, 1 verification failure or output closed early, 2
usage error, 3 resource cap exceeded or resource exhausted.  ``main``
checks --m >= 1, --n >= 0, --max-objects >= 0 and --max-order >= 0 for
every verb, and maps every ValueError or CatparkError an argument provokes
to exit 2 with a one-line message, so no argv ends in a traceback; a
MemoryError, RecursionError or OverflowError from any verb is exit 3 with
its line of ``errors.RESOURCE_FAILURES``.  Two tables declare the command
line: ``OPTIONS`` holds each option once, and ``VERBS`` gives each verb its
help, its handler and its options in ``--help`` order; ``build_parser``
reads them.  The cap refusals of ``enumerate``, ``poly --name multi`` and
``tensor`` all come from ``sequences._require_under_cap``, and those of
``poly --name R`` and ``gamma``, whose DP tables grow with m, from
``sequences._require_table_under_cap``.  ``count`` reads
the same Raney closed form, ``sequences._raney_count``, and ``poly --name
B`` reads its consecutive values from ``sequences.fuss_catalan_upto``.

Verbs write their output directly to the stdout ``main`` passes them, and
every error comes before the first write, so a failed call prints nothing
on stdout.  Every verb but ``enumerate`` writes its result through
``_emit``, which holds the three formats: one JSON payload, one CSV table,
or lines of text.  ``enumerate`` streams: it asks the enumeration for rows
as text already framed -- a line of commas for csv and text, an indented
JSON array after a comma for json -- which come as strings of whole rows,
one per (n-1)-prefix or, where ``kernels.iter_bounded`` keeps a list of
tails, per (n-2)-prefix, and writes them joined up to ``WRITE_SIZE``
characters at a time as they come, so no row is converted, joined or
formatted again and no list of all rows is held.  When stdout closes before
the output is written, as under ``| head``, ``main`` says so in one line and
exits 1.

``main`` reads a plain argv -- a verb, then pairs of one of its flags,
each given once, and a value not starting with "-" that the flag's int
type converts and its choices hold -- straight from ``OPTIONS`` and
``VERBS``, into the Namespace the parser would give, and builds no parser.
Every other argv, help and usage errors among them, goes through the
top-level parser, built once per process on its first use, so argparse
alone writes help, usage errors and their exit code.  ``build_parser()``
returns a fresh parser on every call.

Every ``catpark`` call starts a fresh interpreter, which pays for each
module it imports before the verb runs.  So the module imports at its top
only what the parser and the single-object verbs use on every call:
``errors``, ``sequences`` (with ``kernels``), ``caterpillar`` and
``decomposition``.  ``poly`` imports ``engine`` and ``polynomials``,
``tensor`` imports ``engine``, ``tables`` imports ``tables`` and ``verify``
imports ``harness``, each inside its own function.  The parser therefore
does not list the verify scopes in ``--scope``'s help; an unknown scope's
refusal, which comes from ``harness``, names every one.  ``json`` loads only
for ``--format json`` and ``verify``, and ``csv`` only for ``--format csv``
of a verb other than ``enumerate``, which frames its own rows.
"""

import argparse
import functools
import os
import sys

from catpark.caterpillar import (
    build_caterpillar,
    enumerate_caterpillar_pk,
    from_lattice_path,
    simulate,
    theta,
    theta_inv,
    to_lattice_path,
)
from catpark.decomposition import (
    _checked_fixed_points,
    _luck,
    decompose,
    eta,
    eta_inv,
    tau,
    u_omega,
)
from catpark.errors import (
    RESOURCE_ERRORS,
    RESOURCE_FAILURES,
    CatparkError,
    EnumerationCapError,
    LaneError,
    NonMembershipError,
)
from catpark.sequences import (
    BoundFamily,
    DEFAULT_MAX_OBJECTS,
    _raney_count,
    _require_table_under_cap,
    _require_under_cap,
    canonical_family,
    enumerate_u_pk,
    fuss_catalan_upto,
)

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_ORDER = 24
# characters that enumerate gathers before each write
WRITE_SIZE = 1 << 16


class ResourceError(Exception):
    pass


def _parse_seq(text):
    """The integers of --seq; the empty string is the empty sequence, and an
    empty entry (as in 1,,2 or 1,2,) is refused."""
    if text is None:
        raise ValueError("--seq is required")
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"--seq must be comma-separated integers, got {text!r}")


def _family(args):
    """The bound family of --m, --k and --r for enumerate and count; --kind
    cat takes no --k/--r and needs --n >= 1."""
    if (args.k is None) != (args.r is None):
        raise ValueError("--k and --r must be given together")
    if args.k is None:
        fam = canonical_family(args.m)
    else:
        fam = BoundFamily(args.m, args.k, args.r)
    if args.kind == "cat":
        if args.k is not None:
            raise ValueError("--k/--r only apply to --kind u")
        if args.n < 1:
            raise ValueError("--n must be >= 1 for --kind cat")
    return fam


def _backbone_length(seq, m):
    """The backbone length n of the regularity-m tree with len(seq) nodes."""
    length = len(seq)
    if length < 1 or (length - 1) % m:
        raise ValueError(
            f"--seq length {length} does not fit a regularity-{m} tree"
        )
    return (length - 1) // m + 1


def _check_order(order, max_order):
    if order > max_order:
        raise ResourceError(
            f"order {order} exceeds --max-order {max_order}"
        )


def _check_tree_count(args):
    """Refuse the (--m, --n) tree when its distributions outnumber
    --max-objects, as enumerating them would."""
    _require_under_cap(args.n, canonical_family(args.m), args.max_objects)


def _emit(out, fmt, payload, header, rows, text):
    """Write one result: payload as JSON, header and rows as CSV, or the
    lines of text.  rows and text are read only in their own format, so
    either may be a stream."""
    if fmt == "json":
        import json

        out.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in text:
            out.write(line + "\n")


def _without_digit_limit(write):
    """Call write with Python's int-to-str digit limit lifted, and put the
    limit back afterwards.  Python 3.11 and 3.10.7+ refuse to convert an
    int of more than 4300 digits by default, and counts and coefficients
    grow past that."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        write()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def seq_str(seq):
    return ",".join(str(v) for v in seq)


# -- subcommand implementations --------------------------------------------


def cmd_enumerate(args, out):
    fam = _family(args)
    # rows come as text already framed: JSON's indent=2 layout, else lines
    # of commas
    text = ((",\n    [\n      ", ",\n      ", "\n    ]")
            if args.format == "json" else ("", ",", "\n"))
    if args.kind == "u":
        rows = enumerate_u_pk(args.n, fam, max_objects=args.max_objects,
                              text=text)
        length = args.n
    else:
        rows = enumerate_caterpillar_pk(args.m, args.n,
                                        max_objects=args.max_objects,
                                        text=text)
        length = args.m * args.n - args.m + 1
    if args.format == "json":
        import json

        # json.dumps(payload, indent=2), written as the rows come.  The
        # first row drops its comma; the one row at length 0 prints []
        head, tail = json.dumps({"m": args.m, "n": args.n, "kind": args.kind,
                                 "sequences": []}, indent=2).rsplit("[]", 1)
        first = next(rows)
        start = head + ("[" + first[1:] if length else "[\n    []")
        end = "\n  ]" + tail + "\n"
    else:
        start = (",".join(f"p{i}" for i in range(1, length + 1)) + "\n"
                 if args.format == "csv" else "")
        end = ""
    # whole batches joined up to WRITE_SIZE characters per write: a write
    # per batch is slow on a real stdout, and one (n-1)-prefix's batch can
    # be large, so a count of batches would not bound what a write holds
    chunk, size = [start], len(start)
    for batch in rows:
        if size >= WRITE_SIZE:
            out.write("".join(chunk))
            chunk, size = [], 0
        chunk.append(batch)
        size += len(batch)
    chunk.append(end)
    out.write("".join(chunk))
    return EXIT_OK


def cmd_count(args, out):
    fam = _family(args)
    count = _raney_count(args.n, fam)
    payload = {"m": args.m, "k": fam.k, "r": fam.r, "n": args.n,
               "kind": args.kind, "count": count}
    _without_digit_limit(lambda: _emit(out, args.format, payload,
                                       list(payload), [payload.values()],
                                       [str(count)]))
    return EXIT_OK


def cmd_stats(args, out):
    seq = _parse_seq(args.seq)
    if args.kind == "u":
        try:
            fixed = _checked_fixed_points(seq, args.m)
        except ValueError as exc:
            raise ValueError(f"--seq: {exc}")
        # f and g are the first fixed points of types 1 and m
        stats = {"luck": _luck(seq, args.m), "omega1": u_omega(seq, 1),
                 "f": fixed[0], "g": fixed[-1]}
    else:
        tree = build_caterpillar(args.m, _backbone_length(seq, args.m))
        try:
            outcome = simulate(tree, seq)
        except ValueError as exc:
            raise ValueError(f"--seq: {exc}")
        stats = {"luck": len(outcome.lucky_set), "parked": outcome.all_parked}
        for j in range(1, args.m + 1):
            stats[f"omega{j}"] = u_omega(seq, j)
    _emit(out, args.format, stats, list(stats), [stats.values()],
          (f"{key} {value}" for key, value in stats.items()))
    return EXIT_OK


def cmd_decompose(args, out):
    seq = _parse_seq(args.seq)
    try:
        result = decompose(seq, args.m)
    except ValueError as exc:
        raise ValueError(f"--seq: {exc}")
    comps = result.components
    fixed = result.fixed_points
    rows = [[f"p{i}", seq_str(c)] for i, c in enumerate(comps, start=1)]
    rows.append(["fixed-points", seq_str(fixed)])
    _emit(out, args.format,
          {"components": [list(c) for c in comps], "fixed_points": list(fixed)},
          ["component", "values"], rows,
          (f"{label} ({values})" for label, values in rows))
    return EXIT_OK


# name -> f(parsed --seq, or --word for from-path, m); each map is looked
# up when called, so a patched module name reaches it
MAPS = {
    "theta": lambda seq, m: theta(seq, m, len(seq)),
    "theta-inv": lambda seq, m: theta_inv(seq, m, _backbone_length(seq, m)),
    "tau": lambda seq, m: tau(seq, m),
    "eta": lambda seq, m: eta(seq, m),
    "eta-inv": lambda seq, m: eta_inv(seq, m),
    "to-path": lambda seq, m: to_lattice_path(seq, m),
    "from-path": lambda word, m: from_lattice_path(word, m),
}
MAP_NAMES = tuple(MAPS)


def cmd_map(args, out):
    if args.name == "from-path":
        flag, value = "--word", args.word
    else:
        flag, value = "--seq", args.seq
    if value is None:
        raise ValueError(f"{flag} is required for --name {args.name}")
    if flag == "--seq":
        value = _parse_seq(value)
        if args.name == "theta-inv":
            # checked outside the try: its message names --seq itself
            _backbone_length(value, args.m)
    try:
        result = MAPS[args.name](value, args.m)
    except (ValueError, NonMembershipError) as exc:
        raise ValueError(f"{flag}: {exc}")
    text = result if args.name == "to-path" else seq_str(result)
    _emit(out, args.format, {"result": result}, ["result"], [[text]], [text])
    return EXIT_OK


POLY_NAMES = ("R", "gamma", "multi", "B")


def _poly_for(args):
    from catpark.engine import (gamma_poly_brute, multi_stat_poly_brute,
                                r_poly_brute)
    from catpark.polynomials import MAX_EXPONENT, MultiPoly

    _check_order(args.n, args.max_order)
    if args.n > MAX_EXPONENT:
        raise ValueError(f"--n must be <= {MAX_EXPONENT}, the largest exponent "
                         f"a polynomial holds, got {args.n}")
    if args.name == "B":
        return MultiPoly(("x",), {(j,): b for j, b in
                                  enumerate(fuss_catalan_upto(args.m, args.n))})
    if args.name == "R":
        # the luck of a length-n sequence is one of 1..n
        _require_table_under_cap(args.n, args.m, args.n, args.max_objects)
        return r_poly_brute(args.m, args.n)
    if args.name == "gamma":
        # luck and the count of ones in 1..n, each first hit in 2..n or none
        _require_table_under_cap(args.n ** 4, args.m, args.n, args.max_objects)
        return gamma_poly_brute(args.m, args.n)
    if args.n < 1:
        raise ValueError("--n must be >= 1 for --name multi")
    _check_tree_count(args)
    return multi_stat_poly_brute(args.m, args.n)


def cmd_poly(args, out):
    poly = _poly_for(args)
    _without_digit_limit(lambda: _emit(
        out, args.format, poly.to_dict(), list(poly.variables) + ["coeff"],
        ([*exps, coeff] for exps, coeff in poly.items()), [poly.render()]))
    return EXIT_OK


def cmd_tensor(args, out):
    from catpark.engine import joint_count_tensor

    if args.n < 1:
        raise ValueError("--n must be >= 1")
    _check_tree_count(args)
    tensor = joint_count_tensor(args.m, args.n)
    entries = sorted(tensor.entries.items())
    _emit(out, args.format,
          {"m": args.m, "n": args.n,
           "entries": [{"key": list(k), "count": c} for k, c in entries]},
          ["k0"] + [f"k{j}" for j in range(1, args.m + 1)] + ["count"],
          ([*k, c] for k, c in entries),
          (f"{seq_str(k)} {c}" for k, c in entries))
    return EXIT_OK


def cmd_tables(args, out):
    from catpark.tables import build_table

    try:
        table = build_table(args.id)
    except ValueError as exc:
        raise ValueError(f"--id: {exc}")
    text = [table["title"], " | ".join(table["header"])]
    text += [" | ".join(row) for row in table["rows"]]
    text += [f"note: {note}" for note in table["annotations"]]
    _emit(out, args.format, table, table["header"], table["rows"], text)
    return EXIT_OK


def _verify_lines(entries):
    for e in entries:
        params = " ".join(f"{k}={v}" for k, v in e.params.items())
        yield f"{e.status:8s} {e.identity} [{params}] ({e.millis} ms)"
        if e.status == "fail" and e.counterexample is not None:
            yield f"         counterexample: {e.counterexample}"
    statuses = [e.status for e in entries]
    yield (f"summary: {statuses.count('pass')} passed, "
           f"{statuses.count('erratum')} errata demonstrated, "
           f"{statuses.count('fail')} failed")


def cmd_verify(args, out):
    import json

    from catpark.harness import run_verification

    if args.order is not None:
        _check_order(args.order, args.max_order)
    report = run_verification(args.scope, order=args.order,
                              max_n=args.max_n, m=args.m)
    _emit(out, args.format, report.to_dict(),
          ["identity", "status", "params", "millis"],
          ([e.identity, e.status, json.dumps(e.params, sort_keys=True), e.millis]
           for e in report.entries),
          _verify_lines(report.entries))
    return report.exit_code


# -- argument wiring ---------------------------------------------------------

# option -> add_argument keywords, each option declared once.  The key is
# the flag, or "verb:flag" where a verb gives the flag a meaning of its own
OPTIONS = {
    "--m": dict(type=int, required=True, help="tree regularity (>= 1)"),
    "verify:--m": dict(type=int, help="restrict checks to one regularity"),
    "--n": dict(type=int, required=True, help="length / backbone size"),
    "--seq": dict(type=str, help="comma-separated sequence, e.g. 1,1,4"),
    "--k": dict(type=int, help="bound family k (with --r); default canonical"),
    "--r": dict(type=int, help="bound family r (with --k)"),
    "--kind": dict(choices=("u", "cat"), default="u",
                   help="bounded sequences (u) or tree distributions (cat)"),
    "--max-objects": dict(type=int, default=DEFAULT_MAX_OBJECTS,
                          help="enumeration cap (exit 3 when exceeded)"),
    "--max-order": dict(type=int, default=DEFAULT_MAX_ORDER,
                        help="series/polynomial order cap"),
    "--format": dict(choices=("text", "csv", "json"), default="text",
                     help="output format"),
    "map:--name": dict(choices=MAP_NAMES, required=True),
    "--word": dict(type=str, help="step word for from-path"),
    "poly:--name": dict(choices=POLY_NAMES, required=True),
    "--id": dict(type=str, required=True, help="table id 1..10"),
    "--scope": dict(default="all",
                    help="all, or one check scope (an unknown one lists them)"),
    "--order": dict(type=int, help="series order override"),
    "--max-n": dict(type=int, help="length bound override"),
}

# verb -> (help, handler, its OPTIONS keys in --help order)
VERBS = {
    "enumerate": ("list distributions", cmd_enumerate,
                  "--m --n --k --r --kind --max-objects --format"),
    "count": ("count distributions without listing", cmd_count,
              "--m --n --k --r --kind --format"),
    "stats": ("statistics of one sequence", cmd_stats,
              "--m --seq --kind --format"),
    "decompose": ("first-return decomposition", cmd_decompose,
                  "--m --seq --format"),
    "map": ("apply a bijection", cmd_map,
            "map:--name --word --m --seq --format"),
    "poly": ("statistic polynomials", cmd_poly,
             "poly:--name --m --n --max-objects --max-order --format"),
    "tensor": ("joint count tensor on the tree", cmd_tensor,
               "--m --n --max-objects --format"),
    "tables": ("reproduce a reference table", cmd_tables, "--id --format"),
    "verify": ("run the identity verification suite", cmd_verify,
               "--scope --order --max-n verify:--m --max-order --format"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="catpark",
        description="Parking distributions on regular caterpillar trees: "
                    "enumeration, statistics, bijections, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (summary, fn, options) in VERBS.items():
        p = sub.add_parser(verb, help=summary)
        for key in options.split():
            p.add_argument(key.rpartition(":")[2], **OPTIONS[key])
        p.set_defaults(fn=fn)
    return parser


_parser = functools.cache(build_parser)


@functools.cache
def _plain_table(verb):
    """What build_parser declares for verb, read from the tables: flag ->
    (dest, type, choices), every dest's default with fn and command, and
    the required flags."""
    flags, defaults, required = {}, {"fn": VERBS[verb][1], "command": verb}, []
    for key in VERBS[verb][2].split():
        spec, flag = OPTIONS[key], key.rpartition(":")[2]
        dest = flag[2:].replace("-", "_")
        flags[flag] = (dest, spec.get("type"), spec.get("choices"))
        defaults[dest] = spec.get("default")
        if spec.get("required"):
            required.append(flag)
    return flags, defaults, required


def _parse_plain(argv):
    """The Namespace argparse gives a plain argv, else None.  Plain is a
    verb, then pairs of one of its own flags, each at most once and every
    required one given, and a value not starting with "-" that its int type
    converts and its choices hold."""
    if not argv or argv[0] not in VERBS or len(argv) % 2 == 0:
        return None
    flags, values, required = _plain_table(argv[0])
    given = argv[1::2]
    if len(set(given)) < len(given) or not all(f in given for f in required):
        return None
    values = dict(values)
    for flag, value in zip(given, argv[2::2]):
        if flag not in flags or value.startswith("-"):
            return None
        dest, kind, choices = flags[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values)


def _parse(argv):
    """Parse a plain argv straight from the tables; any other argv (help,
    usage errors, --flag=value, abbreviations, repeats, values starting
    with "-") goes through the top-level parser, so help, error messages
    and exit codes stay argparse's own."""
    return _parse_plain(argv) or _parser().parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        for name, least in (("m", 1), ("n", 0), ("max_objects", 0),
                            ("max_order", 0)):
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ValueError(f"--{name.replace('_', '-')} must be >= "
                                 f"{least}, got {value}")
        code = args.fn(args, sys.stdout)
        # a closed pipe shows here at the latest, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
        sys.stderr.write(f"catpark {args.command}: output closed early\n")
        return EXIT_CLOSED
    except (EnumerationCapError, LaneError, ResourceError) as exc:
        sys.stderr.write(f"catpark {args.command}: {exc}\n")
        return EXIT_RESOURCE
    except RESOURCE_ERRORS as exc:
        text = next(text for kind, text in RESOURCE_FAILURES.items()
                    if isinstance(exc, kind))
        sys.stderr.write(f"catpark {args.command}: {text}\n")
        return EXIT_RESOURCE
    except (CatparkError, ValueError) as exc:
        sys.stderr.write(f"catpark {args.command}: {exc}\n")
        return EXIT_USAGE
    return code


def _silence_stdout():
    """Point stdout's file descriptor at devnull, so that the flush at exit
    cannot raise on the closed pipe again.  A stdout with no descriptor,
    such as a StringIO, is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
