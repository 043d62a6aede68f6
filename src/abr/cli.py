"""Command-line front end.

Subcommands: ``generate`` (moment | random | em | cupcap), ``color``,
``check`` (monotone | transitive | one-switch | identities), ``search``.
Artifacts (sequence JSON, coloring tables, search results) go to the
``-o`` file when given, else to standard output; one-line summaries go to
standard output when the artifact went to a file, else to standard error;
error messages always go to standard error.  All numeric I/O is exact
rational strings, so command pipelines are lossless, and every command is
deterministic in its arguments — identical invocations produce identical
bytes.

Exit codes: 0 success, 2 usage or malformed input, 3 generation failure,
4 degenerate or wrongly oriented input, 5 violated property or identity,
6 search budget exhausted (suppressed by --best-effort).

Only ``errors`` and ``tables`` are imported up front; every other module is
imported by the handler that runs it, so a command on a table loads no
sequence, rational or construction code.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations
from math import comb

from .errors import (
    AbrError,
    DegenerateInputError,
    GenerationFailedError,
    IdentityViolationError,
    InvariantError,
    ParameterSearchFailedError,
    ParseError,
    TooFewPointsError,
    TooLargeError,
    WrongOrientationError,
)
from .tables import (MAX_DENSE_CELLS, ColoringTable, _guarded_comb, dump_json, is_monotone,
                     is_transitive, load_json, longest_monochromatic)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_DEGENERATE = 4
EXIT_VIOLATION = 5
EXIT_BUDGET = 6

# Exit code of each error class; a class not listed takes its nearest base's.
EXIT_CODES = {
    AbrError: EXIT_USAGE,
    GenerationFailedError: EXIT_GENERATION,
    ParameterSearchFailedError: EXIT_GENERATION,
    DegenerateInputError: EXIT_DEGENERATE,
    WrongOrientationError: EXIT_DEGENERATE,
    IdentityViolationError: EXIT_VIOLATION,
}

_SUMMARY_TUPLE_CAP = 20000
MAX_OUTPUT_DIGITS = 1 << 26


def _read_input(path):
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(data, path):
    """Write the artifact; returns True when it went to a file."""
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return False
    with open(path, "wb") as fh:
        fh.write(data)
    return True


def _summary(to_file, text):
    print(text, file=sys.stdout if to_file else sys.stderr)


def _load_input(path):
    """Sniff a sequence (JSON with "kind"), a table (JSON with "colors"),
    or a table CSV."""
    data = _read_input(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = load_json(text)
        if isinstance(obj, dict) and "kind" in obj:
            from .sequences import sequence_from_json_obj

            return sequence_from_json_obj(obj)
        if isinstance(obj, dict) and "colors" in obj:
            return ColoringTable.from_json_obj(obj)
        raise ParseError("JSON input has neither 'kind' (sequence) nor 'colors' (table)")
    if stripped.startswith("i0,"):
        return ColoringTable.from_csv(text)
    raise ParseError("input is neither a JSON document nor a coloring-table CSV")


def _lifted_table(s, args, build=None, work=()):
    """Lifted sequence (a planar one is moment-lifted to ``--d``) and
    ``build`` of it, by default its color table.  The build is the one check
    of cyclic order and general position: it keys every d-tuple and
    (d+1)-tuple, and stops at the lex-least zero determinant.  Only when it
    finds the projections not cyclic, or there are at most d points, are
    they scanned to name the lex-least witness: a sequence whose reversal
    is cyclic gets WrongOrientationError, or with ``--reverse-orientation``
    is replaced by that reversal and built again.  The command visits
    C(n, d+k) items of each (k, what) in ``work``; more than the dense
    guard are refused before any minor."""
    from .sequences import PlanarSequence, moment_lift, validate_cyclic_projections

    if build is None:
        from .coloring import color_table as build

    if isinstance(s, PlanarSequence):
        if args.d >= 2 and len(s) <= args.d:
            # Refused before any power of t, with the messages of the checks
            # below: the cyclic scan needs d points, the colors d + 1.
            need = args.d if len(s) < args.d else args.d + 1
            raise TooFewPointsError(f"need at least {need} points, got {len(s)}")
        s = moment_lift(s, args.d)
    for extra, what in work:
        if len(s) >= s.dimension + extra:
            _guarded_comb(len(s), s.dimension + extra, what)
    while True:
        try:
            if len(s) > s.dimension:
                return s, build(s)
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"degenerate lifted tuple {exc.witness}",
                                       witness=exc.witness) from exc
        except WrongOrientationError:
            pass
        report = validate_cyclic_projections(s)
        if report.valid:  # so the build did not run: there are at most d points
            raise TooFewPointsError(f"need at least {s.dimension + 1} points, got {len(s)}")
        witness = report.failures[0][0]
        reverse = s.reversed()
        if not validate_cyclic_projections(reverse).valid:
            raise DegenerateInputError(
                f"projections are not cyclically ordered (witness {witness})", witness=witness
            )
        if not args.reverse_orientation:
            raise WrongOrientationError(
                "projections are cyclically ordered only after reversal; "
                "rerun with --reverse-orientation",
                witness=witness,
            )
        s = reverse


def _table_from(obj, args):
    """A coloring table from whatever the input was."""
    if isinstance(obj, ColoringTable):
        return obj
    from .sequences import PlanarSequence

    if isinstance(obj, PlanarSequence):
        from .paths import divdiff_color_table

        return divdiff_color_table(obj, args.d)
    return _lifted_table(obj, args)[1]


# ---------------------------------------------------------------- generate

_HEIGHT_CHOICES = ("power", "cubic", "square", "zero", "random")


def _moment_heights(ts, kind, power, seed):
    if kind != "random":
        return [t ** power if kind != "zero" else 0 for t in ts]
    import random as _random

    from .constructions import _random_rational

    rng = _random.Random(seed)
    return [_random_rational(rng, 16, signed=True) for _ in ts]


def _cmd_generate_moment(args):
    from .sequences import (PlanarSequence, moment_lift, serialize_sequence,
                            validate_cyclic_projections, validate_general_position)

    if args.n < 1:
        raise InvariantError(f"need n >= 1, got {args.n}")
    if args.d < 2:  # before the heights t^d are formed
        raise InvariantError(f"lift dimension must be an int >= 2, got {args.d}")
    # The largest output number, (n-1)^e, is refused from bit lengths; where
    # they leave it open it is formed, with at most twice 10^limit's bits.
    power = {"power": args.d, "cubic": 3, "square": 2}.get(args.heights, 0)
    base, e, limit = args.n - 1, max(args.d - 1, power), sys.get_int_max_str_digits()
    bits = (10 ** limit).bit_length()
    if limit and (e * (base.bit_length() - 1) >= bits
                  or e * base.bit_length() >= bits and base ** e >= 10 ** limit):
        raise TooLargeError(f"an output number has more than {limit} digits")
    # d coordinates per point, bounded whatever the digit limit: the nodes 0
    # and 1 print at any power, so one or two points pass the digit guard
    if args.d > 1 << 14:
        raise TooLargeError(f"lift dimension {args.d} exceeds the {1 << 14}-coordinate guard")
    if args.n >= args.d:  # the windows ``search`` would refuse
        _guarded_comb(args.n, args.d, "windows")
    # Point t prints d numbers p/1, p = t^1, ..., t^(d-1) and its height:
    # t^e has at most e * bitlen(t) * 1234/4096 + 1 digits (t >= 2), 0 and
    # 1 one, a random height at most 10 (n <= 16384 by the guards above).
    exponents = args.d * (args.d - 1) // 2 + power
    bound = (sum(map(int.bit_length, range(2, args.n))) * exponents * 1234 >> 12) \
        + args.n * (2 * args.d + 10)
    if bound > MAX_OUTPUT_DIGITS:
        raise TooLargeError(f"output of up to {bound} digits exceeds the "
                            f"{MAX_OUTPUT_DIGITS}-digit guard")
    ts = list(range(args.n))
    hs = _moment_heights(ts, args.heights, power, args.seed)
    seq = moment_lift(PlanarSequence(tuple(zip(ts, hs))), args.d)
    to_file = _emit(serialize_sequence(seq), args.output)
    if len(seq) >= args.d + 1:
        cyclic = validate_cyclic_projections(seq, max_tuples=_SUMMARY_TUPLE_CAP).status
        general = validate_general_position(seq, max_tuples=_SUMMARY_TUPLE_CAP).status
    else:
        cyclic = general = "skipped"
    _summary(
        to_file,
        f"kind=lifted d={args.d} n={len(seq)} cyclic={cyclic} general_position={general}",
    )
    return EXIT_OK


def _cmd_generate_random(args):
    from .constructions import random_cyclic_instance
    from .sequences import serialize_sequence

    seq = random_cyclic_instance(args.d, args.n, args.seed, bits=args.bits)
    to_file = _emit(serialize_sequence(seq), args.output)
    # The generator returns only instances that pass both checks in full.
    _summary(
        to_file,
        f"kind=lifted d={args.d} n={len(seq)} seed={args.seed} "
        "cyclic=valid general_position=valid",
    )
    return EXIT_OK


def _cmd_generate_em(args):
    from .constructions import MAX_BASE, build_cluster_parabola, cluster_parabola_sequence
    from .sequences import serialize_sequence

    if args.no_verify:
        seq, params = build_cluster_parabola(args.m, args.base)
        max_monotone, exhaustive, method = None, False, None
    else:
        seq, params, result = cluster_parabola_sequence(
            args.m, start_base=args.base,
            max_base=MAX_BASE if args.max_base is None else args.max_base
        )
        max_monotone, exhaustive, method = result.size, result.exhaustive, result.method
    report_obj = {
        "m": args.m,
        "n": len(seq),
        "max_monotone": max_monotone,
        "exhaustive": exhaustive,
        "method": method,
        "params": params.to_json_obj(),
    }
    to_file = _emit(serialize_sequence(seq), args.output)
    _summary(to_file, dump_json(report_obj).decode("utf-8").rstrip("\n"))
    return EXIT_OK


def _cmd_generate_cupcap(args):
    from .constructions import cupcap_extremal
    from .sequences import serialize_sequence

    seq = cupcap_extremal(args.k)
    to_file = _emit(serialize_sequence(seq), args.output)
    _summary(to_file, f"kind=planar n={len(seq)} k={args.k}")
    return EXIT_OK


# ------------------------------------------------------------------- color

def _cmd_color(args):
    obj = _load_input(args.input)
    if isinstance(obj, ColoringTable):
        raise ParseError("'color' needs a point sequence, not a coloring table")
    lifted, table = _lifted_table(obj, args)
    if args.format == "csv":
        artifact = table.to_csv().encode("utf-8")
    else:
        artifact = dump_json(table.to_json_obj())
    to_file = _emit(artifact, args.output)
    positive, negative = table.counts()
    d = lifted.dimension
    lines = [f"n={len(lifted)} d={d} tuples={table.total} positive={positive} negative={negative}"]
    mismatches = 0
    if args.cross_check:
        from .coloring import color_by_crossing, color_by_heights

        for tup, color in table:
            pts = [lifted.points[i] for i in tup]
            _, by_heights = color_by_heights(pts)
            agree = by_heights is color
            if d == 3:
                agree = agree and color_by_crossing(pts) is color
            if not agree:
                mismatches += 1
        lines.append(f"mismatches: {mismatches}")
    for line in lines:
        _summary(to_file, line)
    if mismatches:
        raise IdentityViolationError(
            f"{mismatches} tuples disagree between color oracles"
        )
    return EXIT_OK


# ------------------------------------------------------------------- check

def _report(args, human, obj):
    if args.format == "json":
        sys.stdout.buffer.write(dump_json(obj))
    else:
        print(human)


def _cmd_check(args):
    obj = _load_input(args.input)
    what = args.what
    if what in ("monotone", "transitive"):
        table = _table_from(obj, args)
        ok, witness = is_monotone(table) if what == "monotone" else is_transitive(table)
        _report(
            args,
            f"{what}: {'ok' if ok else f'violation witness={witness}'} "
            f"(n={table.n}, r={table.r})",
            {"check": what, "ok": ok, "witness": list(witness) if witness else None,
             "n": table.n, "r": table.r},
        )
        return EXIT_OK if ok else EXIT_VIOLATION

    if isinstance(obj, ColoringTable):
        raise ParseError(f"'check {what}' needs a point sequence, not a table")

    if what == "one-switch":
        lifted = _lifted_table(obj, args, work=((1, "tuples"), (2, "certificates")))[0]
        d = lifted.dimension
        if len(lifted) < d + 2:
            raise TooFewPointsError(f"one-switch needs at least {d + 2} points")
        from .coloring import certify_one_switch

        count = comb(len(lifted), d + 2)
        max_switches = max(certify_one_switch(lifted.kernel, tup)[3]
                           for tup in combinations(range(len(lifted)), d + 2))
        _report(
            args,
            f"one-switch: ok subtuples={count} max_switch_count={max_switches}",
            {"check": "one-switch", "ok": True, "subtuples": count,
             "max_switch_count": max_switches},
        )
        return EXIT_OK

    # identities
    from .coloring import vandermonde_divdiff_residual
    from .sequences import PlanarSequence

    if isinstance(obj, PlanarSequence):
        if args.d < 1:
            raise InvariantError(f"order must be a positive int, got {args.d}")
        if len(obj) < args.d + 1:
            raise TooFewPointsError(f"need at least {args.d + 1} points for order {args.d}")
        checked = _guarded_comb(len(obj), args.d + 1, "tuples")
        # Each residual is a (d+1)x(d+1) determinant in Fractions: bound the work too.
        cells = checked * (args.d + 1) ** 2
        if cells > MAX_DENSE_CELLS:
            raise TooLargeError(f"{cells} determinant cells exceed the dense-table guard")
        for tup in combinations(range(len(obj)), args.d + 1):
            residual = vandermonde_divdiff_residual([obj.points[i] for i in tup])
            if residual != 0:
                raise IdentityViolationError(
                    f"determinant/divided-difference residual {residual} at {tup}")
    else:
        d = obj.dimension
        if len(obj) < d + 2:
            raise TooFewPointsError(f"need at least {d + 2} points")
        quads, pair_minors = tuple(combinations(range(d + 2), 4)), obj.kernel.pair_minors
        checked = _guarded_comb(len(obj), d + 2, "tuples") * len(quads)
        # Integer minors: the column scales put one positive factor on all three terms.
        for tup in combinations(range(len(obj)), d + 2):
            m = pair_minors(tup)
            for i1, i2, i3, i4 in quads:
                residual = m[i1, i2] * m[i3, i4] - m[i1, i3] * m[i2, i4] + m[i1, i4] * m[i2, i3]
                if residual != 0:
                    raise IdentityViolationError(
                        f"three-term minor residual {residual} at {tup} columns {(i1, i2, i3, i4)}")
    _report(
        args,
        f"identities: ok checked={checked}",
        {"check": "identities", "ok": True, "checked": checked},
    )
    return EXIT_OK


# ------------------------------------------------------------------ search

def _search(obj, args):
    """A sequence is searched exactly by the monotone-path DP over its keyed
    coloring, which checks a lifted one as it goes.  A table, which need not
    be transitive, is searched by ``tables.longest_monochromatic``: its
    window DP answers when its witness is monochromatic, with
    ``nodes_visited`` the C(n, r-1) windows and no ``--budget``; otherwise
    the branch and bound, cut by the DP's path lengths, answers under it."""
    if isinstance(obj, ColoringTable):
        return longest_monochromatic(obj, budget=args.budget)
    from .paths import longest_monotone_path
    from .sequences import PlanarSequence

    if isinstance(obj, PlanarSequence):
        return longest_monotone_path(obj, args.d)
    return _lifted_table(obj, args, longest_monotone_path)[1]


def _cmd_search(args):
    if args.budget is not None and args.budget < 0:
        raise InvariantError(f"budget must be an integer >= 0, got {args.budget}")
    result = _search(_load_input(args.input), args)
    payload = result.to_json_obj()
    if args.k is not None:
        payload["k"] = args.k
        payload["reached"] = result.size >= args.k
    to_file = _emit(dump_json(payload), args.output)
    if not result.exhaustive:
        _summary(to_file, f"budget exhausted after {result.nodes_visited} nodes")
        if not args.best_effort:
            return EXIT_BUDGET
    return EXIT_OK


# -------------------------------------------------------------------- main

def _add_output(p):
    p.add_argument("-o", "--output", default=None, help="artifact file (default: stdout)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="abr",
        description="Exact above-below colorings of lifted point sequences: "
        "generators, color oracles, structure checks, and searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance as sequence JSON")
    kinds = gen.add_subparsers(dest="kind", required=True)

    p = kinds.add_parser("moment", help="moment-curve lift of integer nodes 0..n-1")
    p.add_argument("--d", type=int, default=3, help="lift dimension (default 3)")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--heights", choices=_HEIGHT_CHOICES, default="power",
                   help="height rule for h_i (default: t^d)")
    p.add_argument("--seed", type=int, default=0, help="seed for --heights random")
    _add_output(p)
    p.set_defaults(func=_cmd_generate_moment)

    p = kinds.add_parser("random", help="seeded random cyclic instance")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int, default=16, help="rational coordinate size")
    _add_output(p)
    p.set_defaults(func=_cmd_generate_random)

    p = kinds.add_parser("em", help="doubly-exponential cluster construction")
    p.add_argument("--m", type=int, required=True, help="recursion depth: 2^(2^(m-1)) points")
    p.add_argument("--base", type=int, default=2, help="starting scale base (default 2)")
    p.add_argument("--max-base", type=int, default=None)  # None: constructions.MAX_BASE
    p.add_argument("--no-verify", action="store_true",
                   help="emit the instance at --base without the verification search")
    _add_output(p)
    p.set_defaults(func=_cmd_generate_em)

    p = kinds.add_parser("cupcap", help="classical no-k-cup/no-k-cap extremal set")
    p.add_argument("--k", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_generate_cupcap)

    p = sub.add_parser("color", help="color every (d+1)-tuple of a sequence")
    p.add_argument("input", help="sequence JSON file, or - for stdin")
    p.add_argument("--d", type=int, default=3, help="lift dimension for planar input")
    p.add_argument("--cross-check", action="store_true",
                   help="recompute every color with the independent oracles")
    p.add_argument("--reverse-orientation", action="store_true",
                   help="repair a sequence whose projections are cyclic in reverse")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("check", help="structure and identity checks")
    p.add_argument("what", choices=("monotone", "transitive", "one-switch", "identities"))
    p.add_argument("input", help="sequence or table file, or - for stdin")
    p.add_argument("--d", type=int, default=3,
                   help="divided-difference order / lift dimension for planar input")
    p.add_argument("--reverse-orientation", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="longest monochromatic subset of a coloring")
    p.add_argument("input", help="sequence or table file, or - for stdin")
    p.add_argument("--d", type=int, default=3, help="order/dimension for sequence input")
    p.add_argument("--k", type=int, default=None, help="report whether size k is reached")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget of the branch and bound, which runs only on a "
                   "table whose window DP is not certified by its witness (the DP's "
                   "path lengths prune it); sequence input is searched exactly")
    p.add_argument("--best-effort", action="store_true",
                   help="exit 0 even when the budget ran out")
    p.add_argument("--reverse-orientation", action="store_true")
    _add_output(p)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AbrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for attempt in getattr(exc, "attempts", ()):
            print(f"  base {attempt[0]}: {attempt[1]}", file=sys.stderr)
        return next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
