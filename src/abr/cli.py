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
sequence, rational or construction code.  The sequence commands
(``generate``, ``color``, ``check one-switch|identities``, and the lift of
a lifted ``check``/``search``) live in ``cli_sequences``, imported only when
one runs, so a table or planar ``check``/``search`` never compiles them.
"""

import argparse
import sys

from .errors import (AbrError, DegenerateInputError, GenerationFailedError, IdentityViolationError,
                     InvariantError, ParameterSearchFailedError, ParseError, WrongOrientationError)
from .tables import (ColoringTable, dump_json, is_monotone, is_transitive, load_json,
                     longest_monochromatic)

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
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
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


def _table_from(obj, args):
    """A coloring table from whatever the input was."""
    if isinstance(obj, ColoringTable):
        return obj
    from .sequences import PlanarSequence

    if isinstance(obj, PlanarSequence):
        from .paths import divdiff_color_table

        return divdiff_color_table(obj, args.d)
    from .cli_sequences import lifted_table

    return lifted_table(obj, args)[1]


# ------------------------------------------------------------------- check

def _report(args, human, obj):
    if args.format == "json":
        sys.stdout.buffer.write(dump_json(obj))
    else:
        print(human)


def _cmd_check(args):
    obj = _load_input(args.input)
    what = args.what
    if what not in ("monotone", "transitive"):
        from .cli_sequences import check_sequence

        return check_sequence(obj, args)
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
    from .cli_sequences import lifted_table

    return lifted_table(obj, args, longest_monotone_path)[1]


def _cmd_search(args):
    if args.budget is not None and args.budget < 0:
        raise InvariantError(f"budget must be an integer >= 0, got {args.budget}")
    if args.k is not None and args.k < 1:
        raise InvariantError(f"k must be an integer >= 1, got {args.k}")
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

def _sequence_command(name):
    """The handler ``name`` of ``cli_sequences``, imported when it runs."""
    def run(args):
        from . import cli_sequences

        return getattr(cli_sequences, name)(args)
    return run


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
    p.add_argument("--heights", choices=("power", "cubic", "square", "zero", "random"),
                   default="power", help="height rule for h_i (default: t^d)")
    p.add_argument("--seed", type=int, default=0, help="seed for --heights random")
    _add_output(p)
    p.set_defaults(func=_sequence_command("generate_moment"))

    p = kinds.add_parser("random", help="seeded random cyclic instance")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int, default=16, help="rational coordinate size")
    _add_output(p)
    p.set_defaults(func=_sequence_command("generate_random"))

    p = kinds.add_parser("em", help="doubly-exponential cluster construction")
    p.add_argument("--m", type=int, required=True, help="recursion depth: 2^(2^(m-1)) points")
    p.add_argument("--base", type=int, default=2, help="starting scale base (default 2)")
    p.add_argument("--max-base", type=int, default=None)  # None: constructions.MAX_BASE
    p.add_argument("--no-verify", action="store_true",
                   help="emit the instance at --base without the verification search")
    _add_output(p)
    p.set_defaults(func=_sequence_command("generate_em"))

    p = kinds.add_parser("cupcap", help="classical no-k-cup/no-k-cap extremal set")
    p.add_argument("--k", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_sequence_command("generate_cupcap"))

    p = sub.add_parser("color", help="color every (d+1)-tuple of a sequence")
    p.add_argument("input", help="sequence JSON file, or - for stdin")
    p.add_argument("--d", type=int, default=3, help="lift dimension for planar input")
    p.add_argument("--cross-check", action="store_true",
                   help="recompute every color with the independent oracles")
    p.add_argument("--reverse-orientation", action="store_true",
                   help="repair a sequence whose projections are cyclic in reverse")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(p)
    p.set_defaults(func=_sequence_command("color_sequence"))

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
