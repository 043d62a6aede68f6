"""Command-line front end: ``generate`` (moment | random | em | cupcap),
``color``, ``check`` (monotone | transitive | one-switch | identities) and
``search``.  ``_parse`` reads argv as argparse did, by one table, ``_SPEC``,
which ``cli_help`` renders for -h and usage errors.  Artifacts go to the
``-o`` file when given, else to standard output; one-line summaries go to
standard output when the artifact went to a file, else to standard error, as
do errors.  Numeric I/O is exact rational strings; identical invocations
produce identical bytes.  Exit codes: 0 success, 2 usage or malformed input,
3 generation failure, 4 degenerate or wrongly oriented input, 5 violated
property or identity, 6 search budget exhausted (unless --best-effort).

Only ``errors`` and ``tables`` are imported up front; each handler imports
what it runs, and the sequence commands live in ``cli_sequences``, so a
table or planar ``check``/``search`` never compiles them.
"""

import re
import sys
from types import SimpleNamespace

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

_HELP = ("-h/--help", bool, False, "show this help message and exit")
_D = ("--d", int, 3, "lift dimension (default 3)")
_N = ("--n", int, ..., "number of points")
_SEED = ("--seed", int, 0, "seed of the random points or heights (default 0)")
_ORDER = ("--d", int, 3, "divided-difference order / lift dimension for planar input (default 3)")
_INPUT = ("input", str, "sequence or table file, or - for stdin")
_REVERSE = ("--reverse-orientation", bool, False, "repair a sequence cyclic in reverse")
_OUTPUT = ("-o/--output", str, None, "artifact file (default: stdout)")

# The command line.  A command is (help, handler: a function or the name of
# one in cli_sequences, positionals, options); a group has handler None and one
# positional, help None, mapping each subcommand to its command.  A positional
# is (name, type, help), an option (names, type, default: ... if required, help).
_SPEC = ("Exact above-below colorings of lifted point sequences: generators, color oracles, "
         "structure checks, and searches.", None, (("command", {
    "generate": ("write an instance as sequence JSON", None, (("kind", {
        "moment": ("moment-curve lift of integer nodes 0..n-1", "generate_moment", (), (
            _D, _N, ("--heights", ("power", "cubic", "square", "zero", "random"), "power",
                     "height rule for h_i (default: t^d)"), _SEED, _OUTPUT)),
        "random": ("seeded random cyclic instance", "generate_random", (), (
            _D, _N, _SEED, ("--bits", int, 16, "rational coordinate size (default 16)"), _OUTPUT)),
        "em": ("doubly-exponential cluster construction", "generate_em", (), (
            ("--m", int, ..., "recursion depth: 2^(2^(m-1)) points"),
            ("--base", int, 2, "starting scale base (default 2)"),
            ("--max-base", int, None, "largest scale base tried (default 2^64)"),
            ("--no-verify", bool, False, "emit the --base instance unverified"), _OUTPUT)),
        "cupcap": ("classical no-k-cup/no-k-cap extremal set", "generate_cupcap", (), (
            ("--k", int, ..., "cup and cap length k"), _OUTPUT))}, None),), ()),
    "color": ("color every (d+1)-tuple of a sequence", "color_sequence", (
        ("input", str, "sequence JSON file, or - for stdin"),), (
        _ORDER, ("--cross-check", bool, False, "recompute every color with the other oracles"),
        _REVERSE, ("--format", ("csv", "json"), "csv", "table format (default csv)"), _OUTPUT)),
    "check": ("structure and identity checks", _cmd_check, (("what", (
        "monotone", "transitive", "one-switch", "identities"), "the check to run"), _INPUT), (
        _ORDER, _REVERSE, ("--format", ("text", "json"), "text", "report format (default text)"))),
    "search": ("longest monochromatic subset of a coloring", _cmd_search, (_INPUT,), (
        _ORDER, ("--k", int, None, "report whether size k is reached"),
        ("--budget", int, None, "node budget of the branch and bound on a table"),
        ("--best-effort", bool, False, "exit 0 even when the budget ran out"), _REVERSE, _OUTPUT)),
}, None),), ())
_VALUE = re.compile(r"(?s)-\d+$|-\d*\.\d+$|.* ")  # values to argparse: numbers, or with a space


def _dest(names):
    return names.split("/")[-1].lstrip("-").replace("-", "_")


def _option(token, names, leave):
    """argparse's reading of a token before "--": None for a value, else
    (option, or None if unknown; the name it matched; value attached, or None)."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    head, eq, tail = token.partition("=")
    tail = tail if eq else None
    found = ([(names[head], head, tail)] if head in names else  # name, or name=value
             [(names[n], n, tail) for n in names if n.startswith(head)] if token[1] == "-" else
             [(names[token[:2]], token[:2], token[2:])] if token[:2] in names else [])  # -Xvalue
    if len(found) > 1:
        leave(f"ambiguous option: {token} could match {', '.join(f[1] for f in found)}")
    return found[0] if found else None if _VALUE.match(token) else (None, token, None)


def _parse(argv):
    """The namespace of ``argv`` as argparse read it, or exit 0 after -h, 2 after an error."""
    args, extras, prog, node, tokens = SimpleNamespace(), [], "abr", _SPEC, list(argv)

    def leave(message=None):  # with no message, -h's help
        from . import cli_help

        cli_help.leave(prog, node, message)

    def value(name, kind, token):  # the usage line above an error shows the choices
        try:
            if kind in (int, str) or token in kind:
                return int(token) if kind is int else token
        except ValueError:
            pass
        leave(f"argument {name}: invalid {'int value' if kind is int else 'choice'}: {token!r}")

    while True:
        _, args.func, positionals, options = node
        names = {name: opt for opt in (_HELP,) + options for name in opt[0].split("/")}
        vars(args).update((_dest(opt[0]), opt[2]) for opt in options)
        # a group reads "--" as a subcommand name, and refuses it
        cut = tokens.index("--") if args.func and "--" in tokens else len(tokens)
        found = [_option(t, names, leave) for t in tokens[:cut]] + [None] * (len(tokens) - cut)
        wanted, taken, i = list(positionals), None, 0
        while i < len(tokens):
            token, hit, i = tokens[i], found[i], i + 1
            if i - 1 == cut:  # dropped where it borders a positional's value
                extras += [token] * (taken != cut and not (wanted and i < len(tokens)))
            elif hit is None and wanted:
                (name, kind, _), taken = wanted.pop(0), i
                setattr(args, name, value(name, kind, token))
                if isinstance(kind, dict):
                    prog, node, tokens = f"{prog} {token}", kind[token], tokens[i:]
                    break
            elif hit is None or hit[0] is None:
                extras.append(token)
            else:
                opt, name, attached = hit
                while opt[1] is bool and attached is not None:  # -hX is -h -X
                    if name[1] == "-" or "-" + attached[:1] not in names:
                        leave(f"argument {opt[0]}: ignored explicit argument {attached!r}")
                    name = "-" + attached[0]
                    opt, attached = names[name], attached[1:] or None
                if opt[1] is not bool and attached is None:
                    if i in (cut, len(tokens)) or found[i] is not None:
                        leave(f"argument {opt[0]}: expected one argument")
                    attached, i = tokens[i], i + 1
                if hit[0] is _HELP:
                    leave()
                setattr(args, _dest(opt[0]), opt[1] is bool or value(opt[0], opt[1], attached))
        else:
            break
    missing = [p[0] for p in wanted] + [
        o[0] for o in options if vars(args)[_dest(o[0])] is ...]
    if missing:
        leave("the following arguments are required: " + ", ".join(missing))
    if extras:
        prog, node = "abr", _SPEC
        leave("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if isinstance(args.func, str):  # a sequence command, imported only when one runs
            from . import cli_sequences

            args.func = getattr(cli_sequences, args.func)
        return args.func(args)
    except AbrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for attempt in getattr(exc, "attempts", ()):
            print(f"  base {attempt[0]}: {attempt[1]}", file=sys.stderr)
        return next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
