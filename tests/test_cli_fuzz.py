"""The command line under generated argv and input bytes.

Every subcommand and flag is drawn with small values and hostile ones
(-1, 0, 10^9), on valid, truncated and corrupted sequence JSON, table JSON
and table CSV.  Each run must end in a documented exit code, print no
traceback, print exactly one ``error: `` line when it exits 2, and finish
well inside a bound.  Sizes stay where a command takes well under a
second: n <= 10 points, order <= 9 for ``color``, ``check`` and ``search``
(whose planar keys are in closed form), and dimension <= 5 for lifted
input and the generators; the slow high-order inputs that the guards
still admit are ROADMAP item 6.

The same argv, respelled in every form argparse accepted (unique and
ambiguous prefixes, --opt=value, -oFILE, "--", repeats, options before the
positionals, stray tokens and -h), must parse to what argparse read from
them, or be refused by both.
"""

import contextlib
import io
import json
import sys
import time
from itertools import combinations
from math import comb

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abr import cli
from abr.cli import main

from _helpers import reference_parser

HOSTILE = st.sampled_from([-1, 0, 10 ** 9])


def _size(low, high):
    """An int in [low, high], the high end drawn as often as the low one."""
    return st.sampled_from(range(high, low - 1, -1))


def _value(low, high):
    """An int argument: mostly in [low, high], sometimes hostile, rarely
    not an int at all."""
    return st.integers(0, 9).flatmap(lambda pick: (
        HOSTILE.map(str) if pick == 0
        else st.sampled_from(["x", "1.5", ""]) if pick == 1
        else _size(low, high).map(str)))


def _flags(draw, options, switches=()):
    argv = []
    for name, values in options.items():
        if draw(st.booleans()):
            argv += [name, draw(values)]
    for name in switches:
        if draw(st.booleans()):
            argv.append(name)
    return argv


@st.composite
def _planar(draw):
    n = draw(_size(1, 10))
    ts = sorted(draw(st.sets(st.integers(-20, 20), min_size=n, max_size=n)))
    heights = draw(st.lists(st.integers(-30, 30), min_size=len(ts), max_size=len(ts)))
    scale = draw(st.sampled_from(["", "/3"]))
    points = [[f"{t}{scale}", str(h)] for t, h in zip(ts, heights)]
    return {"kind": "planar", "points": points}


@st.composite
def _lifted(draw):
    d = draw(st.integers(2, 5))
    n = draw(_size(1, 10))
    if draw(st.booleans()):  # on the moment curve: cyclic projections
        ts = sorted(draw(st.sets(st.integers(-6, 6), min_size=n, max_size=n)))
        hs = draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n))
        points = [[str(t ** e) for e in range(1, d)] + [str(h)] for t, h in zip(ts, hs)]
    else:
        points = draw(st.lists(st.lists(st.integers(-9, 9).map(str), min_size=d, max_size=d),
                               min_size=n, max_size=n))
    return {"kind": "lifted", "dimension": d, "points": points}


@st.composite
def _table(draw):
    r = draw(_size(2, 4))
    n = draw(_size(r, 7))
    colors = "".join(draw(st.lists(st.sampled_from("+-"), min_size=comb(n, r),
                                   max_size=comb(n, r))))
    if draw(st.booleans()):
        return json.dumps({"n": n, "r": r, "colors": colors})
    lines = [",".join(f"i{k}" for k in range(r)) + ",color"]
    lines += [",".join(map(str, tup)) + "," + c
              for tup, c in zip(combinations(range(n), r), colors)]
    return "\n".join(lines) + "\n"


@st.composite
def _input_bytes(draw):
    text = draw(st.one_of(_planar().map(json.dumps), _lifted().map(json.dumps), _table()))
    data = text.encode("utf-8")
    how = draw(st.sampled_from(["valid"] * 5 + ["truncated", "corrupted", "spliced"]))
    if how == "truncated":
        data = data[:draw(st.integers(0, len(data)))]
    elif how == "corrupted":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    elif how == "spliced":
        at = draw(st.integers(0, len(data)))
        junk = draw(st.sampled_from([b"", b"-", b"9" * 30, b"\xff", b"/0", b"[", b"}", b",+\n"]))
        data = data[:at] + junk + data[at:]
    return data


@st.composite
def _run(draw):
    """(argv with {in} and {out} placeholders, input bytes or None)."""
    command = draw(st.sampled_from(["moment", "random", "em", "cupcap",
                                    "color", "check", "search"]))
    d = _value(1, 5)
    out = ["-o", "{out}"] if draw(st.booleans()) else []
    if command == "moment":
        argv = ["generate", "moment", "--n", draw(_value(1, 10))] + _flags(draw, {
            "--d": d, "--heights": st.sampled_from(["power", "cubic", "square", "zero", "random"]),
            "--seed": _value(-1, 9)})
        return argv + out, None
    if command == "random":
        argv = ["generate", "random", "--n", draw(_value(1, 10))] + _flags(draw, {
            "--d": d, "--seed": _value(-1, 9), "--bits": _value(1, 24)})
        return argv + out, None
    if command == "em":
        argv = ["generate", "em", "--m", draw(_value(1, 3))] + _flags(
            draw, {"--base": _value(2, 5), "--max-base": _value(2, 64)}, ["--no-verify"])
        return argv + out, None
    if command == "cupcap":
        return ["generate", "cupcap", "--k", draw(_value(3, 7))] + out, None
    source = draw(st.sampled_from(["{in}"] * 8 + ["-", "{missing}"]))
    if command == "color":
        argv = ["color", source] + _flags(draw, {
            "--d": _value(1, 9), "--format": st.sampled_from(["csv", "json"])},
            ["--cross-check", "--reverse-orientation"]) + out
    elif command == "check":
        what = draw(st.sampled_from(["monotone", "transitive", "one-switch", "identities"]))
        argv = ["check", what, source] + _flags(draw, {"--d": _value(1, 9), "--format":
                                                       st.sampled_from(["text", "json"])},
                                                ["--reverse-orientation"])
    else:
        argv = ["search", source] + _flags(draw, {
            "--d": _value(1, 9), "--k": _value(1, 10),
            "--budget": st.one_of(_value(0, 500), _value(-3, -1))},
            ["--best-effort", "--reverse-orientation"]) + out
    return argv, draw(_input_bytes())


@settings(derandomize=True, deadline=None, database=None, max_examples=600,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_run())
def test_every_drawn_command_ends_in_a_documented_exit(tmp_path, run):
    argv, data = run
    source = tmp_path / "in"
    if data is not None:
        source.write_bytes(data)
    places = {"{in}": str(source), "{out}": str(tmp_path / "out"),
              "{missing}": str(tmp_path / "missing")}
    argv = [places.get(arg, arg) for arg in argv]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data or b""), encoding="utf-8")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser refusing the argv
                code = exc.code
    finally:
        sys.stdin = stdin
    elapsed = time.perf_counter() - start
    stderr = err.getvalue()
    assert code in (0, 2, 3, 4, 5, 6), (argv, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        assert sum("error: " in line for line in stderr.splitlines()) == 1, (argv, stderr)
    assert elapsed < 2.0, argv


# Tokens inserted anywhere: help, stdin, "--", negative numbers, a stray
# positional, unknown and ambiguous options, and -h joined to more letters.
STRAY = ["-h", "--he", "-", "--", "-1", "-.5", "extra", "--foo", "-x", "--b", "--d", "--=x",
         "-hh", "-ho", "-hx", "--help=x", ""]


@st.composite
def _respelled(draw):
    """An argv of ``_run`` after up to four rewrites, each into a form that
    argparse accepted or refused."""
    argv = [{"{in}": "in", "{out}": "out", "{missing}": "-"}.get(a, a) for a in draw(_run())[0]]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(argv) - 1))
        token, after = argv[at], argv[at + 1:at + 2]
        how = draw(st.sampled_from(["prefix", "join", "repeat", "rotate", "insert"]))
        if how == "prefix" and token.startswith("--") and len(token) > 3:
            argv[at] = token[:draw(st.integers(3, len(token) - 1))]
        elif how == "join" and token.startswith("-") and after:
            argv[at:at + 2] = [token + "=" * token.startswith("--") + after[0]]
        elif how == "repeat":
            argv += argv[at:at + 2]
        elif how == "rotate":
            argv = argv[:at] + argv[at + 1:] + [token]
        elif how == "insert":
            argv.insert(at, draw(st.sampled_from(STRAY)))
    return argv


def _outcome(parse, argv):
    """(exit code or None, the namespace with handlers by name, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return exc.code, None, err.getvalue()
    fields = dict(vars(args), func=getattr(args.func, "__name__", args.func))
    return None, fields, err.getvalue()


def _assert_read_as_argparse_did(argv):
    want = _outcome(lambda argv: reference_parser().parse_args(argv), argv)[:2]
    code, fields, stderr = _outcome(cli._parse, argv)
    assert (code, fields) == want, argv
    if code == 2:
        assert sum("error: " in line for line in stderr.splitlines()) == 1, (argv, stderr)


@settings(derandomize=True, deadline=None, database=None, max_examples=1500)
@given(_respelled())
def test_every_drawn_argv_is_read_as_argparse_read_it(argv):
    _assert_read_as_argparse_did(argv)


def test_each_form_argparse_accepted_or_refused_is_read_alike():
    for line in [
            "", "generate", "generate moment", "generate em --m 3 --max-base 4 --budget 10",
            "generate moment --n 3 --form x", "generate moment --n 3 --he",
            "generate em --ma 5 --m 2", "generate em --m=3 --m 4 --no-verify --no-verify",
            "generate em --m", "generate em --m --base 3", "generate random --n=4 -oF -o=G --d=2",
            "search in --b 3", "search in --bu 3 --be --rev", "search in --budget -1 --k -.5",
            "search in --d x", "search --d 3 -- in", "search -- -in", "search in --",
            "search in --d 3 --", "search --d -- 3 in", "search -- -- in", "search in extra more",
            "check bad in", "check monotone", "check -- monotone in", "check monotone -- in x",
            "check one-switch - --for json", "check transitive in --d 1_0 --format=text",
            "color in --f json --cr --reverse-orientation -o -", "color in --format=xml",
            "-- search in", "generate -- em --m 3", "--foo search in", "-1 search in",
            "-h", "--h", "-hx", "search -h", "search -hh", "search -ho F", "search -ho",
            "search -hoF", "search -h=o F", "search -h=", "search --best-effort=1 in",
            "search -h --b", "check bad -h", "check -h bad", "generate -h", "generate em -h"]:
        _assert_read_as_argparse_did(line.split())
    for argv in (["search", "in", "--d", ""], ["search", "in", "-o", ""],
                 ["search", "in", "-o x"], ["search", "in", "--k", " 3 "],
                 ["search", "in", "--k", "-1\n"], ["search", "in", "-1 x"]):
        _assert_read_as_argparse_did(argv)
