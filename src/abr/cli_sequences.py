"""The sequence commands of ``cli``: ``generate``, ``color``, ``check``
one-switch | identities, and the lift behind a lifted ``check``/``search``.
``cli`` imports this module only when one of them runs, so a table or
planar command never compiles it; each handler imports what it runs when
it runs."""

import sys
from itertools import combinations
from math import comb

from .cli import EXIT_OK, _emit, _load_input, _report, _summary
from .errors import (DegenerateInputError, IdentityViolationError, InvariantError, ParseError,
                     TooFewPointsError, TooLargeError, WrongOrientationError)
from .tables import MAX_DENSE_CELLS, ColoringTable, _guarded_comb, dump_json

_SUMMARY_TUPLE_CAP = 20000
MAX_OUTPUT_DIGITS = 1 << 26


def lifted_table(s, args, build=None, work=()):
    """Lifted sequence and ``build`` of it, by default its color table.  A
    planar one is moment-lifted to ``--d``, for ``--cross-check`` and the
    certificates to read, and colored by ``divdiff_color_table``: the lift's
    determinants are Vandermonde(t) > 0 times the divided differences.  The
    build is the one check of cyclic order and general position: it keys
    every d-tuple and (d+1)-tuple, and stops at the lex-least zero
    determinant.  Only when it finds the projections not cyclic, or there
    are at most d points, are they scanned to name the lex-least witness: a
    sequence whose reversal is cyclic gets WrongOrientationError, or with
    ``--reverse-orientation`` is replaced by that reversal and built again.
    The command visits C(n, d+k) items of each (k, what) in ``work``; more
    than the dense guard are refused before any minor."""
    from .paths import color_table, divdiff_color_table
    from .sequences import PlanarSequence, moment_lift, validate_cyclic_projections

    if isinstance(s, PlanarSequence):
        if args.d >= 2 and len(s) <= args.d:
            # Refused before any power of t, with the messages of the checks
            # below: the cyclic scan needs d points, the colors d + 1.
            need = args.d if len(s) < args.d else args.d + 1
            raise TooFewPointsError(f"need at least {need} points, got {len(s)}")
        planar, s = s, moment_lift(s, args.d)
        build = build or (lambda _: divdiff_color_table(planar, args.d))
    build = build or color_table
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


# ---------------------------------------------------------------- generate

def _moment_heights(ts, kind, power, seed):
    if kind != "random":
        return [t ** power if kind != "zero" else 0 for t in ts]
    import random as _random

    from .constructions import _random_rational

    rng = _random.Random(seed)
    return [_random_rational(rng, 16, signed=True) for _ in ts]


def generate_moment(args):
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
    _summary(to_file,
             f"kind=lifted d={args.d} n={len(seq)} cyclic={cyclic} general_position={general}")
    return EXIT_OK


def generate_random(args):
    from .constructions import random_cyclic_instance
    from .sequences import serialize_sequence

    seq = random_cyclic_instance(args.d, args.n, args.seed, bits=args.bits)
    to_file = _emit(serialize_sequence(seq), args.output)
    # The generator returns only instances that pass both checks in full.
    _summary(to_file, f"kind=lifted d={args.d} n={len(seq)} seed={args.seed} "
             "cyclic=valid general_position=valid")
    return EXIT_OK


def generate_em(args):
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
    report_obj = {"m": args.m, "n": len(seq), "max_monotone": max_monotone,
                  "exhaustive": exhaustive, "method": method, "params": params.to_json_obj()}
    to_file = _emit(serialize_sequence(seq), args.output)
    _summary(to_file, dump_json(report_obj).decode("utf-8").rstrip("\n"))
    return EXIT_OK


def generate_cupcap(args):
    from .constructions import cupcap_extremal
    from .sequences import serialize_sequence

    seq = cupcap_extremal(args.k)
    to_file = _emit(serialize_sequence(seq), args.output)
    _summary(to_file, f"kind=planar n={len(seq)} k={args.k}")
    return EXIT_OK


# ------------------------------------------------------------------- color

def color_sequence(args):
    obj = _load_input(args.input)
    if isinstance(obj, ColoringTable):
        raise ParseError("'color' needs a point sequence, not a coloring table")
    lifted, table = lifted_table(obj, args)
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
        raise IdentityViolationError(f"{mismatches} tuples disagree between color oracles")
    return EXIT_OK


# ------------------------------------------------------------------- check

def check_sequence(obj, args):
    """``check one-switch`` or ``check identities`` of the input ``obj``."""
    what = args.what
    if isinstance(obj, ColoringTable):
        raise ParseError(f"'check {what}' needs a point sequence, not a table")

    if what == "one-switch":
        lifted = lifted_table(obj, args, work=((1, "tuples"), (2, "certificates")))[0]
        d = lifted.dimension
        if len(lifted) < d + 2:
            raise TooFewPointsError(f"one-switch needs at least {d + 2} points")
        count = comb(len(lifted), d + 2)
        max_switches = max(lifted.kernel.one_switch(tup)[3]
                           for tup in combinations(range(len(lifted)), d + 2))
        _report(args, f"one-switch: ok subtuples={count} max_switch_count={max_switches}",
                {"check": "one-switch", "ok": True, "subtuples": count,
                 "max_switch_count": max_switches})
        return EXIT_OK

    # identities
    from .sequences import PlanarSequence

    if isinstance(obj, PlanarSequence):
        from .coloring import vandermonde_divdiff_residual

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
    _report(args, f"identities: ok checked={checked}",
            {"check": "identities", "ok": True, "checked": checked})
    return EXIT_OK
