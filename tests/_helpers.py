"""Shared test utilities: independent oracles and seeded generators.

The oracles here are deliberately naive (cofactor expansion, full subset
enumeration) so they share no code path with the implementations under
test.
"""

import argparse
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from abr import Matrix


def det_cofactor(rows):
    """Textbook cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def rand_fraction(rng, bits=8, signed=True):
    top = 1 << bits
    num = rng.randrange(-top + 1, top) if signed else rng.randrange(top)
    return Fraction(num, rng.randrange(1, top))


def rand_matrix(rng, rows, cols, bits=8):
    return Matrix(tuple(tuple(rand_fraction(rng, bits) for _ in range(cols))
                        for _ in range(rows)))


def rand_increasing(rng, n, bits=10):
    values = set()
    while len(values) < n:
        values.add(rand_fraction(rng, bits))
    return sorted(values)


def rand_planar_tuple(rng, count, bits=8):
    """count points with strictly increasing x and random heights."""
    ts = rand_increasing(rng, count, bits)
    return [(t, rand_fraction(rng, bits)) for t in ts]


def divdiff_closed(points):
    """The divided difference of h over t in the closed Lagrange form,
    sum over j of h_j / prod over r != j of (t_j - t_r): no step in common
    with Newton's recursion."""
    total = Fraction(0)
    for j, (tj, hj) in enumerate(points):
        denom = Fraction(1)
        for r, (tr, _) in enumerate(points):
            if r != j:
                denom *= tj - tr
        total += hj / denom
    return total


def naive_longest_monochromatic(table):
    """Largest monochromatic subset by checking every subset, largest first."""
    indices = range(table.n)
    for size in range(table.n, table.r - 1, -1):
        for subset in combinations(indices, size):
            colors = {table.color(tup) for tup in combinations(subset, table.r)}
            if len(colors) == 1:
                return size, subset, colors.pop()
    size = table.r - 1 if table.n >= table.r - 1 else table.n
    return size, tuple(range(size)), None


def rand_table(rng, n, r, density=0.5):
    from abr import ColoringTable, Color

    return ColoringTable.from_function(
        n, r, lambda tup: Color.POSITIVE if rng.random() < density else Color.NEGATIVE
    )


_INDEX_RE = re.compile(r"[0-9]+")


def reference_from_csv(text):
    """The table CSV reader that kept a dict of tuples: every row checked
    and entered in line order, then the dense-table guard and the row count
    for n = largest index + 1, then one lookup per tuple in lex order.  It
    places no row by rank, so ``ColoringTable.from_csv`` must give its
    table or its error."""
    from abr import Color, ColoringTable, ParseError
    from abr.tables import _dense_cells

    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty CSV table")
    header = lines[0].split(",")
    if len(header) < 3 or header[-1] != "color":
        raise ParseError(f"bad CSV header {lines[0]!r}")
    r = len(header) - 1
    if header != [f"i{k}" for k in range(r)] + ["color"]:
        raise ParseError(f"bad CSV header {lines[0]!r}")
    del lines[0]
    entries = {}
    top = -1
    for line_no, line in enumerate(lines, start=2):
        parts = line.split(",")
        if len(parts) != r + 1:
            raise ParseError(f"row has {len(parts)} fields, expected {r + 1}", line=line_no)
        for x in parts[:r]:
            if not _INDEX_RE.fullmatch(x):
                raise ParseError(f"bad index {x!r} in row {line_no}; expected ASCII digits")
        try:
            tup = tuple(int(x) for x in parts[:r])
        except ValueError as exc:
            raise ParseError(f"bad index in row {line_no}: {exc}") from exc
        if list(tup) != sorted(set(tup)):
            raise ParseError(f"indices {tup} must be strictly increasing", line=line_no)
        if parts[r] not in ("+", "-"):
            raise ParseError(f"bad color {parts[r]!r}", line=line_no)
        if tup in entries:
            raise ParseError(f"tuple {tup} listed twice", line=line_no)
        entries[tup] = Color(parts[r])
        top = max(top, tup[-1])
    n = top + 1
    cells = _dense_cells(n, r)
    if len(entries) != cells:
        raise ParseError(
            f"table has {len(entries)} rows but {cells} tuples exist for n={n}, r={r}"
        )
    return ColoringTable.from_function(n, r, lambda tup: entries[tup])


def flipped_table(table, cells):
    """A copy of ``table`` with the colors of ``cells`` swapped."""
    from abr import ColoringTable

    cells = set(cells)
    return ColoringTable.from_function(
        table.n, table.r,
        lambda tup: table.color(tup).flipped() if tup in cells else table.color(tup))


def _kernel_table(value, n, r, what):
    """The dense table with one kernel sign ``value(tup)`` per r-tuple, in
    lex order, so a vanishing one raises at the lex-least tuple.  It shares
    no code with the integer keys of ``abr.paths``."""
    from abr import Color, ColoringTable, DegenerateInputError

    def color(tup):
        sign = value(tup)
        if sign == 0:
            raise DegenerateInputError(f"{what} vanishes at {tup}", witness=tup)
        return Color.POSITIVE if sign > 0 else Color.NEGATIVE

    return ColoringTable.from_function(n, r, color)


def kernel_divdiff_table(p, order):
    """The dense order-d divided-difference table from the moment-lift
    kernel signs."""
    from abr.linalg import SignKernel
    from abr.sequences import moment_coordinates

    return _kernel_table(SignKernel(moment_coordinates(p.points, order)).value, len(p),
                         order + 1, "divided difference")


def kernel_color_table(s):
    """The dense lifted table from the kernel determinants of ``s``."""
    return _kernel_table(s.kernel.value, len(s), s.dimension + 1, "lifted determinant")


def reference_lift_table(p, d):
    """The planar table by the lift route: the moment lift of ``p`` keyed as
    lifted input, by Bareiss cofactors.  ``divdiff_color_table`` must equal
    it bit for bit, and raise where it does, with the same witness."""
    from abr.paths import color_table
    from abr.sequences import moment_lift

    return color_table(moment_lift(p, d))


def reference_planar_keys(p, d):
    """The planar ``keys_of`` of ``abr.paths`` by cofactors: per middle M, the
    cofactor vectors of the height row and of the last power row over the
    moment columns (1, t, ..., t^(d-1), h), t and h each cleared by one
    lcm, by 2d Bareiss minors, each vector divided by its gcd.  The
    closed-form keys must equal these integer for integer, and raise
    WrongOrientationError where these do."""
    from math import gcd

    from abr import WrongOrientationError
    from abr.linalg import _int_det_bareiss

    ts, hs = zip(*p.points)
    tscale = lcm(*(x.denominator for x in ts))
    hscale = lcm(*(x.denominator for x in hs))
    t = [x.numerator * (tscale // x.denominator) for x in ts]
    h = [x.numerator * (hscale // x.denominator) for x in hs]
    columns = [tuple(tx ** e for e in range(d)) + (hx,) for tx, hx in zip(t, h)]

    def cofactors(rows, r):
        """c with c . u = det of the rows other than r of [u, M]"""
        if not rows[0]:
            return [1]  # order 1: the empty middle
        keep = [q for q in range(d + 1) if q != r]
        return [(-1) ** pos * _int_det_bareiss([rows[q] for q in keep if q != i])
                for pos, i in enumerate(keep)]

    def dot(vec, rows, xs):
        return [sum(c * columns[x][q] for c, q in zip(vec, rows)) for x in xs]

    def keys_of(middle, xs):
        rows = list(zip(*(columns[m] for m in middle))) or [()] * (d + 1)
        height = cofactors(rows, d)
        hg = gcd(*height)
        w = dot([c // hg for c in height], range(d), xs)
        lo = sum(x < middle[0] for x in xs) if middle else len(xs)
        if min(w[:lo]) <= 0 or xs[lo:] and (
                max(w[lo:]) >= 0 if d % 2 == 0 else min(w[lo:]) <= 0):
            raise WrongOrientationError("projections are not cyclically ordered")
        j = max(i for i in range(d) if height[i])
        other = cofactors(rows, j)
        og = gcd(*other)
        if (height[j] < 0) != (j & 1):
            og = -og
        num = dot([c // og for c in other], [q for q in range(d + 1) if q != j], xs)
        shift = 2 * max(map(abs, w)).bit_length()
        return [(a << shift) // b for a, b in zip(num, w)]

    return keys_of


def every_read(colors):
    """Every color of a table or keyed coloring, then every full row, each
    in lex order; each part the first DegenerateInputError's message and
    witness instead when one raises."""
    from abr import DegenerateInputError

    n, r, full = colors.n, colors.r, (1 << colors.n) - 1
    reads = []
    for read in (lambda: {t: colors.color(t) for t in combinations(range(n), r)},
                 lambda: {q: colors.positive_among(q, full)
                          for q in combinations(range(n), r - 1)}):
        try:
            reads.append(read())
        except DegenerateInputError as exc:
            reads.append((str(exc), exc.witness))
    return reads


def reference_window_runs(table):
    """Per color, the longest path in points from each window W, an
    (r-1)-tuple, where W steps to W[1:] + (e,) when W + (e,) has that color:
    one ``color`` lookup per step, the windows taken last to first in lex
    order, so every step's target is settled before W."""
    from abr import Color

    n, r = table.n, table.r
    windows = list(combinations(range(n), r - 1))
    runs = {}
    for color in Color:
        run = runs[color] = {}
        for w in reversed(windows):
            run[w] = max([run[w[1:] + (e,)] + 1 for e in range(w[-1] + 1, n)
                          if table.color(w + (e,)) is color], default=r - 1)
    return runs


def reference_longest_monochromatic(table, *, budget=None, cut=True):
    """The branch and bound of ``abr.branch_and_bound`` with one ``color``
    lookup per candidate and r-subtuple: the same nodes in the same order,
    so the whole SearchResult (nodes_visited and budget exits too) must
    agree.  With ``cut`` it takes path lengths from ``reference_window_runs``
    as the table search does: a candidate e after the stack S is tried only
    when the path from the window of S's last r-2 points and e reaches
    best - |S| + r - 2 points, one more when the best set so far has the
    color searched.  ``cut=False`` is the branch and bound without them."""
    from abr import Color, SearchResult

    n, r = table.n, table.r
    if n < r:
        return SearchResult(n, tuple(range(n)), Color.POSITIVE, True, 0)
    runs = reference_window_runs(table) if cut else None
    best_size, best_wit, best_color, nodes = 0, None, Color.POSITIVE, 0

    def feasible(stack, e, color):
        return all(table.color(sub + (e,)) is color for sub in combinations(stack, r - 1))

    def reaches(stack, e, color):
        if runs is None or len(stack) < r - 2:
            return True
        window = tuple(stack[len(stack) - (r - 2):]) + (e,)
        need = best_size - len(stack) + r - 2 + (best_color is color)
        return runs[color][window] >= need

    for color in (Color.POSITIVE, Color.NEGATIVE):
        stack, nexts, entered = [], [], True
        while True:
            if entered:
                nodes += 1
                if budget is not None and nodes > budget:
                    return SearchResult(best_size, best_wit or (), best_color, False, nodes)
                snap = tuple(stack)
                if len(snap) >= r and (len(snap) > best_size or (
                        len(snap) == best_size and (best_wit is None or snap < best_wit))):
                    best_size, best_wit, best_color = len(snap), snap, color
                nexts.append(stack[-1] + 1 if stack else 0)
            e = nexts[-1]
            while e < n and len(stack) + n - e >= best_size:
                if feasible(stack, e, color) and reaches(stack, e, color):
                    break
                e += 1
            else:
                nexts.pop()
                if not stack:
                    break
                stack.pop()
                entered = False
                continue
            nexts[-1] = e + 1
            stack.append(e)
            entered = True
    return SearchResult(best_size, best_wit or (), best_color, True, nodes)


def _largest_slope(block):
    """The largest slope over all pairs of a block, at least 0, compared as
    integers: every coordinate times the lcm of their denominators."""
    scale = lcm(*(x.denominator for point in block for x in point))
    points = [(int(t * scale), int(h * scale)) for t, h in block]
    num, den = 0, 1
    for (t1, h1), (t2, h2) in combinations(points, 2):
        if (h2 - h1) * den > num * (t2 - t1):
            num, den = h2 - h1, t2 - t1
    return Fraction(num, den)


@lru_cache(maxsize=None)
def all_pairs_cupcap(a, b):
    """Points with no a-cup and no b-cap by the classical two-block
    recursion, the right block raised above the largest slope over all
    pairs of each block."""
    if a == 3:
        return tuple((Fraction(i), Fraction(-i * i)) for i in range(b - 1))
    if b == 3:
        return tuple((Fraction(i), Fraction(i * i)) for i in range(a - 1))
    left, right = all_pairs_cupcap(a - 1, b), all_pairs_cupcap(a, b - 1)
    dt = left[-1][0] + 1 - right[0][0]
    right = [(t + dt, h) for t, h in right]
    slope = max(_largest_slope(left), _largest_slope(right))
    dh = max(h for _, h in left) + slope * (right[-1][0] - left[0][0]) + 1 - min(
        h for _, h in right)
    return left + tuple((t, h + dh) for t, h in right)


def seeded(seed):
    return random.Random(seed)


def fail_base_search(monkeypatch):
    """Patch ``constructions.verify_cluster_parabola`` so that the base
    search fails at every base up to 4: base 2 reports a run of 2m + 1
    points, and base 4 a vanishing divided difference.  Returns the
    attempts ``cluster_parabola_sequence`` then lists."""
    from abr import Color, DegenerateInputError, SearchResult, constructions

    def verify(seq, m):
        if seq == constructions.build_cluster_parabola(m, 2)[0]:
            return SearchResult(2 * m + 1, tuple(range(2 * m + 1)), Color.POSITIVE, True, 1,
                                "monotone-path")
        assert seq == constructions.build_cluster_parabola(m, 4)[0]
        raise DegenerateInputError("divided difference vanishes at (0, 1, 2, 3)",
                                   witness=(0, 1, 2, 3))

    monkeypatch.setattr(constructions, "verify_cluster_parabola", verify)
    return ((2, "monochromatic subsequence of size 5 at (0, 1, 2, 3, 4)"),
            (4, "degenerate quadruple (0, 1, 2, 3)"))


def _add_output(p):
    p.add_argument("-o", "--output", default=None, help="artifact file (default: stdout)")


def reference_parser():
    """The command line as an argparse parser: the reference that
    ``test_cli_fuzz`` holds ``cli._parse`` to, argv by argv."""
    from abr import cli, cli_sequences

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
    p.set_defaults(func=cli_sequences.generate_moment)

    p = kinds.add_parser("random", help="seeded random cyclic instance")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int, default=16, help="rational coordinate size")
    _add_output(p)
    p.set_defaults(func=cli_sequences.generate_random)

    p = kinds.add_parser("em", help="doubly-exponential cluster construction")
    p.add_argument("--m", type=int, required=True, help="recursion depth: 2^(2^(m-1)) points")
    p.add_argument("--base", type=int, default=2, help="starting scale base (default 2)")
    p.add_argument("--max-base", type=int, default=None)  # None: constructions.MAX_BASE
    p.add_argument("--no-verify", action="store_true",
                   help="emit the instance at --base without the verification search")
    _add_output(p)
    p.set_defaults(func=cli_sequences.generate_em)

    p = kinds.add_parser("cupcap", help="classical no-k-cup/no-k-cap extremal set")
    p.add_argument("--k", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=cli_sequences.generate_cupcap)

    p = sub.add_parser("color", help="color every (d+1)-tuple of a sequence")
    p.add_argument("input", help="sequence JSON file, or - for stdin")
    p.add_argument("--d", type=int, default=3, help="lift dimension for planar input")
    p.add_argument("--cross-check", action="store_true",
                   help="recompute every color with the independent oracles")
    p.add_argument("--reverse-orientation", action="store_true",
                   help="repair a sequence whose projections are cyclic in reverse")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(p)
    p.set_defaults(func=cli_sequences.color_sequence)

    p = sub.add_parser("check", help="structure and identity checks")
    p.add_argument("what", choices=("monotone", "transitive", "one-switch", "identities"))
    p.add_argument("input", help="sequence or table file, or - for stdin")
    p.add_argument("--d", type=int, default=3,
                   help="divided-difference order / lift dimension for planar input")
    p.add_argument("--reverse-orientation", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli._cmd_check)

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
    p.set_defaults(func=cli._cmd_search)

    return parser
