"""Colorings of sequences from exact integer keys, one engine for planar
and lifted input: the keyed coloring, dense color tables, and the longest
monochromatic subsequence as a longest monotone path over windows.

The color of (a, M, e), M a (d-1)-tuple, is the sign of det[a, M, e] over
integer columns (1, z, h): a lifted sequence's, or the moment columns
(1, t, ..., t^(d-1), h) of a planar sequence, whose sign is that of the
order-d divided difference.  Per middle M, one ``keys_of(M, xs)`` call keys
the points outside M's span, and (a, M, e) is + exactly when e's key
exceeds a's.  Planar keys are in closed form, O(d^2) per middle: the
order-(d-1) divided difference over M and x is (h_x - p_M(t_x)) /
omega_M(t_x).  Lifted keys take two cofactor vectors of M from the
sequence's ``linalg.SignKernel`` (``cofactors``, by Bareiss), so only a
lifted sequence, whose kernel has loaded ``linalg`` already, reads it.
``LazyDivdiffColors`` is that coloring, planar at an order or lifted at
its dimension, and every key read here goes through it, middle by middle
in the walk of ``tables._middles``; it checks the input once, and keys on
first read.  ``_key_table`` builds the dense tables from the keys, one run
of lex-ordered bits per window (a, M), placed by ``tables._rank``:
``divdiff_color_table`` of every planar command, ``color`` and ``check
one-switch`` too, and ``color_table`` of a lifted one.
``longest_monotone_path`` sorts the runs into the longest path from each
window, and ``search._window_path``, the table search's front end too,
rebuilds the witness from the coloring's rows.  Only that search imports
``search``; ``constructions.random_cyclic_instance`` reads the key pass
``_keyed_middles`` alone, which decides general position with no search.
Nothing here imports ``coloring``, so a planar ``check``, or ``color``
without ``--cross-check``, compiles neither, nor ``linalg``.
"""

from bisect import bisect_left
from functools import cached_property
from itertools import combinations, repeat
from math import gcd
from operator import add, floordiv, itemgetter, lshift, mul

from .errors import DegenerateInputError, InvariantError, WrongOrientationError
from .sequences import LiftedSequence, PlanarSequence, cleared_column
from .tables import Color, ColoringTable, _check_shape, _guarded_comb, _middles, _rank


def divdiff_color_table(p, order):
    """Color every increasing (order+1)-tuple of a planar sequence by the
    sign of its order-d divided difference (``_key_table``)."""
    if not isinstance(p, PlanarSequence):
        raise InvariantError("divdiff_color_table needs a PlanarSequence")
    return _key_table(p, order)


def color_table(s):
    """Color every increasing (d+1)-tuple of a lifted sequence with cyclic
    projections by the sign of its determinant (``_key_table``); the
    lex-least vanishing one raises DegenerateInputError."""
    if not isinstance(s, LiftedSequence):
        raise InvariantError("color_table needs a LiftedSequence")
    return _key_table(s, s.dimension)


def _key_table(s, d):
    """The dense table of a planar sequence at order d or a lifted one of
    dimension d; its shape is refused before any power of t is formed.
    Per middle M the points outside its span are swept in descending key
    order, the e passed so far in a bit mask: at each point a, the e above
    a (all unless M is empty) make (a, M, e) +, and they sit at the
    contiguous bits ``_rank(a, M) - (n - 1 - e)``, one run per window."""
    coloring = LazyDivdiffColors(s, d)
    n = coloring.n
    store = bytearray((_guarded_comb(n, d + 1, "tuples") + 7) // 8)
    for middle, xs, lo, keys in _keyed_middles(coloring):
        mask, first = 0, lo if middle else 0
        for j in sorted(range(len(xs)), key=keys.__getitem__, reverse=True):
            prefix = (xs[j], *middle)
            low = prefix[-1] + 1
            run = mask >> low if j < lo else 0
            if run:  # OR'd into the store from the bit of prefix + (low,), little-endian
                at = _rank(prefix, n, d + 1, d) - n + 1 + low
                start, stop = at >> 3, (at + run.bit_length() + 7) >> 3
                store[start:stop] = (int.from_bytes(store[start:stop], "little")
                                     | run << (at & 7)).to_bytes(stop - start, "little")
            if j >= first:
                mask |= 1 << xs[j]
    return ColoringTable(n, d + 1, bytes(store))


def longest_monotone_path(s, order=None):
    """Longest monochromatic subsequence of the order-d coloring of a planar
    sequence, or of a lifted sequence's coloring (d its dimension; ``order``
    is for planar input, which needs it as an int), exactly, with the tie rule of
    ``tables.longest_monochromatic``: the most points, then the
    lexicographically least witness over both colors.

    Both colorings are transitive: an order-d divided difference over d+1
    points of a set is a positive combination of those over consecutive
    ones, and a lifted coloring switches at most once along a (d+2)-tuple
    (the one-switch certificate of ``coloring``).  So a set is
    monochromatic exactly when its consecutive windows chain in one
    direction: the longest one is a longest path over the C(n, d) windows
    (Fox-Pach-Sudakov-Suk; Elias-Matousek).  One pass over the middles M
    settles, per color, the longest path from each window (a, M), sorting
    the points outside M's span once by key.  A tie raises like
    ``_key_table``, so a finished search has checked general position.
    ``nodes_visited`` counts the windows settled; more than
    MAX_DENSE_CELLS are refused before any key.
    """
    from .search import _lengths, _window_path

    coloring = LazyDivdiffColors(s, s.dimension if isinstance(s, LiftedSequence) else order)
    n, d = coloring.n, coloring.r - 1
    windows = _guarded_comb(n, d, "windows")
    runs = _lengths(n, d, windows), _lengths(n, d, windows)
    (_order_one_runs if d == 1 else _window_runs)(_keyed_middles(coloring), n, d, runs)
    return _window_path(coloring, runs, windows)


class LazyDivdiffColors:
    """The coloring of a planar sequence at ``order``, or of a lifted one at
    its dimension, read a tuple or a row at a time, and no table that a
    check takes: Q + (y,) is + when y's key under the middle Q[1:] exceeds
    Q[0]'s.  It alone checks the kind, order and shape of the input, and
    keys on first read.  Nothing else is kept, and a row is keyed whole, so
    a degenerate tuple anywhere in a row that is read raises, even outside
    the mask."""

    def __init__(self, s, order):
        if isinstance(s, LiftedSequence):
            if order != s.dimension:
                raise InvariantError(
                    f"a lifted sequence of dimension {s.dimension} has no order-{order} coloring")
            self._what = "lifted determinant"
        elif isinstance(s, PlanarSequence):
            if not isinstance(order, int):
                raise InvariantError(f"a planar sequence needs an integer order, got {order!r}")
            self._what = "divided difference"
        else:
            raise InvariantError("LazyDivdiffColors needs a PlanarSequence or LiftedSequence")
        self.n, self.r = len(s), order + 1
        _check_shape(self.n, self.r)
        self._s = s

    @cached_property
    def keys_of(self):
        return _window_keys(self._s, self.r - 1)

    def color(self, tup):
        _rank(tup, self.n, self.r, self.r)
        return Color.POSITIVE if self._row(tup[:-1], [tup[-1]]) else Color.NEGATIVE

    def positive_among(self, prefix, mask):
        """The bits y of ``mask`` (each max(prefix) < y < n) for which
        prefix + (y,) is +."""
        _rank(prefix, self.n, self.r, self.r - 1)
        return self._row(prefix, range(prefix[-1] + 1, self.n)) & mask

    def _row(self, prefix, ys):
        """Bit y set when prefix + (y,) is +, for y in ``ys``; the least tie raises."""
        key, *keys = self.keys_of(prefix[1:], [prefix[0], *ys])
        if key in keys:
            raise self._vanishes(prefix + (ys[keys.index(key)],))
        return sum(1 << y for y, other in zip(ys, keys) if other > key)

    def _vanishes(self, tup):
        return DegenerateInputError(f"{self._what} vanishes at {tup}", witness=tup)


def _window_keys(s, d):
    """``keys_of(M, xs)``: integer keys of the points x in ``xs``, outside the
    span of the (d-1)-tuple M, such that (a, M, e) is + exactly when e's key
    exceeds a's, and the keys of a and e tie exactly when det[a, M, e] = 0.

    w_v(u) = det[u, M, v] is an alternating form of rank 2, so the
    three-term relation gives det[a, M, e] det[e_h, M, e_j] =
    w_h(a) w_j(e) - w_j(a) w_h(e) for the unit vectors of the height row h
    and of the last row j with a nonzero M-minor without rows h and j.
    w_h(u), the projection minor of (u, M), is positive left of M and of
    sign (-1)^(d-1) right of it, as the projections are cyclic.  So
    (a, M, e) is + exactly when sigma(M) w_j / w_h is larger at e than at
    a, sigma(M) the sign of (-1)^(d-1) det[e_h, M, e_j].  Both w are dot
    products with cofactors of M (``_planar_forms``, ``_lifted_forms``),
    each vector divided by its gcd, and the key is floor(2^s sigma(M) w_j
    / w_h) with 2^s >= max |w_h|^2: distinct quotients differ by at least
    2^-s, so keys order and tie exactly as the quotients do."""
    coords, forms = (_lifted_forms if isinstance(s, LiftedSequence) else _planar_forms)(s, d)

    def keys_of(middle, xs):
        pick = itemgetter(*xs) if len(xs) > 1 else lambda row: (row[xs[0]],)
        at = [pick(row) for row in coords]
        height, j, other = forms(middle)
        w = _dot(height, at)  # stops before the height row
        lo = bisect_left(xs, middle[0]) if middle else len(xs)  # the points a
        if min(w[:lo]) <= 0 or xs[lo:] and (
                max(w[lo:]) >= 0 if d % 2 == 0 else min(w[lo:]) <= 0):
            raise WrongOrientationError("projections are not cyclically ordered")
        num = _dot(other, at[:j] + at[j + 1:])
        shift = 2 * max(map(abs, w)).bit_length()
        return list(map(floordiv, map(lshift, num, repeat(shift)), w))

    return keys_of


def _planar_forms(s, d):
    """The rows of a planar sequence's moment columns, t and h each cleared by
    one lcm (``cleared_column``), and per middle M the two vectors of
    ``_window_keys`` in closed form, O(d^2) integer operations.  With V(M) the
    Vandermonde determinant of M, omega_M = prod (X - t_m) and p_M
    interpolating h on M, (x, M)'s projection minor is (-1)^(d-1) V(M)
    omega_M(t_x), and its cofactors without the last power row give (-1)^(d-1)
    V(M) (h_x - p_M(t_x)): w is (-1)^(d-1) omega_M, and the other vector
    (-1)^(d-1) (-V(M) p_M, V(M)) over its gcd.  Newton's recursion builds them
    with no division: m above the points S so far multiplies V(S) by
    omega_S(t_m) and V(S) p_S too, then adds V(S) (h_m - p_S(t_m)) omega_S."""
    t, h = (cleared_column(column)[1:] for column in zip(*s.points))
    sign = 1 if d & 1 else -1  # (-1)^(d-1)

    def forms(middle):
        omega, vp, v = [1], [], 1  # omega_S and V(S) p_S, lowest coefficient first, and V(S)
        for m in middle:
            x, a, b = t[m], 0, 0
            for c in reversed(omega):
                a = a * x + c
            for c in reversed(vp):
                b = b * x + c
            b = v * h[m] - b
            vp = [a * p + b * c for p, c in zip(vp + [0], omega)]
            omega = [low - x * c for low, c in zip([0] + omega, omega + [0])]
            v *= a
        g = sign * gcd(*vp, v)
        return [sign * c for c in omega], d - 1, [-c // g for c in vp] + [v // g]

    return [[x ** e for x in t] for e in range(d)] + [h], forms


def _lifted_forms(s, d):
    """The rows of a lifted sequence's kernel columns, and per middle M
    ``(height, j, other)`` of ``_window_keys``: M's cofactors of the height
    row, and of the last row j they do not all vanish on, each from
    ``SignKernel.cofactors``.  j is row 0 when they all do, a middle whose
    projections are affinely dependent, which ``keys_of``'s orientation
    check refuses.  The d-tuples that hold both ends of the sequence are no
    (u, M), so their projection minors are checked here, once."""
    n, kernel = len(s), s.kernel
    if any(kernel.minor((0, *inner, n - 1)) <= 0
           for inner in combinations(range(1, n - 1), d - 2)):
        raise WrongOrientationError("projections are not cyclically ordered")

    def forms(middle):
        height = kernel.cofactors(middle, d)
        j = max((i for i in range(d) if height[i]), default=0)
        other = kernel.cofactors(middle, j)
        hg, og = gcd(*height) or 1, gcd(*other) or 1
        if (height[j] < 0) != (j & 1):  # sigma(M) w_j is -(other . u) here
            og = -og
        return [c // hg for c in height], j, [c // og for c in other]

    return list(zip(*kernel.columns)), forms


def _dot(vec, rows):
    """The dot products of ``vec`` with the columns of ``rows``, one row at a
    time over all columns; rows past the length of ``vec`` are left out."""
    out = map(mul, repeat(vec[0]), rows[0])
    for c, row in zip(vec[1:], rows[1:]):
        out = map(add, out, map(mul, repeat(c), row))
    return list(out)


def _keyed_middles(coloring):
    """Per middle M of d-1 points inside (0, n-1), in the order of
    ``tables._middles``: M, the points xs outside its span, the number lo
    of them below it, and their keys.  Order 1 has one empty middle, whose
    xs are all n points, each both an a and an e.  Every (d+1)-tuple is
    compared under exactly one middle, so once all are yielded the
    lex-least tie raises DegenerateInputError, as a per-tuple scan in lex
    order would."""
    n, degenerate = coloring.n, None
    for middle in _middles(n, coloring.r - 2):
        lo, first = (middle[0], middle[0]) if middle else (n, 0)
        xs = [*range(lo), *range(middle[-1] + 1, n)] if middle else range(n)
        keys = coloring.keys_of(middle, xs)
        if len(set(keys)) < len(keys):  # the least a of each key, and each e above it
            least = {}
            for a, key in zip(xs[:lo], keys):
                least.setdefault(key, a)
            ties = [(least[key],) + middle + (e,) for e, key in zip(xs[first:], keys[first:])
                    if least.get(key, e) < e]
            degenerate = min(ties + [degenerate] if degenerate else ties, default=None)
        yield middle, xs, lo, keys
    if degenerate is not None:
        raise coloring._vanishes(degenerate)


def _window_runs(middles, n, d, runs):
    """Per color, into ``runs``, the longest monochromatic path starting at
    each window of d >= 2 points, by lex rank.  The windows (a, M) of a
    middle at the ends of the sequence have no (a, M, e) and keep d."""
    plus, minus = runs
    last = [_rank((a,), n, d, 1) for a in range(n)]  # the last window that starts with a
    for middle, xs, lo, keys in middles:
        # lex ranks in key order: (a, M) sits as far below a's last window
        # as (0, M) below 0's, stored as ~rank < 0, and (M, e) is high + e
        low = _rank((0, *middle), n, d, d) - last[0]
        high = _rank(middle, n, d, d - 1) - n + 1
        ranks = [~(last[a] + low) for a in range(lo)] + [high + e for e in xs[lo:]]
        ranks = [ranks[j] for j in sorted(range(len(xs)), key=keys.__getitem__)]
        # +: e's key above a's, rights above a's key; -: below it.
        for run, sweep in ((plus, reversed(ranks)), (minus, ranks)):
            best = d - 1
            for rank in sweep:
                if rank < 0:
                    run[~rank] = best + 1
                elif run[rank] > best:
                    best = run[rank]


def _order_one_runs(middles, n, d, runs):
    """Order 1, into ``runs``: a window is one point and (a, e) is + when
    e's key, its height, exceeds a's, so a path is a strictly monotone
    subsequence.  Points are taken from the last, and ``tails[i]`` holds
    the key of the best start of a path of i + 1 points seen so far,
    negated for +, so it increases with i and one bisect gives the longest
    path from a."""
    (keys,) = [keys for _, _, _, keys in middles]
    for run, sign in zip(runs, (-1, 1)):
        tails = []
        for a in reversed(range(n)):
            i = bisect_left(tails, sign * keys[a])
            run[a] = i + 1
            tails[i:i + 1] = [sign * keys[a]]
