"""Planar divided-difference colorings from exact integer keys: the
dense color table, and the longest monochromatic subsequence as a longest
monotone path over windows, with no table.

The order-d color of (a, M, e), M a (d-1)-tuple, is the sign of
D(M, e) - D(a, M) for the order-(d-1) divided difference D over a window of
d points.  Both routes make one ``keys_of(M, xs)`` call per middle M: the
integer keys of D(., M) for the points outside M's span.
``divdiff_color_table`` sets the bit of (a, M, e) when e's key exceeds a's;
planar ``check`` builds its table with it.  ``longest_monotone_path`` sorts
the same keys and keeps per color the longest path from each window in an
array by colex rank; planar ``search`` and the verification of the
cluster-parabola construction run it.  A ``ColoringTable``, which need not
be transitive, keeps the branch and bound of ``tables``.  This module
imports no ``coloring`` code, so a planar command compiles none of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, combinations
from math import comb, lcm
from operator import mul, or_

from .errors import DegenerateInputError, InvariantError
from .linalg import _int_det_bareiss
from .sequences import PlanarSequence
from .tables import Color, ColoringTable, SearchResult, _check_shape, _dense_cells, _guarded_comb


def divdiff_color_table(p, order):
    """Color every increasing (order+1)-tuple of a planar sequence by the
    sign of its order-d divided difference.  The table shape is refused
    before any power of t is formed.

    Per middle M, one ``keys_of`` call keys the points outside M's span by
    D(., M), and the points a below it are sorted by key, so the a with
    key[a] < key[e] are a prefix of that order: one bisect per (M, e).
    Those a sit at the contiguous colex ranks rank(M) + C(e, d+1) + a, where
    rank(M) counts M's elements from position 2.  Order 1 has the empty
    middle: every point is both an a and an e, and a < e.  Every
    (d+1)-tuple is compared under exactly one middle, so a tie there is
    exactly a vanishing divided difference: the lex-least one raises
    DegenerateInputError, as a per-tuple scan in lex order would."""
    if not isinstance(p, PlanarSequence):
        raise InvariantError("divdiff_color_table needs a PlanarSequence")
    n, d = len(p), order
    store = bytearray((_dense_cells(n, d + 1) + 7) // 8)
    keys_of = _window_keys(p.points, d)
    high = [comb(e, d + 1) for e in range(n)]
    degenerate = None
    for middle in combinations(range(1, n - 1), d - 1):
        if middle:
            lefts, rights = range(middle[0]), range(middle[-1] + 1, n)
            xs = [*lefts, *rights]
        else:
            xs = lefts = rights = range(n)
        key = dict(zip(xs, keys_of(middle, xs)))
        ranked = sorted(lefts, key=key.__getitem__)
        below = [key[a] for a in ranked]
        masks = list(accumulate((1 << a for a in ranked), or_, initial=0))
        base = sum(comb(m, j) for j, m in enumerate(middle, 2))
        for e in rights:
            j = bisect_left(below, key[e])
            if j < len(below) and below[j] == key[e]:
                tied = [a for a in ranked[j:bisect_right(below, key[e], j)] if a < e]
                if tied:
                    tie = (min(tied),) + middle + (e,)
                    degenerate = min(degenerate or tie, tie)
            _or_bits(store, base + high[e], masks[j] & ((1 << e) - 1))
    if degenerate is not None:
        raise _vanishes(degenerate)
    return ColoringTable(n, d + 1, bytes(store))


def _or_bits(store, offset, bits):
    """OR the int ``bits`` into the bit string ``store`` from bit ``offset``
    on, little-endian like the ranks of a ``ColoringTable``."""
    if bits:
        start, stop = offset >> 3, (offset + bits.bit_length() + 7) >> 3
        store[start:stop] = (int.from_bytes(store[start:stop], "little")
                             | bits << (offset & 7)).to_bytes(stop - start, "little")


def longest_monotone_path(p, order):
    """Longest monochromatic subsequence of the order-d divided-difference
    coloring of a planar sequence, exactly, with the tie rule of
    ``tables.longest_monochromatic``: the most points, then the
    lexicographically least witness over both colors.

    The color of (a, M, e), M a (d-1)-tuple, is the sign of D(M, e) - D(a, M)
    for the order-(d-1) divided difference D over the d points of a window.
    Such a coloring is transitive (an order-d divided difference over any d+1
    points of a set is a positive combination of those over consecutive
    ones), so a set is monochromatic exactly when its consecutive windows
    chain in one direction: the longest one is a longest path over the
    C(n, d) windows (Fox-Pach-Sudakov-Suk; Elias-Matousek).  One pass over
    the middles M in reverse lex order settles, per color, the longest path
    starting at each window (a, M): the points outside M's span are sorted
    once by D(., M), then swept.  The witness is rebuilt from the lex-least
    window with the longest path by a greedy extension.

    Every (d+1)-tuple is compared in exactly one sort, so equal keys there
    are exactly the vanishing divided differences: the lex-least raises
    DegenerateInputError, and a finished search has checked general
    position.  ``nodes_visited`` counts the windows settled; more than
    MAX_DENSE_CELLS of them are refused before any divided difference is
    formed.
    """
    if not isinstance(p, PlanarSequence):
        raise InvariantError("longest_monotone_path needs a PlanarSequence")
    n, d = len(p), order
    _check_shape(n, d + 1)
    windows = _guarded_comb(n, d, "windows")
    keys_of = _window_keys(p.points, d)
    runs = _order_one_runs(keys_of((), range(n)), n) if d == 1 else _window_runs(
        keys_of, n, d, windows)
    size = max(max(run) for run in runs)
    witness, color = min(
        (_greedy_witness(keys_of, run, size, d, n, color), color)
        for color, run in zip((Color.POSITIVE, Color.NEGATIVE), runs) if max(run) == size)
    return SearchResult(size, witness, color, True, windows, "monotone-path")


def _window_keys(points, d):
    """``keys_of(M, xs)``: the integer keys of D(M + (x,)) for a (d-1)-tuple
    M and points x in ``xs``, outside M's span.

    With t and h cleared to integers (a positive rescaling), the moment
    columns v(x) = (1, t, ..., t^(d-2), h) give det[v(M), v(x)] = V(M) *
    prod(t_x - t_m) * D(M + (x,)), V(M) > 0 the Vandermonde of M.  Expanding
    along v(x), the numerator is a dot product of v(x) with M's cofactors
    and the denominator one of (1, t_x, ..., t_x^(d-1)) with the
    coefficients of prod(t - t_m).  The key is floor(2^s * V(M) * D), where
    2^s is at least every product of two denominators: distinct quotients
    differ by at least 2^-s, so keys order exactly as the values and tie
    exactly when they do."""
    ts, hs = zip(*points)
    tscale = lcm(*(x.denominator for x in ts))
    hscale = lcm(*(x.denominator for x in hs))
    t = [x.numerator * (tscale // x.denominator) for x in ts]
    h = [x.numerator * (hscale // x.denominator) for x in hs]
    k = d - 1
    rows = [tuple(tx ** e for e in range(k)) + (hx,) for tx, hx in zip(t, h)]
    powers = [tuple(tx ** e for e in range(k + 1)) for tx in t]
    shift = 2 * k * (t[-1] - t[0]).bit_length()

    def keys_of(middle, xs):
        cols = [rows[m] for m in middle]
        cofactors = []
        for i in range(k + 1):
            grid = [[col[j] for col in cols] for j in range(k + 1) if j != i]
            minor = _int_det_bareiss(grid) if grid else 1
            cofactors.append(-minor if (k - i) & 1 else minor)
        poly = [1]
        for m in middle:
            poly = [a - t[m] * b for a, b in zip([0] + poly, poly + [0])]
        return [(sum(map(mul, cofactors, rows[x])) << shift) // sum(map(mul, poly, powers[x]))
                for x in xs]

    return keys_of


def _window_runs(keys_of, n, d, windows):
    """Per color, the longest monochromatic path starting at each window of
    d >= 2 points, by colex rank; raises on the lex-least vanishing divided
    difference."""
    plus, minus = _lengths(n, d, windows), _lengths(n, d, windows)
    high = [comb(e, d) for e in range(n)]
    degenerate = None
    for middle in reversed(list(combinations(range(n), d - 1))):
        lo, hi = middle[0], middle[-1]
        if lo == 0 or hi == n - 1:
            continue  # no (a, M, e) around this middle: its left windows keep d
        # colex ranks: (a, M) is a + low_base, (M, e) is high_base + C(e, d)
        low_base = sum(comb(m, j) for j, m in enumerate(middle, 2))
        high_base = sum(comb(m, j) for j, m in enumerate(middle, 1))
        xs = [*range(lo), *range(hi + 1, n)]
        ranks = [a + low_base for a in range(lo)] + [high_base + high[e] for e in xs[lo:]]
        keys = keys_of(middle, xs)
        order = sorted(range(len(xs)), key=keys.__getitem__)
        if len(set(keys)) < len(keys):
            tie = _first_tie(keys, xs, lo, middle)
            if tie is not None and (degenerate is None or tie < degenerate):
                degenerate = tie
        # +: D(M, e) > D(a, M), rights above a's key; -: below it.
        for run, sweep in ((plus, reversed(order)), (minus, order)):
            best = d - 1
            for j in sweep:
                if j < lo:
                    run[ranks[j]] = best + 1
                elif run[ranks[j]] > best:
                    best = run[ranks[j]]
    if degenerate is not None:
        raise _vanishes(degenerate)
    return plus, minus


def _lengths(n, fill, count):
    """An array of ``count`` path lengths, each at most n, set to ``fill``."""
    return array("B" if n < 1 << 8 else "H" if n < 1 << 16 else "I", [fill]) * count


def _vanishes(tup):
    return DegenerateInputError(f"divided difference vanishes at {tup}", witness=tup)


def _first_tie(keys, xs, lefts, middle):
    """The lex-least (a, M, e) whose keys tie, or None; positions below
    ``lefts`` in ``xs`` hold the points a."""
    groups = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    ties = [(xs[js[0]],) + middle + (xs[next(j for j in js if j >= lefts)],)
            for js in groups.values() if js[0] < lefts <= js[-1]]
    return min(ties, default=None)


def _greedy_witness(keys_of, run, size, d, n, color):
    """The lex-least set of ``size`` points whose windows chain in
    ``color``: the lex-least window with a path that long, then each time the
    least next point that keeps the color and leaves a path long enough."""
    binomials = [[comb(m, j) for m in range(n)] for j in range(d + 1)]
    starts, i = [], -1
    while True:
        try:
            i = run.index(size, i + 1)
        except ValueError:
            break
        starts.append(_colex_unrank(i, binomials, d))
    witness = list(min(starts))
    positive = color is Color.POSITIVE
    while len(witness) < size:
        need = size - len(witness) + d - 1  # the path from the next window
        a, middle = witness[-d], tuple(witness[len(witness) - d + 1:])
        base = sum(comb(m, j) for j, m in enumerate(middle, 1))
        xs = [a] + [e for e in range(witness[-1] + 1, n) if run[base + binomials[d][e]] >= need]
        keys = keys_of(middle, xs)
        witness.append(next(e for e, key in zip(xs[1:], keys[1:])
                            if (key > keys[0]) == positive))
    return tuple(witness)


def _colex_unrank(rank, binomials, d):
    """The d-tuple of colex rank ``rank``; ``binomials[j][m]`` is C(m, j)."""
    out = []
    for j in range(d, 0, -1):
        c = bisect_right(binomials[j], rank) - 1
        rank -= binomials[j][c]
        out.append(c)
    return tuple(reversed(out))


def _order_one_runs(keys, n):
    """Order 1: a window is one point and (a, e) is + when h_e > h_a, so a
    path is a strictly monotone subsequence of h.  Points are taken in key
    order and the longest path from a is a Fenwick maximum over the points
    after a that were already placed."""
    order = sorted(range(n), key=keys.__getitem__)
    ties = [(a, b) for a, b in zip(order, order[1:]) if keys[a] == keys[b]]
    if ties:  # sorted() is stable: a tie run lists its points in index order
        raise _vanishes(min(ties))
    runs = []
    for sweep in (reversed(order), order):
        run, tree = _lengths(n, 0, n), [0] * (n + 1)
        for a in sweep:
            best, i = 0, n - 1 - a  # tree slot n - e holds e; e > a is slot <= n - 1 - a
            while i:
                best = max(best, tree[i])
                i &= i - 1
            run[a] = best = best + 1
            i = n - a
            while i <= n:
                tree[i] = max(tree[i], best)
                i += i & -i
        runs.append(run)
    return runs
