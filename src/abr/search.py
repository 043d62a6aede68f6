"""Longest monochromatic sets of a table: the window DP and the branch and
bound.  ``tables.longest_monochromatic`` imports this module when it
runs, and so does ``paths.longest_monotone_path``, the sequence search,
for ``_lengths`` and ``_window_path``, so no ``check`` loads it;
``constructions.verify_cluster_parabola`` imports it when it runs, for
``SearchResult``, so no generator but a verified ``generate em`` does.

A window is an (r-1)-tuple.  The consecutive windows of a monochromatic
set chain in its color, so on any table, transitive or not, the longest
path from a window, in points, bounds every monochromatic set through it
(Fox-Pach-Sudakov-Suk; Elias-Matousek).  ``window_runs`` computes those
lengths per color, row by row from a table's bits.  ``longest_window_path``
answers when the lex-least longest path is monochromatic; otherwise
``branch_and_bound`` answers, the same lengths cutting every branch that
cannot reach the best set so far.  The sequence search of ``paths`` walks
the same ``tables._middles`` and ends in the same ``_window_path``.
"""

from array import array
from collections import namedtuple
from itertools import combinations, islice
from math import comb

from .tables import MAX_DENSE_CELLS, Color, ColoringTable, _middles, _rank


class SearchResult(namedtuple("SearchResult", "size witness color exhaustive nodes_visited method",
                              defaults=("branch-and-bound",))):
    """Longest monochromatic subset found: its size, the lexicographically
    least witness of that size, its color, whether the search completed, the
    work done (search-tree nodes for the branch and bound, windows settled
    for the monotone-path DP) and the method that found it."""

    __slots__ = ()

    def to_json_obj(self):
        return {
            "size": self.size,
            "witness": list(self.witness),
            "color": self.color.value,
            "exhaustive": self.exhaustive,
            "nodes_visited": self.nodes_visited,
            "method": self.method,
        }


def _lengths(n, fill, count):
    """An array of ``count`` path lengths, each at most n, set to ``fill``."""
    return array("B" if n < 1 << 8 else "H" if n < 1 << 16 else "I", [fill]) * count


def window_runs(table):
    """Per color (+ then -), the longest monochromatic path from each window
    of a ``ColoringTable``, in points, by the window's lex rank; None for a
    coloring with no bits (a keyed coloring of ``paths``, whose search is
    ``paths.longest_monotone_path``) or when the C(n, r-1) windows exceed
    MAX_DENSE_CELLS.  Lengths take a byte per window and color (two past
    n = 255)."""
    if not isinstance(table, ColoringTable):
        return None
    windows = comb(table.n, table.r - 1)
    if windows > MAX_DENSE_CELLS:
        return None
    return _point_runs(table) if table.r == 2 else _window_runs(table, windows)


def longest_window_path(table):
    """The longest monochromatic set of a table by the monotone-path DP,
    when its witness certifies it; else None (``_certified``)."""
    return _certified(table, window_runs(table))


def _certified(table, runs):
    """The DP's answer from a table's ``window_runs``, or None when there
    are none or its witness is not monochromatic.

    The longest path U over the windows, in either color, bounds every
    monochromatic set, and on a transitive table it is exact.
    ``_window_path`` gives the lex-least U-path of both colors.  When it is
    monochromatic (its C(U, r) cells are read as C(U-1, r-1) rows) it is a
    largest monochromatic set, and the lex-least one of both colors, since
    every such set is a U-path: the result equals ``branch_and_bound``'s
    but for ``nodes_visited``, the C(n, r-1) windows settled, and
    ``method``."""
    if runs is None:
        return None
    n, r = table.n, table.r
    result = _window_path(table, runs, comb(n, r - 1))
    above, mask = {}, 0  # the points of the witness above each one
    for e in reversed(result.witness):
        above[e], mask = mask, mask | 1 << e
    for prefix in combinations(result.witness[:-1], r - 1):
        want = above[prefix[-1]]
        if table.positive_among(prefix, want) != (want if result.color is Color.POSITIVE else 0):
            return None
    return result


def _window_path(coloring, runs, windows):
    """The result of a window DP on a table or a sequence's keyed coloring:
    ``runs`` holds, per color, the longest path from each window by lex
    rank, and the witness is the lesser ``_greedy_path`` of the colors that
    reach the longest."""
    size = max(map(max, runs))
    witness, color = min([(_greedy_path(coloring, run, size, color), color)
                          for color, run in zip(Color, runs) if max(run) == size])
    return SearchResult(size, witness, color, True, windows, "monotone-path")


def _point_runs(table):
    """r = 2: a window is one point and (a, e) an edge, so per color the
    longest path from each point a, taken from the last, is one more than
    the longest settled one that its row reaches.  ``masks[i]`` holds the
    points settled with a path of i + 1 points, and every shorter length
    is held too, so a point takes one AND per length from the top down."""
    n, full = table.n, (1 << table.n) - 1
    runs = []
    for positive in (True, False):
        run, masks = _lengths(n, 1, n), []
        for a in reversed(range(n)):
            hit = table.positive_among((a,), full)
            if not positive:
                hit = ~hit  # the masks hold only points above a
            i = next((i for i in reversed(range(len(masks))) if hit & masks[i]), -1) + 1
            run[a] = i + 1
            if i == len(masks):
                masks.append(0)
            masks[i] |= 1 << a
        runs.append(run)
    return runs


def _window_runs(table, windows):
    """r >= 3: per color, the longest path starting at each window (a, M),
    M an (r-2)-tuple, by its lex rank.  Middles are walked by
    ``_middles``, so the windows (M, e) are settled before any (a, M).
    Their lengths are bucketed into bit masks over e, and the row of
    (a, M), one slice of the bits, is ANDed with one mask per distinct
    length, longest first.  The windows of a middle
    at the ends of the sequence have no edge and keep r - 1."""
    n, r, d, bits = table.n, table.r, table.r - 1, table.bits
    plus, minus = _lengths(n, d, windows), _lengths(n, d, windows)
    # the last r-tuple and the last window that start with a
    last_tuple = [_rank((a,), n, r, 1) for a in range(n)]
    last_window = [_rank((a,), n, d, 1) for a in range(n)]
    for middle in _middles(n, d - 1):
        # (a, M)'s row ends as far from a's last r-tuple as (0, M)'s from
        # 0's, and the window (a, M) lies as far from a's last one
        to_tuple = _rank((0, *middle), n, r, d) - last_tuple[0]
        to_window = _rank((0, *middle), n, d, d) - last_window[0]
        low = middle[-1] + 1  # bit j of a row and of a mask is e = low + j
        high = _rank(middle, n, d, d - 1) - n + 1  # the window (M, e) is high + e
        both = [(run, _buckets(run[high + low:high + n])) for run in (plus, minus)]
        for a in range(middle[0]):
            end = last_tuple[a] + to_tuple
            start = end - n + 1 + low
            hit = int.from_bytes(bits[start >> 3:(end >> 3) + 1], "little") >> (start & 7)
            for run, buckets in both:
                for length, mask in buckets:
                    if hit & mask:
                        run[last_window[a] + to_window] = length + 1
                        break
                hit = ~hit  # the - edges of (a, M)
    return plus, minus


def _buckets(lengths):
    """(length, mask of the j with lengths[j] == length), longest first."""
    masks = {}
    for j, length in enumerate(lengths):
        masks[length] = masks.get(length, 0) | 1 << j
    return sorted(masks.items(), reverse=True)


def _greedy_path(coloring, run, size, color):
    """The lex-least path of ``size`` points in ``color``: the lex-least
    window with a path that long, the first in ``run``, then each time the
    least next point e that keeps the color and whose window leaves a path
    long enough."""
    n, r = coloring.n, coloring.r
    witness = list(next(islice(combinations(range(n), r - 1), run.index(size), None)))
    while len(witness) < size:
        need = size - len(witness) + r - 2  # the path from the next window
        prefix = tuple(witness[1 - r:])
        high = _rank(prefix[1:], n, r - 1, r - 2) - n + 1  # the window (M, e) is high + e
        fits = sum(1 << e for e in range(prefix[-1] + 1, n) if run[high + e] >= need)
        hit = coloring.positive_among(prefix, fits)
        hit = hit if color is Color.POSITIVE else fits ^ hit
        witness.append((hit & -hit).bit_length() - 1)
    return tuple(witness)


def branch_and_bound(table, runs=None, *, budget=None):
    """Largest index set whose r-subtuples all share one color.

    Depth-first branch and bound over increasing index stacks, kept on an
    explicit stack so no n is too deep.  Each level keeps a mask of the
    candidate elements that keep every r-subtuple on the target color;
    pushing e ANDs in the rows of the new (r-1)-subsets that end in e, and
    the next candidate is the lowest set bit.

    ``runs``, a table's ``window_runs``, cuts further.  A stack S grows
    through e, in color c, to at most |S| - (r-2) + run_c[W] points, W the
    window of S's last r-2 points and e, so e is branched on only when that
    reaches the best size so far, and passes it when the best set has color
    c: a later stack of the same color is lex-greater, so a tie cannot
    win.  A candidate cut here is dropped from its level only; the children
    of a later candidate inherit the level's other candidates uncut, as
    their windows differ.  Without ``runs`` (None) the only cut is that
    |S| plus the points from e on reach the best size.

    ``budget`` caps visited nodes deterministically; when it runs out the
    best subset found so far is returned with exhaustive=False.  Ties between
    equal-size subsets resolve to the lexicographically least witness.
    """
    n, r = table.n, table.r
    best_size = 0
    best_wit = None
    best_color = Color.POSITIVE
    nodes = 0
    positive = table.positive_among

    for color, run in zip(Color, runs or (None, None)):
        # cands[i] holds the untried candidates after the node stack[:i]: the
        # elements above stack[i-1] that keep every r-subtuple on ``color``.
        stack, cands = [], []
        mask = (1 << n) - 1
        entered = True
        while True:
            depth = len(stack)
            if entered:
                nodes += 1
                if budget is not None and nodes > budget:
                    return SearchResult(best_size, best_wit or (), best_color, False, nodes)
                if depth >= r:
                    snap = tuple(stack)
                    if depth > best_size or (
                        depth == best_size and (best_wit is None or snap < best_wit)
                    ):
                        best_size, best_wit, best_color = depth, snap, color
                if stack:
                    # The new (r-1)-subsets are those that end in the new element.
                    e = stack[-1]
                    for rest in combinations(stack[:-1], r - 2):
                        if not mask:
                            break
                        hit = positive(rest + (e,), mask)
                        mask = hit if color is Color.POSITIVE else mask ^ hit
                cands.append(mask)
            mask = cands[-1]
            if run is not None and depth >= r - 2:
                # Skip each lowest candidate e whose window, at high + e, has
                # too short a path.  While best_size is 0 every window
                # passes, as each path has at least r - 1 points.
                need = best_size - depth + r - 2 + (best_color is color)
                high = _rank(tuple(stack[depth - r + 2:]), n, r - 1, r - 2) - n + 1
                while mask and run[high + (mask & -mask).bit_length() - 1] < need:
                    mask &= mask - 1
            low = mask & -mask
            e = low.bit_length() - 1
            if not mask or depth + n - e < best_size:
                cands.pop()
                if not stack:
                    break
                stack.pop()
                entered = False
                continue
            mask ^= low  # the children's candidates: those above e
            cands[-1] = mask
            stack.append(e)
            entered = True

    return SearchResult(best_size, best_wit or (), best_color, True, nodes)
