"""The benchmark's own exact arithmetic, used to build inputs and to check
abr's outputs without trusting abr.

Nothing here imports abr.  Colors are kept as a dict from increasing index
tuples to booleans (True for "+").  Every sign comes from plain Python
integers: a row is scaled by a positive integer to clear its denominators,
which keeps the sign of the determinant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm


def int_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            lead = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - lead * a[k][j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def integer_row(coords):
    """(1, coords...) scaled by the lcm of the denominators: an integer row
    that is a positive multiple of the original."""
    values = [Fraction(1)] + [Fraction(c) for c in coords]
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def colors_from_rows(rows, r):
    """Color of every increasing r-tuple: the sign of the determinant of its
    rows (True when positive).  Raises ValueError on a zero determinant."""
    colors = {}
    for tup in combinations(range(len(rows)), r):
        value = int_det([rows[i] for i in tup])
        if value == 0:
            raise ValueError(f"degenerate tuple {tup}")
        colors[tup] = value > 0
    return colors


def lifted_colors(points):
    """Above-below colors of a lifted sequence (points (z..., h)): the sign
    of det(1, z, h) over each (d+1)-tuple."""
    return colors_from_rows([integer_row(pt) for pt in points], len(points[0]) + 1)


def divdiff_colors(points, order):
    """Sign of the order-d divided difference of every (d+1)-tuple of a planar
    sequence (t, h) with increasing t.  It equals the sign of
    det(1, t, ..., t^(d-1), h), since that determinant is the divided
    difference times a positive Vandermonde product."""
    rows = [integer_row([t ** e for e in range(1, order)] + [h])
            for t, h in ((Fraction(t), Fraction(h)) for t, h in points)]
    return colors_from_rows(rows, order + 1)


def cupcap_colors(n, rng):
    """Order-2 (cup +, cap -) colors of n random integer points with distinct
    x, redrawn until no three are collinear."""
    while True:
        xs = sorted(rng.sample(range(1 << 20), n))
        ys = [rng.randrange(1 << 20) for _ in range(n)]
        colors = {}
        for i, j, k in combinations(range(n), 3):
            cross = (xs[j] - xs[i]) * (ys[k] - ys[i]) - (ys[j] - ys[i]) * (xs[k] - xs[i])
            if cross == 0:
                break
            colors[(i, j, k)] = cross > 0
        else:
            return colors


def perturbed_colors(n, rng, flips):
    """Cup/cap colors with ``flips`` seeded cells flipped, redrawn until the
    result is not transitive."""
    while True:
        colors = cupcap_colors(n, rng)
        for tup in rng.sample(sorted(colors), flips):
            colors[tup] = not colors[tup]
        if transitivity_violation(n, 3, colors) is not None:
            return colors


def table_csv(n, r, colors):
    """A table CSV in abr's layout: header i0..i(r-1),color, then every
    increasing tuple in lexicographic order."""
    lines = [",".join(f"i{k}" for k in range(r)) + ",color"]
    for tup in combinations(range(n), r):
        lines.append(",".join(map(str, tup)) + (",+" if colors[tup] else ",-"))
    return "\n".join(lines) + "\n"


def parse_table_csv(text):
    """(n, r, colors) from a table CSV; raises ValueError unless every
    increasing tuple appears once, in lexicographic order."""
    lines = text.splitlines()
    r = len(lines[0].split(",")) - 1
    if lines[0] != ",".join(f"i{k}" for k in range(r)) + ",color":
        raise ValueError(f"bad header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    n = int(rows[-1][r - 1]) + 1
    expected = list(combinations(range(n), r))
    if [tuple(int(x) for x in row[:r]) for row in rows] != expected:
        raise ValueError("rows are not every increasing tuple in lexicographic order")
    if any(row[r] not in ("+", "-") for row in rows):
        raise ValueError("bad color")
    return n, r, {tup: row[r] == "+" for tup, row in zip(expected, rows)}


def _deletion_switches(big, colors):
    """Color changes along the r-subtuples of an (r+1)-tuple, in deletion
    order (drop position 0 first)."""
    seq = [colors[big[:j] + big[j + 1:]] for j in range(len(big))]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def max_switches(n, r, colors):
    """Largest switch count over all (r+1)-tuples: at most 1 exactly when the
    coloring is monotone; the maximum abr's one-switch check reports."""
    return max((_deletion_switches(big, colors) for big in combinations(range(n), r + 1)),
               default=0)


def monotonicity_violation(n, r, colors):
    """Lexicographically least (r+1)-tuple whose colors switch twice, or None."""
    for big in combinations(range(n), r + 1):
        if _deletion_switches(big, colors) > 1:
            return big
    return None


def is_transitivity_violation(big, colors):
    """Whether the (r+1)-tuple breaks transitivity: its drop-last and
    drop-first subtuples agree but some other subtuple does not."""
    want = colors[big[:-1]]
    if colors[big[1:]] != want:
        return False
    return any(colors[sub] != want for sub in combinations(big, len(big) - 1))


def transitivity_violation(n, r, colors):
    """Lexicographically least (r+1)-tuple breaking transitivity, or None."""
    for big in combinations(range(n), r + 1):
        if is_transitivity_violation(big, colors):
            return big
    return None


def is_monochromatic(witness, r, colors, color):
    """Whether every r-subtuple of the increasing witness has ``color``."""
    witness = tuple(witness)
    if len(witness) < r or list(witness) != sorted(set(witness)):
        return False
    try:
        return all(colors[sub] is color for sub in combinations(witness, r))
    except KeyError:
        return False


def longest_window_chain(n, r, colors):
    """Longest increasing index set whose consecutive r-windows share one
    color.  That is the longest monochromatic set of a transitive coloring
    and an upper bound on it for any coloring."""
    best = min(n, r)
    for want in (True, False):
        length = {}
        for last in range(r - 1, n):
            for head in combinations(range(last), r - 1):
                tup = head + (last,)
                if colors[tup] != want:
                    continue
                size = length.get(head, r - 1) + 1
                key = tup[1:]
                if size > length.get(key, 0):
                    length[key] = size
                    best = max(best, size)
    return best


def reference_task():
    """A fixed task of plain integer and dict work, timed as a yardstick of
    how fast the machine runs Python at the moment."""
    rng = seeded_rng(0, "reference")
    ts = sorted({Fraction(rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16))
                 for _ in range(12)})
    points = [(t, t * t, Fraction(rng.randrange(-1 << 16, 1 << 16), rng.randrange(1, 1 << 16)))
              for t in ts]
    return longest_window_chain(len(points), 4, lifted_colors(points))


def seeded_rng(seed, salt):
    """An independent stream per (seed, purpose) pair."""
    return random.Random(f"{salt}:{seed}")
