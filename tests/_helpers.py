"""Shared test utilities: independent oracles and seeded generators.

The oracles here are deliberately naive (cofactor expansion, full subset
enumeration) so they share no code path with the implementations under
test.
"""

import random
from fractions import Fraction
from itertools import combinations

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


def flipped_table(table, cells):
    """A copy of ``table`` with the colors of ``cells`` swapped."""
    from abr import ColoringTable

    cells = set(cells)
    return ColoringTable.from_function(
        table.n, table.r,
        lambda tup: table.color(tup).flipped() if tup in cells else table.color(tup))


def reference_longest_monochromatic(table, *, budget=None):
    """The branch and bound of ``longest_monochromatic`` with one ``color``
    lookup per candidate and r-subtuple: the same nodes in the same order,
    so the whole SearchResult (nodes_visited and budget exits too) must
    agree."""
    from abr import Color, SearchResult

    n, r = table.n, table.r
    if n < r:
        return SearchResult(n, tuple(range(n)), Color.POSITIVE, True, 0)
    best_size, best_wit, best_color, nodes = 0, None, Color.POSITIVE, 0

    def feasible(stack, e, color):
        return all(table.color(sub + (e,)) is color for sub in combinations(stack, r - 1))

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
                if feasible(stack, e, color):
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


def seeded(seed):
    return random.Random(seed)
