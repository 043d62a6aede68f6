"""Ordered two-colorings of r-tuples: storage, structure tests, searches.

A coloring assigns + or - to every increasing r-tuple over {0, ..., n-1}.
Tables are stored densely, one bit per tuple, indexed by the colexicographic
rank sum(C(c_i, i+1)); a size guard refuses tables beyond the dense budget.

The checks and the search read candidate masks instead of single tuples.
Every table answers one question, ``positive_among(Q, mask)``: for an
(r-1)-tuple Q, which candidate bits y of ``mask`` make Q + (y,) positive.
A dense table reads the row of Q (bit y set when Q + (y,) is +) from the
stored bits once, keeps it, and answers ``row & mask``; a lazy table
evaluates only the candidate bits, through its memo.  The class rule then
runs on all candidates y at once, one bit lane per candidate.

Structure predicates:

* transitive: inside every (r+1)-tuple, if the two consecutive r-subtuples
  (drop-last and drop-first) share a color, all r-subtuples have it.
* monotone: inside every (r+1)-tuple, the colors of its r-subtuples listed
  in lexicographic order switch at most once.  Monotone implies transitive
  because drop-last is the lexicographically first subtuple and drop-first
  the last.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import InvariantError, ParseError, TooLargeError

MAX_DENSE_CELLS = 1 << 24
_INDEX_RE = re.compile(r"[0-9]+")


class Color(enum.Enum):
    """Two-valued tuple color."""

    POSITIVE = "+"
    NEGATIVE = "-"

    def flipped(self):
        return Color.NEGATIVE if self is Color.POSITIVE else Color.POSITIVE

    def __str__(self):
        return self.value


def _rank(tup, n, r):
    """Colex rank sum C(c_i, i+1) of a strictly increasing r-tuple of
    indices below n; any other tuple raises InvariantError."""
    if len(tup) == r:
        rank, prev = 0, -1
        for k, c in enumerate(tup, 1):
            if c <= prev:
                break
            rank += comb(c, k)
            prev = c
        else:
            if prev < n:
                return rank
    raise InvariantError(
        f"need a strictly increasing {r}-tuple of indices below {n}, got {tup!r}"
    )


def _dense_cells(n, r):
    """C(n, r) for a dense table shape: ints n >= r >= 2 and at most
    MAX_DENSE_CELLS tuples.  For k = min(r, n - r) >= 1, C(n, r) is at least
    n and at least 2^k, so a larger n or k is refused before any binomial."""
    if not (isinstance(n, int) and isinstance(r, int) and n >= r >= 2):
        raise InvariantError(f"need integer n >= r >= 2, got n={n!r}, r={r!r}")
    k = min(r, n - r)
    if k and (n > MAX_DENSE_CELLS or k >= MAX_DENSE_CELLS.bit_length()):
        raise TooLargeError(f"C(n, {r}) tuples exceed the dense-table guard")
    cells = comb(n, k)
    if cells > MAX_DENSE_CELLS:
        raise TooLargeError(f"{cells} tuples exceed the dense-table guard")
    return cells


def _lex_subtuples(tup):
    """The r-subtuples of an (r+1)-tuple in lexicographic order: dropping
    the last element comes first, dropping the first comes last."""
    return [tup[:j] + tup[j + 1:] for j in range(len(tup) - 1, -1, -1)]


def _leaves_class(colors, monotone):
    """The lanes in which the colors of an (r+1)-tuple's r-subtuples, in
    lexicographic order, leave the class.  Each color is an int whose bit is
    set in the lanes where that subtuple is +; a list of 0/1 colors is the
    one-lane case.  Two or more switches break monotonicity; they break
    transitivity when the ends are equal (another color sits between)."""
    once = twice = 0
    for a, b in zip(colors, colors[1:]):
        switch = a ^ b
        twice |= once & switch
        once |= switch
    return twice if monotone else twice & ~(colors[0] ^ colors[-1])


@dataclass(frozen=True)
class ColoringTable:
    """Dense coloring of all increasing r-tuples over {0, ..., n-1}.

    ``positive_among`` fills the row of a prefix Q (bit y set when Q + (y,)
    is +) on first use from the stored bits, since Q + (y,) has colex rank
    rank(Q) + C(y, r), and keeps it in ``_rows``, keyed by rank(Q); a full
    scan thus reads each bit once.  Past ``max_cached_rows`` rows (about 100
    bytes each) it reads only the candidates asked for."""

    n: int
    r: int
    bits: bytes
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    max_cached_rows = 1 << 18

    def __post_init__(self):
        if len(self.bits) != (_dense_cells(self.n, self.r) + 7) // 8:
            raise InvariantError("bit storage has the wrong length")

    @property
    def total(self):
        return comb(self.n, self.r)

    @classmethod
    def from_function(cls, n, r, fn):
        """Build by evaluating fn(tuple) -> Color on every increasing tuple."""
        store = bytearray((_dense_cells(n, r) + 7) // 8)
        for tup in combinations(range(n), r):
            color = fn(tup)
            if color is Color.POSITIVE:
                rank = _rank(tup, n, r)
                store[rank >> 3] |= 1 << (rank & 7)
            elif color is not Color.NEGATIVE:
                raise InvariantError(f"colorer returned {color!r} for {tup}")
        return cls(n, r, bytes(store))

    @classmethod
    def from_colors(cls, n, r, colors):
        """Build from colors listed in lexicographic tuple order; accepts
        Color values or '+'/'-' characters."""
        cells = _dense_cells(n, r)
        seq = [Color(c) if not isinstance(c, Color) else c for c in colors]
        if len(seq) != cells:
            raise InvariantError(f"expected {cells} colors, got {len(seq)}")
        it = iter(seq)
        return cls.from_function(n, r, lambda tup: next(it))

    def positive_among(self, prefix, mask):
        """The bits y of ``mask`` (each max(prefix) < y < n) for which
        prefix + (y,) is +."""
        key = _rank(prefix, self.n, self.r - 1)
        row = self._rows.get(key)
        if row is None:
            keep = len(self._rows) < self.max_cached_rows
            wanted = (1 << self.n) - 1 if keep else mask
            bits, row = self.bits, 0
            for y in range(prefix[-1] + 1, self.n):
                if wanted >> y & 1:
                    rank = key + comb(y, self.r)  # of prefix + (y,)
                    if bits[rank >> 3] >> (rank & 7) & 1:
                        row |= 1 << y
            if keep:
                self._rows[key] = row
        return row & mask

    def color(self, tup):
        """Color of one increasing tuple (colex-ranked O(r) lookup)."""
        rank = _rank(tup, self.n, self.r)
        if self.bits[rank >> 3] >> (rank & 7) & 1:
            return Color.POSITIVE
        return Color.NEGATIVE

    def __iter__(self):
        for tup in combinations(range(self.n), self.r):
            yield tup, self.color(tup)

    def counts(self):
        total = self.total
        positive = (int.from_bytes(self.bits, "little") & ((1 << total) - 1)).bit_count()
        return positive, total - positive

    def to_csv(self):
        header = ",".join(f"i{k}" for k in range(self.r)) + ",color"
        lines = [header]
        for tup, color in self:
            lines.append(",".join(str(i) for i in tup) + "," + color.value)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ParseError("empty CSV table")
        header = lines[0].split(",")
        if len(header) < 3 or header[-1] != "color":
            raise ParseError(f"bad CSV header {lines[0]!r}")
        r = len(header) - 1
        if header != [f"i{k}" for k in range(r)] + ["color"]:
            raise ParseError(f"bad CSV header {lines[0]!r}")
        entries = {}
        top = -1
        for line_no, line in enumerate(lines[1:], start=2):
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
        return cls.from_function(n, r, lambda tup: entries[tup])

    def to_json_obj(self):
        return {
            "n": self.n,
            "r": self.r,
            "colors": "".join(color.value for _, color in self),
        }

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ParseError("table JSON must be an object")
        unknown = set(obj) - {"n", "r", "colors"}
        if unknown:
            raise ParseError(f"unknown table field {sorted(unknown)[0]!r}")
        try:
            n, r, colors = obj["n"], obj["r"], obj["colors"]
        except KeyError as exc:
            raise ParseError(f"missing table field {exc.args[0]!r}") from exc
        if not isinstance(colors, str) or any(c not in "+-" for c in colors):
            raise ParseError("'colors' must be a string of '+'/'-'")
        cells = _dense_cells(n, r)
        if len(colors) != cells:
            raise ParseError(f"expected {cells} colors, got {len(colors)}")
        return cls.from_colors(n, r, colors)


def _first_violation(table, monotone):
    """Walk the r-tuples T in lex order; the r+1 subtuple colors of every
    T + (y,), y > max T, are r+1 masks over y, and the lowest violating lane
    of the first T that has one is the lex-least witness."""
    n, r = table.n, table.r
    positive = table.positive_among
    full = (1 << n) - 1
    for prefix in combinations(range(n - 1), r - 1):
        own = positive(prefix, full ^ ((2 << prefix[-1]) - 1))
        for t in range(prefix[-1] + 1, n - 1):
            tup = prefix + (t,)
            lanes = full ^ ((2 << t) - 1)
            # Lex order: drop y (T's own color in every lane), then drop t
            # (the prefix's row), then the earlier elements, last to first.
            colors = [lanes if own >> t & 1 else 0, own & lanes]
            colors += [positive(tup[:j] + tup[j + 1:], lanes) for j in range(r - 2, -1, -1)]
            bad = _leaves_class(colors, monotone)
            if bad:
                return False, tup + ((bad & -bad).bit_length() - 1,)
    return True, None


def is_transitive(table):
    """(True, None) or (False, lex-least witness (r+1)-tuple)."""
    return _first_violation(table, False)


def is_monotone(table):
    """(True, None) or (False, lex-least witness (r+1)-tuple)."""
    return _first_violation(table, True)


def monotone_implies_transitive_check(table):
    """For a monotone table, assert transitivity; returns True when both
    predicates hold.  Raises on a monotone-but-not-transitive table, which
    would contradict the subtuple ordering argument."""
    mono, _ = is_monotone(table)
    if not mono:
        raise InvariantError("table is not monotone; implication check needs a monotone table")
    trans, witness = is_transitive(table)
    if not trans:
        raise InvariantError(f"monotone table failed transitivity at {witness}")
    return True


@dataclass(frozen=True)
class SearchResult:
    """Longest monochromatic subset found: its size, the lexicographically
    least witness of that size, its color, whether the search completed, and
    the number of search-tree nodes visited."""

    size: int
    witness: tuple
    color: Color
    exhaustive: bool
    nodes_visited: int

    def to_json_obj(self):
        return {
            "size": self.size,
            "witness": list(self.witness),
            "color": self.color.value,
            "exhaustive": self.exhaustive,
            "nodes_visited": self.nodes_visited,
        }


def longest_monochromatic(table, *, budget=None):
    """Largest index set whose r-subtuples all share one color.

    Depth-first branch and bound over increasing index stacks, kept on an
    explicit stack so no n is too deep.  Each level keeps a mask of the
    candidate elements that keep every r-subtuple on the target color;
    pushing e ANDs in the rows of the new (r-1)-subsets that end in e, and
    the next candidate is the lowest set bit.

    ``budget`` caps visited nodes deterministically; when it runs out the
    best subset found so far is returned with exhaustive=False.  Ties between
    equal-size subsets resolve to the lexicographically least witness.
    """
    n, r = table.n, table.r
    if n < r:
        return SearchResult(n, tuple(range(n)), Color.POSITIVE, True, 0)

    best_size = 0
    best_wit = None
    best_color = Color.POSITIVE
    nodes = 0
    positive = table.positive_among

    for color in (Color.POSITIVE, Color.NEGATIVE):
        # cands[i] holds the untried candidates after the node stack[:i]: the
        # elements above stack[i-1] that keep every r-subtuple on ``color``.
        stack, cands = [], []
        mask = (1 << n) - 1
        entered = True
        while True:
            if entered:
                nodes += 1
                if budget is not None and nodes > budget:
                    return SearchResult(best_size, best_wit or (), best_color, False, nodes)
                depth = len(stack)
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
            low = mask & -mask
            e = low.bit_length() - 1
            if not mask or len(stack) + n - e < best_size:
                cands.pop()
                if not stack:
                    break
                stack.pop()
                entered = False
                continue
            mask ^= low
            cands[-1] = mask
            stack.append(e)
            entered = True

    return SearchResult(best_size, best_wit or (), best_color, True, nodes)


def ramsey_search_tiny(r, k, n_max, cls="monotone", *, max_tuples=64):
    """Least n <= n_max such that every coloring in the class forces a
    monochromatic k-subset; None when n_max is not enough (unknown).

    Exhaustive search over class colorings by depth-first assignment in
    colexicographic tuple order, pruning branches that already violate the
    class property or already contain a monochromatic k-subset.  Ordered
    colorings admit no vertex relabeling, so the only symmetry used is the
    global color swap (the first tuple is pinned to +).  Refuses when
    C(n, r) exceeds ``max_tuples``.
    """
    if cls not in ("monotone", "transitive"):
        raise InvariantError(f"unknown class {cls!r}")
    if not (isinstance(r, int) and isinstance(k, int) and r >= 2 and k >= r):
        raise InvariantError(f"need integers k >= r >= 2, got r={r!r}, k={k!r}")
    if not isinstance(n_max, int) or n_max < k:
        raise InvariantError(f"n_max must be an int >= k, got {n_max!r}")
    for n in range(k, n_max + 1):
        if comb(n, r) > max_tuples:
            raise TooLargeError(
                f"C({n},{r}) = {comb(n, r)} tuples exceed the enumeration guard {max_tuples}"
            )
        if _forces(n, r, k, cls):
            return n
    return None


def _forces(n, r, k, cls):
    # Tuples are colored in colex order, so a tuple's position is its rank.
    # The sets a tuple completes are the tuple plus elements below its
    # minimum: per tuple, the ranks of the r-subtuples (in lex order) of each
    # (r+1)-set it completes, and of each k-set it completes.
    order = sorted(combinations(range(n), r), key=lambda t: t[::-1])
    completes = [(
        [[_rank(sub, n, r) for sub in _lex_subtuples((x,) + tup)] for x in range(tup[0])],
        [[_rank(sub, n, r) for sub in combinations(lower + tup, r)]
         for lower in combinations(range(tup[0]), k - r)],
    ) for tup in order]
    colors = [None] * len(order)
    get = colors.__getitem__
    monotone = cls == "monotone"

    def dfs(i):
        if i == len(order):
            return True
        bigs, k_sets = completes[i]
        for c in (1,) if i == 0 else (1, 0):  # 1 is +
            colors[i] = c
            other = c ^ 1  # a k-set without it is monochromatic
            if not any(_leaves_class(list(map(get, big)), monotone) for big in bigs) \
                    and all(other in map(get, k_set) for k_set in k_sets):
                if dfs(i + 1):
                    return True
        colors[i] = None
        return False

    # n forces exactly when no class coloring avoids a monochromatic k-set.
    return not dfs(0)
