"""Ordered two-colorings of r-tuples: storage, structure tests, searches.

A coloring assigns + or - to every increasing r-tuple over {0, ..., n-1}.
Tables are stored densely, one bit per tuple, indexed by the colexicographic
rank sum(C(c_i, i+1)); a size guard refuses tables beyond the dense budget.

The checks and the search read candidate masks instead of single tuples.
Every table answers one question, ``positive_among(Q, mask)``: for an
(r-1)-tuple Q, which candidate bits y of ``mask`` make Q + (y,) positive.
Both table types compute the row of Q (bit y set when Q + (y,) is +)
whole, from the stored bits (kept) or from the keys of ``paths``, and
answer ``row & mask``.  The class rule then runs on all candidates y at
once, one bit lane per candidate.

Structure predicates:

* transitive: inside every (r+1)-tuple, if the two consecutive r-subtuples
  (drop-last and drop-first) share a color, all r-subtuples have it.
* monotone: inside every (r+1)-tuple, the colors of its r-subtuples listed
  in lexicographic order switch at most once.  Monotone implies transitive
  because drop-last is the lexicographically first subtuple and drop-first
  the last.

Table I/O: CSV (one ``i0,...,color`` line per tuple, in lex order) and
JSON (``{"n", "r", "colors"}``), plus the canonical JSON codec
``load_json`` / ``dump_json`` behind every JSON input and output of the
package.  One walk, ``_lex_rows``, lists the tuples in lex order (per
prefix, with its CSV stem and colex ranks) for the builder, ``__iter__``,
both writers and the reader of a CSV whose rows are exactly those
``to_csv`` writes; any other CSV goes through the dict path, the one place
CSV errors are reported.  This module imports only ``errors``, so a
table command loads no sequence or rational code.
"""

from __future__ import annotations

import enum
import json
import re
import sys
from collections import namedtuple
from itertools import combinations
from math import comb

from .errors import Frozen, InvariantError, ParseError, TooLargeError

MAX_DENSE_CELLS = 1 << 24
_INDEX_RE = re.compile(r"[0-9]+")


def load_json(text):
    """Decode JSON text; malformed JSON, a number with more digits than
    Python converts to an int, or nesting deeper than the interpreter's
    recursion limit raises ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:
        raise ParseError(
            f"a JSON integer has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ParseError("JSON input is nested too deeply") from exc


def dump_json(obj):
    """Canonical JSON bytes: sorted keys, no whitespace, trailing newline."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


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


def _check_shape(n, r):
    if not (isinstance(n, int) and isinstance(r, int) and n >= r >= 2):
        raise InvariantError(f"need integer n >= r >= 2, got n={n!r}, r={r!r}")


def _dense_cells(n, r):
    """C(n, r) for a dense table shape: ints n >= r >= 2 and at most
    MAX_DENSE_CELLS tuples."""
    _check_shape(n, r)
    return _guarded_comb(n, r, "tuples")


def _guarded_comb(n, r, what, name=None):
    """C(n, r) for ints n >= r >= 1, refused above MAX_DENSE_CELLS.  For
    k = min(r, n - r) >= 1, C(n, r) is at least n and at least 2^k, so a
    larger n or k is refused before any binomial, as ``name`` (C(n, r))."""
    k = min(r, n - r)
    if k and (n > MAX_DENSE_CELLS or k >= MAX_DENSE_CELLS.bit_length()):
        raise TooLargeError(f"{name or f'C(n, {r})'} {what} exceed the dense-table guard")
    cells = comb(n, k)
    if cells > MAX_DENSE_CELLS:
        raise TooLargeError(f"{cells} {what} exceed the dense-table guard")
    return cells


def _lex_rows(n, r):
    """The r-tuples over range(n) in lex order, per (r-1)-prefix Q: yields Q,
    its CSV stem "q0,...,q(r-2)," and the pairs (y, colex rank of Q + (y,)
    = rank(Q) + C(y, r)) for max(Q) < y < n."""
    high = [comb(y, r) for y in range(n)]
    names = [str(i) for i in range(n)]
    for prefix in combinations(range(n - 1), r - 1):
        key, low = _rank(prefix, n, r - 1), prefix[-1] + 1
        stem = ",".join(map(names.__getitem__, prefix)) + ","
        yield prefix, stem, zip(range(low, n), map(key.__add__, high[low:]))


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


class ColoringTable(Frozen):
    """Dense coloring of all increasing r-tuples over {0, ..., n-1}.  A row
    is read from the stored bits, since Q + (y,) has colex rank
    rank(Q) + C(y, r); a full scan thus reads each bit once, and rows are
    kept up to ``max_cached_rows`` (about 100 bytes each).  A table is
    immutable, and two tables are equal when n, r and bits are."""

    _fields = ("n", "r", "bits")
    max_cached_rows = 1 << 18

    def __init__(self, n, r, bits):
        if len(bits) != (_dense_cells(n, r) + 7) // 8:
            raise InvariantError("bit storage has the wrong length")
        self._freeze(n=n, r=r, bits=bits, _rows={})

    @property
    def total(self):
        return comb(self.n, self.r)

    @classmethod
    def from_function(cls, n, r, fn):
        """Build by evaluating fn(tuple) -> Color on every increasing tuple,
        in lex order."""
        store = bytearray((_dense_cells(n, r) + 7) // 8)
        for prefix, _, cells in _lex_rows(n, r):
            for y, rank in cells:
                tup = prefix + (y,)
                color = fn(tup)
                if color is Color.POSITIVE:
                    store[rank >> 3] |= 1 << (rank & 7)
                elif color is not Color.NEGATIVE:
                    raise InvariantError(f"colorer returned {color!r} for {tup}")
        return cls(n, r, bytes(store))

    @classmethod
    def from_colors(cls, n, r, colors):
        """Build from colors listed in lexicographic tuple order; accepts
        Color values or '+'/'-' characters."""
        cells = _dense_cells(n, r)
        seq = []
        for i, c in enumerate(colors):
            try:
                seq.append(Color(c))
            except ValueError:
                raise InvariantError(f"bad color {c!r} at position {i}") from None
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
            row = self._row(prefix, key)
            if len(self._rows) < self.max_cached_rows:
                self._rows[key] = row
        return row & mask

    def _row(self, prefix, key):
        bits, r, row = self.bits, self.r, 0
        for y in range(prefix[-1] + 1, self.n):
            rank = key + comb(y, r)  # of prefix + (y,)
            if bits[rank >> 3] >> (rank & 7) & 1:
                row |= 1 << y
        return row

    def color(self, tup):
        """Color of one increasing tuple (colex-ranked O(r) lookup)."""
        rank = _rank(tup, self.n, self.r)
        if self.bits[rank >> 3] >> (rank & 7) & 1:
            return Color.POSITIVE
        return Color.NEGATIVE

    def _lex_signs(self):
        """``_lex_rows`` with each rank read as the '+'/'-' of Q + (y,)."""
        bits = self.bits
        for prefix, stem, cells in _lex_rows(self.n, self.r):
            yield prefix, stem, [(y, "-+"[bits[rank >> 3] >> (rank & 7) & 1]) for y, rank in cells]

    def __iter__(self):
        """(tuple, color) in lex order, streamed from the bits."""
        return ((q + (y,), Color(sign)) for q, _, cells in self._lex_signs() for y, sign in cells)

    def counts(self):
        total = self.total
        positive = (int.from_bytes(self.bits, "little") & ((1 << total) - 1)).bit_count()
        return positive, total - positive

    def to_csv(self):
        lines = [",".join(f"i{k}" for k in range(self.r)) + ",color"]
        for _, stem, cells in self._lex_signs():
            lines += [f"{stem}{y},{sign}" for y, sign in cells]
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
        table = cls._from_lex_rows(lines[1:], r)
        if table is not None:
            return table
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

    @classmethod
    def _from_lex_rows(cls, rows, r):
        """The table when ``rows`` are exactly the lines ``to_csv`` writes
        for n = last index + 1, read on the lex walk straight into the bits;
        else None.  Never raises: the shape is refused like ``_dense_cells``
        would before any binomial, and a mismatch leaves the error to the
        dict path."""
        last = rows[-1].split(",") if rows else ()
        top = last[-2] if len(last) == r + 1 else ""
        if not (0 < len(top) <= 8 and top.isascii() and top.isdigit()):
            return None
        n = int(top) + 1
        k = min(r, n - r)
        if (len(rows) > MAX_DENSE_CELLS or n > MAX_DENSE_CELLS
                or not 0 <= k < MAX_DENSE_CELLS.bit_length()
                or comb(n, k) != len(rows)):
            return None
        store, lines = bytearray((len(rows) + 7) // 8), iter(rows)
        for _, stem, cells in _lex_rows(n, r):
            for y, rank in cells:
                line = next(lines)
                if line == f"{stem}{y},+":
                    store[rank >> 3] |= 1 << (rank & 7)
                elif line != f"{stem}{y},-":
                    return None
        return cls(n, r, bytes(store))

    def to_json_obj(self):
        colors = "".join(sign for _, _, cells in self._lex_signs() for _, sign in cells)
        return {"n": self.n, "r": self.r, "colors": colors}

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
