"""Ordered two-colorings of r-tuples: storage, structure tests, searches.

A coloring assigns + or - to every increasing r-tuple over {0, ..., n-1}.
Tables are stored densely, one bit per tuple in lex order, so bit i is the
i-th tuple of ``combinations(range(n), r)``; a size guard refuses tables
beyond the dense budget.  ``_rank`` is the one tuple rank: it validates a
tuple and gives its bit, and ``paths`` ranks its windows by it too.

The checks and the search read candidate masks instead of single tuples.
Every table answers one question, ``positive_among(Q, mask)``: for an
(r-1)-tuple Q, which candidate bits y of ``mask`` make Q + (y,) positive.
Both table types compute the row of Q (bit y set when Q + (y,) is +)
whole, from the stored bits (one contiguous run, nothing kept) or from the
keys of ``paths``, and answer ``row & mask``.  The class rule then runs on
all candidates y at once, one bit lane per candidate.

Searches: ``longest_window_path`` is the monotone-path DP over the
C(n, r-1) windows of a table, read row by row from its bits.  Its longest
path bounds every monochromatic set, and its answer stands when its
lex-least witness is monochromatic, which it checks; otherwise
``longest_monochromatic``, the branch and bound under a node budget,
answers.  ``abr search`` runs them in that order.  The sequence search of
``paths`` walks the same ``_middles`` and ends in the same ``_window_path``.

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
package.  Every writer and reader reads or writes the bits in sequence,
as one '+'/'-' string; the CSV lines of a string come from one lex walk,
``_csv_lines``.  A CSV whose rows are exactly those lines is read by its
last characters; any other CSV goes through the dict path, the one place
CSV errors are reported.  This module imports only ``errors``, so a table
command loads no sequence or rational code.
"""

from __future__ import annotations

import enum
import json
import re
import sys
from collections import namedtuple
from itertools import combinations, islice
from math import comb
from operator import ne

from .errors import AbrError, Frozen, InvariantError, ParseError, TooLargeError

MAX_DENSE_CELLS = 1 << 24
_INDEX_RE = re.compile(r"[0-9]+")
_DIGIT_OF_SIGN = str.maketrans("+-", "10")
_SIGN_OF_DIGIT = str.maketrans("10", "+-")


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


def _rank(tup, n, r, size):
    """Lex rank, among the r-tuples over range(n), of the last r-tuple that
    starts with ``tup``, a strictly increasing ``size``-tuple of indices
    below n: C(n, r) - 1 - sum C(n-1-c_i, r-i).  For an r-tuple that is its
    own rank, and for an (r-1)-tuple Q the rank of Q + (y,) is this minus
    n - 1 - y.  Any other tuple raises InvariantError."""
    if len(tup) == size:
        rank, prev, j = comb(n, r) - 1, -1, r
        try:  # comb raises ValueError for an index c >= n
            for c in tup:
                if c <= prev:
                    break
                rank -= comb(n - 1 - c, j)
                prev, j = c, j - 1
            else:
                return rank
        except ValueError:
            pass
    raise InvariantError(
        f"need a strictly increasing {size}-tuple of indices below {n}, got {tup!r}"
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


def _csv_lines(n, r, signs):
    """The CSV line "c0,...,c(r-1),sign" of each r-tuple over range(n), in
    lex order, its sign read in turn from ``signs``."""
    names, signs = [str(i) for i in range(n)], iter(signs)
    for prefix in combinations(range(n - 1), r - 1):
        stem = ",".join(map(names.__getitem__, prefix)) + ","
        yield from [f"{stem}{y},{sign}" for y, sign in zip(range(prefix[-1] + 1, n), signs)]


def _pack(signs):
    """Bit storage of a '+'/'-' string: bit i, little-endian, set when sign
    i is '+'."""
    return int(signs[::-1].translate(_DIGIT_OF_SIGN), 2).to_bytes((len(signs) + 7) // 8, "little")


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
    """Dense coloring of all increasing r-tuples over {0, ..., n-1}, one bit
    per tuple in lex order (bit i is the i-th tuple of
    ``combinations(range(n), r)``).  The row of an (r-1)-tuple Q is then one
    run of n-1-max(Q) bits, read whole on each call.  A table is immutable,
    and two tables are equal when n, r and bits are."""

    _fields = ("n", "r", "bits")

    def __init__(self, n, r, bits):
        cells = _dense_cells(n, r)
        if len(bits) != (cells + 7) // 8:
            raise InvariantError("bit storage has the wrong length")
        if bits[-1] >> (cells & 7 or 8):
            raise InvariantError("bit storage sets a bit past the last tuple")
        self._freeze(n=n, r=r, bits=bits)

    @property
    def total(self):
        return comb(self.n, self.r)

    @classmethod
    def from_function(cls, n, r, fn):
        """Build by evaluating fn(tuple) -> Color on every increasing tuple,
        in lex order."""
        return cls.from_colors(n, r, map(fn, combinations(range(n), r)))

    @classmethod
    def from_colors(cls, n, r, colors):
        """Build from colors listed in lexicographic tuple order; accepts
        Color values or '+'/'-' characters."""
        cells = _dense_cells(n, r)
        signs = []
        for i, c in enumerate(colors):
            try:
                signs.append(Color(c).value)
            except ValueError:
                raise InvariantError(f"bad color {c!r} at position {i}") from None
        if len(signs) != cells:
            raise InvariantError(f"expected {cells} colors, got {len(signs)}")
        return cls(n, r, _pack("".join(signs)))

    def positive_among(self, prefix, mask):
        """The bits y of ``mask`` (each max(prefix) < y < n) for which
        prefix + (y,) is +: the row of prefix, read as one slice."""
        n, r = self.n, self.r
        end = _rank(prefix, n, r, r - 1)  # the bit of prefix + (n - 1,)
        low = prefix[-1] + 1
        first = end - n + 1 + low  # the bit of prefix + (low,)
        row = int.from_bytes(self.bits[first >> 3:(end >> 3) + 1], "little") >> (first & 7)
        return (row & ((1 << (n - low)) - 1)) << low & mask

    def color(self, tup):
        """Color of one increasing tuple (lex-ranked O(r) lookup)."""
        rank = _rank(tup, self.n, self.r, self.r)
        if self.bits[rank >> 3] >> (rank & 7) & 1:
            return Color.POSITIVE
        return Color.NEGATIVE

    def _signs(self):
        """The '+'/'-' of every tuple in lex order, read from the bits."""
        bits = int.from_bytes(self.bits, "little")  # no bit is set past the last tuple
        return format(bits, f"0{self.total}b").translate(_SIGN_OF_DIGIT)[::-1]

    def __iter__(self):
        """(tuple, color) in lex order, streamed from the bits."""
        return zip(combinations(range(self.n), self.r), map(Color, self._signs()))

    def counts(self):
        positive = int.from_bytes(self.bits, "little").bit_count()  # no padding bit is set
        return positive, self.total - positive

    def to_csv(self):
        header = ",".join(f"i{k}" for k in range(self.r)) + ",color"
        return "\n".join([header, *_csv_lines(self.n, self.r, self._signs())]) + "\n"

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
        del lines[0]  # in place: a slice would copy one pointer per row
        table = cls._from_lex_rows(lines, r)
        if table is not None:
            return table
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
        return cls.from_function(n, r, lambda tup: entries[tup])

    @classmethod
    def _from_lex_rows(cls, rows, r):
        """The table when ``rows`` are exactly the lines ``to_csv`` writes
        for n = last index + 1, each line's last character its sign; else
        None.  Never raises: a shape ``_dense_cells`` refuses, and any
        mismatch, leave the error to the dict path."""
        last = rows[-1].split(",") if rows else ()
        top = last[-2] if len(last) == r + 1 else ""
        if not (0 < len(top) <= 8 and top.isascii() and top.isdigit()):
            return None
        n = int(top) + 1
        try:
            cells = _dense_cells(n, r)
        except AbrError:
            return None
        signs = "".join(line[-1] for line in rows)
        if cells != len(rows) or signs.strip("+-") or any(map(ne, rows, _csv_lines(n, r, signs))):
            return None
        return cls(n, r, _pack(signs))

    def to_json_obj(self):
        return {"n": self.n, "r": self.r, "colors": self._signs()}

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
        return cls(n, r, _pack(colors))


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


def _lengths(n, fill, count):
    """An array of ``count`` path lengths, each at most n, set to ``fill``
    (``array`` is imported here, so a table ``check`` does not load it)."""
    from array import array

    return array("B" if n < 1 << 8 else "H" if n < 1 << 16 else "I", [fill]) * count


def longest_window_path(table):
    """The longest monochromatic set of a table by the monotone-path DP,
    when its witness certifies it; else None.

    A window is an (r-1)-tuple.  The windows of a monochromatic set,
    consecutive in the set, chain in its color, so on any table the
    longest path U over the C(n, r-1) windows, in either color, bounds
    every monochromatic set; on a transitive table it is exact
    (Fox-Pach-Sudakov-Suk; Elias-Matousek).  ``_window_path`` gives the
    lex-least U-path of both colors.  When it is monochromatic (its
    C(U, r) cells are read as C(U-1, r-1) rows) it is a largest
    monochromatic set, and the lex-least one of both colors, since every
    such set is a U-path: the result equals ``longest_monochromatic``'s
    but for ``nodes_visited``, the C(n, r-1) windows settled, and
    ``method``.  Otherwise, or when the windows exceed MAX_DENSE_CELLS, it
    returns None and only the branch and bound can answer.  No row is
    kept: path lengths take a byte per window and color (two past
    n = 255)."""
    n, r = table.n, table.r
    windows = comb(n, r - 1)
    if windows > MAX_DENSE_CELLS:
        return None
    result = _window_path(table, _point_runs(table) if r == 2 else _window_runs(table, windows),
                          windows)
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


def _middles(n, k):
    """The k-tuples M inside (0, n-1), lazily, by decreasing first point
    (k = 0: the empty one), so each M[1:] + (e,) comes before M."""
    if not k:
        return iter([()])
    return ((first, *rest) for first in reversed(range(1, n - 1))
            for rest in combinations(range(first + 1, n - 1), k - 1))


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
    # Tuples are colored in colex order, so the sets a tuple completes are the
    # tuple plus elements below its minimum: per tuple, the positions of the
    # r-subtuples (in lex order) of each (r+1)-set it completes, and of each
    # k-set it completes.
    order = sorted(combinations(range(n), r), key=lambda t: t[::-1])
    position = {tup: i for i, tup in enumerate(order)}
    completes = [(
        [[position[sub] for sub in _lex_subtuples((x,) + tup)] for x in range(tup[0])],
        [[position[sub] for sub in combinations(lower + tup, r)]
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
