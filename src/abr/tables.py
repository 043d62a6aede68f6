"""Ordered two-colorings of r-tuples: storage, structure tests, the search.

A coloring assigns + or - to every increasing r-tuple over {0, ..., n-1}.
Tables are stored densely, one bit per tuple in lex order, so bit i is the
i-th tuple of ``combinations(range(n), r)``; a size guard refuses tables
beyond the dense budget.  ``_rank`` is the one tuple rank: it validates a
tuple and gives its bit, and ``search`` and ``paths`` rank windows by it
too, walking their middles by ``_middles``.

The checks and the search read candidate masks instead of single tuples,
and refuse anything but a ``ColoringTable``.  A table answers two
questions, each by one run of stored bits, nothing kept:
``positive_among(Q, mask)``, which bits y of ``mask`` make the
(r-1)-tuple Q + (y,) positive, and ``positive_pairs(H, low)``, which pairs
low < t < y make the (r-2)-tuple H + (t, y) positive.  The class rule runs
on every (r+1)-tuple P + (t, y) of a prefix P at once, one lane a pair.

The search: ``longest_monochromatic`` is the one table search; its code
lives in ``search``, imported when it runs, so no other table command
compiles it.

Structure predicates:

* transitive: inside every (r+1)-tuple, if the two consecutive r-subtuples
  (drop-last and drop-first) share a color, all r-subtuples have it.
* monotone: inside every (r+1)-tuple, the colors of its r-subtuples listed
  in lexicographic order switch at most once.  Monotone implies transitive
  because drop-last is the lexicographically first subtuple and drop-first
  the last.

Table I/O: CSV (one ``i0,...,color`` line per tuple) and JSON (``{"n",
"r", "colors"}``), plus the canonical JSON codec ``load_json`` /
``dump_json`` behind every JSON input and output of the package.  Writers
read the bits as one '+'/'-' string; ``to_csv`` lists its lines in lex
order by one walk, ``_csv_lines``.  ``from_csv`` reads rows in any order
into one guarded buffer of C(n, r) signs: rows equal to their walk lines
unparsed, any other row checked by ``_csv_row`` and placed at its
``_rank``.  This module imports only ``errors``, so a table command loads
no sequence or rational code.
"""

import enum
import json
import re
import sys
from itertools import combinations
from math import comb
from operator import ne

from .errors import Frozen, InvariantError, ParseError, TooLargeError

MAX_DENSE_CELLS = 1 << 24
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


def _middles(n, k):
    """The k-tuples M inside (0, n-1), lazily, by decreasing first point
    (k = 0: the empty one), so each M[1:] + (e,) comes before M."""
    if not k:
        return iter([()])
    return ((first, *rest) for first in reversed(range(1, n - 1))
            for rest in combinations(range(first + 1, n - 1), k - 1))


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


def _csv_row(line, r, line_no):
    """The tuple and sign of a CSV row of r increasing ASCII-digit indices
    and a sign; any other row raises ParseError."""
    *head, sign = parts = line.split(",")
    if len(parts) != r + 1:
        raise ParseError(f"row has {len(parts)} fields, expected {r + 1}", line=line_no)
    for x in head:
        if not (x.isascii() and x.isdigit()):
            raise ParseError(f"bad index {x!r} in row {line_no}; expected ASCII digits")
    try:
        tup = tuple(map(int, head))
    except ValueError as exc:
        raise ParseError(f"bad index in row {line_no}: {exc}") from exc
    if list(tup) != sorted(set(tup)):
        raise ParseError(f"indices {tup} must be strictly increasing", line=line_no)
    if sign not in ("+", "-"):
        raise ParseError(f"bad color {sign!r}", line=line_no)
    return tup, sign


def _rows_error(lines, r):
    """Raise a row's error or the guard's, else return the count's, for n = top index + 1."""
    n = 1 + max((_csv_row(x, r, i)[0][-1] for i, x in enumerate(lines, 2)), default=-1)
    cells = _dense_cells(n, r)
    return ParseError(f"table has {len(lines)} rows but {cells} tuples exist for n={n}, r={r}")


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
    lexicographic order, leave the class.  Each color is an int with one bit
    per lane (a check's lanes are the pairs (t, y) after a prefix), set where
    that subtuple is +; a list of 0/1 colors is the one-lane case.  Two or
    more switches break monotonicity; they break transitivity when the ends
    are equal (another color sits between)."""
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
        n, low = self.n, prefix[-1] + 1
        end = _rank(prefix, n, self.r, self.r - 1)  # the bit of prefix + (n - 1,)
        return self._run(end - n + 1 + low, end) << low & mask

    def positive_pairs(self, head, low):
        """Lane (t, y), low < t < y < n in lex order, set when head + (t, y)
        is +: the C(n-1-low, 2) bits up to head + (n-2, n-1), one slice."""
        end = _rank(head, self.n, self.r, self.r - 2)
        return self._run(end + 1 - comb(self.n - 1 - low, 2), end)

    def _run(self, first, end):
        """The stored bits first..end as an int, bit ``first`` its bit 0."""
        run = int.from_bytes(self.bits[first >> 3:(end >> 3) + 1], "little") >> (first & 7)
        return run & ((1 << end + 1 - first) - 1)

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
        """The table of CSV rows in any order; errors in line order, then ``_rows_error``."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ParseError("empty CSV table")
        header = lines[0].split(",")
        r = len(header) - 1
        if r < 2 or header != [f"i{k}" for k in range(r)] + ["color"]:
            raise ParseError(f"bad CSV header {lines[0]!r}")
        del lines[0]  # in place: a slice would copy one pointer per row
        rows, n = len(lines), r
        while comb(n, r) < rows:
            n += 1
        try:
            cells = _dense_cells(n, r)
        except TooLargeError:
            raise _rows_error(lines, r) from None
        signs = "".join(line[-1] for line in lines)
        # a walk line ends in its row's sign, or, for a bad sign, in a line break no row holds
        differs = bytes(map(ne, lines, _csv_lines(n, r, re.sub("[^+-]", "\n", signs))))
        lead = differs.find(1) % (rows + 1)  # rows when every row is its walk line
        placed = bytearray(signs[:lead], "ascii") + bytes(cells - lead)  # 0: not listed
        for i in range(lead, rows):
            rank, sign = i, signs[i]
            if differs[i]:
                tup, sign = _csv_row(lines[i], r, i + 2)
                if tup[-1] >= n:
                    raise _rows_error(lines, r)
                rank = _rank(tup, n, r, r)
            if placed[rank]:
                tup = _csv_row(lines[i], r, i + 2)[0]
                raise ParseError(f"tuple {tup} listed twice", line=i + 2)
            placed[rank] = ord(sign)
        if rows < cells:
            raise _rows_error(lines, r)
        return cls(n, r, _pack(placed.decode()))

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
        if not isinstance(colors, str) or colors.strip("+-"):
            raise ParseError("'colors' must be a string of '+'/'-'")
        cells = _dense_cells(n, r)
        if len(colors) != cells:
            raise ParseError(f"expected {cells} colors, got {len(colors)}")
        return cls(n, r, _pack(colors))


def _first_violation(table, monotone):
    """Walk a table's (r-1)-tuples P in lex order; the r+1 subtuple colors of
    all P + (t, y), max P < t < y < n, are masks with one lane per pair
    (t, y) in lex order, and the first P's lowest violating lane is the witness."""
    if not isinstance(table, ColoringTable):
        raise InvariantError("a structure check needs a ColoringTable")
    n, r = table.n, table.r
    for prefix in combinations(range(n - 2), r - 1):
        low = prefix[-1]
        # Lex order: drop y (P's row at t) and drop t (P's row at y), spread
        # over the lanes, then P's elements, last to first, one block each.
        own = table.positive_among(prefix, (1 << n) - (2 << low))
        drop_y = drop_t = at = 0
        for t in range(low + 1, n - 1):
            if own >> t & 1:
                drop_y |= ((1 << n - 1 - t) - 1) << at
            drop_t |= own >> t + 1 << at
            at += n - 1 - t
        colors = [drop_y, drop_t] + [table.positive_pairs(prefix[:j] + prefix[j + 1:], low)
                                     for j in range(r - 2, -1, -1)]
        bad = _leaves_class(colors, monotone)
        if bad:
            lane, t = (bad & -bad).bit_length() - 1, low + 1
            while lane >= n - 1 - t:
                lane, t = lane - (n - 1 - t), t + 1
            return False, prefix + (t, t + 1 + lane)
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


def longest_monochromatic(table, *, budget=None):
    """Largest index set whose r-subtuples all share one color, the
    lexicographically least of that size over both colors.  The window DP
    answers when its witness certifies it (``search.longest_window_path``);
    otherwise ``search.branch_and_bound``, cut by the DP's path lengths,
    answers, and ``budget`` caps its nodes (exhaustive=False when it runs
    out)."""
    from .search import _certified, branch_and_bound, window_runs

    runs = window_runs(table)
    return _certified(table, runs) or branch_and_bound(table, runs, budget=budget)


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
