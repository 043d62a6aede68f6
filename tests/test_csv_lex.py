"""Table artifacts on the lex walk, and CSV reading against the dict path.

A table stores its bits in lex order.  One walk, ``abr.tables._csv_lines``,
lists the CSV lines of the tuples in that order for ``to_csv`` and the
reader.  ``ColoringTable.from_csv`` reads rows in any order: a row equal to
its walk line is placed unparsed, any other is checked and placed at its
``_rank``.  ``_helpers.reference_from_csv``, a dict of tuples filled in
line order, is the reference: both must give the same table, or the same
error, except for the one documented double fault below.
"""

import contextlib
import io
import os
import sys
import tempfile
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abr.tables
from abr import AbrError, ColoringTable
from abr.cli import main
from abr.tables import _csv_lines, _rank

from _helpers import rand_table, reference_from_csv, seeded


def _outcome(text, read=ColoringTable.from_csv):
    try:
        table = read(text)
    except AbrError as exc:
        return type(exc).__name__, str(exc)
    return table.n, table.r, table.bits.hex()


def _reference_outcome(text):
    return _outcome(text, reference_from_csv)


def _no_rank(*args):
    raise AssertionError("a row on its walk line was ranked")


def _shuffled(text, rng):
    header, *rows = text.splitlines()
    rng.shuffle(rows)
    return "\n".join([header] + rows) + "\n"


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_lex_walk_reads_seeded_tables(r, monkeypatch):
    rng = seeded(900 + r)
    tables = [rand_table(rng, n, r) for n in range(r, r + 5)]
    monkeypatch.setattr(abr.tables, "_rank", _no_rank)
    for table in tables:
        back = ColoringTable.from_csv(table.to_csv())
        assert (back.n, back.r, back.bits) == (table.n, r, table.bits)


def _seeded_tables():
    for r in (2, 3, 4, 5):
        rng = seeded(300 + r)
        for n in range(r, r + 6):
            yield rand_table(rng, n, r, density=rng.random())


def test_lex_walk_lists_every_tuple_once_with_its_rank():
    for n in range(2, 10):
        for r in range(2, n + 1):
            tuples = list(combinations(range(n), r))
            signs = "".join("+-"[i % 3 == 0] for i in range(len(tuples)))
            lines = list(_csv_lines(n, r, signs))
            assert lines == [",".join(map(str, tup)) + "," + sign
                             for tup, sign in zip(tuples, signs)]
            # a tuple's bit is its position on the walk, and the row of its
            # prefix is one run that ends at the prefix's rank
            assert [_rank(tup, n, r, r) for tup in tuples] == list(range(len(tuples)))
            assert [_rank(tup[:-1], n, r, r - 1) - (n - 1 - tup[-1])
                    for tup in tuples] == list(range(len(tuples)))


def test_artifacts_are_written_without_reading_rows(monkeypatch):
    def no_rows(*args):
        raise AssertionError("an artifact read a row")

    tables = list(_seeded_tables())
    monkeypatch.setattr(ColoringTable, "positive_among", no_rows)
    for table in tables:
        pairs = [(tup, table.color(tup)) for tup in combinations(range(table.n), table.r)]
        csv = [",".join(f"i{k}" for k in range(table.r)) + ",color"]
        csv += [",".join(map(str, tup)) + "," + color.value for tup, color in pairs]
        assert list(table) == pairs
        assert table.to_csv() == "\n".join(csv) + "\n"
        assert table.to_json_obj() == {"n": table.n, "r": table.r,
                                       "colors": "".join(color.value for _, color in pairs)}


def test_lex_reader_builds_without_from_function(monkeypatch):
    rng = seeded(77)
    tables = list(_seeded_tables())
    texts = [(table.to_csv(), _shuffled(table.to_csv(), rng)) for table in tables]

    def no_build(*args):
        raise AssertionError("the CSV reader called from_function")

    monkeypatch.setattr(ColoringTable, "from_function", classmethod(no_build))
    for table, (lex, shuffled) in zip(tables, texts):
        assert ColoringTable.from_csv(lex) == table
        assert ColoringTable.from_csv(shuffled) == table


def _mutations(text):
    header, *rows = text.splitlines()
    n = int(rows[-1].split(",")[-2]) + 1
    r = len(header.split(",")) - 1

    def join(lines):
        return "\n".join(lines) + "\n"

    return {
        "unchanged": text,
        "swapped": join([header, rows[1], rows[0]] + rows[2:]),
        "duplicated": join([header] + rows + [rows[3]]),
        "dropped": join([header] + rows[:2] + rows[3:]),
        "extra-row": join([header] + rows + [",".join(map(str, range(n - r + 1, n + 1))) + ",+"]),
        "blank-line": join([header] + rows[:4] + ["", "  "] + rows[4:]),
        "spaced-index": join([header] + rows[:-1] + [rows[-1].replace(",", ", ", 1)]),
        "arabic-digit": join([header, "٠" + rows[0][1:]] + rows[1:]),
        "bad-color": join([header] + rows[:-1] + [rows[-1][:-1] + "+x"]),
        "crlf": "\r\n".join([header] + rows) + "\r\n",
        "long-index": join([header] + rows[:-1] + [rows[-1].rsplit(",", 2)[0] + ","
                                                    + "9" * 4000 + ",-"]),
        "wide-header": join([",".join(f"i{k}" for k in range(3000)) + ",color"] + rows),
        "no-rows": join([header]),
    }


# The outcome of each mutation, as the dict-of-tuples reader gave it.
_PINNED = {
    2: {"unchanged": (5, 2, "8e03"), "swapped": (5, 2, "8e03"),
        "duplicated": ("ParseError", "tuple (0, 4) listed twice (line 12)"),
        "dropped": ("ParseError", "table has 9 rows but 10 tuples exist for n=5, r=2"),
        "extra-row": ("ParseError", "table has 11 rows but 15 tuples exist for n=6, r=2"),
        "blank-line": (5, 2, "8e03"),
        "spaced-index": ("ParseError", "bad index ' 4' in row 11; expected ASCII digits"),
        "arabic-digit": ("ParseError", "bad index '\u0660' in row 2; expected ASCII digits"),
        "bad-color": ("ParseError", "bad color '+x' (line 11)"), "crlf": (5, 2, "8e03"),
        "long-index": ("TooLargeError", "C(n, 2) tuples exceed the dense-table guard"),
        "wide-header": ("ParseError", "row has 3 fields, expected 3001 (line 2)"),
        "no-rows": ("InvariantError", "need integer n >= r >= 2, got n=0, r=2")},
    3: {"unchanged": (6, 3, "cdc70c"), "swapped": (6, 3, "cdc70c"),
        "duplicated": ("ParseError", "tuple (0, 1, 5) listed twice (line 22)"),
        "dropped": ("ParseError", "table has 19 rows but 20 tuples exist for n=6, r=3"),
        "extra-row": ("ParseError", "table has 21 rows but 35 tuples exist for n=7, r=3"),
        "blank-line": (6, 3, "cdc70c"),
        "spaced-index": ("ParseError", "bad index ' 4' in row 21; expected ASCII digits"),
        "arabic-digit": ("ParseError", "bad index '\u0660' in row 2; expected ASCII digits"),
        "bad-color": ("ParseError", "bad color '+x' (line 21)"), "crlf": (6, 3, "cdc70c"),
        "long-index": ("TooLargeError", "C(n, 3) tuples exceed the dense-table guard"),
        "wide-header": ("ParseError", "row has 4 fields, expected 3001 (line 2)"),
        "no-rows": ("InvariantError", "need integer n >= r >= 2, got n=0, r=3")},
    4: {"unchanged": (7, 4, "f9b1b9dc03"), "swapped": (7, 4, "f9b1b9dc03"),
        "duplicated": ("ParseError", "tuple (0, 1, 2, 6) listed twice (line 37)"),
        "dropped": ("ParseError", "table has 34 rows but 35 tuples exist for n=7, r=4"),
        "extra-row": ("ParseError", "table has 36 rows but 70 tuples exist for n=8, r=4"),
        "blank-line": (7, 4, "f9b1b9dc03"),
        "spaced-index": ("ParseError", "bad index ' 4' in row 36; expected ASCII digits"),
        "arabic-digit": ("ParseError", "bad index '\u0660' in row 2; expected ASCII digits"),
        "bad-color": ("ParseError", "bad color '+x' (line 36)"), "crlf": (7, 4, "f9b1b9dc03"),
        "long-index": ("TooLargeError", "C(n, 4) tuples exceed the dense-table guard"),
        "wide-header": ("ParseError", "row has 5 fields, expected 3001 (line 2)"),
        "no-rows": ("InvariantError", "need integer n >= r >= 2, got n=0, r=4")},
}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_mutated_csvs_agree_with_dict_path(r):
    text = rand_table(seeded(40 + r), r + 3, r).to_csv()
    mutations = _mutations(text)
    assert mutations.keys() == _PINNED[r].keys()
    for name, mutated in mutations.items():
        assert _outcome(mutated) == _reference_outcome(mutated) == _PINNED[r][name], name


def test_lex_walk_declines_other_orders_and_hostile_shapes(monkeypatch):
    table = rand_table(seeded(7), 6, 3)
    mutations = _mutations(table.to_csv())
    ranked = []
    monkeypatch.setattr(abr.tables, "_rank", lambda *args: ranked.append(args[0]) or _rank(*args))
    for name in ("unchanged", "blank-line", "crlf"):
        assert ColoringTable.from_csv(mutations[name]) == table and ranked == [], name
    # only the two rows off their walk lines are parsed and ranked
    assert ColoringTable.from_csv(mutations["swapped"]) == table
    assert ranked == [(0, 1, 3), (0, 1, 2)]
    for name in ("duplicated", "dropped", "extra-row", "spaced-index", "arabic-digit",
                 "bad-color", "long-index", "wide-header", "no-rows"):
        with pytest.raises(AbrError):
            ColoringTable.from_csv(mutations[name])
        assert _outcome(mutations[name]) == _reference_outcome(mutations[name]), name


_FAULTS = ("duplicate", "drop", "extra", "bad-color", "bad-index", "non-increasing")


@st.composite
def _permuted_csv(draw, faults=(None,)):
    """A drawn table and its rows in a drawn order, with at most one fault,
    blank lines and a mix of LF and CRLF line ends."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 7))
    table = ColoringTable.from_colors(n, r, draw(st.text("+-", min_size=comb(n, r),
                                                          max_size=comb(n, r))))
    header, *rows = table.to_csv().splitlines()
    rows = draw(st.permutations(rows))
    fault = draw(st.sampled_from(faults))
    at = draw(st.integers(0, len(rows) - 1))
    *indices, sign = rows[at].split(",")
    if fault == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), rows[at])
    elif fault == "drop":
        del rows[at]
    elif fault == "extra":
        top = draw(st.integers(n, n + 3))
        low = sorted(draw(st.sets(st.integers(0, top - 1), min_size=r - 1, max_size=r - 1)))
        rows.insert(draw(st.integers(0, len(rows))), ",".join(map(str, low + [top])) + ",+")
    elif fault == "bad-color":
        sign = draw(st.sampled_from(["*", "x", "", "++", " +", ",", "\u2212"]))
    elif fault == "bad-index":
        indices[draw(st.integers(0, r - 1))] = draw(
            st.sampled_from(["a", "", " 1", "-1", "+1", "1.0", "\u0660", "1_0"]))
    elif fault == "non-increasing":
        j = draw(st.integers(0, r - 2))
        if draw(st.booleans()):
            indices[j], indices[j + 1] = indices[j + 1], indices[j]
        else:
            indices[j + 1] = indices[j]
    if fault in ("bad-color", "bad-index", "non-increasing"):
        rows[at] = ",".join(indices + [sign])
    lines = [header] + rows
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return table, "".join(line + end for line, end in zip(lines, ends))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_permuted_csv())
def test_any_row_order_reads_to_the_table(case):
    table, text = case
    assert ColoringTable.from_csv(text) == table


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_permuted_csv(_FAULTS))
def test_one_fault_in_any_row_order_is_reported_as_by_the_dict_path(case):
    _, text = case
    assert _outcome(text) == _reference_outcome(text)


def test_a_duplicate_after_a_row_beyond_the_row_count_is_reported_as_a_count():
    # Two faults: the row count's n is 5, so the row 0,9 lies beyond it and
    # the reader stops at the count before it reaches the later duplicate,
    # which the dict-of-tuples reader named.  A duplicate before that row is
    # still named by both.
    rows = [f"{a},{b},+" for a in range(4) for b in range(a + 1, 4)]
    late = "\n".join(["i0,i1,color"] + rows + ["0,9,+", "0,1,+"]) + "\n"
    assert _outcome(late) == (
        "ParseError", "table has 8 rows but 45 tuples exist for n=10, r=2")
    assert _reference_outcome(late) == ("ParseError", "tuple (0, 1) listed twice (line 9)")
    early = "\n".join(["i0,i1,color"] + rows + ["0,1,+", "0,9,+"]) + "\n"
    assert _outcome(early) == _reference_outcome(early) == (
        "ParseError", "tuple (0, 1) listed twice (line 8)")


def test_shuffled_rows_are_read_in_a_few_bytes_a_tuple():
    # beyond its list of lines (a second list of pointers while blank lines
    # are dropped), a read holds a few bytes a tuple: the signs, a flag per
    # row for a row off its walk line, and the buffer the rows are placed in
    n, r = 40, 4
    text = _shuffled(rand_table(seeded(40), n, r).to_csv(), seeded(4))
    lines = [line for line in text.splitlines() if line.strip()]
    line_list = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
    del lines
    tracemalloc.start()
    try:
        table = ColoringTable.from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.total == comb(n, r) == 91390
    assert peak - line_list < 16 * comb(n, r)


@st.composite
def _csv_bytes(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 7))
    colors = draw(st.lists(st.sampled_from("+-"), min_size=comb(n, r), max_size=comb(n, r)))
    lines = [",".join(f"i{k}" for k in range(r)) + ",color"]
    lines += [",".join(map(str, tup)) + "," + c
              for tup, c in zip(combinations(range(n), r), colors)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["swap", "drop", "dup", "edit", "insert"]))
        if op == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == "drop" and len(lines) > 1:
            del lines[at]
        elif op == "dup":
            lines.insert(at, lines[at])
        else:
            junk = draw(st.text(alphabet="0123456789,+-ix \t\r٠", max_size=12))
            if op == "edit":
                lines[at] = junk
            else:
                lines.insert(at, junk)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from([b"", b"\n", b"\n\n", b" ", b"\xff"]))
    return newline.join(lines).encode("utf-8") + tail


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_csv_bytes())
def test_check_monotone_on_generated_csv_bytes(data):
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "monotone", path])
    finally:
        os.unlink(path)
    stderr = err.getvalue()
    assert code in (0, 2, 5)
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n")
    else:
        assert stderr == ""
