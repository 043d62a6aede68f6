"""Table artifacts on the lex walk, and CSV reading against the dict path.

A table stores its bits in lex order.  One walk, ``abr.tables._csv_lines``,
lists the CSV lines of the tuples in that order for ``to_csv`` and the lex
reader.  ``ColoringTable.from_csv`` reads a CSV whose rows are exactly
those ``to_csv`` writes on that walk (``_from_lex_rows``) and hands any
other CSV to its dict path.  Both must give the same table, or the same
error.
"""

import contextlib
import io
import os
import tempfile
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abr import AbrError, ColoringTable
from abr.cli import main
from abr.tables import _csv_lines, _rank

from _helpers import rand_table, seeded


def _outcome(text):
    try:
        table = ColoringTable.from_csv(text)
    except AbrError as exc:
        return type(exc), str(exc)
    return table.n, table.r, table.bits


def _dict_path_outcome(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(ColoringTable, "_from_lex_rows", classmethod(lambda cls, rows, r: None))
        return _outcome(text)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_lex_walk_reads_seeded_tables(r):
    rng = seeded(900 + r)
    for n in range(r, r + 5):
        table = rand_table(rng, n, r)
        text = table.to_csv()
        lines = text.splitlines()
        fast = ColoringTable._from_lex_rows(lines[1:], r)
        assert fast is not None and (fast.n, fast.r, fast.bits) == (n, r, table.bits)
        assert ColoringTable.from_csv(text).bits == table.bits


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
    tables = list(_seeded_tables())
    texts = [table.to_csv() for table in tables]

    def no_build(*args):
        raise AssertionError("the lex reader called from_function")

    monkeypatch.setattr(ColoringTable, "from_function", classmethod(no_build))
    for table, text in zip(tables, texts):
        assert ColoringTable.from_csv(text) == table


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


@pytest.mark.parametrize("r", [2, 3, 4])
def test_mutated_csvs_agree_with_dict_path(r, monkeypatch):
    text = rand_table(seeded(40 + r), r + 3, r).to_csv()
    for name, mutated in _mutations(text).items():
        assert _outcome(mutated) == _dict_path_outcome(mutated, monkeypatch), name


def test_lex_walk_declines_other_orders_and_hostile_shapes():
    text = rand_table(seeded(7), 6, 3).to_csv()
    mutations = _mutations(text)
    for name in ("unchanged", "blank-line", "crlf"):
        lines = [line for line in mutations[name].splitlines() if line.strip()]
        assert ColoringTable._from_lex_rows(lines[1:], 3) is not None, name
    for name in ("swapped", "duplicated", "dropped", "extra-row", "spaced-index",
                 "arabic-digit", "bad-color", "long-index", "no-rows"):
        lines = [line for line in mutations[name].splitlines() if line.strip()]
        assert ColoringTable._from_lex_rows(lines[1:], 3) is None, name


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
