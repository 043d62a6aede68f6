"""The closed-form planar keys of ``abr.paths`` against the cofactor keys
kept in ``_helpers.reference_planar_keys``: integer for integer on every
middle, with the same WrongOrientationError, on drawn rational inputs of
orders 1 to 8 (ties included), on windows of the depth-4 cluster instance
and on 40 points at order 38.  Equal keys make equal tables, searches and
degenerate witnesses, which the drawn inputs check too.  Planar ``color``
and ``check one-switch`` give the bytes, messages and witnesses of the
lift route kept in ``_helpers.reference_lift_table``.  No planar build,
search or ``color`` forms a determinant."""

import contextlib
import io
import json
import time
from argparse import Namespace
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abr import (AbrError, ColoringTable, DegenerateInputError, PlanarSequence,
                 WrongOrientationError, build_cluster_parabola, cli_sequences,
                 divdiff_color_table, linalg, longest_monotone_path, paths)
from abr.cli import main
from abr.tables import _middles

from _helpers import reference_lift_table, reference_planar_keys


def _keys(keys_of, middle, xs):
    try:
        return keys_of(middle, xs)
    except WrongOrientationError:
        return "wrong orientation"


def _compare(p, d, inside=False):
    """Assert both routes key every middle alike; the kinds of middles met.
    With ``inside``, xs also holds the points inside M's span, which the
    orientation check refuses at some middles."""
    n, seen = len(p), Counter()
    got, want = paths._window_keys(p, d), reference_planar_keys(p, d)
    for middle in _middles(n, d - 1):
        xs = [*range(middle[0]), *range(middle[-1] + 1, n)] if middle else list(range(n))
        if inside and middle:
            xs = sorted(xs + [x for x in range(middle[0], middle[-1]) if x not in middle])
        keys = _keys(got, middle, xs)
        assert keys == _keys(want, middle, xs), (d, middle, xs)
        seen["wrong orientation" if keys == "wrong orientation"
             else "tie" if len(set(keys)) < len(keys) else "keys"] += 1
    return seen


def _outcomes(p, d):
    out = []
    for build in (divdiff_color_table, longest_monotone_path):
        try:
            out.append(build(p, d))
        except DegenerateInputError as exc:
            out.append((str(exc), exc.witness))
    return out


@st.composite
def planar_cases(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(d + 1, d + 4))
    rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 5)))
    ts = sorted(draw(st.sets(rationals, min_size=n, max_size=n)))
    # any d + 1 points on one polynomial of degree below d tie
    poly = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    hs = [sum(c * t ** e for e, c in enumerate(poly)) if draw(st.booleans()) else draw(rationals)
          for t in ts]
    return PlanarSequence(tuple(zip(ts, hs))), d, draw(st.booleans())


def test_closed_form_keys_equal_the_cofactor_keys():
    seen = Counter()

    @settings(derandomize=True, deadline=None, database=None, max_examples=250)
    @given(planar_cases())
    def run(case):
        p, d, inside = case
        seen.update(_compare(p, d, inside))
        if not inside:  # and so the same tables, searches and degenerate witnesses
            with patch.object(paths, "_window_keys", reference_planar_keys):
                want = _outcomes(p, d)
            assert _outcomes(p, d) == want

    run()
    assert min(seen["keys"], seen["tie"], seen["wrong orientation"]) >= 20, seen


@lru_cache(maxsize=1)
def _em4():
    return build_cluster_parabola(4, 2)[0]


@pytest.mark.parametrize("start, width", [(0, 16), (37, 16), (100, 16), (240, 16),
                                          (90, 24), (232, 24)])
def test_closed_form_keys_on_depth4_windows(start, width):
    window = PlanarSequence(_em4().points[start:start + width])
    for d in (2, 3, 4):
        assert _compare(window, d)["keys"] > 0


_FORTY = [(t, 7919 * t ** 3 % 1009) for t in range(40)]


def test_forty_points_at_order_38(tmp_path, capsys):
    # 54 s with the cofactor keys: 2·38 Bareiss minors of 37 x 37 per middle
    src = tmp_path / "p.json"
    src.write_text(json.dumps({"kind": "planar", "points": [[str(t), str(h)] for t, h in _FORTY]}))
    start = time.perf_counter()
    assert main(["check", "monotone", str(src), "--d", "38", "--format", "json"]) == 0
    assert main(["search", str(src), "--d", "38", "-o", str(tmp_path / "F")]) == 0
    elapsed = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out) == {
        "check": "monotone", "n": 40, "ok": True, "r": 39, "witness": None}
    assert json.loads((tmp_path / "F").read_text()) == {
        "color": "+", "exhaustive": True, "method": "monotone-path", "nodes_visited": 780,
        "size": 39, "witness": list(range(39))}
    assert elapsed < 5.0
    p = PlanarSequence(_FORTY)
    got, want = paths._window_keys(p, 38), reference_planar_keys(p, 38)
    for middle in (tuple(range(1, 38)), tuple(range(2, 39))):
        xs = [x for x in range(40) if x < middle[0] or x > middle[-1]]
        assert got(middle, xs) == want(middle, xs)


def _cli(argv):
    """Exit code, stdout bytes and stderr text of one command run in-process."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def _write_planar(path, p):
    path.write_text(json.dumps({"kind": "planar", "points": [
        [str(t), str(h)] for t, h in p.points]}))
    return str(path)


def test_forty_points_color_at_order_38(tmp_path):
    # 47-67 s by the lift route: 2·38 Bareiss minors of 37 x 37 per middle
    p = PlanarSequence(_FORTY)
    src = _write_planar(tmp_path / "p.json", p)
    start = time.perf_counter()
    code, out, err = _cli(["color", src, "--d", "38"])
    elapsed = time.perf_counter() - start
    table = divdiff_color_table(p, 38)
    positive, negative = table.counts()
    assert code == 0
    assert ColoringTable.from_csv(out.decode("utf-8")) == table
    assert err == f"n=40 d=38 tuples={table.total} positive={positive} negative={negative}\n"
    assert elapsed < 2.0


def test_planar_builds_and_searches_form_no_determinant(tmp_path, monkeypatch, capsys):
    p = build_cluster_parabola(3, 2)[0]
    table, result = divdiff_color_table(p, 3), longest_monotone_path(p, 3)
    src = _write_planar(tmp_path / "p.json", p)
    colors = [["color", src, "--d", "3", "--format", fmt] for fmt in ("csv", "json")]
    with patch.object(paths, "divdiff_color_table", reference_lift_table):
        want = [_cli(argv) for argv in colors]
    assert [code for code, _, _ in want] == [0, 0]

    def forbidden(grid):
        raise AssertionError("a Bareiss determinant was formed")

    monkeypatch.setattr(linalg, "_int_det_bareiss", forbidden)
    assert divdiff_color_table(p, 3) == table
    assert longest_monotone_path(p, 3) == result
    assert main(["check", "transitive", src, "--d", "3"]) == 0
    assert main(["search", src, "--d", "3", "-o", str(tmp_path / "F")]) == 0
    assert json.loads((tmp_path / "F").read_text())["size"] == result.size
    assert capsys.readouterr().err == ""
    assert [_cli(argv) for argv in colors] == want  # the lift route's bytes and summary


def _planar_color_runs(p, d, src):
    """What planar ``color`` (CSV and JSON) and ``check one-switch`` print,
    and ``lifted_table``'s table or its error with the witness."""
    runs = [_cli(["color", src, "--d", str(d), "--format", fmt]) for fmt in ("csv", "json")]
    if len(p) >= d + 2:
        runs.append(_cli(["check", "one-switch", src, "--d", str(d), "--format", "json"]))
    try:
        runs.append(cli_sequences.lifted_table(p, Namespace(d=d, reverse_orientation=False)))
    except AbrError as exc:
        runs.append((type(exc), str(exc), getattr(exc, "witness", None)))
    return runs


@st.composite
def planar_colorings(draw):
    d = draw(st.integers(2, 9))
    n = draw(st.integers(d + 1, d + 3))
    ints = st.integers(-12, 12)
    values = ints if draw(st.booleans()) else st.builds(Fraction, ints,
                                                        st.sampled_from((1, 2, 3, 5)))
    ts = sorted(draw(st.sets(values, min_size=n, max_size=n)))
    # any d + 1 points on one polynomial of degree below d tie
    poly = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    hs = [draw(st.one_of(st.just(sum(c * t ** e for e, c in enumerate(poly))), values))
          for t in ts]
    return PlanarSequence(tuple(zip(ts, hs))), d


def test_planar_color_and_one_switch_match_the_lift_route(tmp_path):
    seen = Counter()

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(planar_colorings())
    def run(case):
        p, d = case
        src = _write_planar(tmp_path / "p.json", p)
        with patch.object(paths, "divdiff_color_table", reference_lift_table):
            want = _planar_color_runs(p, d, src)
        assert _planar_color_runs(p, d, src) == want
        seen["table" if want[0][0] == 0 else "degenerate"] += 1

    run()
    assert min(seen["table"], seen["degenerate"]) >= 20, seen
