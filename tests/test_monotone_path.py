"""Both keyed planar routes of ``abr.paths`` against references that share
none of their keys: the dense table against the kernel-sign table of
``_helpers``, bit for bit, and the monotone-path DP against the branch and
bound on that table (the same size, witness, color and exhaustive flag).
The DP also equals the window DP of that table in every field: both run
through one front end.  On degenerate input all raise the same error,
message and witness."""

from fractions import Fraction

import pytest

from abr import (
    Color,
    DegenerateInputError,
    PlanarSequence,
    TooLargeError,
    branch_and_bound,
    build_cluster_parabola,
    cupcap_extremal,
    divdiff_color_table,
    longest_monotone_path,
    longest_window_path,
)

from _helpers import (kernel_divdiff_table, rand_planar_tuple, reference_longest_monochromatic,
                      seeded)


def _outcome(search, *args):
    try:
        result = search(*args)
    except DegenerateInputError as exc:
        return "degenerate", str(exc), exc.witness
    return result.size, result.witness, result.color, result.exhaustive


def _table(build, p, order):
    try:
        return build(p, order)
    except DegenerateInputError as exc:
        return type(exc), str(exc), exc.witness


def _uncut_reference(table):
    return reference_longest_monochromatic(table, cut=False)


def _assert_same(p, order, search=_uncut_reference):
    reference = _table(kernel_divdiff_table, p, order)
    table = _table(divdiff_color_table, p, order)
    assert table == reference
    got = _outcome(longest_monotone_path, p, order)
    if isinstance(reference, tuple):
        assert got == ("degenerate",) + reference[1:]
    else:
        assert got == _outcome(search, reference)
        # size, witness, color, exhaustive, nodes_visited and method
        assert longest_monotone_path(p, order) == longest_window_path(table)
    return got


def test_matches_reference_on_seeded_planar_inputs():
    degenerate = 0
    for seed in range(160):
        rng = seeded(seed)
        order = 1 + seed % 4
        n = rng.randint(order + 1, 14)
        # two-bit coordinates make vanishing divided differences common
        p = PlanarSequence(tuple(rand_planar_tuple(rng, n, 2 if seed % 3 == 0 else 8)))
        degenerate += _assert_same(p, order)[0] == "degenerate"
    assert 10 <= degenerate <= 100


def test_order_one_is_a_strictly_monotone_subsequence():
    # the middle is empty: both ends range over all points, and a < e
    p = PlanarSequence(tuple((t, h) for t, h in enumerate((5, 1, 4, 2, 3, 0, 6))))
    # rising (1, 3, 4, 6) and falling (0, 2, 3, 5) tie: the lex-least wins
    assert _assert_same(p, 1)[:3] == (4, (0, 2, 3, 5), Color.NEGATIVE)
    falling = PlanarSequence(tuple((t, -t) for t in range(6)))
    assert _assert_same(falling, 1)[:3] == (6, tuple(range(6)), Color.NEGATIVE)


def test_order_one_beyond_one_byte_per_window():
    rng = seeded(300)
    heights = rng.sample(range(10 ** 6), 300)
    p = PlanarSequence(tuple(enumerate(heights)))
    result = longest_monotone_path(p, 1)
    # the longest strictly increasing or decreasing run, by the quadratic DP
    up, down = [1] * 300, [1] * 300
    for e in range(300):
        for a in range(e):
            if heights[a] < heights[e]:
                up[e] = max(up[e], up[a] + 1)
            else:
                down[e] = max(down[e], down[a] + 1)
    assert result.size == max(up + down) and len(result.witness) == result.size
    steps = [heights[b] > heights[a] for a, b in zip(result.witness, result.witness[1:])]
    assert set(steps) == {result.color is Color.POSITIVE}


def test_degenerate_inputs_raise_like_the_table():
    parabola = PlanarSequence(tuple((t, t * t) for t in range(7)))
    assert _assert_same(parabola, 3) == (
        "degenerate", "divided difference vanishes at (0, 1, 2, 3)", (0, 1, 2, 3))
    # point 6 of a cubic moved onto the parabola through points 1, 3 and 4:
    # (1, 3, 4, 6) and (0, 1, 5, 6) vanish, and the merge around (3, 4) runs
    # before the one around (1, 5) that holds the lex-least
    points = [(t, t ** 3) for t in range(8)]
    points[6] = (6, 186)
    assert _assert_same(PlanarSequence(tuple(points)), 3) == (
        "degenerate", "divided difference vanishes at (0, 1, 5, 6)", (0, 1, 5, 6))
    repeated = PlanarSequence(tuple((t, h) for t, h in enumerate((3, 1, 4, 1, 5, 9, 2, 6, 5))))
    assert _assert_same(repeated, 1) == (
        "degenerate", "divided difference vanishes at (1, 3)", (1, 3))


def test_matches_reference_on_em_and_cupcap():
    for m in (2, 3):
        _assert_same(build_cluster_parabola(m, 2)[0], 3)
    for k in (4, 5):
        _assert_same(cupcap_extremal(k), 2)
    # k = 6 has 70 points: the per-lookup reference takes half a minute there,
    # so the row-mask branch and bound without cuts (equal to it on every
    # tested table) stands in
    assert _assert_same(cupcap_extremal(6), 2, branch_and_bound)[0] == 5


@pytest.mark.parametrize("start, width", [(0, 16), (37, 16), (100, 16), (240, 16),
                                          (90, 24), (232, 24)])
def test_matches_reference_on_depth4_windows(start, width):
    em4 = build_cluster_parabola(4, 2)[0]
    _assert_same(PlanarSequence(em4.points[start:start + width]), 3)


def test_result_fields():
    p = build_cluster_parabola(3, 2)[0]
    result = longest_monotone_path(p, 3)
    assert result.method == "monotone-path" and result.nodes_visited == 560  # C(16, 3)
    assert result.to_json_obj()["method"] == "monotone-path"


def test_windows_beyond_the_guard_are_refused_first():
    points = tuple((Fraction(t), Fraction(t * t * t)) for t in range(500))
    with pytest.raises(TooLargeError, match="20708500 windows exceed the dense-table guard"):
        longest_monotone_path(PlanarSequence(points), 3)
