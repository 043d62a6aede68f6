"""Coloring tables, structure predicates, and subset searches."""

import re
import sys
import tracemalloc
from itertools import combinations
from math import comb

import pytest

import abr.tables
from abr import (
    Color,
    ColoringTable,
    DegenerateInputError,
    InvariantError,
    LazyDivdiffColors,
    ParseError,
    PlanarSequence,
    TooLargeError,
    branch_and_bound,
    build_cluster_parabola,
    color_table,
    divdiff_color_table,
    is_monotone,
    is_transitive,
    longest_monochromatic,
    monotone_implies_transitive_check,
    ramsey_search_tiny,
    random_cyclic_instance,
    window_runs,
)

from _helpers import (
    flipped_table,
    naive_longest_monochromatic,
    rand_planar_tuple,
    rand_table,
    reference_longest_monochromatic,
    seeded,
)


def table_from_signs(n, r, sign_map):
    return ColoringTable.from_function(
        n, r, lambda tup: Color.POSITIVE if sign_map[tup] else Color.NEGATIVE
    )


def test_color_enum():
    assert Color.POSITIVE.value == "+"
    assert Color.NEGATIVE.value == "-"
    assert Color.POSITIVE.flipped() is Color.NEGATIVE
    assert Color.NEGATIVE.flipped() is Color.POSITIVE


def test_from_function_agrees_with_color():
    rng = seeded(808)
    for _ in range(30):
        n = rng.randrange(3, 9)
        r = rng.randrange(2, min(n, 5))
        picks = {tup: rng.random() < 0.5 for tup in combinations(range(n), r)}
        table = table_from_signs(n, r, picks)
        assert table.total == comb(n, r)
        for tup, want in picks.items():
            got = table.color(tup)
            assert got is (Color.POSITIVE if want else Color.NEGATIVE)


def test_iter_order_and_counts():
    rng = seeded(2)
    for r in (2, 3, 4, 5):
        table = rand_table(rng, 7, r)
        seen = list(table)
        assert [tup for tup, _ in seen] == list(combinations(range(7), r))
        assert all(color is table.color(tup) for tup, color in seen)
        positive, negative = table.counts()
        assert positive + negative == comb(7, r)
        assert positive == sum(1 for _, c in seen if c is Color.POSITIVE)


def test_color_validates_tuples():
    table = rand_table(seeded(3), 6, 3)
    for bad in ((0, 1), (0, 1, 1), (1, 0, 2), (0, 1, 6), (-1, 0, 1)):
        with pytest.raises(InvariantError):
            table.color(bad)


def test_csv_roundtrip():
    rng = seeded(11)
    table = rand_table(rng, 8, 4)
    text = table.to_csv()
    assert text.startswith("i0,i1,i2,i3,color\r\n") or text.startswith("i0,i1,i2,i3,color\n")
    back = ColoringTable.from_csv(text)
    assert back.n == 8 and back.r == 4
    assert list(back) == list(table)


def test_csv_rejects_partial_cover():
    table = rand_table(seeded(5), 5, 2)
    lines = table.to_csv().splitlines()
    with pytest.raises(ParseError):
        ColoringTable.from_csv("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError):
        ColoringTable.from_csv("nonsense\n")
    with pytest.raises(ParseError):
        ColoringTable.from_csv("i0,i1,color\n0,1,*\n")


def test_json_roundtrip():
    table = rand_table(seeded(17), 6, 3)
    back = ColoringTable.from_json_obj(table.to_json_obj())
    assert list(back) == list(table)
    obj = table.to_json_obj()
    assert set(obj) == {"n", "r", "colors"}
    for colors, message in (("+x+", "bad color 'x' at position 1"),
                            (["+", None, "-"], "bad color None at position 1")):
        with pytest.raises(InvariantError, match=re.escape(message)):
            ColoringTable.from_colors(3, 2, colors)


def test_monotone_and_transitive_frozen_counterexample():
    # +, + on consecutive pairs inside (0,1,2) but (0,2) negative:
    # transitivity demands the whole triple be monochromatic.
    signs = {(0, 1): True, (1, 2): True, (0, 2): False}
    table = table_from_signs(3, 2, signs)
    ok_t, witness_t = is_transitive(table)
    assert not ok_t and witness_t == (0, 1, 2)
    ok_m, witness_m = is_monotone(table)
    assert not ok_m and witness_m == (0, 1, 2)


def test_monotone_positive_example():
    # colors by "first index is even": lex order on subsets of any (r+1)-set
    # changes sign at most once?  No - use a genuinely monotone family:
    # color by sign of (max - min >= 3), monotone in windows.
    table = table_from_signs(
        5, 2, {tup: tup[1] - tup[0] >= 3 for tup in combinations(range(5), 2)}
    )
    ok, _ = is_monotone(table)
    # lex order of 2-subsets of {a<b<c}: (a,b),(a,c),(b,c) - spans are b-a, c-a, c-b;
    # c-a is the largest so the pattern can dip: verify against the definition
    expected = True
    for triple in combinations(range(5), 3):
        subs = [tuple(sorted(s)) for s in combinations(triple, 2)]
        subs.sort()
        cols = [table.color(s) for s in subs]
        switches = sum(1 for a, b in zip(cols, cols[1:]) if a is not b)
        if switches > 1:
            expected = False
    assert ok is expected


def naive_class_witness(table, monotone):
    """First (r+1)-tuple, in lex order, that breaks the definition."""
    for big in combinations(range(table.n), table.r + 1):
        colors = [table.color(sub) for sub in sorted(combinations(big, table.r))]
        switches = sum(1 for a, b in zip(colors, colors[1:]) if a is not b)
        ends_agree = table.color(big[:-1]) is table.color(big[1:])
        broken = switches > 1 if monotone else (ends_agree and len(set(colors)) > 1)
        if broken:
            return big
    return None


def cupcap_pair():
    """A cup-cap table with n = 22, r = 3 (transitive) and a copy with three
    seeded cells flipped so that it is not."""
    rng = seeded(2222)
    table = divdiff_color_table(PlanarSequence(tuple(rand_planar_tuple(rng, 22, bits=16))), 2)
    while True:
        flipped = flipped_table(table, rng.sample(list(combinations(range(22), 3)), 3))
        if naive_class_witness(flipped, False) is not None:
            return table, flipped


def test_class_witnesses_match_naive_scan():
    rng = seeded(31337)
    seen = set()
    for table in cupcap_pair():
        for monotone, check in ((True, is_monotone), (False, is_transitive)):
            want = naive_class_witness(table, monotone)
            assert check(table) == (want is None, want)
            seen.add((table.r, monotone, want is None))
    assert seen == {(3, False, True), (3, False, False), (3, True, True), (3, True, False)}
    for r in (2, 3, 4, 5, 6):
        for _ in range(60):
            n = rng.randrange(r + 1, r + 5)
            table = rand_table(rng, n, r)
            if rng.random() < 0.3:  # colored by the first index alone: monotone
                cut = rng.randrange(n)
                table = ColoringTable.from_function(
                    n, r, lambda tup: Color.POSITIVE if tup[0] < cut else Color.NEGATIVE)
            for monotone, check in ((True, is_monotone), (False, is_transitive)):
                want = naive_class_witness(table, monotone)
                assert check(table) == (want is None, want)
                seen.add((r, monotone, want is None))
    assert len(seen) == 20  # every r and class, with and without the property
    for r in (2, 3, 4, 5, 6):
        # n = r has no (r+1)-tuple; n = r + 1 has one, in one prefix
        for n in (r, r + 1):
            for _ in range(4):
                table = rand_table(rng, n, r)
                for monotone, check in ((True, is_monotone), (False, is_transitive)):
                    want = naive_class_witness(table, monotone)
                    assert check(table) == (want is None, want)
        # one flipped cell of a constant table, inside the last (r+1)-tuple
        # L and no other: only the last prefix that has a pair breaks
        for n in range(r + 2, r + 5):
            last = tuple(range(n - r - 1, n))
            for j in range(1, r):
                cell = last[:j] + last[j + 1:]
                for sign in Color:
                    table = ColoringTable.from_function(
                        n, r, lambda tup: sign.flipped() if tup == cell else sign)
                    for monotone, check in ((True, is_monotone), (False, is_transitive)):
                        assert naive_class_witness(table, monotone) == last
                        assert check(table) == (False, last)


def test_keyed_colorings_are_refused_by_the_table_checks_and_search():
    # planar orders 1-4 and a lifted d = 3 instance: a keyed coloring is no
    # table, so the structure checks and the table search refuse it before
    # any key, even where a vanishing tuple would raise; small integer
    # heights make vanishing tuples common, and the dense table's witness
    # vanishes under the keyed coloring too
    rng = seeded(2323)
    inputs = [(random_cyclic_instance(3, 8, 75, bits=8), 3)]
    for order in (1, 2, 3, 4):
        inputs.append((PlanarSequence(tuple(rand_planar_tuple(rng, order + 5))), order))
        for _ in range(12):
            n = rng.randrange(order + 1, order + 6)
            inputs.append((PlanarSequence(tuple((t, rng.randrange(-3, 4)) for t in range(n))),
                           order))
    degenerate = 0
    for s, order in inputs:
        lazy = LazyDivdiffColors(s, order)
        for refuse in (is_monotone, is_transitive, longest_monochromatic, window_runs):
            with pytest.raises(InvariantError, match="needs a ColoringTable"):
                refuse(lazy)
        try:
            divdiff_color_table(s, order) if isinstance(s, PlanarSequence) else color_table(s)
        except DegenerateInputError as exc:
            degenerate += 1
            with pytest.raises(DegenerateInputError):
                lazy.color(exc.witness)
    assert 0 < degenerate < len(inputs)


def test_monotone_implies_transitive_on_random_monotone_tables():
    rng = seeded(4242)
    found = 0
    for _ in range(400):
        table = rand_table(rng, rng.randrange(4, 8), rng.randrange(2, 4))
        ok, _ = is_monotone(table)
        if ok:
            found += 1
            assert monotone_implies_transitive_check(table)
            ok_t, _ = is_transitive(table)
            assert ok_t
    assert found  # the sample actually exercised the implication


def test_longest_monochromatic_matches_naive():
    rng = seeded(99)
    for _ in range(40):
        n = rng.randrange(3, 9)
        r = rng.randrange(2, min(n + 1, 5))
        table = rand_table(rng, n, r)
        result = longest_monochromatic(table)
        assert result.exhaustive
        naive_size, _, _ = naive_longest_monochromatic(table)
        assert result.size == naive_size
        if result.size >= r:
            colors = {table.color(t) for t in combinations(result.witness, r)}
            assert colors == {result.color}


SEARCH_BUDGETS = (None, 0, 1, 2, 3, 7, 20, 100, 1000)


def cut_search(table, budget=None):
    """The branch and bound of a table search, cut by the table's path
    lengths, whether or not the window DP would answer first."""
    return branch_and_bound(table, window_runs(table), budget=budget)


def assert_cut_search_matches(table, budgets=SEARCH_BUDGETS):
    for budget in budgets:
        assert cut_search(table, budget) == reference_longest_monochromatic(table, budget=budget)
        assert branch_and_bound(table, None, budget=budget) == \
            reference_longest_monochromatic(table, budget=budget, cut=False)
    # the cut moves nodes only: the exhaustive answer is the uncut one
    assert cut_search(table)[:4] == reference_longest_monochromatic(table, cut=False)[:4]


def test_search_matches_reference_on_seeded_tables():
    rng = seeded(5150)
    for r in (2, 3, 4):
        for density in (0.2, 0.5, 0.8):
            for _ in range(4):
                assert_cut_search_matches(rand_table(rng, rng.randrange(r, r + 9), r, density))


def test_search_matches_reference_on_cupcap_tables():
    for table in cupcap_pair():
        assert_cut_search_matches(table)


def test_search_matches_reference_on_dense_em_tables():
    seq, _ = build_cluster_parabola(3, 2)
    assert_cut_search_matches(divdiff_color_table(seq, 3), (None, 10, 40, 200))


def test_lazy_search_matches_reference_on_depth4_em():
    # the branch and bound reads only rows, so a keyed coloring runs it
    # uncut: it has no bits to take path lengths from
    seq, _ = build_cluster_parabola(4, 2)
    lazy = LazyDivdiffColors(seq, 3)
    assert branch_and_bound(lazy, budget=100) == \
        reference_longest_monochromatic(lazy, budget=100, cut=False)


def test_rows_are_read_on_demand(monkeypatch):
    rng = seeded(77)
    for table in [rand_table(rng, 10, r, 0.8) for r in (2, 3, 4)] + list(cupcap_pair()):
        for monotone, check in ((True, is_monotone), (False, is_transitive)):
            want = naive_class_witness(table, monotone)
            assert check(table) == (want is None, want)
        assert cut_search(table) == reference_longest_monochromatic(table)
    # A check that stops at an early witness reads only the rows it needs.
    hole = (0,) + tuple(range(2, 9))
    big = ColoringTable.from_function(
        16, 8, lambda tup: Color.NEGATIVE if tup == hole else Color.POSITIVE)
    read = []
    positive_among, positive_pairs = ColoringTable.positive_among, ColoringTable.positive_pairs

    def counted(table, prefix, mask):
        read.append(prefix)
        return positive_among(table, prefix, mask)

    def counted_pairs(table, head, low):
        read.append((head, low))
        return positive_pairs(table, head, low)

    monkeypatch.setattr(ColoringTable, "positive_among", counted)
    monkeypatch.setattr(ColoringTable, "positive_pairs", counted_pairs)
    assert is_transitive(big) == (False, tuple(range(9)))
    assert len(read) <= 8


def test_checks_rank_per_prefix_and_keep_nothing(monkeypatch):
    # A full check ranks O(r) times per (r-1)-tuple prefix, not once per
    # tuple or per (r+1)-tuple
    n, r = 22, 3
    table = ColoringTable.from_function(
        n, r, lambda tup: Color.POSITIVE if tup[0] < 9 else Color.NEGATIVE)
    calls, rank = [], abr.tables._rank

    def counted(*args):
        calls.append(args)
        return rank(*args)

    monkeypatch.setattr(abr.tables, "_rank", counted)
    for check in (is_monotone, is_transitive):
        calls.clear()
        assert check(table) == (True, None)
        assert len(calls) <= r * comb(n - 2, r - 1) < comb(n, r)
    monkeypatch.undo()
    # ... and keeps no rows: a cache of all C(n, r-1) rows would hold at
    # least that many ints of n bits
    n, r = 75, 3
    table = ColoringTable.from_colors(n, r, "+" * comb(n, r))
    assert table.total >= 1 << 16
    tracemalloc.start()
    try:
        assert is_transitive(table) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < comb(n, r - 1) * sys.getsizeof(1 << n - 1)


def test_bits_are_the_colors_in_lex_order(monkeypatch):
    rng = seeded(1616)
    source = rand_table(rng, 9, 3)
    colors = source.to_json_obj()["colors"]
    lines = source.to_csv().splitlines()
    reordered = "\n".join(lines[:1] + lines[:0:-1]) + "\n"  # no row on its walk line
    rank, ranked = abr.tables._rank, []
    monkeypatch.setattr(abr.tables, "_rank", lambda *args: ranked.append(args[0]) or rank(*args))
    from_reordered = ColoringTable.from_csv(reordered)
    assert ranked == list(combinations(range(9), 3))[::-1]  # each row placed at its rank
    monkeypatch.undo()
    planar = PlanarSequence(tuple(rand_planar_tuple(rng, 9)))
    built = [source, ColoringTable.from_colors(9, 3, colors),
             ColoringTable.from_colors(9, 3, [Color(c) for c in colors]),
             ColoringTable.from_csv(source.to_csv()), from_reordered,
             ColoringTable.from_json_obj(source.to_json_obj())]
    assert all(table == source for table in built)
    built += [divdiff_color_table(planar, order) for order in (1, 2, 3)]
    built.append(color_table(random_cyclic_instance(3, 9, 5)))
    for table in built:
        n, r = table.n, table.r
        colors, bits = table.to_json_obj()["colors"], int.from_bytes(table.bits, "little")
        assert "".join("-+"[bits >> i & 1] for i in range(table.total)) == colors
        assert "".join(table.color(tup).value for tup in combinations(range(n), r)) == colors
        is_transitive(table)  # a full check on the transitive key tables
        longest_monochromatic(table)
        assert vars(table).keys() == {"n", "r", "bits"}
        # a prefix ending at n - 1 has an empty row
        assert table.positive_among(tuple(range(r - 2)) + (n - 1,), (1 << n) - 1) == 0


def test_bit_storage_is_exactly_the_tuples():
    # C(3, 2) = 3 tuples: bits 3..7 of the one byte are padding, and a set
    # one would make tables with the same colors unequal
    assert ColoringTable(3, 2, b"\x07").to_csv() == "i0,i1,color\n0,1,+\n0,2,+\n1,2,+\n"
    for n, r, bits, message in ((3, 2, b"\xff", "past the last tuple"),
                                (3, 2, b"\x08", "past the last tuple"),
                                (9, 3, b"\x00" * 10 + b"\x10", "past the last tuple"),
                                (3, 2, b"\x07\x00", "wrong length")):
        with pytest.raises(InvariantError, match=message):
            ColoringTable(n, r, bits)
    # C(16, 2) = 120 tuples fill 15 bytes, with no padding
    assert ColoringTable(16, 2, b"\xff" * 15).counts() == (120, 0)


def test_lazy_rows_are_computed_whole():
    # The third divided difference of (0, 1, 2, 5) is 0, those of (0, 1, 2, 3)
    # and (0, 1, 2, 4) are not: the row of (0, 1, 2) holds a degenerate tuple
    # that the mask leaves out, and reading the row still names it.
    seq = PlanarSequence(((0, 0), (1, 1), (2, 4), (3, 7), (4, 11), (5, 25)))
    lazy = LazyDivdiffColors(seq, 3)
    assert lazy.color((0, 1, 2, 3)) is Color.NEGATIVE
    with pytest.raises(DegenerateInputError) as info:
        lazy.positive_among((0, 1, 2), 1 << 3)
    assert info.value.witness == (0, 1, 2, 5)


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_positive_among_matches_color(lazy):
    seq = PlanarSequence(tuple(rand_planar_tuple(seeded(64), 8)))
    table = LazyDivdiffColors(seq, 2) if lazy else divdiff_color_table(seq, 2)
    full = (1 << 8) - 1
    for prefix in combinations(range(8), 2):
        above = full ^ ((2 << prefix[-1]) - 1)
        want = sum(1 << y for y in range(prefix[-1] + 1, 8)
                   if table.color(prefix + (y,)) is Color.POSITIVE)
        assert table.positive_among(prefix, above) == want
        assert table.positive_among(prefix, above & 0b10101010) == want & 0b10101010
    for bad in ((0,), (1, 0), (0, 8), (0, 1, 2)):
        with pytest.raises(InvariantError):
            table.positive_among(bad, 0)


def test_longest_monochromatic_tiny_and_ties():
    # all-same table: witness is the lex-least, i.e. the full range
    all_pos = ColoringTable.from_function(6, 2, lambda tup: Color.POSITIVE)
    result = longest_monochromatic(all_pos)
    assert result.size == 6 and result.witness == (0, 1, 2, 3, 4, 5)
    assert result.color is Color.POSITIVE


def test_longest_monochromatic_deep_table():
    # one stack level per element: a recursive search overflows here
    table = ColoringTable.from_function(1000, 2, lambda tup: Color.POSITIVE)
    found = (1000, tuple(range(1000)), Color.POSITIVE, True)
    assert longest_monochromatic(table) == found + (1000, "monotone-path")
    # the path lengths cut the - pass at its root: every - path has 1 point
    assert cut_search(table) == found + (1002, "branch-and-bound")
    assert branch_and_bound(table) == found + (1003, "branch-and-bound")


def test_longest_monochromatic_budget():
    table = rand_table(seeded(7), 9, 3)
    full = cut_search(table)
    # every budget exit, the root's at 0 too, and the first that completes
    for budget in range(full.nodes_visited + 1):
        capped = cut_search(table, budget)
        assert capped == reference_longest_monochromatic(table, budget=budget)
        assert capped.exhaustive == (budget == full.nodes_visited)


def test_search_result_json():
    table = rand_table(seeded(21), 6, 3)
    obj = longest_monochromatic(table).to_json_obj()
    assert set(obj) == {"size", "witness", "color", "exhaustive", "nodes_visited", "method"}
    assert obj["method"] == "branch-and-bound"
    assert isinstance(obj["witness"], list)


def test_ramsey_goldens():
    # r=2 the class coincides with sequences: least n forcing a monotone
    # k-run is (k-1)^2 + 1
    assert ramsey_search_tiny(2, 2, 6) == 2
    assert ramsey_search_tiny(2, 3, 10) == 5
    assert ramsey_search_tiny(2, 3, 10, cls="transitive") == 5
    assert ramsey_search_tiny(3, 4, 8) == 7
    # n_max too small: unknown
    assert ramsey_search_tiny(2, 3, 4) is None


def test_ramsey_guard():
    with pytest.raises(TooLargeError):
        ramsey_search_tiny(3, 5, 30, max_tuples=40)
    with pytest.raises(InvariantError):
        ramsey_search_tiny(2, 3, 8, cls="chromatic")
