"""Coloring tables, structure predicates, and subset searches."""

from itertools import combinations
from math import comb

import pytest

from abr import (
    Color,
    ColoringTable,
    InvariantError,
    LazyDivdiffColors,
    ParseError,
    PlanarSequence,
    TooLargeError,
    build_cluster_parabola,
    divdiff_color_table,
    is_monotone,
    is_transitive,
    longest_monochromatic,
    monotone_implies_transitive_check,
    ramsey_search_tiny,
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
    table = rand_table(rng, 7, 3)
    seen = [tup for tup, _ in table]
    assert seen == list(combinations(range(7), 3))
    positive, negative = table.counts()
    assert positive + negative == comb(7, 3)
    assert positive == sum(1 for _, c in table if c is Color.POSITIVE)


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
    for r in (2, 3, 4):
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
    assert len(seen) == 12  # every r and class, with and without the property


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


SEARCH_BUDGETS = (None, 1, 2, 3, 7, 20, 100, 1000)


def test_search_matches_reference_on_seeded_tables():
    rng = seeded(5150)
    for r in (2, 3, 4):
        for density in (0.2, 0.5, 0.8):
            for _ in range(4):
                table = rand_table(rng, rng.randrange(r, r + 9), r, density)
                for budget in SEARCH_BUDGETS:
                    assert longest_monochromatic(table, budget=budget) == \
                        reference_longest_monochromatic(table, budget=budget)


def test_search_matches_reference_on_cupcap_tables():
    for table in cupcap_pair():
        for budget in SEARCH_BUDGETS:
            assert longest_monochromatic(table, budget=budget) == \
                reference_longest_monochromatic(table, budget=budget)


def test_search_matches_reference_on_dense_and_lazy_em_tables():
    seq, _ = build_cluster_parabola(3, 2)
    for table in (divdiff_color_table(seq, 3), LazyDivdiffColors(seq, 3)):
        for budget in (None, 10, 40, 200):
            assert longest_monochromatic(table, budget=budget) == \
                reference_longest_monochromatic(table, budget=budget)


def test_row_cache_is_bounded_and_read_on_demand(monkeypatch):
    rng = seeded(77)
    tables = [rand_table(rng, 10, r, 0.8) for r in (2, 3, 4)] + list(cupcap_pair())
    want = [(is_transitive(t), is_monotone(t), longest_monochromatic(t)) for t in tables]
    monkeypatch.setattr(ColoringTable, "max_cached_rows", 3)
    for table, expected in zip(tables, want):
        table = ColoringTable(table.n, table.r, table.bits)
        assert (is_transitive(table), is_monotone(table), longest_monochromatic(table)) \
            == expected
        assert len(table._rows) <= 3
    # A check that stops at an early witness reads only the rows it needs.
    hole = (0,) + tuple(range(2, 9))
    big = ColoringTable.from_function(
        16, 8, lambda tup: Color.NEGATIVE if tup == hole else Color.POSITIVE)
    assert is_transitive(big) == (False, tuple(range(9)))
    assert len(big._rows) <= 8


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
    class Vacuous:  # n < r: dense tables refuse this shape, duck-typed ones exist
        n, r = 3, 4

        def color(self, tup):
            raise AssertionError("no tuple should ever be consulted")

    result = longest_monochromatic(Vacuous())
    assert result.size == 3 and result.witness == (0, 1, 2) and result.exhaustive

    # all-same table: witness is the lex-least, i.e. the full range
    all_pos = ColoringTable.from_function(6, 2, lambda tup: Color.POSITIVE)
    result = longest_monochromatic(all_pos)
    assert result.size == 6 and result.witness == (0, 1, 2, 3, 4, 5)
    assert result.color is Color.POSITIVE


def test_longest_monochromatic_deep_table():
    # one stack level per element: a recursive search overflows here
    table = ColoringTable.from_function(1000, 2, lambda tup: Color.POSITIVE)
    result = longest_monochromatic(table)
    assert (result.size, result.witness, result.color) == (1000, tuple(range(1000)),
                                                            Color.POSITIVE)
    assert result.exhaustive and result.nodes_visited == 1003


def test_longest_monochromatic_budget():
    table = rand_table(seeded(7), 9, 3)
    full = longest_monochromatic(table)
    capped = longest_monochromatic(table, budget=5)
    assert not capped.exhaustive
    assert capped.size <= full.size
    assert capped.nodes_visited <= full.nodes_visited


def test_search_result_json():
    table = rand_table(seeded(21), 6, 3)
    obj = longest_monochromatic(table).to_json_obj()
    assert set(obj) == {"size", "witness", "color", "exhaustive", "nodes_visited"}
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
