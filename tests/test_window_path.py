"""The table search against the branch-and-bound references.

``longest_window_path`` answers only when its lex-least longest window
path is monochromatic, and then must equal the reference without cuts in
size, witness, color and exhaustive flag.  The witness check proves only
that the set is monochromatic, so a path bound that is too short would
pass it: the size is what these comparisons catch.  When the DP does not
answer, the table search is the branch and bound cut by the DP's path
lengths, which must equal the reference with the same cut, whole
SearchResult and all, and the reference without it in size, witness and
color.  Both window DPs walk their middles by ``tables._middles``, tested
here too.
"""

import json
import subprocess
import sys
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from abr import (
    Color,
    ColoringTable,
    PlanarSequence,
    branch_and_bound,
    color_table,
    cupcap_extremal,
    divdiff_color_table,
    longest_monochromatic,
    longest_window_path,
    random_cyclic_instance,
    search,
    tables,
    window_runs,
)

from _helpers import (flipped_table, rand_planar_tuple, rand_table, reference_longest_monochromatic,
                      reference_window_runs, seeded)


def _assert_matches(table, uncut=None):
    """The table search against the reference without cuts (``uncut``, its
    answer, when that is too slow), and the branch and bound it falls back
    to against the reference with the cut; True when the DP answered."""
    got = longest_monochromatic(table)
    uncut = uncut or reference_longest_monochromatic(table, cut=False)
    assert got[:4] == uncut[:4]
    if got.method == "monotone-path":
        assert got.nodes_visited == comb(table.n, table.r - 1)
        assert longest_window_path(table) == got
    else:
        assert longest_window_path(table) is None
        assert got == reference_longest_monochromatic(table)
        assert got.nodes_visited <= uncut.nodes_visited
    return got.method == "monotone-path"


def test_matches_reference_on_seeded_tables():
    rng = seeded(1919)
    certified = []
    for r in (2, 3, 4):
        for density in (0.05, 0.25, 0.5, 0.75, 0.95):
            for _ in range(6):
                n = rng.randrange(r, r + 9)
                certified.append(_assert_matches(rand_table(rng, n, r, density)))
    # both routes run, on about a third and two thirds of the tables
    assert 20 <= sum(certified) <= len(certified) - 20


@pytest.mark.parametrize("sign", "+-")
def test_one_color_tables_are_the_whole_set(sign):
    for n, r in ((2, 2), (7, 2), (9, 3), (10, 5), (8, 8)):
        table = ColoringTable.from_colors(n, r, sign * comb(n, r))
        result = longest_window_path(table)
        assert result == (n, tuple(range(n)), Color(sign), True, comb(n, r - 1), "monotone-path")
        assert result[:4] == reference_longest_monochromatic(table, cut=False)[:4]


def test_matches_reference_on_cupcap_tables():
    for k in (4, 5):
        assert _assert_matches(divdiff_color_table(cupcap_extremal(k), 2))
    # k = 6 has 70 points: the per-lookup reference takes over half a minute
    # there, so the row-mask branch and bound without cuts (equal to it on
    # every tested table) stands in
    table = divdiff_color_table(cupcap_extremal(6), 2)
    assert _assert_matches(table, branch_and_bound(table))
    assert longest_window_path(table)[:3] == (5, (0, 1, 2, 3, 4), Color.NEGATIVE)


def test_matches_reference_on_perturbed_cupcap_tables():
    rng = seeded(2626)
    table = divdiff_color_table(PlanarSequence(tuple(rand_planar_tuple(rng, 16, bits=16))), 2)
    certified = [_assert_matches(table)]
    for flips in (1, 2, 3, 5, 8, 13):
        cells = rng.sample(list(combinations(range(16), 3)), flips)
        certified.append(_assert_matches(flipped_table(table, cells)))
    assert certified[0] and not all(certified)


@pytest.mark.parametrize("n", [24, 28, 32])
def test_uncertified_perturbed_cupcap_tables_match_both_references(n):
    # the branch and bound at 24-32 points, where the DP's path lengths cut
    # its nodes from thousands to hundreds
    rng = seeded(2400 + n)
    table = divdiff_color_table(PlanarSequence(tuple(rand_planar_tuple(rng, n, bits=16))), 2)
    certified = [_assert_matches(flipped_table(table, rng.sample(
        list(combinations(range(n), 3)), flips))) for flips in (3, 10, 3, 10)]
    assert not all(certified)


@pytest.mark.parametrize("r", [2, 4])
def test_uncertified_random_tables_match_both_references(r):
    rng = seeded(5000 + r)
    certified = [_assert_matches(rand_table(rng, rng.randrange(r + 6, r + 11), r))
                 for _ in range(12)]
    assert certified.count(False) >= 6


def test_window_runs_match_the_per_lookup_paths():
    rng = seeded(6161)
    for r in (2, 3, 4):
        for density in (0.1, 0.5, 0.9):
            table = rand_table(rng, rng.randrange(r, r + 8), r, density)
            want = reference_window_runs(table)
            windows = list(combinations(range(table.n), r - 1))
            assert [list(run) for run in window_runs(table)] == [
                [want[color][w] for w in windows] for color in Color]


@pytest.mark.parametrize("d, n, seed", [(2, 12, 41), (3, 11, 42), (4, 10, 43), (3, 9, 44)])
def test_matches_reference_on_lifted_tables(d, n, seed):
    # lifted colorings are transitive: the DP always answers
    table = color_table(random_cyclic_instance(d, n, seed, bits=8))
    assert _assert_matches(table)


def test_one_colors_path_fails_and_the_others_holds():
    # U = 5 in both colors; the lex-least 5-path, (0, 1, 3, 4, 5) in -, is
    # not monochromatic, while the + one, (0, 2, 5, 6, 7), is the answer
    table = rand_table(seeded(78), 8, 2)
    assert not _assert_matches(table)
    assert longest_monochromatic(table)[:3] == (5, (0, 2, 5, 6, 7), Color.POSITIVE)


def test_windows_beyond_the_guard_leave_the_branch_and_bound(monkeypatch):
    # with no path lengths the branch and bound runs with its own cut alone
    table = rand_table(seeded(78), 8, 3)
    cut = longest_monochromatic(table)
    assert cut.method == "branch-and-bound"
    monkeypatch.setattr(search, "MAX_DENSE_CELLS", comb(8, 2) - 1)
    assert window_runs(table) is None and longest_window_path(table) is None
    uncut = longest_monochromatic(table)
    assert uncut == reference_longest_monochromatic(table, cut=False)
    assert cut[:4] == uncut[:4] and cut.nodes_visited < uncut.nodes_visited


@pytest.mark.parametrize("name", ["cupcap-5", "two-colors"])
def test_cli_search_matches_reference(tmp_path, name):
    table = (divdiff_color_table(cupcap_extremal(5), 2) if name == "cupcap-5"
             else rand_table(seeded(78), 8, 2))
    (tmp_path / "t.csv").write_text(table.to_csv())
    proc = subprocess.run([sys.executable, "-m", "abr.cli", "search", str(tmp_path / "t.csv")],
                          capture_output=True, check=True)
    got, want = json.loads(proc.stdout), reference_longest_monochromatic(table, cut=False)
    assert [got[k] for k in ("size", "witness", "color", "exhaustive")] == [
        want.size, list(want.witness), want.color.value, want.exhaustive]
    assert got["method"] == ("monotone-path" if name == "cupcap-5" else "branch-and-bound")


def test_middles_walk_every_k_subset_once_each_after_its_successors():
    for n in range(2, 10):
        for k in range(n - 1):
            walk = list(tables._middles(n, k))
            assert sorted(walk) == list(combinations(range(1, n - 1), k))
            at = {middle: i for i, middle in enumerate(walk)}
            assert len(at) == len(walk)
            # the windows (M, e) of a DP over (a, M) are settled first
            assert all(at[middle[1:] + (e,)] < i for middle, i in at.items() if middle
                       for e in range(middle[-1] + 1, n - 1))
    assert list(tables._middles(5, 0)) == [()]


def test_middles_arrive_one_at_a_time():
    # C(24, 11) = 2,496,144 middles: a list of them would take hundreds of MB
    tracemalloc.start()
    try:
        first = next(iter(tables._middles(26, 11)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == tuple(range(14, 25))
    assert peak < 1 << 20
