"""Instance generators: cluster-parabola, cup/cap extremal, random."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from abr import (
    Color,
    GenerationFailedError,
    InvariantError,
    PlanarSequence,
    TooLargeError,
    moment_lift,
    build_cluster_parabola,
    cluster_parabola_sequence,
    SearchResult,
    cupcap_extremal,
    divdiff_color_table,
    divided_difference,
    longest_monochromatic,
    longest_monotone_path,
    random_cyclic_instance,
    serialize_sequence,
    validate_d_general_position,
    validate_general_position,
    verify_cluster_parabola,
)
from abr.constructions import _exponent_schedule, _increasing_rationals, _random_rational

from _helpers import all_pairs_cupcap, naive_longest_monochromatic, seeded


def test_exponent_schedule_frozen():
    sigmas, kappas, nus = _exponent_schedule(3)
    assert sigmas == [4, 18, 60]
    assert kappas == [1, 4, 7]
    assert nus == [4, 44, 142]


def test_build_sizes_and_positivity():
    for m, size in ((1, 2), (2, 4), (3, 16), (4, 256)):
        seq, params = build_cluster_parabola(m, 2)
        assert len(seq) == size
        assert params.depth == m and params.base == 2
        assert len(params.x_scale) == m - 1
        assert all(t > 0 for t in seq.ts)


def test_build_validates_arguments():
    with pytest.raises(InvariantError):
        build_cluster_parabola(0, 2)
    with pytest.raises(InvariantError):
        build_cluster_parabola(2, 1)
    with pytest.raises(InvariantError):
        build_cluster_parabola(2.0, 2)


def test_sequence_search_goldens():
    for m, expected_max in ((1, 2), (2, 4), (3, 6)):
        seq, params, result = cluster_parabola_sequence(m)
        assert params.base == 2  # the very first base already verifies
        assert result.exhaustive
        assert result.size <= 2 * m
        assert result.size == expected_max
        assert len(seq) == 2 ** 2 ** (m - 1)
        assert verify_cluster_parabola(seq, m) == result
        if m == 1:  # two points, no quadruple: the whole instance
            assert result == SearchResult(2, (0, 1), Color.POSITIVE, True, 0, "monotone-path")
        else:
            assert result == longest_monotone_path(seq, 3)
    # the m=3 witness: both end clusters contribute a pair, middles one point
    assert result.witness == (0, 1, 4, 8, 12, 13)


def test_m3_cluster_sign_structure():
    seq, _, _ = cluster_parabola_sequence(3)
    table = divdiff_color_table(seq, 3)

    def sign(tup):
        return table.color(tup)

    # a quadruple inside one cluster copies the level-2 sign: negative
    for c in range(4):
        assert sign((4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3)) is Color.NEGATIVE
    # three in one cluster + one outside: the parabola term dominates, positive
    assert sign((0, 1, 2, 4)) is Color.POSITIVE
    assert sign((0, 4, 5, 6)) is Color.POSITIVE
    # two-and-two: negative
    assert sign((0, 1, 4, 5)) is Color.NEGATIVE
    assert sign((4, 5, 12, 13)) is Color.NEGATIVE
    # a pair in the middle cluster of three: positive; at either end: negative
    assert sign((0, 4, 5, 8)) is Color.POSITIVE
    assert sign((0, 1, 4, 8)) is Color.NEGATIVE
    assert sign((0, 4, 8, 9)) is Color.NEGATIVE
    # one point per cluster mirrors the coarse level-2 quadruple: negative
    assert sign((0, 4, 8, 12)) is Color.NEGATIVE


def test_m3_no_seven_term_run_spot_check():
    # the exhaustive search already proves max = 6; cross-check a few
    # 7-subsets against the naive definition
    seq, _, result = cluster_parabola_sequence(3)
    table = divdiff_color_table(seq, 3)
    rng = seeded(14)
    for _ in range(40):
        subset = tuple(sorted(rng.sample(range(16), 7)))
        colors = {table.color(t) for t in combinations(subset, 4)}
        assert len(colors) == 2
    # and the reported witness really is monochromatic
    assert {table.color(t) for t in combinations(result.witness, 4)} == {Color.NEGATIVE}


def test_verify_rejects_wrong_size():
    seq, _ = build_cluster_parabola(3, 2)
    with pytest.raises(InvariantError):
        verify_cluster_parabola(seq, 2)


def test_depth_beyond_point_guard_is_refused_before_the_power():
    seq, _ = build_cluster_parabola(3, 2)
    for m in (6, 40, 10 ** 6):
        with pytest.raises(TooLargeError):
            build_cluster_parabola(m, 2)
        with pytest.raises(TooLargeError):
            verify_cluster_parabola(seq, m)


def test_depth_beyond_window_guard_is_refused_before_building(monkeypatch):
    # depth 5 has 65,536 points and C(65536, 3) windows, past the search guard
    from abr import constructions

    def forbidden(m, base):
        raise AssertionError("instance built")

    monkeypatch.setattr(constructions, "build_cluster_parabola", forbidden)
    with pytest.raises(TooLargeError, match="windows exceed the dense-table guard"):
        cluster_parabola_sequence(5)


def test_report_json_shapes():
    seq, params, result = cluster_parabola_sequence(2)
    assert set(params.to_json_obj()) == {"m", "base", "x_scale", "steepness", "h_scale"}
    obj = result.to_json_obj()
    assert set(obj) == {"size", "witness", "color", "exhaustive", "nodes_visited", "method"}
    assert params.depth == 2 and len(seq) == 4 and obj["method"] == "monotone-path"


# ------------------------------------------------------------------ cupcap

def test_cupcap_sizes():
    assert len(cupcap_extremal(3)) == 2
    assert len(cupcap_extremal(4)) == 6
    assert len(cupcap_extremal(5)) == 20
    with pytest.raises(InvariantError):
        cupcap_extremal(2)
    with pytest.raises(InvariantError):
        cupcap_extremal("4")
    # C(16, 8) = 12,870 points have more than 2^24 windows
    with pytest.raises(TooLargeError, match="^82812015 windows exceed"):
        cupcap_extremal(10)


@pytest.mark.parametrize("k", range(3, 10))
def test_cupcap_matches_the_all_pairs_slope_rule(k):
    want = serialize_sequence(PlanarSequence(all_pairs_cupcap(k, k)))
    assert serialize_sequence(cupcap_extremal(k)) == want


def test_cupcap_no_collinear_triples():
    for k in (4, 5):
        seq = cupcap_extremal(k)
        assert validate_d_general_position(seq, 2).valid


def test_cupcap_extremal_lengths():
    for k, expected in ((4, 3), (5, 4)):
        seq = cupcap_extremal(k)
        result = longest_monochromatic(divdiff_color_table(seq, 2))
        assert result.exhaustive
        assert result.size == expected


def test_cupcap_4_matches_naive():
    table = divdiff_color_table(cupcap_extremal(4), 2)
    naive_size, _, _ = naive_longest_monochromatic(table)
    assert naive_size == 3


# ------------------------------------------------------------------ random

def test_random_cyclic_instance_deterministic():
    a = random_cyclic_instance(3, 7, 99)
    b = random_cyclic_instance(3, 7, 99)
    c = random_cyclic_instance(3, 7, 100)
    assert a.points == b.points
    assert a.points != c.points


def test_random_cyclic_instance_is_valid():
    rng = seeded(12)
    for _ in range(20):
        d = rng.randrange(2, 5)
        n = rng.randrange(d + 1, d + 5)
        inst = random_cyclic_instance(d, n, rng.randrange(1 << 30))
        assert inst.dimension == d and len(inst) == n
        assert validate_general_position(inst).valid


def test_random_cyclic_instance_validation():
    with pytest.raises(InvariantError):
        random_cyclic_instance(1, 4, 0)
    with pytest.raises(InvariantError):
        random_cyclic_instance(3, 3, 0)
    with pytest.raises(InvariantError):
        random_cyclic_instance(3, 5, "seed")
    with pytest.raises(GenerationFailedError):
        random_cyclic_instance(2, 5, 0, bits=1)  # two distinct values can't seat five


def _scanned_random_instance(d, n, seed, bits, max_retries=64):
    """The generator's draws with each redraw decided by a full
    ``validate_general_position`` scan instead of the key engine."""
    rng = random.Random(seed)
    for _ in range(max_retries):
        ts = _increasing_rationals(rng, n, bits)
        heights = [_random_rational(rng, bits, signed=True) for _ in range(n)]
        lifted = moment_lift(PlanarSequence(tuple(zip(ts, heights))), d)
        if validate_general_position(lifted).valid:
            return lifted
    raise GenerationFailedError(
        f"no nondegenerate instance in {max_retries} redraws (d={d}, n={n}, seed={seed})"
    )


def _outcome(make, *args, **kwargs):
    try:
        return make(*args, **kwargs).points
    except GenerationFailedError as exc:
        return str(exc)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_cyclic_instance_redraws_as_the_general_position_scan(d):
    # byte for byte: the same draws and the same redraws; 2 and 3 bits make
    # degenerate draws common, and draws of n distinct rationals fail; at
    # d = 5 the key pass's cofactors are 4x4 Bareiss determinants and the
    # scan's minors 5x5, and n stops at 12 so the scans of every draw take
    # about a second in all
    sizes = (d + 1, 8, 10, 12) if d == 5 else (d + 1, 8, 12, 16)
    for n, seed, bits in product(sizes, range(12), (2, 3, 16)):
        assert (_outcome(random_cyclic_instance, d, n, seed, bits=bits)
                == _outcome(_scanned_random_instance, d, n, seed, bits)), (n, seed, bits)
