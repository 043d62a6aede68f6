"""Color oracles, Radon certificates, divided differences, one-switch."""

from fractions import Fraction
from itertools import combinations

import pytest

from abr import (
    Color,
    DegenerateInputError,
    IdentityViolationError,
    InvariantError,
    LazyDivdiffColors,
    PlanarSequence,
    TooFewPointsError,
    WrongOrientationError,
    build_cluster_parabola,
    color_by_crossing,
    color_by_determinant,
    color_by_heights,
    color_table,
    divdiff_color_table,
    divided_difference,
    moment_lift,
    one_switch_certificate,
    radon_certificate,
    random_cyclic_instance,
    validate_d_general_position,
    vandermonde_divdiff_residual,
)

from _helpers import divdiff_closed, every_read, kernel_divdiff_table, rand_planar_tuple, seeded

F = Fraction


def moment_points(ts, hs, d):
    return [tuple(t ** k for k in range(1, d)) + (h,) for t, h in zip(ts, hs)]


# ------------------------------------------------------------------ radon

def test_radon_square_frozen():
    # unit square in R^2: diagonals cross in the middle, all weights 1/2
    zs = [(0, 0), (1, 0), (1, 1), (0, 1)]
    cert = radon_certificate(zs)
    assert cert.lam == (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert cert.point == (F(1, 2), F(1, 2))
    assert cert.even_part == (0, 2)
    assert cert.odd_part == (1, 3)


def test_radon_segment_frozen():
    # d=2: three collinear reals 0 < 1 < 3; middle point splits the hull
    cert = radon_certificate([(0,), (1,), (3,)])
    assert cert.lam == (F(2, 3), F(1), F(1, 3))
    assert cert.point == (F(1),)


def test_radon_convexity_of_weights():
    rng = seeded(606)
    for _ in range(60):
        d = rng.randrange(2, 5)
        inst = random_cyclic_instance(d, d + 1, rng.randrange(1 << 30))
        zs = [p[:-1] for p in inst.points]
        cert = radon_certificate(zs)
        assert sum(cert.lam[j] for j in cert.even_part) == 1
        assert sum(cert.lam[j] for j in cert.odd_part) == 1
        assert all(w > 0 for w in cert.lam)
        # the point comes from the even block; the odd block reaches it too
        odd = tuple(sum(cert.lam[j] * zs[j][c] for j in cert.odd_part) for c in range(d - 1))
        assert odd == cert.point


def test_radon_rejects_reversal_and_degeneracy():
    with pytest.raises(WrongOrientationError):
        radon_certificate([(3,), (1,), (0,)])
    with pytest.raises(DegenerateInputError):
        radon_certificate([(0, 0), (1, 1), (2, 2), (3, 3)])  # collinear in R^2
    with pytest.raises(InvariantError):
        radon_certificate([(0,), (1,)])


# ----------------------------------------------------------------- oracles

def test_color_frozen_examples_d2():
    cap = [(F(0), F(0)), (F(1), F(1)), (F(2), F(0))]
    cup = [(F(0), F(0)), (F(1), F(-1)), (F(2), F(0))]
    assert color_by_determinant(cap) is Color.NEGATIVE
    assert color_by_determinant(cup) is Color.POSITIVE
    pair, c = color_by_heights(cap)
    assert (pair.h_even, pair.h_odd) == (0, 1) and c is Color.NEGATIVE
    _, c = color_by_heights(cup)
    assert c is Color.POSITIVE


def test_color_frozen_examples_d3():
    # moment lift of t -> t^3 at 0,1,2,3: reference orientation, positive
    pts = moment_points((0, 1, 2, 3), (0, 1, 8, 27), 3)
    pair, c = color_by_heights(pts)
    assert pair == (F(6), F(15, 2))
    assert c is Color.POSITIVE
    assert color_by_determinant(pts) is Color.POSITIVE
    assert color_by_crossing(pts) is Color.POSITIVE

    square = [(0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0)]
    assert color_by_determinant(square) is Color.NEGATIVE
    assert color_by_heights(square)[1] is Color.NEGATIVE
    assert color_by_crossing(square) is Color.NEGATIVE


def test_oracles_agree_on_random_instances():
    rng = seeded(7311)
    for _ in range(150):
        d = rng.randrange(2, 5)
        inst = random_cyclic_instance(d, d + 1, rng.randrange(1 << 30), bits=10)
        pts = list(inst.points)
        _, by_heights = color_by_heights(pts)
        by_det = color_by_determinant(pts)
        assert by_heights is by_det
        if d == 3:
            assert color_by_crossing(pts) is by_det


def test_color_degenerate_inputs():
    flat = moment_points((0, 1, 2, 3), (0, 0, 0, 0), 3)
    with pytest.raises(DegenerateInputError):
        color_by_heights(flat)
    with pytest.raises(DegenerateInputError):
        color_by_determinant(flat)
    with pytest.raises(DegenerateInputError):
        color_by_crossing(flat)


def test_crossing_needs_cyclic_projections():
    pts = moment_points((0, 1, 2, 3), (0, 1, 8, 27), 3)
    with pytest.raises(WrongOrientationError):
        color_by_crossing(list(reversed(pts)))


def test_reversal_flips_or_keeps_color_by_parity():
    # reversing d+1 columns multiplies the determinant by (-1)^((d+1)d/2)
    rng = seeded(4488)
    for _ in range(60):
        d = rng.randrange(2, 6)
        inst = random_cyclic_instance(d, d + 1, rng.randrange(1 << 30), bits=8)
        pts = list(inst.points)
        fwd = color_by_determinant(pts)
        rev = color_by_determinant(list(reversed(pts)))
        if (d + 1) * d // 2 % 2:
            assert rev is fwd.flipped()
        else:
            assert rev is fwd


# ------------------------------------------------------- divided differences

def test_divided_difference_frozen():
    assert divided_difference([(0, 0), (1, 1), (2, 8), (3, 27)]) == 1
    assert divided_difference([(0, 0), (1, 1), (2, 4), (3, 27)]) == 3
    assert divided_difference([(0, 5), (7, 5)]) == 0
    assert divided_difference([(F(1, 2), F(3, 4))], order=0) == F(3, 4)
    # order-3 difference of a quadratic vanishes
    assert divided_difference([(t, t * t) for t in (0, 2, 5, 9)]) == 0


def test_divided_difference_validation():
    with pytest.raises(InvariantError):
        divided_difference([(0, 0), (0, 1)])
    with pytest.raises(InvariantError):
        divided_difference([(0, 0), (1, 1)], order=3)
    with pytest.raises(InvariantError):
        divided_difference([])


def test_divided_difference_leading_coefficient():
    # interpolating an actual cubic recovers its leading coefficient at any nodes
    rng = seeded(86)
    for _ in range(50):
        coeffs = [F(rng.randrange(-20, 21), rng.randrange(1, 9)) for _ in range(4)]
        ts = sorted(rng.sample(range(-30, 30), 4))
        pts = [(t, sum(c * t ** k for k, c in enumerate(coeffs))) for t in ts]
        assert divided_difference(pts) == coeffs[3]
    # and equals the closed Lagrange form at orders 0-6 on rational nodes
    for _ in range(60):
        pts = rand_planar_tuple(rng, rng.randrange(1, 8))
        assert divided_difference(pts) == divdiff_closed(pts)


def test_divided_difference_is_polynomial_in_the_order():
    # order 40 on rational nodes: the recursion is one Newton table, where
    # evaluating both halves at every level would take 2^40 steps
    ts = [F(k * k + 1, k + 2) for k in range(41)]
    assert divided_difference([(t, t ** 40 - 7 * t ** 39) for t in ts], order=40) == 1
    assert divided_difference([(t, 5 * t ** 39 + 3) for t in ts]) == 0


def test_vandermonde_divdiff_residual_zero():
    rng = seeded(55)
    for _ in range(100):
        count = rng.randrange(2, 7)
        assert vandermonde_divdiff_residual(rand_planar_tuple(rng, count)) == 0


def test_lifted_color_equals_divdiff_sign():
    rng = seeded(9119)
    for _ in range(100):
        d = rng.randrange(2, 6)
        pts = rand_planar_tuple(rng, d + 1)
        delta = divided_difference(pts)
        if delta == 0:
            continue
        lifted = moment_lift(PlanarSequence(tuple(pts)), d)
        want = Color.POSITIVE if delta > 0 else Color.NEGATIVE
        assert color_by_determinant(list(lifted.points)) is want


# ------------------------------------------------------------- one-switch

def test_one_switch_worked_example():
    pts = [(F(0), F(0)), (F(1), F(1)), (F(2), F(3, 2)), (F(3), F(3))]
    cert = one_switch_certificate(pts, allow_zero=True)
    assert cert.d_values == (F(1), F(3, 2), F(0), F(-1, 2))
    assert cert.zero_positions == (2,)
    assert cert.switch_count == 1
    assert cert.ratios == (F(2), F(1, 2))
    assert cert.minors[(0, 1)] == 1 and cert.minors[(0, 3)] == 1
    # without the flag the vanishing deletion determinant is an error
    with pytest.raises(DegenerateInputError):
        one_switch_certificate(pts)


def test_one_switch_identity_recompute():
    rng = seeded(321)
    for _ in range(80):
        d = rng.randrange(2, 5)
        inst = random_cyclic_instance(d, d + 2, rng.randrange(1 << 30), bits=8)
        cert = one_switch_certificate(list(inst.points), allow_zero=True)
        dv, delta = cert.d_values, cert.minors
        for j in range(1, d + 1):
            lhs = dv[j] * delta[(0, d + 1)]
            rhs = dv[0] * delta[(j, d + 1)] + dv[d + 1] * delta[(0, j)]
            assert lhs == rhs
        assert cert.switch_count <= 1
        assert all(a > b for a, b in zip(cert.ratios, cert.ratios[1:]))
        assert all(m > 0 for m in delta.values())


def test_one_switch_requires_cyclic_projections():
    pts = [(F(t), F(t ** 3)) for t in (3, 2, 1, 0)]
    with pytest.raises((DegenerateInputError, WrongOrientationError)):
        one_switch_certificate(pts)


# ----------------------------------------------------------------- tables

def test_color_table_matches_per_tuple_oracle():
    inst = random_cyclic_instance(3, 8, 424242)
    table = color_table(inst)
    assert (table.n, table.r) == (8, 4)
    for tup, col in table:
        assert color_by_determinant([inst.points[i] for i in tup]) is col


def test_color_table_degenerate_witness():
    flat = moment_lift(PlanarSequence(tuple((t, 0) for t in range(5))), 3)
    with pytest.raises(DegenerateInputError) as info:
        color_table(flat)
    assert info.value.witness == (0, 1, 2, 3)


def test_divdiff_color_table_and_lazy_agree():
    rng = seeded(777)
    pts = rand_planar_tuple(rng, 9)
    seq = PlanarSequence(tuple(pts))
    dense = divdiff_color_table(seq, 3)
    lazy = LazyDivdiffColors(seq, 3)
    assert (lazy.n, lazy.r) == (dense.n, dense.r)
    for tup, col in dense:
        assert lazy.color(tup) is col
        assert lazy.color(tup) is col  # second read, from the kernel's kept minors


def test_lazy_colors_match_dense_on_em_and_name_degenerate_witness():
    seq, _ = build_cluster_parabola(3, 2)
    lazy = LazyDivdiffColors(seq, 3)
    dense = divdiff_color_table(seq, 3)
    for tup, col in dense:
        assert lazy.color(tup) is col
        assert lazy.color(tup) is col
    with pytest.raises(DegenerateInputError) as info:
        LazyDivdiffColors(PlanarSequence(tuple((t, t * t) for t in range(6))), 3).color(
            (1, 2, 4, 5))
    assert info.value.witness == (1, 2, 4, 5)


def test_lazy_table_matches_the_kernel_table_color_by_color_and_row_by_row():
    # random, em-3 and small-integer planar inputs; the small integers tie
    # often, so some inputs are degenerate at every order
    rng = seeded(2024)
    inputs = [PlanarSequence(tuple(rand_planar_tuple(rng, 8))) for _ in range(3)]
    inputs.append(build_cluster_parabola(3, 2)[0])
    for _ in range(6):
        ts = sorted(rng.sample(range(-5, 9), 8))
        inputs.append(PlanarSequence(tuple((t, rng.randint(-2, 2)) for t in ts)))
    for order in range(1, 5):
        degenerate = 0
        for seq in inputs:
            got = every_read(LazyDivdiffColors(seq, order))
            try:
                table = kernel_divdiff_table(seq, order)
            except DegenerateInputError as exc:
                degenerate += 1
                assert got == [(str(exc), exc.witness)] * 2
            else:
                full = (1 << table.n) - 1
                assert got == [dict(table), {q: table.positive_among(q, full)
                                             for q in combinations(range(table.n), order)}]
        assert 0 < degenerate < len(inputs)


def test_bad_planar_shapes_are_refused_before_any_power(monkeypatch):
    from abr import paths, sequences

    def forbidden(points, order):
        raise AssertionError(f"powers of t formed for order {order}")

    monkeypatch.setattr(sequences, "moment_coordinates", forbidden)
    monkeypatch.setattr(paths, "_window_keys", forbidden)
    seq = PlanarSequence(tuple((t, t * t) for t in range(5)))
    for order in (0, 3000):
        for build in (LazyDivdiffColors, divdiff_color_table):
            with pytest.raises(InvariantError) as info:
                build(seq, order)
            assert str(info.value) == f"need integer n >= r >= 2, got n=5, r={order + 1}"
    with pytest.raises(TooFewPointsError) as info:
        validate_d_general_position(seq, 3000)
    assert str(info.value) == "need at least 3001 points, got 5"


def test_divdiff_table_matches_lifted_table():
    rng = seeded(31337)
    pts = rand_planar_tuple(rng, 7)
    seq = PlanarSequence(tuple(pts))
    lifted = moment_lift(seq, 3)
    assert list(divdiff_color_table(seq, 3)) == list(color_table(lifted))
