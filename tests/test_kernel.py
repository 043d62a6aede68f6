"""The integer sign kernel against the Fraction reference oracles."""

from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from abr import (
    Color,
    DegenerateInputError,
    LiftedSequence,
    Matrix,
    PlanarSequence,
    ValidationReport,
    build_cluster_parabola,
    color_by_determinant,
    complementary_minors,
    det,
    divided_difference,
    moment_lift,
    one_switch_certificate,
    random_cyclic_instance,
    validate_cyclic_projections,
    validate_d_general_position,
    validate_general_position,
)
from abr.linalg import SignKernel
from abr.sequences import moment_coordinates

from _helpers import det_cofactor, rand_fraction, rand_planar_tuple, seeded

F = Fraction


def sign(value):
    return (value > 0) - (value < 0)


def moment_kernel(points, d):
    """The kernel of the moment-lift columns (1, t, ..., t^(d-1), h)."""
    return SignKernel(moment_coordinates(points, d))


def lifted_matrix(points):
    d = len(points[0])
    return Matrix(tuple([tuple(1 for _ in points)]
                        + [tuple(pt[c] for pt in points) for c in range(d)]))


def reference_scan(n, r, value, zero_reason, negative_reason, max_failures=16,
                   max_tuples=None):
    """The validators' contract, written out per tuple over Fraction values."""
    failures, checked = [], 0
    for tup in combinations(range(n), r):
        if max_tuples is not None and checked >= max_tuples:
            if failures:
                break
            return ValidationReport("unverified", (), checked)
        checked += 1
        v = value(tup)
        if v > 0:
            continue
        if v == 0:
            failures.append((tup, zero_reason))
        elif negative_reason:
            failures.append((tup, negative_reason))
        else:
            continue
        if len(failures) >= max_failures:
            break
    if not failures:
        return ValidationReport("valid", (), checked)
    return ValidationReport("invalid", tuple(failures), checked)


def reference_reports(s, **kw):
    d = s.dimension
    cyclic = reference_scan(
        len(s), d, lambda tup: det(lifted_matrix([s.points[i][:-1] for i in tup])),
        "zero_determinant", "negative_determinant", **kw)
    general = reference_scan(
        len(s), d + 1, lambda tup: det(lifted_matrix([s.points[i] for i in tup])),
        "zero_determinant", None, **kw)
    return cyclic, general


# ------------------------------------------------------------ kernel signs

def test_kernel_matches_divided_difference_on_em3_quadruples():
    seq, _ = build_cluster_parabola(3, 2)
    kernel = moment_kernel(seq.points, 3)
    for tup in combinations(range(len(seq)), 4):
        want = divided_difference([seq.points[i] for i in tup])
        assert sign(kernel.value(tup)) == sign(want)


def test_kernel_matches_divided_difference_on_random_tuples():
    rng = seeded(2024)
    for order in range(1, 6):
        for _ in range(60):
            pts = rand_planar_tuple(rng, order + 1, bits=10)
            if rng.random() < 0.2:
                # heights of a polynomial of degree < order: divided difference 0
                coeffs = [rand_fraction(rng, 6) for _ in range(order)]
                pts = [(t, sum(c * t ** k for k, c in enumerate(coeffs))) for t, _ in pts]
            kernel = moment_kernel(pts, order)
            assert sign(kernel.value(tuple(range(order + 1)))) == sign(divided_difference(pts))


def test_kernel_zero_divided_difference():
    # order 3 on a quadratic: every quadruple vanishes
    pts = [(F(t), F(t * t, 3)) for t in (-2, 0, 1, 5, 7)]
    kernel = moment_kernel(pts, 3)
    for tup in combinations(range(5), 4):
        assert kernel.value(tup) == 0


def test_kernel_matches_divided_difference_on_em4_window():
    # a 12-point window of the depth-4 instance: heights of about 190 bits
    window = build_cluster_parabola(4, 2)[0].points[120:132]
    kernel = moment_kernel(window, 3)
    for tup in combinations(range(12), 4):
        want = divided_difference([window[i] for i in tup])
        assert sign(kernel.value(tup)) == sign(want)


def test_kernel_matches_determinant_oracle_on_lifted_instances():
    rng = seeded(5150)
    for d in (2, 3, 4, 5):
        for _ in range(6):
            inst = random_cyclic_instance(d, d + 3, rng.randrange(1 << 30), bits=12)
            for tup in combinations(range(len(inst)), d + 1):
                pts = [inst.points[i] for i in tup]
                value = inst.kernel.value(tup)
                want = Color.POSITIVE if value > 0 else Color.NEGATIVE
                assert color_by_determinant(pts) is want


def test_kernel_value_is_scaled_determinant():
    rng = seeded(77)
    for d in (2, 3, 4):
        pts = [tuple(rand_fraction(rng, 9) for _ in range(d)) for _ in range(d + 1)]
        kernel = SignKernel(pts)
        scale = 1
        for column in kernel.columns:
            scale *= column[0]
        assert Fraction(kernel.value(tuple(range(d + 1))), scale) == det(lifted_matrix(pts))


def test_kernel_cache_is_bounded(monkeypatch):
    inst = random_cyclic_instance(2, 12, 3)
    monkeypatch.setattr(SignKernel, "max_cached", 5)
    kernel = SignKernel(inst.points)
    for tup in combinations(range(12), 3):
        assert kernel.value(tup) == inst.kernel.value(tup)
    assert len(kernel.minors) == 5


def test_cofactors_expand_the_determinant_along_the_new_column():
    # c . u, u on the rows other than r, is det of those rows of [u, M],
    # for every row r and random integer u
    rng = seeded(3131)
    for d in range(2, 7):
        for _ in range(4):
            kernel = SignKernel([tuple(rand_fraction(rng, 8) for _ in range(d))
                                 for _ in range(d + 3)])
            middle = tuple(sorted(rng.sample(range(d + 3), d - 1)))
            for r in range(d + 1):
                c = kernel.cofactors(middle, r)
                assert len(c) == d
                for _ in range(3):
                    u = [rng.randrange(-1000, 1001) for _ in range(d + 1)]
                    rows = [[u[q]] + [kernel.columns[m][q] for m in middle]
                            for q in range(d + 1) if q != r]
                    kept = [u[q] for q in range(d + 1) if q != r]
                    assert sum(a * b for a, b in zip(c, kept)) == det_cofactor(rows)


def test_pair_minors_are_scaled_complementary_minors():
    # cyclic, reversed, flat (every lifted determinant 0), with a repeated
    # projection (zero minors) and random (minors of either sign)
    rng = seeded(1414)
    for d in (2, 3, 4):
        n = d + 4
        cyclic = random_cyclic_instance(d, n, rng.randrange(1 << 30), bits=9)
        points = list(cyclic.points)
        points[2] = points[1][:-1] + (points[2][-1],)
        flat = moment_lift(PlanarSequence(tuple((F(t), F(0)) for t in range(n))), d)
        loose = LiftedSequence(d, tuple(tuple(rand_fraction(rng, 7) for _ in range(d))
                                        for _ in range(n)))
        for s in (cyclic, cyclic.reversed(), flat, LiftedSequence(d, tuple(points)), loose):
            scales = [column[0] for column in s.kernel.columns]
            for tup in combinations(range(n), d + 2):
                projection = lifted_matrix([s.points[i] for i in tup]).entries[:-1]
                want = complementary_minors(Matrix(projection))
                got = s.kernel.pair_minors(tup)
                assert list(got) == list(want)
                for (a, b), minor in want.items():
                    kept = [i for j, i in enumerate(tup) if j not in (a, b)]
                    assert got[(a, b)] == minor * prod(scales[i] for i in kept)


# -------------------------------------------------------------- validators

def moment_cubic(n, d=3):
    return moment_lift(PlanarSequence(tuple((t, t ** 3) for t in range(n))), d)


@pytest.mark.parametrize("make", [
    lambda: moment_cubic(7),
    lambda: moment_cubic(7).reversed(),
    lambda: moment_lift(PlanarSequence(tuple((t, 0) for t in range(6))), 3),
    lambda: moment_lift(PlanarSequence(tuple((t, t * t) for t in range(7))), 4),
    lambda: LiftedSequence(3, ((0, 0, 0), (1, 1, 1), (1, 1, 5), (3, 9, 2), (4, 16, 7))),
    lambda: LiftedSequence(3, ((0, 0, 1), (1, 1, 2), (3, 9, 3), (2, 4, 4), (5, 25, 0))),
    lambda: random_cyclic_instance(4, 9, 12345, bits=6),
], ids=["moment", "reversed", "flat", "quadratic-d4", "repeated-projection", "mixed",
        "random-d4"])
def test_validators_match_determinant_reference(make):
    s = make()
    for kw in ({}, {"max_failures": 2}, {"max_tuples": 3}, {"max_tuples": 40},
               {"max_failures": 1, "max_tuples": 7}):
        cyclic, general = reference_reports(s, **kw)
        assert validate_cyclic_projections(s, **kw) == cyclic
        assert validate_general_position(s, **kw) == general


def test_d_general_position_matches_divided_difference_reference():
    planar = [
        PlanarSequence(tuple((t, t ** 3) for t in range(7))),
        PlanarSequence(tuple((t, (t - 3) ** 2) for t in range(-2, 6))),
        PlanarSequence(tuple(rand_planar_tuple(seeded(8), 9, bits=5))),
    ]
    for p in planar:
        for order in (1, 2, 3, 4):
            for kw in ({}, {"max_failures": 3}, {"max_tuples": 5}):
                want = reference_scan(
                    len(p), order + 1,
                    lambda tup: divided_difference([p.points[i] for i in tup]),
                    "zero_divided_difference", None, **kw)
                assert validate_d_general_position(p, order, **kw) == want


def test_capped_scan_builds_minors_lazily():
    s = moment_cubic(400)
    cap = 2000
    assert validate_cyclic_projections(s, max_tuples=cap).status == "unverified"
    assert validate_general_position(s, max_tuples=cap).status == "unverified"
    assert len(s.kernel.minors) <= 4 * cap < comb(400, 3)


# ----------------------------------------------------------- one-switch

def test_one_switch_fields_match_matrix_reference():
    rng = seeded(8080)
    for _ in range(40):
        d = rng.randrange(2, 6)
        inst = random_cyclic_instance(d, d + 2, rng.randrange(1 << 30), bits=9)
        pts = list(inst.points)
        cert = one_switch_certificate(pts, allow_zero=True)
        lifted = lifted_matrix(pts)
        projection = Matrix(lifted.entries[:-1])
        minors = complementary_minors(projection)
        d_values = tuple(det(lifted.delete_columns(j)) for j in range(d + 2))
        ratios = tuple(minors[(j, d + 1)] / minors[(0, j)] for j in range(1, d + 1))
        assert cert.minors == minors
        assert cert.d_values == d_values
        assert cert.ratios == ratios
        nonzero = [v > 0 for v in d_values if v != 0]
        assert cert.switch_count == sum(a != b for a, b in zip(nonzero, nonzero[1:]))
        assert cert.zero_positions == tuple(j for j, v in enumerate(d_values) if v == 0)


def test_one_switch_degenerate_messages_unchanged():
    flat = [(F(t), F(t * t), F(0)) for t in range(5)]
    with pytest.raises(DegenerateInputError, match=r"^deletion determinant D_0 vanishes$"):
        one_switch_certificate(flat)
    twisted = [(F(0), F(0)), (F(2), F(1)), (F(1), F(5)), (F(3), F(2))]
    with pytest.raises(DegenerateInputError,
                       match=r"^projection minor delta\[0,3\] is negative"):
        one_switch_certificate(twisted)
