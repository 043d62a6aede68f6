"""Sequence containers, validators, and the JSON wire format."""

import json
from fractions import Fraction

import pytest

from abr import (
    InvariantError,
    LiftedSequence,
    ParseError,
    PlanarSequence,
    TooFewPointsError,
    moment_lift,
    parse_sequence,
    serialize_sequence,
    validate_cyclic_projections,
    validate_d_general_position,
    validate_general_position,
)

from _helpers import rand_planar_tuple, seeded


def lifted_cubic(n, d=3):
    return moment_lift(PlanarSequence(tuple((t, t ** 3) for t in range(n))), d)


def test_planar_sequence_basics():
    p = PlanarSequence(((0, 1), (Fraction(1, 2), -3), (2, 0)))
    assert len(p) == 3
    assert p.points == ((0, 1), (Fraction(1, 2), -3), (2, 0))


def test_planar_sequence_rejects_bad_input():
    with pytest.raises(InvariantError):
        PlanarSequence(())
    with pytest.raises(InvariantError):
        PlanarSequence(((0, 1, 2),))
    with pytest.raises(InvariantError):
        PlanarSequence(((1, 0), (1, 5)))  # ties not allowed
    with pytest.raises(InvariantError):
        PlanarSequence(((2, 0), (1, 5)))  # must increase


def test_lifted_sequence_accessors():
    s = LiftedSequence(3, (((0, 0, 5)), (1, 1, 7), (2, 4, 9)))
    assert len(s) == 3
    assert s.points[1] == (1, 1, 7)
    r = s.reversed()
    assert r.points == ((2, 4, 9), (1, 1, 7), (0, 0, 5))
    assert r.dimension == 3


def test_lifted_sequence_validation():
    with pytest.raises(InvariantError):
        LiftedSequence(1, ((1, 2),))
    with pytest.raises(InvariantError):
        LiftedSequence(3, ((1, 2),))  # wrong arity for d=3
    with pytest.raises(InvariantError):
        LiftedSequence(2, ())


def test_moment_lift_shapes():
    p = PlanarSequence(((0, 4), (1, 5), (3, 6)))
    s2 = moment_lift(p, 2)
    assert s2.dimension == 2
    assert s2.points == ((0, 4), (1, 5), (3, 6))
    s4 = moment_lift(p, 4)
    assert s4.points[2] == (3, 9, 27, 6)
    with pytest.raises(InvariantError):
        moment_lift(p, 1)


def test_validate_cyclic_projections_moment_points():
    s = lifted_cubic(6)
    report = validate_cyclic_projections(s)
    assert report.valid
    assert report.status == "valid"
    assert report.failures == ()


def test_validate_cyclic_projections_reversed():
    # reversal multiplies every d x d minor by (-1)^(d(d-1)/2)
    for d in (2, 3, 4, 5, 6):
        s = lifted_cubic(d + 3, d).reversed()
        report = validate_cyclic_projections(s)
        if d % 4 in (0, 1):
            assert report.valid
            continue
        assert not report.valid
        assert all(reason == "negative_determinant" for _, reason in report.failures)
        assert validate_cyclic_projections(s.reversed()).valid


def test_validate_cyclic_projections_degenerate():
    # two equal projections: some tuple determinant vanishes
    s = LiftedSequence(3, ((0, 0, 0), (1, 1, 1), (1, 1, 5), (3, 9, 2)))
    report = validate_cyclic_projections(s)
    assert not report.valid
    assert any(reason == "zero_determinant" for _, reason in report.failures)


def test_validate_cyclic_projections_budget():
    s = lifted_cubic(9)
    report = validate_cyclic_projections(s, max_tuples=3)
    assert report.status == "unverified"
    assert report.checked == 3


def test_validate_cyclic_projections_too_few():
    with pytest.raises(TooFewPointsError):
        validate_cyclic_projections(LiftedSequence(3, ((0, 0, 0), (1, 1, 1))))


def test_validate_general_position():
    good = lifted_cubic(6)
    assert validate_general_position(good).valid
    flat = moment_lift(PlanarSequence(tuple((t, 0) for t in range(6))), 3)
    report = validate_general_position(flat)
    assert not report.valid
    assert report.failures[0][1] == "zero_determinant"


def test_validate_d_general_position():
    p = PlanarSequence(tuple((t, t ** 3) for t in range(6)))
    assert validate_d_general_position(p, 3).valid
    # a cubic IS degenerate at order 4: every 4th divided difference is 0
    assert not validate_d_general_position(p, 4).valid
    with pytest.raises(TooFewPointsError):
        validate_d_general_position(PlanarSequence(((0, 0), (1, 1))), 3)


def test_serialize_roundtrip_planar():
    rng = seeded(33)
    for _ in range(25):
        p = PlanarSequence(tuple(rand_planar_tuple(rng, 5)))
        data = serialize_sequence(p)
        back = parse_sequence(data)
        assert isinstance(back, PlanarSequence)
        assert back.points == p.points


def test_serialize_roundtrip_lifted():
    s = lifted_cubic(5)
    back = parse_sequence(serialize_sequence(s))
    assert isinstance(back, LiftedSequence)
    assert back.dimension == 3
    assert back.points == s.points


def test_serialize_canonical_bytes():
    p = PlanarSequence(((0, 1), (Fraction(1, 2), Fraction(-2, 3))))
    data = serialize_sequence(p)
    assert data == b'{"kind":"planar","points":[["0/1","1/1"],["1/2","-2/3"]]}\n'


def test_parse_sequence_strictness():
    ok = {"kind": "planar", "points": [["0/1", "1/1"], ["1/1", "2/1"]]}

    def corrupt(**changes):
        bad = {**ok, **changes}
        return json.dumps(bad).encode("utf-8")

    with pytest.raises(ParseError):
        parse_sequence(corrupt(kind="spherical"))
    with pytest.raises(ParseError):
        parse_sequence(corrupt(extra=1))
    with pytest.raises(ParseError):
        parse_sequence(corrupt(dimension=3))  # planar must not carry dimension
    with pytest.raises(ParseError):
        parse_sequence(b'{"kind": "planar"}')
    with pytest.raises(ParseError):
        parse_sequence(corrupt(points=[["0/1", "0.5"], ["1/1", "1/1"]]))
    with pytest.raises(ParseError):
        parse_sequence(corrupt(points="nope"))
    with pytest.raises(ParseError):
        parse_sequence(b"[1, 2]")
    with pytest.raises(ParseError):
        parse_sequence(b"{not json")
    with pytest.raises(ParseError):  # more digits than int() converts
        parse_sequence(b'{"kind": "lifted", "dimension": 1' + b"0" * 5000 + b', "points": []}')
    with pytest.raises(ParseError):
        parse_sequence(b'{"kind": "lifted", "points": [["1/1", "2/1"]]}')
    # planar extra: non-increasing abscissas surface as InvariantError
    with pytest.raises(InvariantError):
        parse_sequence(corrupt(points=[["1/1", "0/1"], ["0/1", "1/1"]]))


def test_parse_lifted_dimension_checks():
    with pytest.raises(ParseError):
        parse_sequence(
            b'{"kind": "lifted", "dimension": "3", "points": [["0/1","0/1","0/1"]]}'
        )
    s = parse_sequence(
        b'{"kind":"lifted","dimension":2,"points":[["0/1","5/1"],["1/1","6/1"]]}'
    )
    assert s.dimension == 2
    assert s.points[1][-1] == 6
