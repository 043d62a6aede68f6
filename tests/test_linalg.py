"""Exact linear algebra: determinants, kernels, complementary minors."""

from fractions import Fraction

import pytest

from abr import (
    BadIndicesError,
    BadShapeError,
    InvariantError,
    Matrix,
    NonSquareError,
    ParseError,
    TooLargeError,
    as_fraction,
    complementary_minors,
    det,
    format_rational,
    parse_rational,
    plucker_residual,
    signed_minor_kernel,
)

from _helpers import det_cofactor, rand_matrix, seeded


def test_vandermonde_4x4_frozen():
    # Hand value: product of pairwise differences of 0,1,2,3 = 1*2*3*1*2*1 = 12.
    m = Matrix(tuple(tuple(t ** k for t in (0, 1, 2, 3)) for k in range(4)))
    assert det(m) == 12


def test_det_small_frozen():
    assert det(Matrix(((Fraction(5),),))) == 5
    assert det(Matrix(((1, 2), (3, 4)))) == -2
    assert det(Matrix(((0, 1), (1, 0)))) == -1
    assert det(Matrix(tuple(tuple(int(i == j) for j in range(5)) for i in range(5)))) == 1


def test_det_singular():
    assert det(Matrix(((1, 2), (2, 4)))) == 0
    assert det(Matrix(((1, 1, 1), (2, 2, 2), (0, 5, 7)))) == 0
    # a column of zeros kills the pivot hunt entirely
    assert det(Matrix(((0, 1), (0, 2)))) == 0


def test_det_matches_cofactor_oracle():
    rng = seeded(4021)
    for _ in range(300):
        n = rng.randrange(1, 6)
        m = rand_matrix(rng, n, n, bits=6)
        assert det(m) == det_cofactor([list(r) for r in m.entries])


def test_det_rational_scaling():
    # column denominators are cleared exactly, not approximately
    m = Matrix(((Fraction(1, 3), Fraction(1, 7)), (Fraction(2, 5), Fraction(3, 11))))
    assert det(m) == Fraction(1, 3) * Fraction(3, 11) - Fraction(1, 7) * Fraction(2, 5)


def test_det_requires_square():
    with pytest.raises(NonSquareError):
        det(Matrix(((1, 2, 3), (4, 5, 6))))


def test_signed_minor_kernel_frozen():
    k = signed_minor_kernel(Matrix(((1, 1, 1), (0, 1, 2))))
    assert k == (Fraction(1), Fraction(-2), Fraction(1))


def test_signed_minor_kernel_is_kernel():
    rng = seeded(915)
    for _ in range(120):
        n = rng.randrange(1, 6)
        m = rand_matrix(rng, n, n + 1, bits=6)
        kern = signed_minor_kernel(m)
        assert m.mul_vector(kern) == tuple(Fraction(0) for _ in range(n))


def test_signed_minor_kernel_shape():
    with pytest.raises(BadShapeError):
        signed_minor_kernel(Matrix(((1, 2, 3),)))


def test_complementary_minors_moment_frozen():
    q = Matrix(((1, 1, 1, 1), (0, 1, 2, 3)))
    delta = complementary_minors(q)
    # delta_(0,1) keeps columns 2,3 -> det [[1,1],[2,3]] = 1
    assert delta[(0, 1)] == 1
    assert delta[(0, 3)] == 1
    assert delta[(1, 3)] == 2
    assert delta[(0, 2)] == 2
    assert set(delta) == {(a, b) for a in range(4) for b in range(4) if a < b}


def test_complementary_minors_square_example_frozen():
    q = Matrix(((1, 0, 1, 1), (0, 1, 1, 2)))
    delta = complementary_minors(q)
    assert delta[(0, 1)] == 1
    assert delta[(0, 2)] == -1
    assert delta[(0, 3)] == -1
    assert delta[(1, 2)] == 2
    assert delta[(1, 3)] == 1
    assert delta[(2, 3)] == 1


def test_plucker_residual_zero_everywhere():
    rng = seeded(77)
    for _ in range(200):
        n = rng.randrange(2, 6)
        m = rand_matrix(rng, n, n + 2, bits=6)
        quad = tuple(sorted(rng.sample(range(n + 2), 4)))
        assert plucker_residual(m, quad) == 0


def test_plucker_residual_bad_indices():
    m = rand_matrix(seeded(1), 2, 4, bits=4)
    with pytest.raises(BadIndicesError):
        plucker_residual(m, (0, 1, 1, 3))
    with pytest.raises(BadIndicesError):
        plucker_residual(m, (0, 1, 2, 4))
    with pytest.raises(BadIndicesError):
        plucker_residual(m, (2, 1, 0, 3))


def test_delete_columns():
    m = Matrix(((1, 2, 3), (4, 5, 6)))
    assert m.delete_columns(1).entries == ((1, 3), (4, 6))
    assert m.delete_columns(0, 2).entries == ((2,), (5,))
    with pytest.raises(BadIndicesError):
        m.delete_columns(3)
    with pytest.raises(BadIndicesError):
        m.delete_columns(1, 1)


def test_matrix_validation():
    with pytest.raises(InvariantError):
        Matrix(((1, 2), (3,)))
    with pytest.raises(InvariantError):
        Matrix(())
    with pytest.raises(InvariantError):
        Matrix(((1.5, 2), (3, 4)))


def test_as_fraction_rejects_floats():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("7/2") == Fraction(7, 2)
    with pytest.raises(InvariantError):
        as_fraction(0.5)


def test_parse_format_rational_roundtrip():
    rng = seeded(5150)
    for _ in range(200):
        value = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 1000))
        assert parse_rational(format_rational(value)) == value
    assert parse_rational("4") == 4
    assert parse_rational("-9/3") == -3
    assert format_rational(Fraction(-9, 3)) == "-3/1"


def test_parse_rational_rejects_garbage():
    for bad in ("", "1.5", "1/0", "1/-2", "a/b", "1 / 2", "+ 3", "0x10",
                "\u0661", "1/\u0663", "3\n", "1" * 5000, "1/" + "7" * 5000):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_format_rational_refuses_over_long_output():
    for value in (Fraction(10 ** 5000), Fraction(1, 3 ** 10000)):
        with pytest.raises(TooLargeError, match="more than 4300 digits"):
            format_rational(value)
