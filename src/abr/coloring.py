"""Above-below colorings of lifted point tuples, exactly.

Take d+1 points x_i = (z_i, h_i) in R^d whose projections z_i are cyclically
ordered.  The projections split into even- and odd-indexed points whose
convex hulls intersect in a single projected point rho (the alternating
Radon partition); each side assigns rho a lifted height by interpolation.
The tuple's color is positive exactly when

    (-1)^d * (H_even - H_odd) > 0,

and this coincides with the sign of the (d+1) x (d+1) determinant whose
columns are (1, z_i, h_i).  Both oracles are implemented, plus a third one
for d = 3 that intersects the two diagonals of the projected quadrilateral
and compares interpolated heights at the crossing: the same rule says the
color is positive exactly when the even diagonal passes below the odd one.

The planar counterpart: for points (t_i, h_i) on the d-dimensional moment
curve the determinant factors as Vandermonde(t) * [order-d divided
difference of h], so the color equals the divided-difference sign.

The oracles and ``divided_difference`` are the Fraction references.  The
table builders, ``LazyDivdiffColors`` (which memoizes colors) and the
one-switch certificate take their signs from the integer kernel of
``linalg`` instead, with no ``divided_difference`` call per tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from typing import NamedTuple

from .errors import (
    BadShapeError,
    DegenerateInputError,
    IdentityViolationError,
    InvariantError,
    WrongOrientationError,
)
from .linalg import (
    Matrix,
    MomentKernel,
    SignKernel,
    as_fraction,
    cleared_column,
    det,
    signed_minor_kernel,
)
from .sequences import LiftedSequence, PlanarSequence
from .tables import Color, ColoringTable, _rank


class HeightPair(NamedTuple):
    """Interpolated heights of the even and odd interpolation over the
    shared projected point."""

    h_even: Fraction
    h_odd: Fraction


@dataclass(frozen=True)
class RadonCertificate:
    """Alternating Radon partition of d+1 cyclically ordered projections.

    ``lam`` holds one positive coefficient per point, normalized so the even
    block sums to 1 (the odd block then does too); ``point`` is the common
    convex combination of either block."""

    lam: tuple
    point: tuple
    even_part: tuple
    odd_part: tuple


def _normalize_points(points, expect_len=None):
    pts = [tuple(as_fraction(x) for x in pt) for pt in points]
    if not pts:
        raise InvariantError("no points given")
    width = len(pts[0])
    if any(len(pt) != width for pt in pts):
        raise InvariantError("points have mixed dimensions")
    if expect_len is not None and len(pts) != expect_len:
        raise InvariantError(f"expected {expect_len} points, got {len(pts)}")
    return pts


def radon_certificate(zs):
    """Radon partition of d+1 points in R^(d-1) with cyclic order type.

    The kernel of the d x (d+1) matrix with columns (1, z_j) is spanned by
    the signed column-deleted minors; when all plain minors are positive the
    kernel vector alternates in sign, so even and odd positions form the two
    Radon blocks and the minors themselves are the weights.
    """
    zs = _normalize_points(zs)
    d = len(zs) - 1
    if len(zs[0]) != d - 1:
        raise InvariantError(
            f"{len(zs)} projections must live in R^{len(zs) - 1 - 1}, got R^{len(zs[0])}"
        )
    mat = Matrix(tuple([tuple(1 for _ in zs)] + [
        tuple(z[coord] for z in zs) for coord in range(d - 1)
    ]))
    kernel = signed_minor_kernel(mat)
    minors = [k if j % 2 == 0 else -k for j, k in enumerate(kernel)]
    zeros = [j for j, m in enumerate(minors) if m == 0]
    if zeros:
        raise DegenerateInputError(
            f"projection minor vanishes when deleting position {zeros[0]}",
            witness=tuple(zeros),
        )
    if all(m < 0 for m in minors):
        raise WrongOrientationError(
            "all projection minors are negative; projections are not cyclically ordered"
        )
    if any(m < 0 for m in minors):
        raise WrongOrientationError(
            "projection minors have mixed signs; projections are not cyclically ordered"
        )
    even = tuple(range(0, d + 1, 2))
    odd = tuple(range(1, d + 1, 2))
    total_even = sum(minors[j] for j in even)
    lam = tuple(m / total_even for m in minors)
    dim = len(zs[0])
    point = tuple(
        sum(lam[j] * zs[j][coord] for j in even) for coord in range(dim)
    )
    other = tuple(
        sum(lam[j] * zs[j][coord] for j in odd) for coord in range(dim)
    )
    if point != other:
        raise IdentityViolationError("Radon point differs between the two blocks")
    return RadonCertificate(lam, point, even, odd)


def color_by_heights(points):
    """Height-comparison oracle: returns (HeightPair, Color)."""
    pts = _normalize_points(points)
    d = len(pts[0])
    if len(pts) != d + 1:
        raise InvariantError(f"need d+1 = {d + 1} points in R^{d}, got {len(pts)}")
    cert = radon_certificate([pt[:-1] for pt in pts])
    h_even = sum(cert.lam[j] * pts[j][-1] for j in cert.even_part)
    h_odd = sum(cert.lam[j] * pts[j][-1] for j in cert.odd_part)
    diff = h_even - h_odd
    if diff == 0:
        raise DegenerateInputError("even and odd heights coincide over the Radon point")
    if d % 2 == 1:
        diff = -diff
    color = Color.POSITIVE if diff > 0 else Color.NEGATIVE
    return HeightPair(h_even, h_odd), color


def color_by_determinant(points):
    """Determinant oracle: sign of det with columns (1, z_i, h_i).

    Assumes the projections are cyclically ordered (callers validate the
    whole sequence once); raises only on a vanishing determinant.
    """
    pts = _normalize_points(points)
    d = len(pts[0])
    if len(pts) != d + 1:
        raise InvariantError(f"need d+1 = {d + 1} points in R^{d}, got {len(pts)}")
    mat = Matrix(tuple([tuple(1 for _ in pts)] + [
        tuple(pt[coord] for pt in pts) for coord in range(d)
    ]))
    value = det(mat)
    if value == 0:
        raise DegenerateInputError("lifted determinant vanishes")
    return Color.POSITIVE if value > 0 else Color.NEGATIVE


def _crossing_heights(pts):
    """Heights of both lifted diagonals over the projected crossing point
    for 4 points in R^3: diagonal (0,2) against diagonal (1,3)."""
    proj = [pt[:2] for pt in pts]
    for tri in combinations(range(4), 3):
        rows = (
            (1, 1, 1),
            tuple(proj[i][0] for i in tri),
            tuple(proj[i][1] for i in tri),
        )
        orientation = det(Matrix(rows))
        if orientation == 0:
            raise DegenerateInputError(
                "three projections are collinear", witness=tri
            )
        if orientation < 0:
            raise WrongOrientationError(
                f"projected triple {tri} is negatively oriented; quadrilateral is not cyclic",
                witness=tri,
            )
    a, b, c, d_ = proj
    # a + s (c - a) = b + u (d - b): solve the 2x2 system exactly.
    m00, m01 = c[0] - a[0], b[0] - d_[0]
    m10, m11 = c[1] - a[1], b[1] - d_[1]
    rhs0, rhs1 = b[0] - a[0], b[1] - a[1]
    denom = m00 * m11 - m01 * m10
    if denom == 0:
        raise DegenerateInputError("projected diagonals are parallel")
    s = (rhs0 * m11 - m01 * rhs1) / denom
    u = (m00 * rhs1 - rhs0 * m10) / denom
    if not (0 < s < 1 and 0 < u < 1):
        raise DegenerateInputError("projected diagonals do not cross internally")
    h_even = pts[0][2] + s * (pts[2][2] - pts[0][2])
    h_odd = pts[1][2] + u * (pts[3][2] - pts[1][2])
    return h_even, h_odd


def color_by_crossing(points):
    """Crossing oracle for d = 3: compare the lifted heights of the two
    diagonals of the projected quadrilateral over their crossing point."""
    pts = _normalize_points(points, expect_len=4)
    if len(pts[0]) != 3:
        raise InvariantError(f"crossing oracle needs points in R^3, got R^{len(pts[0])}")
    h_even, h_odd = _crossing_heights(pts)
    if h_even == h_odd:
        raise DegenerateInputError("diagonals meet at equal heights")
    # (-1)^d (H_even - H_odd) > 0 at d = 3
    return Color.POSITIVE if h_even < h_odd else Color.NEGATIVE


def _divdiff_closed(pts):
    total = Fraction(0)
    for j, (tj, hj) in enumerate(pts):
        denom = Fraction(1)
        for r, (tr, _) in enumerate(pts):
            if r != j:
                denom *= tj - tr
        total += hj / denom
    return total


def _divdiff_recursive(pts):
    if len(pts) == 1:
        return pts[0][1]
    head = _divdiff_recursive(pts[:-1])
    tail = _divdiff_recursive(pts[1:])
    return (tail - head) / (pts[-1][0] - pts[0][0])


def divided_difference(points, order=None):
    """Order-q divided difference of h over t for q+1 planar points.

    Evaluates both the two-term recursion and the closed interpolation form
    and insists they agree exactly before returning the value.
    """
    pts = [(as_fraction(t), as_fraction(h)) for t, h in points]
    if not pts:
        raise InvariantError("no points given")
    if order is not None and order != len(pts) - 1:
        raise InvariantError(f"order {order} needs {order + 1} points, got {len(pts)}")
    if len(set(t for t, _ in pts)) != len(pts):
        raise InvariantError("t values must be pairwise distinct")
    closed = _divdiff_closed(pts)
    recursive = _divdiff_recursive(pts)
    if closed != recursive:
        raise IdentityViolationError(
            f"divided-difference forms disagree: {closed} vs {recursive}"
        )
    return closed


def vandermonde_divdiff_residual(points):
    """det(ones; t; ...; t^(d-1); h) minus Vandermonde(t) times the order-d
    divided difference; identically zero, returned for verification."""
    pts = [(as_fraction(t), as_fraction(h)) for t, h in points]
    d = len(pts) - 1
    if d < 1:
        raise InvariantError("need at least two points")
    rows = [tuple(1 for _ in pts)]
    for e in range(1, d):
        rows.append(tuple(t ** e for t, _ in pts))
    rows.append(tuple(h for _, h in pts))
    value = det(Matrix(tuple(rows)))
    vandermonde = Fraction(1)
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            vandermonde *= pts[j][0] - pts[i][0]
    return value - vandermonde * divided_difference(pts)


@dataclass(frozen=True)
class OneSwitchCertificate:
    """Sign pattern of the d+2 deletion determinants of a (d+2)-tuple.

    ``d_values[j]`` is the determinant of the (d+1) x (d+2) lifted matrix
    with column j deleted, i.e. the signed color of the tuple that omits
    point j.  ``minors`` maps deleted pairs (a, b) to the projection minors
    delta_(a,b) (all positive for cyclic projections), ``ratios`` lists
    delta_(j,d+1)/delta_(0,j) for j = 1..d (strictly decreasing), and
    ``switch_count`` counts sign changes along the nonzero d_values in
    deletion order (provably at most one).  Zero d_values are recorded in
    ``zero_positions`` and skipped by the switch count."""

    d_values: tuple
    minors: dict
    ratios: tuple
    switch_count: int
    zero_positions: tuple


def one_switch_certificate(points, *, allow_zero=False):
    """Certificate that deleting one point at a time flips the tuple color
    at most once.

    For d+2 lifted points with cyclically ordered projections, the deletion
    determinants D_j satisfy, for every 1 <= j <= d,

        D_j * delta_(0,d+1) = D_0 * delta_(j,d+1) + D_(d+1) * delta_(0,j)

    with strictly positive projection minors delta and strictly decreasing
    ratios delta_(j,d+1)/delta_(0,j).  A sign change D_0 -> D_(d+1) therefore
    pins every middle sign, allowing at most one switch overall.  The
    identity, the ratio ordering, and the switch count are all verified
    exactly; a failure of any of them raises IdentityViolationError because
    no input can cause it.

    By default a vanishing D_j raises DegenerateInputError; with
    ``allow_zero`` the zeros are recorded and skipped by the switch count.
    """
    pts = _normalize_points(points)
    d = len(pts[0])
    if len(pts) != d + 2:
        raise InvariantError(f"need d+2 = {d + 2} points in R^{d}, got {len(pts)}")
    if d < 2:
        raise BadShapeError("need at least two rows")
    kernel = SignKernel([cleared_column(pt) for pt in pts])
    minors, d_ints, zeros, switches = certify_one_switch(kernel, tuple(range(d + 2)), allow_zero)
    # An integer minor or determinant is the rational one times its columns' scales.
    scales = [column[0] for column in kernel.columns]
    total = prod(scales)
    minors = {(a, b): Fraction(v, total // (scales[a] * scales[b])) for (a, b), v in minors.items()}
    d_values = tuple(Fraction(v, total // scale) for v, scale in zip(d_ints, scales))
    ratios = tuple(minors[(j, d + 1)] / minors[(0, j)] for j in range(1, d + 1))
    return OneSwitchCertificate(d_values, minors, ratios, switches, zeros)


def certify_one_switch(kernel, tup, allow_zero=False):
    """Integer core of ``one_switch_certificate`` over the kernel columns
    ``tup``, every check included: returns the minors (keyed by deleted
    position pairs), deletion determinants, zero positions, switch count."""
    d = len(tup) - 2
    last = d + 1
    minors = {}
    for a, b in combinations(range(d + 2), 2):
        value = minors[(a, b)] = kernel.minor(tup[:a] + tup[a + 1:b] + tup[b + 1:])
        if value <= 0:
            problem = "vanishes" if value == 0 else "is negative; projections are not cyclic"
            raise DegenerateInputError(f"projection minor delta[{a},{b}] {problem}",
                                       witness=(a, b))
    d_values = tuple(kernel.value(tup[:j] + tup[j + 1:]) for j in range(d + 2))
    zero_positions = tuple(j for j, v in enumerate(d_values) if v == 0)
    if zero_positions and not allow_zero:
        raise DegenerateInputError(
            f"deletion determinant D_{zero_positions[0]} vanishes",
            witness=zero_positions,
        )
    # Column scales leave one common factor in the three terms of each
    # identity and one common positive factor in every ratio.
    for j in range(1, d + 1):
        lhs = d_values[j] * minors[(0, last)]
        rhs = d_values[0] * minors[(j, last)] + d_values[last] * minors[(0, j)]
        if lhs != rhs:
            raise IdentityViolationError(f"deletion identity fails at j={j}")
    for j in range(1, d):
        if not minors[(j, last)] * minors[(0, j + 1)] > minors[(j + 1, last)] * minors[(0, j)]:
            raise IdentityViolationError("minor ratios are not strictly decreasing")
    signs = [v > 0 for v in d_values if v != 0]
    switches = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if switches > 1:
        raise IdentityViolationError(
            f"deletion signs switch {switches} times; the certificate forbids more than one"
        )
    return minors, d_values, zero_positions, switches


def _color_of(value, tup, message):
    if value == 0:
        raise DegenerateInputError(message, witness=tup)
    return Color.POSITIVE if value > 0 else Color.NEGATIVE


def color_table(s):
    """Color every increasing (d+1)-tuple of a lifted sequence by the sign
    of its determinant, taken from the sequence's integer kernel."""
    if not isinstance(s, LiftedSequence):
        raise InvariantError("color_table needs a LiftedSequence")
    value = s.kernel.value
    return ColoringTable.from_function(len(s), s.dimension + 1, lambda tup: _color_of(
        value(tup), tup, "lifted determinant vanishes"))


def divdiff_color_table(p, order):
    """Color every increasing (order+1)-tuple of a planar sequence by the
    sign of its order-d divided difference (the moment-lift kernel sign,
    cross-checked against the integer closed form per tuple)."""
    if not isinstance(p, PlanarSequence):
        raise InvariantError("divdiff_color_table needs a PlanarSequence")
    value = MomentKernel(p.points, order).value
    return ColoringTable.from_function(len(p), order + 1, lambda tup: _color_of(
        value(tup), tup, "divided difference vanishes"))


class LazyDivdiffColors:
    """Duck-typed stand-in for ColoringTable that computes divided-difference
    signs on demand; used when the dense table would blow the size guard.
    Colors are memoized by colex rank: a search reads each tuple about
    twenty times.  ``positive_among`` evaluates only the candidate bits."""

    def __init__(self, p, order):
        if not isinstance(p, PlanarSequence):
            raise InvariantError("LazyDivdiffColors needs a PlanarSequence")
        self.sequence = p
        self.n = len(p)
        self.r = order + 1
        self.kernel = MomentKernel(p.points, order)
        self._cache = {}

    def color(self, tup):
        return self._color(_rank(tup, self.n, self.r), tup)

    def _color(self, rank, tup):
        hit = self._cache.get(rank)
        if hit is None:
            hit = self._cache[rank] = _color_of(self.kernel.value(tup), tup,
                                                "divided difference vanishes")
        return hit

    def positive_among(self, prefix, mask):
        """The bits y of ``mask`` (each max(prefix) < y < n) for which
        prefix + (y,) is +."""
        base = _rank(prefix, self.n, self.r - 1)
        if mask >> self.n or mask & ((2 << prefix[-1]) - 1):
            raise InvariantError(f"candidates {mask:#x} do not all extend {prefix!r}")
        positive = 0
        while mask:
            low = mask & -mask
            y = low.bit_length() - 1
            if self._color(base + comb(y, self.r), prefix + (y,)) is Color.POSITIVE:
                positive |= low
            mask ^= low
        return positive
