"""Exact rational linear algebra and the integer sign kernel.

Scalars are ``fractions.Fraction`` at the API edge; Fraction keeps numerator
and denominator reduced with a positive denominator, so equality is
structural and results are canonical.  Floats are rejected everywhere: a
binary float smuggled into an exact pipeline silently poisons every
determinant sign downstream.

Determinants clear denominators column by column (``sequences.cleared_column``)
and then run fraction-free (Bareiss) elimination over plain Python integers.
Column clearing matters: the matrices built in this package have columns
that share one point's denominator, while a row mixes denominators of every
point, so per-column scales stay small where per-row scales would explode.
``SignKernel`` is the one integer kernel of a sequence: built from its
points, it clears each once and caches its minors, and it holds the
one-switch core (``one_switch``) and the Bareiss cofactors (``cofactors``)
that key a lifted sequence in ``paths``.  Every validator, one-switch
certificate and lifted identities check reads it; a planar sequence has
closed-form keys and loads no ``linalg``.
"""

from fractions import Fraction
from math import prod

from .errors import (BadIndicesError, BadShapeError, DegenerateInputError, Frozen,
                     IdentityViolationError, InvariantError, NonSquareError)
from .sequences import as_fraction, cleared_column


class Matrix(Frozen):
    """Immutable row-major matrix of exact rationals."""

    _fields = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise InvariantError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise InvariantError("matrix rows are ragged")
        self._freeze(entries=rows)

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def delete_columns(self, *drop):
        """New matrix with the given columns removed, order preserved."""
        if len(set(drop)) != len(drop):
            raise BadIndicesError(f"repeated column indices {drop}")
        if any(j < 0 or j >= self.cols for j in drop):
            raise BadIndicesError(f"column indices {drop} out of range for {self.cols} columns")
        keep = [j for j in range(self.cols) if j not in drop]
        if not keep:
            raise BadIndicesError("cannot delete every column")
        return Matrix(tuple(tuple(row[j] for j in keep) for row in self.entries))

    def mul_vector(self, vec):
        """Matrix-vector product, exact."""
        vec = tuple(as_fraction(v) for v in vec)
        if len(vec) != self.cols:
            raise BadShapeError(f"vector length {len(vec)} != {self.cols} columns")
        return tuple(sum(row[j] * vec[j] for j in range(self.cols)) for row in self.entries)


def _int_det_bareiss(grid):
    """Determinant of a square integer matrix by fraction-free elimination.

    All intermediate divisions are exact (they divide by the previous pivot),
    so the computation stays in the integers.
    """
    n = len(grid)
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    a = [list(row) for row in grid]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det(m):
    """Exact determinant of a square Matrix."""
    if m.rows != m.cols:
        raise NonSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    columns = [cleared_column(m.column(j)) for j in range(m.cols)]
    grid = [[column[i + 1] for column in columns] for i in range(m.rows)]
    return Fraction(_int_det_bareiss(grid), prod(column[0] for column in columns))


class SignKernel:
    """Integer determinants over subsets of the points' cleared columns of
    d+1 rows: ``minor(sub)`` is the d x d minor of rows 0..d-1 over a
    d-subset, cached in ``minors`` (at most ``max_cached``, about 150-200
    bytes each); ``value(tup)`` is the determinant over a (d+1)-subset by
    Laplace expansion along row d, d+1 multiply-adds of cached minors, and
    ``pair_minors(tup)`` the minors of a (d+2)-subset keyed by the deleted
    position pair (a, b): ``complementary_minors`` times the columns' scales."""

    max_cached = 1 << 18

    def __init__(self, points):
        self.columns = [cleared_column(pt) for pt in points]
        self.d = d = len(self.columns[0]) - 1
        self.minors = {}
        # per row r, the sign and the rows of each minor of ``cofactors``
        self.plans = [[(-1 if pos & 1 else 1, [q for q in keep if q != i])
                       for pos, i in enumerate(keep)]
                      for keep in ([q for q in range(d + 1) if q != r] for r in range(d + 1))]

    def minor(self, sub):
        value = self.minors.get(sub)
        if value is None:
            cols = self.columns
            value = _int_det_bareiss([[cols[i][row] for i in sub] for row in range(self.d)])
            if len(self.minors) < self.max_cached:
                self.minors[sub] = value
        return value

    def pair_minors(self, tup):
        return {(a, b): self.minor(tup[:a] + tup[a + 1:b] + tup[b + 1:])
                for a in range(len(tup)) for b in range(a + 1, len(tup))}

    def value(self, tup):
        d, cols = self.d, self.columns
        total = 0
        for j in range(d + 1):
            term = cols[tup[j]][d] * self.minor(tup[:j] + tup[j + 1:])
            total += -term if (d - j) & 1 else term
        return total

    def cofactors(self, middle, r):
        """c with c . u = det of the rows other than r of [u, M], M the
        columns of the d - 1 points ``middle``, u on those rows: d Bareiss
        minors of order d - 1."""
        rows = list(zip(*(self.columns[m] for m in middle)))
        return [sign * _int_det_bareiss([rows[q] for q in minor])
                for sign, minor in self.plans[r]]

    def one_switch(self, tup, allow_zero=False):
        """Integer core of ``coloring.one_switch_certificate`` over the columns
        ``tup``, every check included: the minors keyed by deleted position
        pairs, the deletion determinants, zero positions and switch count."""
        d = len(tup) - 2
        last = d + 1
        minors = self.pair_minors(tup)
        for (a, b), value in minors.items():
            if value <= 0:
                problem = "vanishes" if value == 0 else "is negative; projections are not cyclic"
                raise DegenerateInputError(f"projection minor delta[{a},{b}] {problem}",
                                           witness=(a, b))
        d_values = tuple(self.value(tup[:j] + tup[j + 1:]) for j in range(d + 2))
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


def signed_minor_kernel(p):
    """Kernel vector of an n x (n+1) matrix from its column-deleted minors.

    Entry j is (-1)^j times the determinant of p with column j removed.  The
    result always satisfies p @ v = 0: appending any row of p to p itself
    gives a square matrix with a repeated row, and expanding its zero
    determinant along that row is exactly this dot product.
    """
    if p.cols != p.rows + 1:
        raise BadShapeError(f"expected n x (n+1), got {p.rows}x{p.cols}")
    out = []
    for j in range(p.cols):
        minor = det(p.delete_columns(j))
        out.append(minor if j % 2 == 0 else -minor)
    return tuple(out)


def complementary_minors(q):
    """All maximal minors of an n x (n+2) matrix, keyed by the deleted pair.

    delta[(i, j)] for i < j is the determinant of q with columns i and j
    removed (remaining columns in their original order).
    """
    if q.cols != q.rows + 2:
        raise BadShapeError(f"expected n x (n+2), got {q.rows}x{q.cols}")
    if q.rows < 2:
        raise BadShapeError("need at least two rows")
    table = {}
    for i in range(q.cols):
        for j in range(i + 1, q.cols):
            table[(i, j)] = det(q.delete_columns(i, j))
    return table


def plucker_residual(q, indices):
    """Three-term quadratic residual of the complementary minors of q.

    For any four increasing column indices (i1, i2, i3, i4) of an
    n x (n+2) matrix, with d(a, b) the minor that deletes columns a and b,

        d(i1,i2) d(i3,i4) - d(i1,i3) d(i2,i4) + d(i1,i4) d(i2,i3)

    vanishes identically.  The function computes the six minors directly and
    returns the residual so the caller can assert it is zero.
    """
    if q.cols != q.rows + 2:
        raise BadShapeError(f"expected n x (n+2), got {q.rows}x{q.cols}")
    idx = tuple(indices)
    if len(idx) != 4:
        raise BadIndicesError(f"need exactly four indices, got {idx}")
    if any(not isinstance(i, int) or i < 0 or i >= q.cols for i in idx):
        raise BadIndicesError(f"indices {idx} out of range for {q.cols} columns")
    if not (idx[0] < idx[1] < idx[2] < idx[3]):
        raise BadIndicesError(f"indices {idx} must be strictly increasing")
    i1, i2, i3, i4 = idx

    def d(a, b):
        return det(q.delete_columns(a, b))

    return d(i1, i2) * d(i3, i4) - d(i1, i3) * d(i2, i4) + d(i1, i4) * d(i2, i3)
