"""Instance generators.

Three families:

* ``build_cluster_parabola`` / ``cluster_parabola_sequence``: the
  doubly-exponential planar construction whose order-3 divided-difference
  coloring has no monochromatic subsequence longer than 2m.  Level 1 is two
  points at height zero; each later level replaces every point by a tiny
  horizontally shrunk copy of the whole previous level and bends the copies
  upward along a steep parabola.  The copy widths, parabola coefficients,
  and vertical copy scales are powers of an integer base B; nothing is
  assumed about B except what the verification loop confirms, so the public
  entry point doubles B until the exact search of ``paths`` certifies the
  property, and returns that search's ``SearchResult`` with the instance.

* ``cupcap_extremal``: the classical two-block recursion giving
  C(2k-4, k-2) points with no k-point cup and no k-point cap.

* ``random_cyclic_instance``: seeded random moment-curve instances that are
  guaranteed nondegenerate by redraw, for property suites; one key pass of
  ``paths`` decides each redraw, with no search.

Each function imports ``paths`` and ``search`` when it runs them, so
``generate em --no-verify``, ``generate cupcap`` and ``generate moment
--heights random`` compile neither, and ``generate random`` no ``search``.
"""

import random
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import (
    DegenerateInputError,
    GenerationFailedError,
    InvariantError,
    ParameterSearchFailedError,
    TooLargeError,
)
from .sequences import PlanarSequence, format_rational, moment_lift, serialize_sequence
from .tables import MAX_DENSE_CELLS, Color, _guarded_comb

MAX_BASE = 2 ** 64
# The deepest m whose 2^(2^(m-1)) points fit the 2^24 guard: 2^(m-1) <= 24.
MAX_DEPTH = (MAX_DENSE_CELLS.bit_length() - 1).bit_length()
MAX_REDRAWS = 64  # draws of random_cyclic_instance before it gives up


class ClusterParabolaParams(namedtuple("ClusterParabolaParams",
                                       "depth base x_scale steepness h_scale")):
    """Parameters that produced one cluster-parabola instance.

    Per refinement step k (level k to level k+1): ``x_scale[k]`` is the
    horizontal shrink factor of the copies, ``steepness[k]`` the parabola
    coefficient, ``h_scale[k]`` the vertical shrink of the copied heights.
    All are powers of ``base``."""

    __slots__ = ()

    def to_json_obj(self):
        return {
            "m": self.depth,
            "base": self.base,
            "x_scale": [format_rational(x) for x in self.x_scale],
            "steepness": [format_rational(x) for x in self.steepness],
            "h_scale": [format_rational(x) for x in self.h_scale],
        }


def _exponent_schedule(steps):
    """Exponents (of the base) for the shrink, steepness, and copy-height
    scales of each refinement step.

    The horizontal shrink must beat the previous level's minimum gap cubed
    (so that cluster-local geometry dominates every mixed quadruple), the
    steepness must beat the previous level's maximum slope, and the copy
    heights must stay below the noise floor of the steepness terms.  Gaps
    shrink by B^-sigma per level, slopes grow by B^kappa, which forces
    sigma to triple (plus the kappa increment) and nu to track 2*sigma.
    """
    sigmas, kappas, nus = [], [], []
    sigma, kappa = 4, 1
    for _ in range(steps):
        nu = 2 * sigma + sigmas[-1] + 4 if sigmas else 4
        sigmas.append(sigma)
        kappas.append(kappa)
        nus.append(nu)
        sigma = 3 * sigma + 6
        kappa = kappa + 3
    return sigmas, kappas, nus


def _depth_points(m):
    """2^(2^(m-1)), the size of the depth-m instance.  A depth beyond
    MAX_DEPTH is refused before the power is computed."""
    if not isinstance(m, int) or m < 1:
        raise InvariantError(f"depth must be an integer >= 1, got {m!r}")
    if m > MAX_DEPTH:
        raise TooLargeError(
            f"depth {m} means 2^(2^{m - 1}) points, beyond the {MAX_DENSE_CELLS}-point guard"
        )
    return 2 ** (2 ** (m - 1))


def build_cluster_parabola(m, base):
    """Build the depth-m instance at a fixed integer base (no verification).

    Returns (PlanarSequence of 2^(2^(m-1)) points, ClusterParabolaParams).
    Refuses m > MAX_DEPTH (TooLargeError) before building anything.
    """
    _depth_points(m)
    if not isinstance(base, int) or base < 2:
        raise InvariantError(f"base must be an integer >= 2, got {base!r}")
    sigmas, kappas, nus = _exponent_schedule(m - 1)
    x_scale = tuple(Fraction(1, base ** e) for e in sigmas)
    steepness = tuple(Fraction(base ** e) for e in kappas)
    h_scale = tuple(Fraction(1, base ** e) for e in nus)

    ts = [Fraction(1), Fraction(2)]
    hs = [Fraction(0), Fraction(0)]
    for s, big_k, v in zip(x_scale, steepness, h_scale):
        width = s * (ts[-1] - 1)
        min_gap = min(b - a for a, b in zip(ts, ts[1:]))
        if not width < min_gap:
            raise GenerationFailedError(
                f"copy width {width} does not fit below the cluster gap {min_gap}"
            )
        new_t, new_h = [], []
        for anchor_t, anchor_h in zip(ts, hs):
            lift = anchor_h + big_k * anchor_t * anchor_t
            for t, h in zip(ts, hs):
                new_t.append(anchor_t + s * (t - 1))
                new_h.append(lift + v * h)
        ts, hs = new_t, new_h

    seq = PlanarSequence(tuple(zip(ts, hs)))
    params = ClusterParabolaParams(m, base, x_scale, steepness, h_scale)
    return seq, params


def _verified_points(m):
    """The depth-m size 2^(2^(m-1)), refused (TooLargeError) when its
    C(n, 3) windows exceed the guard of the monotone-path search."""
    n = _depth_points(m)
    if n >= 3:
        _guarded_comb(n, 3, "windows")
    return n


def verify_cluster_parabola(p, m):
    """The longest monochromatic subsequence of the order-3 coloring of p,
    exactly: the ``SearchResult`` of ``paths.longest_monotone_path(p, 3)``.
    The depth-1 instance has two points, no quadruple, and is its own
    longest run.

    Raises DegenerateInputError at the lex-least quadruple with a vanishing
    third divided difference (no color is defined there); a result thus
    also certifies general position.  Raises InvariantError if p does not
    have the depth-m size 2^(2^(m-1)), and TooLargeError for a depth whose
    windows exceed the guard (m >= 5), before any divided difference.
    """
    from .paths import longest_monotone_path
    from .search import SearchResult

    expected = _verified_points(m)
    if len(p) != expected:
        raise InvariantError(f"depth {m} means {expected} points, got {len(p)}")
    if expected < 4:
        return SearchResult(expected, tuple(range(expected)), Color.POSITIVE, True, 0,
                            "monotone-path")
    return longest_monotone_path(p, 3)


def cluster_parabola_sequence(m, *, start_base=2, max_base=MAX_BASE):
    """Verified depth-m instance: doubles the base until the no-long-run
    property is certified exhaustively.

    Returns (sequence, params, result), ``result`` the ``SearchResult``
    of ``verify_cluster_parabola``, whose size is at most 2m.  Raises
    ParameterSearchFailedError with per-base diagnostics when no base up
    to ``max_base`` works, and TooLargeError, before building anything,
    for a depth that cannot be verified, or before its search, at the
    first instance with a number that does not print
    (``serialize_sequence``): none at a larger base prints either.
    """
    if not isinstance(start_base, int) or start_base < 2:
        raise InvariantError(f"start_base must be an integer >= 2, got {start_base!r}")
    if not isinstance(max_base, int) or max_base < start_base:
        raise InvariantError("max_base must be an integer >= start_base")
    _verified_points(m)
    attempts = []
    base = start_base
    while base <= max_base:
        seq, params = build_cluster_parabola(m, base)
        serialize_sequence(seq)  # raises TooLargeError when a number does not print
        try:
            result = verify_cluster_parabola(seq, m)
        except DegenerateInputError as exc:
            attempts.append((base, f"degenerate quadruple {exc.witness}"))
        else:
            if result.size <= 2 * m:
                return seq, params, result
            attempts.append((
                base,
                f"monochromatic subsequence of size {result.size} at {result.witness}",
            ))
        base *= 2
    raise ParameterSearchFailedError(
        f"no base in [{start_base}, {max_base}] yields a verified depth-{m} instance",
        attempts=tuple(attempts),
    )


def _strictly_convex(count, flip=False):
    sign = -1 if flip else 1
    return [(Fraction(i), Fraction(sign * i * i)) for i in range(count)]


def _no_cup_no_cap(a, b):
    """Points with no a-point cup and no b-point cap; size C(a+b-4, a-2)."""
    if a == 3:
        return _strictly_convex(b - 1, flip=True)
    if b == 3:
        return _strictly_convex(a - 1)
    left = _no_cup_no_cap(a - 1, b)
    right = _no_cup_no_cap(a, b - 1)
    # Shift the right block past the left one, then raise it until every
    # left-to-right slope strictly exceeds every slope inside a block: a cup
    # then cannot keep more than one right point, a cap more than one left.
    # A block is sorted by t, so its largest slope is a consecutive one.
    dt = left[-1][0] + 1 - right[0][0]
    right = [(t + dt, h) for t, h in right]
    slope_cap = Fraction(0)
    for block in (left, right):
        for (t1, h1), (t2, h2) in zip(block, block[1:]):
            slope_cap = max(slope_cap, (h2 - h1) / (t2 - t1))
    span = right[-1][0] - left[0][0]
    top_left = max(h for _, h in left)
    dh = top_left + slope_cap * span + 1 - min(h for _, h in right)
    return left + [(t, h + dh) for t, h in right]


def cupcap_extremal(k):
    """The classical C(2k-4, k-2)-point sequence with no k-point second-order
    monotone subsequence (neither a k-cup nor a k-cap).  A k >= 10, whose
    points have more than 2^24 windows C(n, 2), raises TooLargeError first."""
    if not isinstance(k, int) or k < 3:
        raise InvariantError(f"k must be an integer >= 3, got {k!r}")
    _guarded_comb(_guarded_comb(2 * k - 4, k - 2, "points", "C(2k-4, k-2)"), 2, "windows")
    return PlanarSequence(tuple(_no_cup_no_cap(k, k)))


def _random_rational(rng, bits, *, signed=False):
    top = 1 << bits
    numerator = rng.randrange(-top + 1, top) if signed else rng.randrange(top)
    return Fraction(numerator, rng.randrange(1, top))


def _increasing_rationals(rng, n, bits):
    seen = set()
    for _ in range(64 * n + 64):
        seen.add(_random_rational(rng, bits))
        if len(seen) == n:
            return sorted(seen)
    raise GenerationFailedError(
        f"could not draw {n} distinct {bits}-bit rationals; raise the bit budget"
    )


def random_cyclic_instance(d, n, seed, *, bits=16):
    """Seeded random lifted sequence with cyclically ordered projections.

    Projections sit on the moment curve at n distinct random rationals (so
    every projected d-tuple is automatically positively oriented); heights
    are independent random rationals.  Draws are rejected wholesale while
    one key pass of ``paths`` (``_keyed_middles``), which compares every
    (d+1)-tuple under its middle, finds one affinely degenerate, so the
    output passes both validators in full.  Identical seeds give identical
    sequences.  ``bits`` whose 2^bits - 1 does not print, and an n whose
    C(n, d+1) tuples exceed the dense guard, raise TooLargeError before any
    draw; C(n, d) windows past the guard of the monotone-path search, after
    the first draw and before any key.
    """
    from .paths import LazyDivdiffColors, _keyed_middles

    if not isinstance(d, int) or d < 2:
        raise InvariantError(f"dimension must be an integer >= 2, got {d!r}")
    if not isinstance(n, int) or n < d + 1:
        raise InvariantError(f"need n >= d+1 points, got n={n!r}")
    if not isinstance(seed, int):
        raise InvariantError(f"seed must be an integer, got {seed!r}")
    if not isinstance(bits, int) or bits < 1:
        raise InvariantError(f"bits must be an integer >= 1, got {bits!r}")
    limit = sys.get_int_max_str_digits()
    if limit and bits >= (10 ** limit).bit_length():
        raise TooLargeError(f"an output number has more than {limit} digits")
    _guarded_comb(n, d + 1, "tuples")
    rng = random.Random(seed)
    for attempt in range(MAX_REDRAWS):
        ts = _increasing_rationals(rng, n, bits)
        heights = [_random_rational(rng, bits, signed=True) for _ in range(n)]
        lifted = moment_lift(PlanarSequence(tuple(zip(ts, heights))), d)
        if attempt == 0:
            _guarded_comb(n, d, "windows")  # longest_monotone_path's guard, at the same point
        try:
            for _ in _keyed_middles(LazyDivdiffColors(lifted, d)):
                pass  # the lex-least tie raises once every middle is keyed
        except DegenerateInputError:
            continue
        return lifted
    raise GenerationFailedError(
        f"no nondegenerate instance in {MAX_REDRAWS} redraws (d={d}, n={n}, seed={seed})"
    )
