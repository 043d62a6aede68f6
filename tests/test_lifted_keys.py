"""The key engine of ``abr.paths`` on lifted input, against references that
share none of its keys: the keyed table against the per-tuple kernel table
of ``_helpers``, bit for bit, and the monotone-path DP against the branch
and bound on that table (the same size, witness and color), and the window
DP of the table in every field.  ``LazyDivdiffColors`` reads like the
table, color by color and row by row.  On degenerate input all raise the
same error, message and witness.  Small-integer heights make vanishing
determinants common.  On any input, the engine refuses exactly what the
validators of ``sequences`` refuse."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abr import (DegenerateInputError, InvariantError, LazyDivdiffColors, LiftedSequence,
                 PlanarSequence, WrongOrientationError, color_table, divdiff_color_table,
                 longest_monotone_path, longest_window_path, moment_lift, random_cyclic_instance,
                 validate_cyclic_projections, validate_general_position)

from _helpers import every_read, kernel_color_table, reference_longest_monochromatic

HEIGHTS = st.integers(-3, 3)
# t = tan(theta/2) on the unit circle: increasing t is counterclockwise, so
# every triple of projections is positively oriented; t and -t share x.
CIRCLE = [Fraction(p, q) for p, q in ((-3, 1), (-2, 1), (-1, 1), (-1, 2), (-1, 3), (0, 1),
                                      (1, 3), (1, 2), (1, 1), (2, 1), (3, 1))]


def _assert_same(s):
    try:
        reference = kernel_color_table(s)
    except DegenerateInputError as exc:
        want = type(exc), str(exc), exc.witness
        for search in (color_table, longest_monotone_path):
            try:
                search(s)
            except DegenerateInputError as got:
                assert (type(got), str(got), got.witness) == want
            else:
                raise AssertionError(f"{search.__name__} found no vanishing determinant")
        return
    assert color_table(s) == reference
    got = longest_monotone_path(s)
    assert got.method == "monotone-path"
    assert got[:3] == reference_longest_monochromatic(reference, cut=False)[:3]
    assert got == longest_window_path(reference)


@st.composite
def moment_inputs(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    ts = sorted(draw(st.sets(st.integers(-4, 6), min_size=d + 1, max_size=9)))
    hs = draw(st.lists(HEIGHTS, min_size=len(ts), max_size=len(ts)))
    return LiftedSequence(d, tuple(tuple(t ** e for e in range(1, d)) + (h,)
                                   for t, h in zip(ts, hs)))


@st.composite
def circle_inputs(draw):
    ts = sorted(draw(st.sets(st.sampled_from(CIRCLE), min_size=4, max_size=9)))
    hs = draw(st.lists(HEIGHTS, min_size=len(ts), max_size=len(ts)))
    return LiftedSequence(3, tuple(((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t), h)
                                   for t, h in zip(ts, hs)))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(moment_inputs())
def test_keys_match_the_kernel_on_moment_projections(s):
    _assert_same(s)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(circle_inputs())
def test_keys_match_the_kernel_on_circle_projections(s):
    _assert_same(s)


@pytest.mark.parametrize("d, n, seed", [(2, 12, 61), (3, 11, 62), (4, 10, 63)])
def test_the_sequence_search_is_the_table_search_in_every_field(d, n, seed):
    # size, witness, color, exhaustive, nodes_visited and method
    s = random_cyclic_instance(d, n, seed, bits=8)
    assert longest_monotone_path(s) == longest_window_path(color_table(s))


def _assert_keyed_coloring_reads_like_the_table(s):
    """True when ``s`` is degenerate: then every read of the keyed coloring
    raises ``color_table``'s error at its witness."""
    got = every_read(LazyDivdiffColors(s, s.dimension))
    try:
        table = color_table(s)
    except DegenerateInputError as exc:
        assert got == [(str(exc), exc.witness)] * 2
        return True
    assert got == every_read(table)
    return False


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(moment_inputs())
def test_the_keyed_coloring_reads_like_the_table(s):
    _assert_keyed_coloring_reads_like_the_table(s)


def test_the_keyed_coloring_reads_like_random_tables_and_names_a_vanishing_determinant():
    for d, n, seed in ((2, 9, 71), (3, 8, 72), (4, 8, 73)):
        assert not _assert_keyed_coloring_reads_like_the_table(
            random_cyclic_instance(d, n, seed, bits=8))
    flat = moment_lift(PlanarSequence(tuple((t, 0) for t in range(5))), 3)
    assert _assert_keyed_coloring_reads_like_the_table(flat)
    vanishes = r"^lifted determinant vanishes at \(0, 1, 2, 3\)$"
    with pytest.raises(DegenerateInputError, match=vanishes):
        LazyDivdiffColors(flat, 3).positive_among((0, 1, 2), 0)


def test_the_keyed_coloring_of_a_lifted_sequence_is_at_its_dimension():
    s = random_cyclic_instance(3, 7, 74, bits=8)
    for order in (1, 2, 4, 7, None):
        with pytest.raises(InvariantError, match="dimension 3 has no order"):
            LazyDivdiffColors(s, order)


def test_a_planar_sequence_needs_an_integer_order():
    p = PlanarSequence(tuple((t, t ** 3) for t in range(6)))
    for order in (None, "3", 3.0):
        # the table too: its tuple guard comes after this check
        for build in (LazyDivdiffColors, divdiff_color_table, longest_monotone_path):
            with pytest.raises(InvariantError) as info:
                build(p, order)
            assert str(info.value) == f"a planar sequence needs an integer order, got {order!r}"
    with pytest.raises(InvariantError, match=r"got None$"):
        longest_monotone_path(p)


def test_the_keyed_coloring_keys_on_first_read(monkeypatch):
    from abr import paths

    def forbidden(s, d):
        raise AssertionError(f"keyed at order {d}")

    p = PlanarSequence(tuple((t, t ** 3 + t % 3) for t in range(6)))
    s = random_cyclic_instance(3, 7, 74, bits=8)
    monkeypatch.setattr(paths, "_window_keys", forbidden)
    for read in (lambda colors: colors.keys_of, lambda colors: colors.color((0, 1, 2, 3))):
        for colors in (LazyDivdiffColors(p, 3), LazyDivdiffColors(s, 3)):
            with pytest.raises(AssertionError, match="^keyed at order 3$"):
                read(colors)
    monkeypatch.undo()
    # a non-cyclic end d-tuple is reported on the first read, not before
    clockwise = LiftedSequence(3, tuple((t, -t * t, t ** 3) for t in range(6)))
    colors = LazyDivdiffColors(clockwise, 3)
    with pytest.raises(WrongOrientationError, match="not cyclically ordered"):
        colors.color((0, 1, 2, 3))


def test_projections_that_are_not_cyclic_are_refused():
    # the keys assume the sign of each projection minor from its side of
    # the middle; here (t, -t^2) turns clockwise
    s = LiftedSequence(3, tuple((t, -t * t, t ** 3) for t in range(6)))
    for search in (color_table, longest_monotone_path):
        with pytest.raises(WrongOrientationError, match="not cyclically ordered"):
            search(s)


def test_a_clockwise_triple_through_both_ends_is_refused():
    # the minors of every (u, M), u outside the span of a middle M inside
    # (0, 4), are positive; only the triples that hold both ends turn clockwise
    s = LiftedSequence(3, ((-5, 25, 6), (-1, 1, -6), (0, 0, -5), (1, 1, -1), (-3, 7, 9)))
    failures = validate_cyclic_projections(s).failures
    assert [tup for tup, _ in failures] == [(0, 1, 4), (0, 2, 4), (0, 3, 4)]
    for search in (color_table, longest_monotone_path):
        with pytest.raises(WrongOrientationError, match="not cyclically ordered"):
            search(s)


def test_projections_shared_inside_a_middle_are_refused():
    # points 2 and 3 share a projection, so every cofactor of the middle
    # (2, 3) vanishes; no key can be formed from it
    s = LiftedSequence(3, ((0, 0, 0), (1, 1, 0), (2, 4, 0), (2, 4, 1), (3, 9, 1)))
    assert not validate_cyclic_projections(s).valid
    for search in (color_table, longest_monotone_path):
        with pytest.raises(WrongOrientationError, match="not cyclically ordered"):
            search(s)


@st.composite
def any_inputs(draw):
    """Lifted sequences of any orientation: projections from a small grid,
    so coincident and clockwise ones are common, or on the moment curve,
    in either direction, with one projection perhaps copied onto the next."""
    d = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(d + 1, 8))
    if draw(st.booleans()):
        coords = st.tuples(*[st.integers(-2, 2)] * (d - 1))
        zs = draw(st.lists(coords, min_size=n, max_size=n))
    else:
        ts = sorted(draw(st.sets(st.integers(-4, 6), min_size=n, max_size=n)))
        zs = [tuple(t ** e for e in range(1, d)) for t in ts]
        if draw(st.booleans()):
            zs.reverse()
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 2))
            zs[i + 1] = zs[i]
    hs = draw(st.lists(HEIGHTS, min_size=n, max_size=n))
    return LiftedSequence(d, tuple(z + (h,) for z, h in zip(zs, hs)))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(any_inputs())
def test_the_engine_refuses_exactly_what_the_validators_refuse(s):
    # not cyclic: WrongOrientationError; cyclic but degenerate:
    # DegenerateInputError at the scan's lex-least zero; no other error
    cyclic = validate_cyclic_projections(s).valid
    general = validate_general_position(s)
    for search in (color_table, longest_monotone_path):
        try:
            search(s)
        except WrongOrientationError:
            assert not cyclic
        except DegenerateInputError as exc:
            assert cyclic and exc.witness == general.failures[0][0]
        else:
            assert cyclic and general.valid
