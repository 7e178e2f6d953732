"""Interpolation through the cached Newton tables, against a Vandermonde solve."""

import pytest
from _det import det
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorhit import linalg
from tensorhit.errors import ShapeMismatch
from tensorhit.field import make_extension, make_prime_field

FIELDS = {
    "GF2": make_prime_field(2),  # the narrowest slots of the packed tables
    "GF13": make_prime_field(13),
    "GF(2^3)": make_extension(make_prime_field(2), 3),
    "GF(3^2)": make_extension(make_prime_field(3), 2),
    "GF65537": make_prime_field(65537),
    "GF(2^64-59)": make_prime_field(2**64 - 59),  # the widest
}


def vandermonde_interpolate(ctx, xs, ys):
    rows = [ctx.powers(x, len(ys)) for x in xs[: len(ys)]]
    return linalg.solve(ctx, rows, list(ys))


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_every_prefix_interpolates_as_the_vandermonde_solve(name, data):
    ctx = FIELDS[name]
    idx = st.integers(0, ctx.size - 1)
    xs = [ctx.from_index(t) for t in
          data.draw(st.lists(idx, min_size=1, max_size=min(ctx.size, 12), unique=True))]
    tables = linalg.newton_tables(ctx, xs)
    for count in range(len(xs) + 1):
        for _ in range(2):  # a second call with other values
            ys = [ctx.from_index(t) for t in
                  data.draw(st.lists(idx, min_size=count, max_size=count))]
            assert linalg.poly_interpolate(ctx, tables, ys) == vandermonde_interpolate(ctx, xs, ys)
    assert linalg.newton_tables(ctx, xs) == tables
    with pytest.raises(ShapeMismatch):
        linalg.poly_interpolate(ctx, tables, xs + [ctx.one])


@pytest.mark.parametrize("fields,xs", [
    ((make_prime_field(13), make_prime_field(65537)), [1, 2, 3, 4, 5, 6]),
    ((make_extension(make_prime_field(2), 2), make_extension(make_prime_field(3), 2)),
     [(0, 0), (1, 0), (0, 1), (1, 1)]),
], ids=["GF13-GF65537", "GF(2^2)-GF(3^2)"])
def test_one_point_tuple_in_two_fields_gives_each_fields_answer(fields, xs):
    ys = list(reversed(xs))
    answers = [vandermonde_interpolate(ctx, xs, ys) for ctx in fields]
    assert answers[0] != answers[1]
    for ctx, want in [*zip(fields, answers), (fields[0], answers[0])]:
        assert linalg.poly_interpolate(ctx, linalg.newton_tables(ctx, xs), ys) == want


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_duplicate_points_raise_zero_division(name):
    ctx = FIELDS[name]
    a, b = ctx.zero, ctx.one  # GF(2) has no second nonzero element
    with pytest.raises(ZeroDivisionError):
        linalg.newton_tables(ctx, [a, b, a])


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    ctx = FIELDS["GF13"]
    with pytest.raises(ShapeMismatch, match="rhs length does not match row count"):
        linalg.solve(ctx, [[1, 0], [0, 1]], [1, 2, 3])


def test_det_rejects_a_non_square_matrix():
    ctx = FIELDS["GF13"]
    with pytest.raises(ShapeMismatch, match="determinant needs a square matrix"):
        det(ctx, [[1, 2, 3], [4, 5, 6]])


def test_solve_rejects_an_underdetermined_consistent_system():
    ctx = FIELDS["GF13"]
    with pytest.raises(ShapeMismatch, match="underdetermined system"):
        linalg.solve(ctx, [[1, 2, 3], [2, 4, 6]], [1, 2])
