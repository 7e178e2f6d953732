"""Dual Reed-Solomon measurements and Prony decoding with advice."""

import itertools
import random
import re

import pytest
from _det import det
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorhit import linalg
from tensorhit.errors import AdviceTooLarge, DuplicatePoints, InconsistentSyndrome, ShapeMismatch
from tensorhit.errors import TensorhitError
from tensorhit.field import make_extension, make_prime_field
from tensorhit.sparse import (
    dual_rs,
    prony_support,
    pronys_method,
    vandermonde_inverse,
    vandermonde_solve,
)

GF7 = make_prime_field(7)
GF13 = make_prime_field(13)


def test_dual_rs_minimal():
    g = GF7.element_of_order(2)
    v = dual_rs(GF7, [GF7.one, g], 1)
    assert [list(r) for r in v.rows] == [[1, 1], [1, g]]


def test_dual_rs_default_points_gf7():
    v = dual_rs(GF7, 4, 1)
    assert list(v.points) == [1, 3, 2, 6]
    assert [list(r) for r in v.rows][1] == [1, 3, 2, 6]


def test_dual_rs_duplicate_points():
    with pytest.raises(DuplicatePoints):
        dual_rs(GF7, [1, 2, 1], 1)


def test_dual_rs_all_2s_minors_invertible():
    v = dual_rs(GF13, 6, 2)
    for cols in itertools.combinations(range(6), 4):
        minor = [[v.rows[i][c] for c in cols] for i in range(4)]
        assert det(GF13, minor) != 0


def test_prony_zero_syndrome():
    v = dual_rs(GF7, 5, 2)
    assert pronys_method(GF7, 5, 2, set(), [0, 0, 0, 0], list(v.points)) == [0] * 5


def test_prony_single_spike_brute_force_oracle():
    # brute force all 1-sparse vectors of length 4: syndromes are unique,
    # and the decoder returns exactly the planted preimage
    v = dual_rs(GF7, 4, 1)
    seen = {}
    for pos in range(4):
        for val in range(1, 7):
            x = [0] * 4
            x[pos] = val
            y = tuple(v.measure(x))
            assert y not in seen
            seen[y] = x
            assert pronys_method(GF7, 4, 1, set(), list(y), list(v.points)) == x


def test_prony_advice_example():
    v = dual_rs(GF7, 4, 1)
    x = [2, 5, 0, 0]
    y = v.measure(x)
    assert y == [0, 3]
    # oracle: the 2x2 Vandermonde on columns {0, 1} is invertible and solves to x
    sol = linalg.solve(
        GF7, [[1, 1], [1, 3]], y
    )
    assert sol == [2, 5]
    assert pronys_method(GF7, 4, 1, {0, 1}, y, list(v.points)) == x


def _valid_pairs(n, s, q):
    """All (x, S) meeting the advice-sparsity promise, exhaustively."""
    for s_size in range(0, 2 * s + 1):
        for s_set in itertools.combinations(range(n), s_size):
            budget = s - (s_size + 1) // 2
            for out_size in range(0, budget + 1):
                outside = [i for i in range(n) if i not in s_set]
                for out_set in itertools.combinations(outside, out_size):
                    yield set(s_set), list(s_set) + list(out_set)


def test_prony_roundtrip_exhaustive_tiny():
    # full check at n = 4, s <= 2 over GF(13); the acceptance suite scales to n = 6
    v_by_s = {s: dual_rs(GF13, 4, s) for s in (1, 2)}
    rng = random.Random(0)
    for s in (1, 2):
        v = v_by_s[s]
        for advice, supp in _valid_pairs(4, s, 13):
            for _ in range(3):
                x = [0] * 4
                for i in supp:
                    x[i] = rng.randrange(13)
                y = v.measure(x)
                got = pronys_method(GF13, 4, s, advice, y, list(v.points))
                assert got == x, (advice, x)


def test_prony_uniqueness_tiny():
    # two distinct promise-respecting vectors never share a syndrome
    v = dual_rs(GF7, 4, 1)
    seen = {}
    for supp in itertools.combinations(range(4), 1):
        for val in range(7):
            x = [0] * 4
            x[supp[0]] = val
            y = tuple(v.measure(x))
            if y in seen:
                assert seen[y] == x
            seen[y] = x


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_prony_roundtrip_random_medium(data):
    ctx = make_prime_field(67)
    n, s = 16, 3
    v = dual_rs(ctx, n, s)
    s_size = data.draw(st.integers(0, 2 * s))
    advice = set(data.draw(st.permutations(range(n)))[:s_size])
    budget = s - (s_size + 1) // 2
    extra = data.draw(st.integers(0, budget))
    outside = [i for i in range(n) if i not in advice]
    supp = set(data.draw(st.permutations(outside))[:extra]) | advice
    x = [0] * n
    for i in supp:
        x[i] = data.draw(st.integers(0, 66))
    y = v.measure(x)
    assert pronys_method(ctx, n, s, advice, y, list(v.points)) == x


def test_prony_advice_too_large():
    v = dual_rs(GF7, 4, 1)
    with pytest.raises(AdviceTooLarge):
        pronys_method(GF7, 4, 1, {0, 1, 2}, [0, 0], list(v.points))


@pytest.mark.parametrize("advice", [{-1}, {4}])
def test_prony_advice_must_index_the_vector(advice):
    v = dual_rs(GF7, 4, 1)
    with pytest.raises(AdviceTooLarge, match="advice positions must index the vector"):
        pronys_method(GF7, 4, 1, advice, [0, 0], list(v.points))


def test_prony_inconsistent_syndrome_detected():
    # a 3-sparse vector breaks the s=1 promise; the verifier must notice
    v = dual_rs(GF7, 4, 1)
    x = [1, 1, 1, 0]
    y = v.measure(x)
    with pytest.raises(InconsistentSyndrome):
        got = pronys_method(GF7, 4, 1, set(), y, list(v.points))
        # if no exception, the answer must at least not be silently wrong
        assert got != x
        raise InconsistentSyndrome("decoder accepted an out-of-promise input")


def test_prony_odd_advice_enlargement():
    v = dual_rs(GF13, 5, 2)
    x = [3, 0, 0, 7, 0]
    y = v.measure(x)
    assert pronys_method(GF13, 5, 2, {0}, y, list(v.points)) == x


def test_prony_full_advice_simulates_extra_index():
    # S = [n] with odd n forces the simulated (n+1)-st coordinate
    v = dual_rs(GF13, 3, 2)
    x = [5, 6, 1]
    y = v.measure(x)
    assert pronys_method(GF13, 3, 2, {0, 1, 2}, y, list(v.points)) == x


def test_prony_rejects_a_syndrome_count_other_than_2s():
    v = dual_rs(GF13, 5, 2)
    y = v.measure([3, 0, 0, 7, 0])
    with pytest.raises(ShapeMismatch, match="expected 4 syndrome values, got 3"):
        pronys_method(GF13, 5, 2, set(), y[:3], list(v.points))


def test_prony_rejects_a_point_count_other_than_n():
    v = dual_rs(GF13, 5, 2)
    y = v.measure([3, 0, 0, 7, 0])
    with pytest.raises(ShapeMismatch, match="one evaluation point per coordinate"):
        pronys_method(GF13, 5, 2, set(), y, list(v.points)[:4])


SOLVE_FIELDS = {
    "GF65537": make_prime_field(65537),
    "GF(2^64-59)": make_prime_field(2**64 - 59),
    "GF(2^8)": make_extension(make_prime_field(2), 8),
    "GF(3^5)": make_extension(make_prime_field(3), 5),
    "GF(2^13)": make_extension(make_prime_field(2), 13),  # above the table cap: convolution
}


@given(st.sampled_from(sorted(SOLVE_FIELDS)), st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_the_transposed_vandermonde_solve_equals_elimination(name, data):
    ctx = SOLVE_FIELDS[name]
    elements = st.integers(0, ctx.size - 1).map(ctx.from_index)
    points = data.draw(st.lists(elements, min_size=1, max_size=8, unique=True))
    rows = [[ctx.pow(p, l) for p in points]
            for l in range(len(points) + data.draw(st.integers(0, 3)))]
    master = linalg.poly_from_roots(ctx, points)
    # any right-hand side: the square system alone decides x
    y = data.draw(st.lists(elements, min_size=len(rows), max_size=len(rows)))
    expected = linalg.solve(ctx, rows[: len(points)], y[: len(points)])
    assert vandermonde_solve(ctx, master, points, y) == expected
    # a consistent one: the redundant rows agree with the same x
    x = data.draw(st.lists(elements, min_size=len(points), max_size=len(points)))
    y = [ctx.dot(row, x) for row in rows]
    assert vandermonde_solve(ctx, master, iter(points), y) == linalg.solve(ctx, rows, y) == x


@given(st.sampled_from(sorted(SOLVE_FIELDS)), st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_the_transposed_vandermonde_inverse_equals_elimination(name, data):
    ctx = SOLVE_FIELDS[name]
    elements = st.integers(0, ctx.size - 1).map(ctx.from_index)
    points = data.draw(st.lists(elements, min_size=1, max_size=8, unique=True))
    rows = [[ctx.pow(p, l) for p in points] for l in range(len(points))]
    y = data.draw(st.lists(elements, min_size=len(points), max_size=len(points)))
    inverse = vandermonde_inverse(ctx, iter(points))
    assert [ctx.dot(row, y) for row in inverse] == linalg.solve(ctx, rows, y)


@pytest.mark.parametrize("solve", [
    lambda ctx, points: vandermonde_solve(ctx, linalg.poly_from_roots(ctx, points), points,
                                          [ctx.one] * len(points)),
    vandermonde_inverse,
], ids=["solve", "inverse"])
def test_two_coinciding_points_make_an_unsolvable_square_system(solve):
    for points in ([3, 3], [1, 5, 1], [2, 7, 9, 7]):
        with pytest.raises(InconsistentSyndrome, match="^unsolvable square system$"):
            solve(GF13, points)


@given(st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_prony_support_covers_every_nonzero_of_the_dense_output(data):
    n, s = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
    v = dual_rs(GF13, n, s)
    advice = set(data.draw(st.lists(st.integers(0, n - 1), max_size=min(n, 2 * s), unique=True)))
    if data.draw(st.booleans()):  # a vector within the promise
        budget = s - (len(advice) + 1) // 2
        x = [0] * n
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=budget, unique=True)) + list(advice):
            x[i] = data.draw(st.integers(0, 12))
        y = v.measure(x)
    else:  # any syndrome
        y = data.draw(st.lists(st.integers(0, 12), min_size=2 * s, max_size=2 * s))
    args = (GF13, n, s, advice, y, list(v.points))
    try:
        dense = pronys_method(*args)
    except TensorhitError as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            prony_support(*args)
        return
    support, values = prony_support(*args)
    assert len(set(support)) == len(support) == len(values)
    assert advice <= set(support)
    assert {i for i, val in enumerate(dense) if val} <= set(support)
    assert [dense[i] for i in support] == values
