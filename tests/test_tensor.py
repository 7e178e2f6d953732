"""Tensor containers, polynomial views and diagonals."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorhit.errors import DiagonalOutOfRange, ShapeMismatch
from tensorhit.field import make_prime_field
from tensorhit.hitting import Measurement
from tensorhit.tensor import (
    DenseTensor,
    LowRankTensor,
    Rank1Tensor,
    diagonal,
    eval_fT,
    eval_fhat,
    expand,
    matrix_rank,
    set_diagonal,
)

GF5 = make_prime_field(5)
GF7 = make_prime_field(7)
GF11 = make_prime_field(11)


def _rand_dense(ctx, rng, dims):
    return DenseTensor(
        ctx, dims, [rng.randrange(ctx.size) for _ in range(math.prod(dims))]
    )


def test_inner_product_rank1_factored_shortcut():
    # <T, a_1 x a_2> through eval_fT, against both sides expanded
    t1 = Rank1Tensor(GF7, ((1, 2), (3, 1)))
    t2 = Rank1Tensor(GF7, ((1, 1), (1, 4)))
    dense = GF7.dot(t1.expand().entries, t2.expand().entries)
    assert eval_fT(t1.expand(), t2.factors) == dense == 0


def test_rank1_shortcut_exhaustive_small():
    ctx = make_prime_field(3)
    vecs = [v for v in itertools.product(range(3), repeat=2) if any(v)]
    for u1, v1, u2, v2 in itertools.product(vecs, repeat=4):
        a = Rank1Tensor(ctx, (u1, v1)).expand()
        b = Rank1Tensor(ctx, (u2, v2))
        assert eval_fT(a, b.factors) == ctx.dot(a.entries, b.expand().entries)


def test_inner_product_expands_low_rank_operands():
    # a factored or dense member's inner product with a factored or dense tensor
    lr = LowRankTensor.from_factor_lists(
        GF7, (2, 3), [[(1, 2), (3, 0, 1)], [(4, 4), (1, 5, 6)]]
    )
    other = LowRankTensor.from_factor_lists(GF7, (2, 3), [[(2, 1), (1, 1, 1)]])
    dense = _rand_dense(GF7, random.Random(7), (2, 3))
    r1 = Rank1Tensor(GF7, ((3, 5), (0, 2, 1)))
    full = [(lr, expand(lr)), (other, expand(other)), (dense, dense), (r1.expand(), r1.expand())]
    members = [(Measurement(k=0, ls=(), factors=r1.factors), r1.expand()),
               (Measurement(k=0, ls=(), entries=tuple(dense.entries)), dense)]
    for (a, fa), (m, fm) in itertools.product(full, members):
        assert m.inner(GF7, a) == GF7.dot(fa.entries, fm.entries)


def test_inner_product_shape_mismatch():
    member = Measurement(k=0, ls=(), factors=((1, 1), (1, 1)))
    with pytest.raises(ShapeMismatch):
        member.inner(GF5, DenseTensor.zeros(GF5, (2, 3)))


def test_eval_fT_examples():
    z = DenseTensor.zeros(GF5, (2, 3))
    assert eval_fT(z, [(1, 2), (3, 4, 0)]) == 0
    e00 = DenseTensor(GF5, (2, 2), [1, 0, 0, 0])
    assert eval_fT(e00, [(1, 1), (1, 1)]) == 1


def test_eval_fT_matches_outer_product_oracle():
    rng = random.Random(2)
    for _ in range(100):
        t = _rand_dense(GF11, rng, (3, 3, 3))
        vecs = [tuple(rng.randrange(11) for _ in range(3)) for _ in range(3)]
        outer = [GF11.one]
        for v in vecs:
            outer = [GF11.mul(e, c) for e in outer for c in v]
        assert eval_fT(t, vecs) == GF11.dot(t.entries, outer)


def test_eval_fhat_examples():
    rng = random.Random(3)
    t = _rand_dense(GF11, rng, (3, 2))
    assert eval_fhat(t, [0, 0]) == t[0, 0]
    eye = DenseTensor(GF5, (2, 2), [1, 0, 0, 1])
    assert eval_fhat(eye, [2, 3]) == (1 + 2 * 3) % 5


def test_eval_fhat_matches_moment_vector_oracle():
    rng = random.Random(4)
    for _ in range(100):
        t = _rand_dense(GF11, rng, (3, 3, 3))
        xs = [rng.randrange(11) for _ in range(3)]
        moments = [tuple(pow(x, i, 11) for i in range(3)) for x in xs]
        assert eval_fhat(t, xs) == eval_fT(t, moments)


def test_expand_empty_terms_is_zero():
    t = LowRankTensor(GF5, (2, 2), ())
    assert expand(t).is_zero()


def test_matrix_rank_identity_and_bound():
    eye = DenseTensor(GF7, (3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert matrix_rank(eye) == 3
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randint(1, 3)
        terms = []
        for _ in range(r):
            u = tuple(rng.randrange(7) for _ in range(4))
            v = tuple(rng.randrange(7) for _ in range(4))
            if any(u) and any(v):
                terms.append(Rank1Tensor(GF7, (u, v)))
        t = LowRankTensor(GF7, (4, 4), tuple(terms))
        assert matrix_rank(expand(t)) <= len(terms)


def test_zero_factor_terms_dropped_on_normalization():
    t = LowRankTensor.from_factor_lists(
        GF5, (2, 2), [((1, 2), (0, 0)), ((1, 0), (0, 1))]
    )
    assert len(t.terms) == 1


def test_rank1_rejects_zero_factor():
    with pytest.raises(ShapeMismatch):
        Rank1Tensor(GF5, ((0, 0), (1, 2)))


def test_diagonal_examples():
    m = DenseTensor(GF7, (3, 3), list(range(9)))
    assert diagonal(m, 0) == [m[0, 0]]
    assert diagonal(m, 2) == [m[0, 2], m[1, 1], m[2, 0]]
    wide = DenseTensor(GF7, (3, 4), list(range(12)))
    # oracle: enumerate index pairs with i + j = 4
    expected = [wide[i, 4 - i] for i in range(3) if 0 <= 4 - i < 4]
    got = diagonal(wide, 4)
    assert got == expected and len(got) == min(5, 3, 7 - 5)
    with pytest.raises(DiagonalOutOfRange):
        diagonal(m, 5)


def test_set_diagonal_roundtrip():
    m = DenseTensor.zeros(GF7, (3, 4))
    set_diagonal(m, 3, [1, 2, 3])
    assert diagonal(m, 3) == [1, 2, 3]
    with pytest.raises(ShapeMismatch):
        set_diagonal(m, 3, [1, 2])


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.data())
@settings(max_examples=60, deadline=None)
def test_diagonal_concatenation_is_permutation_of_entries(n, m, data):
    entries = data.draw(
        st.lists(st.integers(0, 6), min_size=n * m, max_size=n * m)
    )
    t = DenseTensor(GF7, (n, m), entries)
    concat = []
    for k in range(n + m - 1):
        concat.extend(diagonal(t, k))
    assert sorted(concat) == sorted(entries)


def _permuted(t, perm):
    """t with axis perm[j] moved to position j, built entry by entry."""
    p = DenseTensor.zeros(t.ctx, tuple(t.dims[a] for a in perm))
    for idx in itertools.product(*map(range, t.dims)):
        p[tuple(idx[a] for a in perm)] = t[idx]
    return p


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_permute_axes_moves_each_entry_and_inverts(data):
    # f_T of the axis-permuted tensor at the permuted vectors is f_T of t
    d = data.draw(st.integers(1, 4))
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d)))
    size = math.prod(dims)
    entries = data.draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    t = DenseTensor(GF7, dims, entries)
    perm = tuple(data.draw(st.permutations(range(d))))
    p = _permuted(t, perm)
    vectors = [tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
               for n in dims]
    assert eval_fT(p, [vectors[a] for a in perm]) == eval_fT(t, vectors)


def test_permute_axes_preserves_monomial_count():
    # f-hat of the permuted tensor at the permuted points is f-hat of t: the
    # same monomials, each with its exponents moved to the new axes
    rng = random.Random(6)
    for _ in range(50):
        t = _rand_dense(GF7, rng, (2, 3, 4))
        p = _permuted(t, (2, 0, 1))
        xs = [rng.randrange(7) for _ in range(3)]
        assert eval_fhat(p, [xs[2], xs[0], xs[1]]) == eval_fhat(t, xs)


@pytest.mark.parametrize("call, message", [
    (lambda: DenseTensor(GF5, (2, 3), [0] * 5), r"5 entries for shape \(2, 3\)"),
    (lambda: DenseTensor.from_rows(GF5, [[1, 2], [3]]), "ragged rows"),
    (lambda: LowRankTensor(GF5, (2, 2), (Rank1Tensor(GF5, ((1, 2), (1, 2, 3))),)),
     "term shape differs from tensor shape"),
    (lambda: DenseTensor.zeros(GF5, (2, 3))[0,], r"index \(0,\) for shape \(2, 3\)"),
    (lambda: DenseTensor.zeros(GF5, (2, 3))[2, 0], r"index \(2, 0\) out of bounds for \(2, 3\)"),
    (lambda: DenseTensor.zeros(GF5, (2, 2, 2)).rows(), r"rows\(\) requires a matrix"),
    (lambda: Measurement(k=0, ls=(), factors=((1, 1),)).inner(GF5, DenseTensor.zeros(GF7, (2,))),
     "tensor field does not embed in the family field"),
    (lambda: Measurement(k=0, ls=(), factors=((1, 1), (1, 1))).inner(
        GF5, DenseTensor.zeros(GF5, (4,))), "one vector per axis required"),
    (lambda: eval_fT(DenseTensor.zeros(GF5, (2, 3)), [(1, 1)]), "one vector per axis required"),
    (lambda: eval_fT(DenseTensor.zeros(GF5, (2, 3)), [(1, 1), (1, 1)]),
     "vector length does not match axis"),
    (lambda: eval_fhat(DenseTensor.zeros(GF5, (2, 3)), [1]), "one scalar per axis required"),
    (lambda: diagonal(DenseTensor.zeros(GF5, (2, 2, 2)), 0), "diagonal requires a matrix"),
    (lambda: set_diagonal(DenseTensor.zeros(GF5, (2, 2, 2)), 0, [1]),
     "set_diagonal requires a matrix"),
    (lambda: set_diagonal(DenseTensor.zeros(GF5, (2, 3)), 1, [1]), "diagonal 1 has 2 slots"),
], ids=["dense-entry-count", "ragged-rows", "low-rank-term-shape", "index-length",
        "index-out-of-bounds", "rows-of-a-non-matrix", "inner-product-fields",
        "inner-product-shapes", "eval-ft-vector-count", "eval-ft-vector-length",
        "eval-fhat-scalar-count", "diagonal-of-a-non-matrix", "set-diagonal-of-a-non-matrix",
        "set-diagonal-length"])
def test_malformed_inputs_raise_shape_mismatch(call, message):
    with pytest.raises(ShapeMismatch, match=message):
        call()
