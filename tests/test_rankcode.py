"""Rank-metric codes: construction, systematic encoding, decoding, distance."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorhit import rankcode
from tensorhit.errors import DecodeFailure, LengthMismatch, ShapeMismatch, TooLarge
from tensorhit.field import make_prime_field
from tensorhit.lrr import measure_syndromes
from tensorhit.rankcode import (
    build_code,
    decode,
    encode,
    error_rank_bound,
    min_distance_brute,
    syndrome,
)
from tensorhit.tensor import DenseTensor, matrix_rank

GF7 = make_prime_field(7)
GF13 = make_prime_field(13)


def _rand_low_rank(ctx, rng, dims, r):
    out = DenseTensor.zeros(ctx, dims)
    for _ in range(r):
        vecs = [
            [ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)] for n in dims
        ]
        term = [ctx.one]
        for v in vecs:
            term = [ctx.mul(e, c) for e in term for c in v]
        out.entries = [ctx.add(a, b) for a, b in zip(out.entries, term)]
    return out


def test_build_code_dimensions():
    code = build_code(GF13, (4, 4), 1, "Dprime")
    assert code.dimension == 16 - 12 == 4
    code7 = build_code(GF7, (3, 3), 1, "Dprime")
    assert code7.dimension == 9 - 8 == 1
    with pytest.raises(ValueError):
        build_code(GF13, (4, 4), 0, "Dprime")


@pytest.mark.parametrize("received", [DenseTensor.zeros(GF13, (4, 3)),
                                      DenseTensor.zeros(GF13, (2, 2, 4)),
                                      DenseTensor.zeros(GF7, (4, 4))],
                         ids=["4x3", "2x2x4", "GF7"])
def test_decode_rejects_a_word_of_another_shape_or_field(received):
    code = build_code(GF13, (4, 4), 1, "Dprime")
    with pytest.raises(ShapeMismatch, match="does not match the code's shape/field"):
        decode(code, received)


def test_encode_zero_and_units():
    code = build_code(GF13, (4, 4), 1, "Dprime")
    assert encode(code, [0, 0, 0, 0]).is_zero()
    for i in range(code.dimension):
        msg = [0] * code.dimension
        msg[i] = 1
        assert encode(code, msg).entries == list(code.basis[i])
    with pytest.raises(LengthMismatch):
        encode(code, [1, 2, 3])


def test_every_codeword_has_zero_syndrome():
    rng = random.Random(0)
    code = build_code(GF13, (4, 4), 1, "Dprime")
    for _ in range(1000):
        msg = [rng.randrange(13) for _ in range(code.dimension)]
        word = encode(code, msg)
        assert all(s == 0 for s in syndrome(code, word))


def test_syndrome_linearity_exhaustive_tiny():
    code = build_code(GF7, (3, 3), 1, "Dprime")
    errors = [
        DenseTensor(GF7, (3, 3), [a * b % 7 for a in u for b in v])
        for u in itertools.product(range(2), repeat=3)
        for v in itertools.product(range(2), repeat=3)
    ]
    for msg in range(7):
        word = encode(code, [msg])
        for err in errors[:20]:
            recv = DenseTensor(
                GF7, (3, 3), [GF7.add(a, b) for a, b in zip(word.entries, err.entries)]
            )
            assert syndrome(code, recv) == syndrome(code, err)


def test_decode_no_error():
    code = build_code(GF13, (4, 4), 1, "Dprime")
    word = encode(code, [1, 2, 3, 4])
    got_word, got_err = decode(code, word)
    assert got_word.entries == word.entries and got_err.is_zero()


@pytest.mark.parametrize("family", ["Dprime", "Bprime"])
def test_decode_roundtrip_families(family):
    rng = random.Random(1)
    code = build_code(GF13, (6, 6), 2, family)
    assert code.dimension == 36 - 2 * (6 + 6 - 4) * 2
    for _ in range(50):
        msg = [rng.randrange(13) for _ in range(code.dimension)]
        word = encode(code, msg)
        err = _rand_low_rank(GF13, rng, (6, 6), 2)
        recv = DenseTensor(
            GF13, (6, 6), [GF13.add(a, b) for a, b in zip(word.entries, err.entries)]
        )
        got_word, got_err = decode(code, recv)
        assert got_word.entries == word.entries
        assert got_err.entries == err.entries


def test_decode_tensor_code():
    from tensorhit.field import _is_prime

    p = (2 * 3 * 2) ** 3 + 1
    while not _is_prime(p):
        p += 1
    ctx = make_prime_field(p)
    code = build_code(ctx, (2, 2, 2), 1, "TensorB")
    # 3*2*2^2 = 24 parity rows over 8 entries: dimension is 8 - rank(parity)
    assert len(code.parity) == 24
    assert code.dimension == 8 - _stack_rank(ctx, code)
    rng = random.Random(2)
    if code.dimension:
        for _ in range(5):
            msg = [ctx.from_index(rng.randrange(ctx.size)) for _ in range(code.dimension)]
            word = encode(code, msg)
            err = _rand_low_rank(ctx, rng, (2, 2, 2), 1)
            recv = DenseTensor(
                ctx, (2, 2, 2),
                [ctx.add(a, b) for a, b in zip(word.entries, err.entries)],
            )
            got_word, got_err = decode(code, recv)
            assert got_word.entries == word.entries


def _stack_rank(ctx, code):
    from tensorhit import linalg

    return linalg.rank(ctx, code.parity.dense_rows())


def test_decode_flags_oversized_error():
    # errors of rank r+1 must never produce a silently wrong accepted word
    rng = random.Random(3)
    code = build_code(GF13, (4, 4), 1, "Dprime")
    planted = encode(code, [1, 2, 3, 4])
    tried = 0
    for _ in range(200):
        err = _rand_low_rank(GF13, rng, (4, 4), 2)
        if matrix_rank(err) != 2:
            continue
        tried += 1
        recv = DenseTensor(
            GF13, (4, 4), [GF13.add(a, b) for a, b in zip(planted.entries, err.entries)]
        )
        try:
            got_word, got_err = decode(code, recv)
        except DecodeFailure:
            continue
        # accepted: the output must be a certified decode of recv
        assert all(s == 0 for s in syndrome(code, got_word))
        assert error_rank_bound(got_err) <= code.r
        combined = [
            GF13.add(a, b) for a, b in zip(got_word.entries, got_err.entries)
        ]
        assert combined == recv.entries
    assert tried > 50


def _plus(a, b):
    return DenseTensor(a.ctx, a.dims, [a.ctx.add(x, y) for x, y in zip(a.entries, b.entries)])


def _decode_with_recovered_error(monkeypatch, code, received, recovered):
    """decode(code, received) with recovery replaced by one returning ``recovered``."""
    def fake(ctx, family, dims, r, synd):
        assert synd == syndrome(code, received)
        return recovered

    monkeypatch.setattr(rankcode.lrr, "recover", fake)
    return decode(code, received)


def test_decode_rejects_a_recovered_error_that_leaves_a_nonzero_syndrome(monkeypatch):
    # a rank-1 error other than the true one: received minus it is no codeword
    code = build_code(GF13, (4, 4), 1, "Dprime")
    err = DenseTensor(GF13, (4, 4), [0] * 15 + [5])
    received = _plus(encode(code, [1, 2, 3, 4]), err)
    wrong = DenseTensor(GF13, (4, 4), [7] + [0] * 15)
    assert matrix_rank(wrong) == code.r
    with pytest.raises(DecodeFailure, match="^decoded word has a nonzero syndrome$"):
        _decode_with_recovered_error(monkeypatch, code, received, wrong)


def test_decode_rejects_a_recovered_error_above_the_radius(monkeypatch):
    # the true error plus a nonzero codeword: the syndrome still vanishes, but
    # a codeword has rank >= 2r + 1, so the sum has rank > r
    code = build_code(GF13, (4, 4), 1, "Dprime")
    err = DenseTensor(GF13, (4, 4), [0] * 15 + [5])
    received = _plus(encode(code, [1, 2, 3, 4]), err)
    codeword = encode(code, [1, 0, 0, 0])
    assert not codeword.is_zero() and all(v == 0 for v in syndrome(code, codeword))
    too_big = _plus(err, codeword)
    assert error_rank_bound(too_big) > code.r
    with pytest.raises(DecodeFailure, match="^recovered error exceeds the correction radius$"):
        _decode_with_recovered_error(monkeypatch, code, received, too_big)


@st.composite
def _sparse_tensors(draw):
    """(dims, cells): a few nonzero cells, so the unfoldings' ranks differ by axis."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=4)))
    cell = st.tuples(*(st.integers(0, n - 1) for n in dims))
    return dims, draw(st.lists(st.tuples(cell, st.integers(1, 6)), max_size=6))


@given(_sparse_tensors())
# the largest unfolding rank on one axis alone: the first, the last, a middle one
@example(((3, 2, 2), [((0, 0, 0), 1), ((1, 0, 1), 2), ((2, 1, 0), 3)]))
@example(((2, 2, 3), [((0, 0, 0), 1), ((1, 0, 1), 2), ((0, 1, 2), 3)]))
@example(((2, 2, 3, 2), [((0, 0, 0, 0), 1), ((1, 0, 1, 0), 2), ((0, 1, 2, 0), 3)]))
@settings(max_examples=100, deadline=None)
def test_error_rank_bound_is_the_largest_unfolding_rank(tensor):
    dims, cells = tensor
    t = DenseTensor.zeros(GF7, dims)
    for idx, v in cells:
        t[idx] = v
    ranks = []
    for a, n in enumerate(dims):  # row i: the entries with index i on axis a
        others = [range(m) for b, m in enumerate(dims) if b != a]
        rows = [[t[(*rest[:a], i, *rest[a:])] for rest in itertools.product(*others)]
                for i in range(n)]
        ranks.append(matrix_rank(DenseTensor.from_rows(GF7, rows)))
    assert error_rank_bound(t) == max(ranks)


def test_min_distance_dim1_instance():
    code = build_code(GF7, (3, 3), 1, "Dprime")
    assert code.dimension == 1
    # oracle: enumerate the 6 nonzero scalar multiples and take matrix rank
    base = DenseTensor(GF7, (3, 3), list(code.basis[0]))
    ranks = set()
    for c in range(1, 7):
        scaled = DenseTensor(GF7, (3, 3), [GF7.mul(c, e) for e in base.entries])
        ranks.add(matrix_rank(scaled))
    assert min(ranks) == min_distance_brute(code) == 3


def test_min_distance_zero_dim_sentinel():
    # parity checks span everything at r = n: dimension 0
    code = build_code(GF7, (2, 2), 1, "Dprime")
    assert code.dimension == 0
    assert min_distance_brute(code) == math.inf


def test_min_distance_cap():
    code = build_code(GF13, (6, 6), 1, "Dprime")
    if code.dimension >= 6:
        with pytest.raises(TooLarge):
            min_distance_brute(code, cap=1000)


def test_simulated_parity_count_scales_by_degree():
    # over a small base field the improper simulation multiplies the parity
    # count by the extension degree: 2(n+m-2r)r * k checks
    from tensorhit.field import make_extension
    from tensorhit.hitting import hitting_set_D_prime, simulate_improper

    gf2 = make_prime_field(2)
    for n, m, r, k in ((3, 3, 1, 2), (4, 6, 2, 3), (5, 5, 2, 3)):
        K = make_extension(gf2, k)
        parity = simulate_improper(hitting_set_D_prime(K, 2 * r, n, m))
        assert len(parity) == 2 * (n + m - 2 * r) * r * k


def test_full_space_distance_one():
    # no parity checks: every tensor is a codeword, so distance is 1
    from tensorhit.hitting import MeasurementSet
    from tensorhit.rankcode import RankMetricCode
    from tensorhit import linalg

    gf2 = make_prime_field(2)
    empty = MeasurementSet(gf2, (2, 2), "Dprime", 0, ())
    basis = linalg.nullspace_basis(gf2, [], 4)
    code = RankMetricCode(gf2, (2, 2), 1, "Dprime", empty, tuple(tuple(v) for v in basis))
    assert code.dimension == 4
    assert min_distance_brute(code) == 1
