"""Field construction, canonical choices, and arithmetic laws."""

import itertools
import operator
import random
import time

import pytest
from _det import det
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorhit.errors import CompositeCharacteristic, OrderUnreachable
from tensorhit.field import (
    FieldCtx,
    PrimeField,
    TableField,
    _factorize,
    _group_order_factors,
    _is_irreducible,
    _is_prime,
    embed_as_matrix,
    make_extension,
    make_field,
    make_prime_field,
)


def test_make_prime_field_basic():
    assert make_prime_field(7).p == 7
    assert make_prime_field(2).size == 2
    with pytest.raises(CompositeCharacteristic):
        make_prime_field(6)


def test_make_extension_requires_degree_two():
    with pytest.raises(ValueError):
        make_extension(make_prime_field(2), 1)
    with pytest.raises(ValueError):
        make_extension(make_extension(make_prime_field(2), 2), 2)


def _trial_division_irreducible(f, p):
    """Oracle: no monic factor of degree 1..deg/2 divides f."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            # long division remainder
            rem = list(f)
            while len(rem) - 1 >= d and any(rem):
                shift = len(rem) - 1 - d
                c = rem[-1]
                for i, gi in enumerate(g):
                    rem[shift + i] = (rem[shift + i] - c * gi) % p
                while rem and rem[-1] == 0:
                    rem.pop()
            if not rem:
                return False
    return True


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3)])
def test_modulus_is_lex_least_irreducible(p, k):
    # oracle: scan all monic degree-k candidates in constant-term-major order
    expected = None
    for tail in itertools.product(range(p), repeat=k):
        f = list(tail) + [1]
        if f[0] != 0 and _trial_division_irreducible(f, p):
            expected = tuple(f)
            break
    ext = make_extension(make_prime_field(p), k)
    assert ext.modulus == expected


def test_irreducibility_agrees_with_trial_division():
    # every monic candidate with a nonzero constant term, p^k <= 1024
    for p, kmax in ((2, 10), (3, 6), (5, 4), (7, 3)):
        for k in range(2, kmax + 1):
            for tail in itertools.product(range(1, p), *[range(p)] * (k - 1)):
                f = (*tail, 1)
                assert _is_irreducible(f, p) == _trial_division_irreducible(f, p), f
    # (x+1)(x^2+x+1)(x^3+x+1): x^64 = x mod f, so only the unit check rejects it
    f = (1, 1, 0, 0, 1, 0, 1)
    x = (0, 1, 0, 0, 0, 0)
    assert FieldCtx(2, 6, f).pow(x, 64) == x and not _is_irreducible(f, 2)


def test_extension_of_a_64_bit_prime():
    t0 = time.perf_counter()
    ctx = make_extension(make_prime_field(2**61 - 1), 2)
    assert time.perf_counter() - t0 < 1.0
    assert ctx.modulus == (1, 0, 1)  # 2^61 - 1 = 3 mod 4, so -1 is a non-square
    for a in ((1, 1), (0, 2**61 - 2), (12345, 2**60)):
        assert ctx.mul(a, ctx.inv(a)) == ctx.one
        assert ctx.inv(ctx.inv(a)) == a


def test_gf4_modulus_value():
    # exhaustive check leaves x^2+x+1 as the only monic irreducible quadratic
    assert make_extension(make_prime_field(2), 2).modulus == (1, 1, 1)


def test_gf9_modulus_value():
    assert make_extension(make_prime_field(3), 2).modulus == (1, 0, 1)


def test_find_element_of_order_examples():
    # 2^1..2^3 != 1 mod 5, exhaustively
    assert make_prime_field(5).element_of_order(4) == 2
    assert make_prime_field(7).element_of_order(6) == 3
    assert make_prime_field(11).element_of_order(1) == 1


def test_find_element_of_order_deterministic():
    ctx = make_prime_field(13)
    assert ctx.element_of_order(12) == ctx.element_of_order(12)
    fresh = make_prime_field(13)
    assert fresh.element_of_order(12) == ctx.element_of_order(12)


def test_order_unreachable():
    with pytest.raises(OrderUnreachable):
        make_prime_field(5).element_of_order(5)


def _brute_order(ctx, a):
    t, acc = 1, a
    while acc != ctx.one:
        acc = ctx.mul(acc, a)
        t += 1
    return t


def test_order_certification_paths_agree():
    # the factored-group-order certificate must agree with the least t, a^t = 1
    for ctx in (make_prime_field(101), make_extension(make_prime_field(3), 2)):
        orders = [_brute_order(ctx, a) for a in ctx.nonzero_elements()]
        for bound in range(ctx.size):
            expected = next(a for a, t in zip(ctx.nonzero_elements(), orders) if t >= bound)
            assert ctx.element_of_order(bound) == expected
            for a, t in zip(ctx.nonzero_elements(), orders):
                assert ctx.order_at_least(a, bound) == (t >= bound)
        assert not ctx.order_at_least(ctx.zero, 2)


@pytest.mark.parametrize("p,k", [(2, 9), (2, 12), (2, 13), (2, 16), (3, 6), (3, 7), (5, 4),
                                 (7, 6), (13, 3), (257, 4), (65537, 2), (2**61 - 1, 2),
                                 (2**31 - 1, 3)])
def test_cyclotomic_factors_merge_to_the_group_order_factorization(p, k):
    assert _group_order_factors(p, k) == _factorize(p**k - 1)


def test_the_group_order_of_gf_p2_for_a_64_bit_p_factors_at_once():
    # p - 1 and p + 1 of p = 2^64 - 845 each leave one prime near 2^60 after
    # small factors; their product is a two-prime rho would have to split
    p = 18446744073709550771
    t0 = time.perf_counter()
    factors = _group_order_factors(p, 2)
    assert time.perf_counter() - t0 < 1.0
    assert factors == {2: 3, 3: 2, 5: 1, 1844674407370955077: 1, 512409557603043077: 1}
    ctx = make_extension(make_prime_field(p), 2)
    assert ctx.order_at_least(ctx.element_of_order(6), 6)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    for n in range(10_000):
        assert _is_prime(n) == _trial_division_is_prime(n), n


def test_large_and_pseudoprime_characteristics():
    t0 = time.perf_counter()
    assert make_prime_field(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - t0 < 1.0
    for n in (2**61 + 1, 561, 2047):  # 561: Carmichael; 2047: strong pseudoprime base 2
        with pytest.raises(CompositeCharacteristic):
            make_prime_field(n)


def test_embed_as_matrix_examples():
    ext = make_extension(make_prime_field(2), 2)
    assert embed_as_matrix(ext, ext.zero) == [[0, 0], [0, 0]]
    assert embed_as_matrix(ext, ext.one) == [[1, 0], [0, 1]]
    x = (0, 1)
    # oracle: the full 4-element multiplication table of GF(4)
    table = {}
    for a in [ext.from_index(t) for t in range(4)]:
        for b in [ext.from_index(t) for t in range(4)]:
            table[a, b] = ext.mul(a, b)
    m = embed_as_matrix(ext, x)
    assert m == [[0, 1], [1, 1]]
    for b in [ext.from_index(t) for t in range(4)]:
        prod = table[x, b]
        via_matrix = tuple(
            sum(m[i][j] * b[j] for j in range(2)) % 2 for i in range(2)
        )
        assert via_matrix == prod


@pytest.mark.parametrize(
    "ctx",
    [
        make_extension(make_prime_field(2), 2),
        make_extension(make_prime_field(2), 3),
        make_extension(make_prime_field(3), 2),
        make_extension(make_prime_field(7), 2),
        make_extension(make_prime_field(2), 9),  # these two are above the table
        make_extension(make_prime_field(13), 3),  # cap, so inv solves on embed's matrix
    ],
    ids=["GF4", "GF8", "GF9", "GF49", "GF(2^9)", "GF(13^3)"],
)
def test_embed_is_algebra_homomorphism(ctx):
    els = [ctx.from_index(t) for t in range(ctx.size)]
    pairs = itertools.product(els, els)
    if ctx.size > 49:  # too many pairs to walk them all: sample
        rng = random.Random(ctx.size)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(1000)]
    mats = {a: embed_as_matrix(ctx, a) for a in els}
    p, k = ctx.p, ctx.k

    def madd(x, y):
        return [[(x[i][j] + y[i][j]) % p for j in range(k)] for i in range(k)]

    def mmul(x, y):
        return [
            [sum(x[i][t] * y[t][j] for t in range(k)) % p for j in range(k)]
            for i in range(k)
        ]

    for a, b in pairs:
        assert mats[ctx.add(a, b)] == madd(mats[a], mats[b])
        assert mats[ctx.mul(a, b)] == mmul(mats[a], mats[b])


@pytest.mark.parametrize(
    "ctx",
    [
        make_prime_field(13),
        make_extension(make_prime_field(2), 5),
        make_extension(make_prime_field(3), 2),
    ],
    ids=["GF13", "GF32", "GF9"],
)
def test_field_axioms_random_triples(ctx):
    rng = random.Random(0)
    for _ in range(10_000):
        a, b, c = (ctx.from_index(rng.randrange(ctx.size)) for _ in range(3))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        if a != ctx.zero:
            assert ctx.mul(a, ctx.inv(a)) == ctx.one


def test_cauchy_binet_identity():
    ctx = make_prime_field(13)
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(n, 5)
        a = [[rng.randrange(13) for _ in range(m)] for _ in range(n)]
        b = [[rng.randrange(13) for _ in range(n)] for _ in range(m)]
        ab = [
            [sum(a[i][t] * b[t][j] for t in range(m)) % 13 for j in range(n)]
            for i in range(n)
        ]
        lhs = det(ctx, ab)
        rhs = 0
        for subset in itertools.combinations(range(m), n):
            a_s = [[a[i][j] for j in subset] for i in range(n)]
            b_s = [b[j] for j in subset]
            rhs = (rhs + det(ctx, a_s) * det(ctx, b_s)) % 13
        assert lhs == rhs


@given(st.sampled_from([2, 3, 5, 13]), st.integers(min_value=1, max_value=4),
       st.data())
@settings(max_examples=100, deadline=None)
def test_serialization_roundtrip(p, k, data):
    ctx = make_prime_field(p) if k == 1 else make_extension(make_prime_field(p), k)
    t = data.draw(st.integers(min_value=0, max_value=ctx.size - 1))
    a = ctx.from_index(t)
    assert ctx.parse(ctx.serialize(a)) == a


def test_enumeration_is_lexicographic_and_skips_zero():
    ctx = make_extension(make_prime_field(3), 2)
    els = list(ctx.nonzero_elements())
    assert len(els) == 8
    assert ctx.zero not in els
    assert els == sorted(els)  # tuple comparison = constant-term-major lex


@pytest.mark.parametrize("p,k", [(13, 1), (3, 2)])
def test_from_index_rejects_an_index_outside_the_field(p, k):
    ctx = make_field(p, k)
    for t in (-1, ctx.size):
        with pytest.raises(ValueError, match=f"index {t} out of range for"):
            ctx.from_index(t)


def test_ctx_equality_and_hash():
    a = make_extension(make_prime_field(2), 3)
    b = make_extension(make_prime_field(2), 3)
    assert a == b and hash(a) == hash(b)
    assert a != make_prime_field(2)


@pytest.mark.parametrize("p,k,cls", [(13, 1, PrimeField), (65537, 1, PrimeField),
                                     (2, 4, TableField), (2, 8, TableField),
                                     (2, 9, FieldCtx), (13, 3, FieldCtx), (2, 13, FieldCtx),
                                     (3, 7, FieldCtx), (2**61 - 1, 2, FieldCtx)])
def test_make_field_picks_one_class_per_representation(p, k, cls):
    ctx = make_field(p, k)
    assert type(ctx) is cls
    ring = FieldCtx(p, k, ctx.modulus)  # equal, so the table caches key on type(ctx) too
    assert ctx == ring and hash(ctx) == hash(ring)
    rng = random.Random(ctx.size)  # each class's inv against Fermat's a^(q - 2)
    for a in [ctx.from_index(rng.randrange(1, ctx.size)) for _ in range(50)]:
        assert ctx.inv(a) == ctx.pow(a, ctx.size - 2)
        assert ctx.mul(a, ctx.inv(a)) == ctx.one


KERNEL_FIELDS = {
    "GF13": make_prime_field(13),
    "GF257": make_prime_field(257),
    "GF65537": make_prime_field(65537),
    "GF(2^61-1)": make_prime_field(2**61 - 1),
    "GF(2^4)": make_extension(make_prime_field(2), 4),
    "GF(3^2)": make_extension(make_prime_field(3), 2),
    "GF(13^3)": make_extension(make_prime_field(13), 3),
}


@given(st.sampled_from(sorted(KERNEL_FIELDS)), st.data())
@settings(max_examples=300, deadline=None)
def test_vector_kernels_match_their_element_folds(name, data):
    ctx = KERNEL_FIELDS[name]
    add, mul = ctx.add, ctx.mul
    el = st.one_of(st.just(0), st.integers(0, ctx.size - 1)).map(ctx.from_index)

    def vec(size):  # sometimes all zero; size 0 gives the empty vector
        v = data.draw(st.lists(el, min_size=size, max_size=size))
        return [ctx.zero] * size if data.draw(st.booleans()) else v

    n = data.draw(st.integers(0, 6))
    u, v, c, x = vec(n), vec(n), data.draw(el), data.draw(el)

    acc = ctx.zero
    for a, b in zip(u, v):
        acc = add(acc, mul(a, b))
    assert ctx.dot(u, v) == acc

    start = data.draw(st.integers(0, 3))
    dst = vec(start + n + data.draw(st.integers(0, 2)))
    want = list(dst)
    for j in range(n):
        want[start + j] = add(want[start + j], mul(c, u[j]))
    ctx.axpy(dst, c, u, start)
    assert dst == want

    want, xp = [], ctx.one
    for _ in range(n):
        want.append(xp)
        xp = mul(xp, x)
    assert ctx.powers(x, n) == want

    acc, xp = ctx.zero, ctx.one
    for a in u:
        acc, xp = add(acc, mul(a, xp)), mul(xp, x)
    assert ctx.horner(u, x) == acc

    # pivot: row r is zero left of column c and nonzero at it
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    rows = [vec(ncols) for _ in range(nrows)]
    r, col = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, ncols - 1))
    nonzero = st.integers(1, ctx.size - 1).map(ctx.from_index)
    rows[r][:col + 1] = [ctx.zero] * col + [data.draw(nonzero)]
    inv = ctx.inv(rows[r][col])
    prow = [mul(inv, w) for w in rows[r]]
    want = [
        prow if i == r else [ctx.sub(w, mul(row[col], pw)) for w, pw in zip(row, prow)]
        for i, row in enumerate(rows)
    ]
    ctx.pivot(rows, r, col)
    assert rows == want

    if name == "GF257":
        assert all(ctx.inv(a) == pow(a, 255, 257) for a in range(1, 257))
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)


PACK_FIELDS = {
    "GF2": make_prime_field(2),
    "GF3": make_prime_field(3),
    "GF65537": make_prime_field(65537),
    "GF(2^64-59)": make_prime_field(2**64 - 59),
    "GF(2^8)": make_extension(make_prime_field(2), 8),  # exp/log tables, log-packed rows
    "GF(3^5)": make_extension(make_prime_field(3), 5),
    "GF(13^2)": make_extension(make_prime_field(13), 2),
    "GF(13^3)": KERNEL_FIELDS["GF(13^3)"],  # convolution arithmetic
}


@given(st.sampled_from(sorted(PACK_FIELDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_dots_equal_one_dot_per_row(name, data):
    ctx = PACK_FIELDS[name]
    top = ctx.from_index(ctx.size - 1)  # p - 1 in every coefficient
    el = st.one_of(st.just(top), st.just(ctx.zero),
                   st.integers(0, ctx.size - 1).map(ctx.from_index))
    nrows, width = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 9))
    # rows of one width, or rows that may end early, as the Newton tables' do
    ragged = data.draw(st.booleans())
    rows = [data.draw(st.lists(el, min_size=0 if ragged else width, max_size=width))
            for _ in range(nrows)]
    full = [row + [ctx.zero] * (width - len(row)) for row in rows]
    # the columns read: the leading ones, a slice, or a gather as a lattice diagonal's
    start = data.draw(st.integers(0, width))
    ats = [None, operator.itemgetter(slice(start, None))]
    if width > 1 and not ragged:
        picked = data.draw(st.lists(st.integers(0, width - 1), min_size=2, unique=True))
        ats.append(operator.itemgetter(*sorted(picked)))
    at = data.draw(st.sampled_from(ats))
    u = data.draw(st.lists(el, max_size=width - start + 2))  # may run past the rows
    count = data.draw(st.integers(0, nrows))
    packed = ctx.pack(rows)
    want = [ctx.dot(u, row if at is None else at(row)) for row in full[:count]]
    assert ctx.dots(u, packed, count, at) == want


SUM_PRODUCTS_FIELDS = {name: PACK_FIELDS[name]
                       for name in ("GF65537", "GF(2^64-59)", "GF(2^8)", "GF(3^5)")}
SUM_PRODUCTS_FIELDS["GF(2^13)"] = make_extension(make_prime_field(2), 13)  # convolution


@given(st.sampled_from(sorted(SUM_PRODUCTS_FIELDS)), st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_sum_products_equals_the_fma_chain(name, data):
    ctx = SUM_PRODUCTS_FIELDS[name]
    top = ctx.from_index(ctx.size - 1)  # p - 1 in every coefficient
    el = st.one_of(st.just(top), st.just(ctx.zero),
                   st.integers(0, ctx.size - 1).map(ctx.from_index))
    pairs, length = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 9))
    vec = st.lists(el, min_size=length, max_size=length)
    us = [data.draw(vec) for _ in range(pairs)]
    vs = [data.draw(vec) for _ in range(pairs)]
    acc = [ctx.zero] * length
    for u, v in zip(us, vs):
        acc = [ctx.add(c, ctx.mul(a, b)) for c, a, b in zip(acc, u, v)]
    assert ctx.sum_products(us, vs) == acc


@pytest.mark.parametrize("p", [2, 65537, 2**64 - 59])
def test_pack_puts_row_l_in_slot_l_at_every_row_count(p):
    # the rows are joined pairwise, so odd counts leave a group unjoined for a round
    ctx, rng, width = make_prime_field(p), random.Random(p), 5
    slot = 2 * (p - 1).bit_length() + width.bit_length()
    for nrows in range(1, 18):
        rows = [[rng.randrange(p) for _ in range(width)] for _ in range(nrows)]
        want = [sum(row[j] << slot * l for l, row in enumerate(rows)) for j in range(width)]
        assert ctx.pack(rows) == want
        assert ctx.pack(map(tuple, rows)) == want
        # a row that ends early reads as zero past its end
        cut = [row[: rng.randrange(width + 1)] if l else row for l, row in enumerate(rows)]
        want = [sum(row[j] << slot * l for l, row in enumerate(cut) if j < len(row))
                for j in range(width)]
        assert ctx.pack(cut) == want


@pytest.mark.parametrize("p", [2, 3, 65537, 2**64 - 59])
def test_packed_dots_are_exact_when_every_entry_and_weight_is_p_minus_1(p):
    # the largest slot sum: width products of (p - 1)^2, at every width around a
    # bit-length boundary and at the longest diagonals the benchmark measures
    ctx = make_prime_field(p)
    for width in (1, 2, 3, 4, 7, 8, 9, 63, 64, 65, 127, 128, 255, 256):
        rows = [[p - 1] * width for _ in range(4)]
        got = ctx.dots([p - 1] * width, ctx.pack(rows), 4)
        assert got == [width * (p - 1) ** 2 % p] * 4
        assert got == [ctx.dot([p - 1] * width, row) for row in rows]


@pytest.mark.parametrize("p", [2, 65537, 2**64 - 59])
def test_dots_reads_every_slot_of_a_table_of_hundreds_of_rows(p):
    # past 64 rows the packed sum is read in halves, as a tensor scan's tall parts are
    ctx, rng = make_prime_field(p), random.Random(p)
    for nrows, width in ((65, 3), (130, 1), (1000, 4)):
        rows = [[rng.randrange(p) for _ in range(width)] for _ in range(nrows)]
        u = [rng.randrange(p) for _ in range(width)]
        packed = ctx.pack(rows)
        for count in (nrows, nrows - 1, 64, 65, (nrows + 65) // 2):
            assert ctx.dots(u, packed, count) == [ctx.dot(u, row) for row in rows[:count]]
    top = [p - 1] * 4
    assert ctx.dots(top, ctx.pack([top] * 300), 300) == [4 * (p - 1) ** 2 % p] * 300


@pytest.mark.parametrize("p,k", [(2, 4), (2, 8), (3, 5), (13, 2)],
                         ids=["GF(2^4)", "GF(2^8)", "GF(3^5)", "GF(13^2)"])
def test_table_dots_are_exact_when_every_coefficient_is_p_minus_1(p, k):
    # vectors of the element whose coefficients are all p - 1, against the
    # ring's dot; times ones, each term adds p - 1 to every Kronecker slot
    ctx = make_extension(make_prime_field(p), k)
    ref = FieldCtx(p, k, ctx.modulus)
    top = ctx.from_index(ctx.size - 1)
    assert top == (p - 1,) * k
    for width in (1, 2, 3, 63, 64, 65, 255, 256, 257, 1023, 1024, 4095, 4096):
        u = [top] * width
        for row in ([top] * width, [ctx.one] * width):
            want = ref.dot(u, row)
            assert ctx.dot(u, row) == want
            assert ctx.dots(u, ctx.pack([row] * 3), 3) == [want] * 3


@pytest.mark.parametrize("ctx", [make_prime_field(13), make_prime_field(2**64 - 59),
                                 make_extension(make_prime_field(2), 8),
                                 make_extension(make_prime_field(13), 3)], ids=repr)
def test_dots_returns_one_value_per_row_at_every_count_up_to_the_rows_packed(ctx):
    # count <= rows packed is dots' precondition; within it every class agrees
    rng = random.Random(ctx.size)
    for nrows in range(1, 7):
        rows = [[ctx.from_index(rng.randrange(ctx.size)) for _ in range(rng.randint(0, 5))]
                for _ in range(nrows)]
        u = [ctx.from_index(rng.randrange(ctx.size)) for _ in range(5)]
        packed = ctx.pack(rows)
        for count in range(nrows + 1):
            assert ctx.dots(u, packed, count) == [ctx.dot(u, row) for row in rows[:count]]


def test_convolution_pow_makes_no_wasted_multiplications():
    # a directly built context has no tables, so pow runs square-and-multiply
    ctx = FieldCtx(2, 8, make_extension(make_prime_field(2), 8).modulus)
    calls, mul = 0, ctx.mul

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    ctx.mul = counted
    a, want, counts = ctx.from_index(3), ctx.one, []
    for e in range(257):
        calls = 0
        assert ctx.pow(a, e) == want
        counts.append(calls)
        want = mul(want, a)
    # one squaring per bit after the top one, one product per further set bit
    assert counts == [max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)
                      for e in range(257)]
    assert (counts[2], counts[255]) == (1, 14)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (5, 3)],
                         ids=["GF(2^4)", "GF(3^2)", "GF(5^3)"])
def test_tables_agree_with_convolution_arithmetic(p, k):
    ctx = make_extension(make_prime_field(p), k)
    ref = FieldCtx(p, k, ctx.modulus)  # built directly: convolution bodies only
    assert isinstance(ctx, TableField) and not isinstance(ref, TableField)
    q, zero = ctx.size, ctx.zero
    els = [ctx.from_index(t) for t in range(q)]
    for a in els:
        for b in els:
            assert ctx.mul(a, b) == ref.mul(a, b)
            assert ctx.add(a, b) == ref.add(a, b), (a, b)
            assert ctx.sub(a, b) == ref.sub(a, b), (a, b)
        assert ctx.neg(a) == ref.neg(a)
        assert ctx.add(a, ctx.neg(a)) == zero
        for e in (0, 1, 2, q - 2, q - 1, -1, -3):
            if a == zero and e < 0:
                for c in (ctx, ref):
                    with pytest.raises(ZeroDivisionError):
                        c.pow(a, e)
            else:
                assert ctx.pow(a, e) == ref.pow(a, e), (a, e)
        if a != zero:
            assert ctx.inv(a) == ref.inv(a)
    for c in (ctx, ref):
        with pytest.raises(ZeroDivisionError):
            c.inv(zero)

    rng = random.Random(q)

    def vec(size):  # about a third of the entries are zero
        return [zero if rng.random() < 0.3 else rng.choice(els[1:]) for _ in range(size)]

    for _ in range(300):
        n = rng.randrange(8)
        u, v, c, x = vec(n), vec(n), rng.choice(els), rng.choice(els)
        assert ctx.dot(u, v) == ref.dot(u, v)
        assert ctx.powers(x, n) == ref.powers(x, n)
        assert ctx.horner(u, x) == ref.horner(u, x)
        us, vs = [u, vec(n)], [v, vec(n)]
        assert ctx.sum_products(us, vs) == ref.sum_products(us, vs)
        start = rng.randrange(3)
        dst = vec(start + n + rng.randrange(2))
        want = list(dst)
        ctx.axpy(dst, c, u, start)
        ref.axpy(want, c, u, start)
        assert dst == want
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [vec(ncols) for _ in range(nrows)]
        r, col = rng.randrange(nrows), rng.randrange(ncols)
        rows[r][:col + 1] = [zero] * col + [rng.choice(els[1:])]
        want = [list(row) for row in rows]
        ctx.pivot(rows, r, col)
        ref.pivot(want, r, col)
        assert rows == want
        rows = [vec(rng.randrange(n + 2)) for _ in range(rng.randint(1, 4))]  # may end early
        count, at = rng.randint(0, len(rows)), rng.choice([None, operator.itemgetter(slice(1, None))])
        assert ctx.dots(u, ctx.pack(rows), count, at) == ref.dots(u, ref.pack(rows), count, at)

    for n in (0, 3):  # empty and all-zero vectors
        zeros = [zero] * n
        for c in (ctx, ref):
            assert c.sum_products([zeros], [els[1 : n + 1]]) == zeros
            assert c.horner(zeros, els[1]) == zero


@pytest.mark.parametrize("name", ["add", "sub", "neg", "mul", "inv", "pow", "scalar", "dot",
                                  "axpy", "pivot", "powers", "horner", "_reduce",
                                  "pack", "dots", "_unpack", "_from_slots", "sum_products"])
def test_element_ops_and_kernels_make_no_closure_cells(name):
    # a method with a closure cell makes it on every call; each class's own body is checked
    bodies = [vars(cls)[name] for cls in (FieldCtx, PrimeField, TableField) if name in vars(cls)]
    assert bodies and all(f.__code__.co_cellvars == () for f in bodies)


def test_an_extension_above_the_table_cap_builds_no_table_and_round_trips():
    from tensorhit import cli, lrr

    ctx = make_extension(make_prime_field(2), 13)
    assert not isinstance(ctx, TableField)
    rng = random.Random(13)
    for r in (1, 2):
        mat = cli._random_low_rank(ctx, rng, (4, 5), r)
        synd = lrr.measure(mat, "Dprime", r)
        assert lrr.recover(ctx, "Dprime", mat.dims, r, synd).entries == mat.entries
