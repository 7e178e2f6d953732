"""Hitting-set families: sizes, spans, the exponent schedule, PIT, simulation."""

import collections
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorhit import hitting, linalg
from tensorhit.errors import (
    FieldTooSmall,
    NoNullspace,
    NotRank1,
    OrderTooSmall,
    OrderUnreachable,
    ShapeMismatch,
)
from tensorhit.field import embed_as_matrix, make_extension, make_prime_field
from tensorhit.hitting import (
    L,
    Layout,
    Measurement,
    MeasurementSet,
    combine_simulated_syndromes,
    diag_row_count,
    dprime_size,
    family_tensor,
    first_witness,
    generate_family,
    hard_tensor,
    hitting_set_B,
    hitting_set_B_prime,
    hitting_set_D,
    hitting_set_D_prime,
    hitting_set_tensor,
    inner_products,
    naive_set,
    packed,
    pit_test,
    rank_preserver,
    schedule,
    simulate_improper,
    simulate_proper,
)
from tensorhit.tensor import DenseTensor, LowRankTensor, matrix_rank

GF7 = make_prime_field(7)
GF13 = make_prime_field(13)


def _rand_low_rank(ctx, rng, dims, r):
    out = DenseTensor.zeros(ctx, dims)
    for _ in range(r):
        vecs = [[ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)] for n in dims]
        term = [ctx.one]
        for v in vecs:
            term = [ctx.mul(e, c) for e in term for c in v]
        out.entries = [ctx.add(a, b) for a, b in zip(out.entries, term)]
    return out


# -- rank preserver ----------------------------------------------------------


def test_rank_preserver_alpha_zero():
    a = rank_preserver(GF7, 3, 2, 3, 0)
    assert a.rows() == [[1, 0, 0], [1, 0, 0]]


def test_rank_preserver_single_row():
    a = rank_preserver(GF7, 3, 1, 4, 2)
    assert a.rows() == [[1, 2, 4, 1]]


def test_rank_preserver_direct_formula():
    a = rank_preserver(GF7, 3, 2, 2, 2)
    assert a.rows() == [[1, 2], [1, 6]]


def test_rank_preserver_order_too_small():
    with pytest.raises(OrderTooSmall):
        rank_preserver(GF7, 1, 2, 3, 2)  # 1 has order 1 < 3


def test_rank_preserver_rejects_more_rows_than_columns():
    with pytest.raises(ValueError, match="need n >= r >= 1, got r=3, n=2"):
        rank_preserver(GF7, 3, 3, 2, 2)


def test_rank_preserver_bad_alpha_count():
    # exhaustive sweep: number of rank-dropping alphas <= nr - r(r+1)/2
    ctx = make_prime_field(17)
    g = ctx.element_of_order(8)
    rng = random.Random(0)
    for _ in range(20):
        n, r = 5, 2
        while True:
            m_cols = [[rng.randrange(17) for _ in range(r)] for _ in range(n)]
            if linalg.rank(ctx, m_cols) == r:
                break
        bad = 0
        for alpha in range(17):
            a = rank_preserver(ctx, g, r, n, alpha)
            prod = [
                [
                    sum(a.rows()[i][t] * m_cols[t][j] for t in range(n)) % 17
                    for j in range(r)
                ]
                for i in range(r)
            ]
            if linalg.rank(ctx, prod) < r:
                bad += 1
        assert bad <= n * r - r * (r + 1) // 2


# -- family sizes and contents ----------------------------------------------


def test_B_sizes():
    gf5 = make_prime_field(5)
    assert len(hitting_set_B(gf5, 1, 2, 2)) == 3
    assert len(hitting_set_B(GF7, 2, 3, 3)) == 10


def test_B_measurements_are_rank_one():
    fam = hitting_set_B(GF13, 2, 3, 4)
    for m in fam.measurements:
        assert matrix_rank(m.to_dense(GF13, fam.dims)) == 1


def test_D_sizes_and_indicator():
    fam = hitting_set_D(GF7, 2, 3, 3)
    assert len(fam) == 10
    dp = hitting_set_D_prime(GF7, 2, 3, 3)
    assert len(dp) == 8
    # D_{k,0} is the 0/1 indicator of the k-diagonal
    for m in fam.measurements:
        if m.ls == (0,):
            dense = m.to_dense(GF7, (3, 3))
            for i in range(3):
                for j in range(3):
                    assert dense[i, j] == (1 if i + j == m.k else 0)


def test_dprime_size_is_the_sum_of_the_diagonal_row_counts():
    for n, m in itertools.product(range(1, 15), repeat=2):
        for R in range(20):
            rows = [diag_row_count(R, n, m, k) for k in range(n + m - 1)]
            assert dprime_size(n, m, R) == sum(rows), (n, m, R)


def test_schedule_counts_give_each_diagonal_its_row_count():
    for n, m in itertools.product(range(1, 6), repeat=2):
        for R, family in itertools.product(range(1, 8), ("B", "D", "Dprime", "Bprime")):
            if family == "Dprime" or R <= n <= m:
                want = [diag_row_count(R, n, m, k) if family == "Dprime" else R
                        for k in range(n + m - 1)]
                assert list(schedule(GF13, family, (n, m), R).counts) == want
    assert schedule(make_prime_field(65537), "TensorB", (3, 3, 3), 2).counts == ()


@pytest.mark.parametrize(
    "ctx",
    [GF13, make_extension(make_prime_field(2), 4), make_prime_field(65537)],
    ids=["GF13", "GF16", "GF65537"],
)
def test_diagonal_family_weights_are_powers_of_g(ctx):
    # member (k, l) weighs entry (i, k - i) by g^(l (k - i)), listed by row i
    for n in range(1, 6):
        for m in range(n, 6):
            g = ctx.element_of_order(m)
            for r in range(1, n + 1):
                for build, rows_on in (
                    (hitting_set_D, lambda k: r),
                    (hitting_set_D_prime, lambda k: min(r, k + 1, n + m - k - 1)),
                ):
                    fam = build(ctx, r, n, m)
                    want = [(k, l) for k in range(n + m - 1) for l in range(rows_on(k))]
                    assert [(x.k, x.ls) for x in fam.measurements] == [
                        (k, (l,)) for k, l in want
                    ]
                    for x, (k, l) in zip(fam.measurements, want):
                        rows = range(max(0, k - m + 1), min(n - 1, k) + 1)
                        assert x.diag == (k, tuple(ctx.pow(g, l * (k - i)) for i in rows))


def test_D_measurements_are_n_sparse():
    fam = hitting_set_D(GF13, 3, 4, 6)
    for m in fam.measurements:
        dense = m.to_dense(GF13, (4, 6))
        assert sum(1 for e in dense.entries if e) <= 4


def test_span_equality_D_B_stacked_rank():
    b = hitting_set_B(GF7, 2, 3, 3)
    d = hitting_set_D(GF7, 2, 3, 3)
    rb, rd = b.dense_rows(), d.dense_rows()
    assert (
        linalg.rank(GF7, rb)
        == linalg.rank(GF7, rd)
        == linalg.rank(GF7, rb + rd)
        == 8
    )


def test_B_prime_size_and_independence():
    bp = hitting_set_B_prime(GF7, 2, 3, 3)
    assert len(bp) == 8
    assert linalg.rank(GF7, bp.dense_rows()) == 8


def test_B_prime_equals_B_at_r1():
    b = hitting_set_B(GF13, 1, 3, 4)
    bp = hitting_set_B_prime(GF13, 1, 3, 4)
    assert [m.factors for m in b.measurements] == [m.factors for m in bp.measurements]


def test_D_prime_independent_on_grid():
    for n in range(1, 6):
        for m in range(n, 6):
            for r in range(1, n + 1):
                dp = hitting_set_D_prime(GF13, r, n, m)
                assert len(dp) == (n + m - r) * r
                assert linalg.rank(GF13, dp.dense_rows()) == (n + m - r) * r


def test_field_too_small_signals():
    gf2 = make_prime_field(2)
    with pytest.raises(FieldTooSmall):
        hitting_set_B(gf2, 1, 3, 3)
    with pytest.raises(FieldTooSmall):
        hitting_set_D(gf2, 1, 3, 3)  # no element of order >= 3


# -- the exponent schedule ----------------------------------------------------


def test_L_examples():
    assert L(2, 2, 0, (1, 1)) == 0
    assert L(2, 2, 3, (1, 1)) == 8 + 1
    with pytest.raises(ValueError):
        L(2, 2, 4, (1, 1))


def test_L_recursion_property():
    rng = random.Random(1)
    for _ in range(100):
        d = rng.randint(1, 4)
        n = rng.randint(1, 5)
        b = rng.randint(0, 4)
        k = rng.randrange(1 << d)
        idx = tuple(rng.randint(0, 6) for _ in range(d))
        if k == 0:
            assert L(n, b, k, idx) == 0
        elif k % 2 == 1:
            assert L(n, b, k, idx) == idx[0] * (n << b) ** (k // 2) + L(
                n, b, k // 2, idx[1:]
            )
        else:
            assert L(n, b, k, idx) == L(n, b, k // 2, idx[1:])


def test_L_doubling_invariance():
    rng = random.Random(2)
    for _ in range(100):
        d = rng.randint(1, 4)
        n = rng.randint(1, 5)
        b = rng.randint(1, 4)
        k = rng.randrange(1 << d)
        idx = tuple(rng.randint(0, 6) for _ in range(d))
        assert L(2 * n, b - 1, k, idx) == L(n, b, k, idx)


def test_L_upper_bound():
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 4)
        n = rng.randint(1, 4)
        b = rng.randint(0, 3)
        k = rng.randrange(1, 1 << d)
        idx = tuple(rng.randint(0, 5) for _ in range(d))
        assert L(n, b, k, idx) <= (n << b) ** (k // 2) * sum(idx)


# -- tensor family -------------------------------------------------------------


def test_tensor_family_d2_coincides_with_B():
    ctx = make_prime_field(67)  # order >= (2*2*2)^2 = 64
    tb = hitting_set_tensor(ctx, 2, 2, 1)
    b = hitting_set_B(ctx, 1, 2, 2)
    assert len(tb) == 4 and len(b) == 3
    for i, m in enumerate(b.measurements):
        assert tb.measurements[i].factors == m.factors


def test_tensor_family_size_d4():
    ctx = make_extension(make_prime_field(13), 13)
    fam = hitting_set_tensor(ctx, 4, 2, 2)
    assert len(fam) == 4 * 2 * 2**2
    assert all(m.factors is not None for m in fam.measurements)
    for m in fam.measurements[:8]:
        z = ctx.zero
        for v in m.factors:
            assert any(c != z for c in v)


def test_tensor_family_too_small_field():
    with pytest.raises(FieldTooSmall):
        hitting_set_tensor(GF13, 2, 3, 1)  # needs order >= 12^2 = 144


# -- simulation ----------------------------------------------------------------


def test_simulate_identity_on_prime_field():
    fam = hitting_set_D(GF7, 1, 2, 2)
    assert simulate_improper(fam) is fam
    famb = hitting_set_B(GF7, 1, 2, 2)
    assert simulate_proper(famb) is famb


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2)])
@pytest.mark.parametrize("build", [hitting_set_D_prime, hitting_set_B], ids=["Dprime", "B"])
def test_simulate_improper_yields_coordinate_l_of_each_member_source_major(build, p, k):
    K = make_extension(make_prime_field(p), k)
    fam = build(K, 2, 3, 4)
    sim = simulate_improper(fam)
    assert sim.ctx == make_prime_field(p) and len(sim) == k * len(fam)
    for i, m in enumerate(sim.measurements):
        src, l = fam.measurements[i // k], i % k
        assert (m.k, m.ls, m.phi, m.factors) == (src.k, src.ls, (l,), None)
        if src.diag is not None:  # D': the diagonal's weights, coordinate l of each
            assert m.diag == (src.diag[0], tuple(w[l] for w in src.diag[1]))
            assert m.entries is None
        else:  # B: the dense member, coordinate l of each entry
            f0, f1 = src.factors
            assert m.entries == tuple(K.mul(a, b)[l] for a in f0 for b in f1)
            assert m.diag is None


def test_simulate_improper_size():
    K = make_extension(make_prime_field(2), 2)
    fam = hitting_set_D(K, 1, 2, 2)
    sim = simulate_improper(fam)
    assert len(sim) == 2 * len(fam)
    assert sim.ctx.p == 2 and sim.ctx.k == 1
    # sparsity survives projection
    for m in sim.measurements:
        dense = m.to_dense(sim.ctx, (2, 2))
        assert sum(1 for e in dense.entries if e) <= 2


def test_simulate_proper_size_and_pin():
    K = make_extension(make_prime_field(2), 2)
    fam = hitting_set_B(K, 1, 2, 2)
    sim = simulate_proper(fam)
    assert len(sim) == 2**2 * len(fam)
    assert all(m.factors is not None for m in sim.measurements)


def _random_rank1_family(ctx, dims, count, seed):
    rng = random.Random(seed)
    members = tuple(
        Measurement(i, (i,), factors=tuple(
            tuple(ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)) for n in dims))
        for i in range(count))
    return MeasurementSet(ctx, dims, "TensorB", 1, members)


@pytest.mark.parametrize("p, k, dims", [(2, 4, (4, 5)), (3, 2, (3, 3)), (2, 9, (3, 4)),
                                        (2, 4, (2, 2, 2)), (3, 2, (3, 3, 3))])
def test_simulate_proper_matches_the_multiplication_matrix_formula(p, k, dims):
    # GF(2^9) is above the exp/log table cap; d = 3 sources are random rank-1 tensors
    K = make_extension(make_prime_field(p), k)
    fam = (hitting_set_B_prime(K, 2, *dims) if len(dims) == 2
           else _random_rank1_family(K, dims, 3, seed=p * k))
    sim = simulate_proper(fam)
    per_source = list(itertools.product(range(k), repeat=len(dims)))
    assert len(sim) == len(per_source) * len(fam)
    for i, m in enumerate(sim.measurements):
        src = fam.measurements[i // len(per_source)]
        ls = per_source[i % len(per_source)]
        assert (m.k, m.ls, m.phi) == (src.k, src.ls, ls)
        pins = ls + (0,)
        assert m.factors == tuple(
            tuple(embed_as_matrix(K, c)[pins[a]][pins[a + 1]] for c in factor)
            for a, factor in enumerate(src.factors)
        )


def test_a_measurement_is_a_frozen_hashable_tuple_of_its_fields():
    fam = hitting_set_B_prime(GF13, 2, 3, 4)
    m = fam.measurements[0]
    with pytest.raises(AttributeError):
        m.k = 1
    with pytest.raises(AttributeError):
        m.factors = None
    assert m == tuple(m) == (m.k, m.ls, m.phi, m.factors, m.diag, m.entries)
    assert m._replace(k=7) == Measurement(7, m.ls, m.phi, m.factors)
    gf9 = make_extension(make_prime_field(3), 2)
    for family in (fam, hitting_set_D_prime(GF13, 2, 3, 4),
                   simulate_improper(hitting_set_B(gf9, 1, 3, 3))):
        members = family.measurements
        assert len(set(members)) == len(members)
        assert all(hash(a) == hash(b) for a, b in zip(members, map(Measurement._make, members)))


def test_simulate_proper_rejects_improper_input():
    K = make_extension(make_prime_field(2), 2)
    with pytest.raises(NotRank1):
        simulate_proper(hitting_set_D(K, 1, 2, 2))


def test_combine_simulated_syndromes_layout():
    K = make_extension(make_prime_field(3), 2)
    combined = combine_simulated_syndromes(K, [1, 2, 0, 1])
    assert combined == [(1, 2), (0, 1)]


def test_combine_simulated_syndromes_rejects_a_count_not_a_multiple_of_the_degree():
    K = make_extension(make_prime_field(3), 2)
    with pytest.raises(ShapeMismatch, match="syndrome count is not a multiple of the degree"):
        combine_simulated_syndromes(K, [1, 2, 0])


# -- PIT ------------------------------------------------------------------------


def test_pit_zero_tensor_false_for_every_family():
    z = DenseTensor.zeros(GF13, (3, 3))
    for fam in (
        hitting_set_B(GF13, 2, 3, 3),
        hitting_set_D(GF13, 2, 3, 3),
        hitting_set_D_prime(GF13, 2, 3, 3),
        hitting_set_B_prime(GF13, 2, 3, 3),
        naive_set(GF13, (3, 3)),
    ):
        assert not pit_test(z, fam)


def test_pit_detects_unit_matrix():
    gf5 = make_prime_field(5)
    fam = hitting_set_B(gf5, 1, 2, 2)
    e00 = DenseTensor(gf5, (2, 2), [1, 0, 0, 0])
    # oracle: evaluate all three inner products densely
    inners = [m.inner(gf5, e00) for m in fam.measurements]
    assert any(v != 0 for v in inners)
    assert pit_test(e00, fam)
    assert first_witness(e00, fam) == next(
        i for i, v in enumerate(inners) if v != 0
    )


@pytest.mark.parametrize("build", [hitting_set_D, hitting_set_B], ids=["D", "B"])
def test_a_member_embeds_a_prime_field_tensor_and_rejects_any_other_field(build):
    gf2 = make_prime_field(2)
    K = make_extension(gf2, 3)
    fam = build(K, 2, 3, 3)
    dense = DenseTensor(gf2, (3, 3), [1, 0, 1, 0, 1, 1, 0, 0, 1])
    factored = LowRankTensor.from_factor_lists(gf2, (3, 3), [[[1, 1, 0], [0, 1, 1]]])
    for t in (dense, factored):
        lifted = family_tensor(t, fam)
        want = [m.inner(K, lifted) for m in fam.measurements]
        assert any(v != K.zero for v in want)
        assert [m.inner(K, t) for m in fam.measurements] == want
    gf5_tensor = DenseTensor(make_prime_field(5), (3, 3), [1] * 9)
    with pytest.raises(ShapeMismatch):
        fam.measurements[0].inner(K, gf5_tensor)


def _scan_families():
    gf2, gf3, gf13 = make_prime_field(2), make_prime_field(3), make_prime_field(13)
    gf8, gf9 = make_extension(gf2, 3), make_extension(gf3, 2)
    return [
        hitting_set_B_prime(gf13, 2, 3, 4),
        hitting_set_tensor(make_extension(gf13, 3), 3, 2, 2),  # suffixes of two levels
        simulate_improper(hitting_set_D_prime(gf8, 2, 3, 4)),
        simulate_improper(hitting_set_B(gf9, 1, 3, 3)),
        simulate_proper(hitting_set_B_prime(gf8, 2, 3, 4)),
        simulate_proper(hitting_set_B_prime(gf9, 2, 3, 3)),
        simulate_proper(naive_set(gf8, (2, 2, 2))),  # shared suffixes of two levels
        hitting_set_B_prime(make_prime_field(2**64 - 59), 2, 3, 4),  # the widest slots
        hitting_set_B(gf13, 2, 3, 5),  # heads shorter than the suffix
        hitting_set_B_prime(make_extension(gf2, 8), 2, 3, 4),  # a TableField packs logs
        hitting_set_tensor(make_prime_field(65537), 3, 3, 2),  # packs an intermediate part
        naive_set(gf13, (70, 2)),  # one packed part of more than 64 rows
        hitting_set_D(gf13, 2, 3, 5),  # diagonal members, unsimulated, on a wide matrix
        hitting_set_D_prime(make_extension(gf2, 8), 2, 3, 4),  # diagonal members over a TableField
    ]


SCAN_FAMILIES = _scan_families()


@given(st.sampled_from(SCAN_FAMILIES), st.sampled_from(["zero", "sparse", "factored"]),
       st.booleans(), st.data())
@settings(max_examples=240, derandomize=True, deadline=None)
def test_the_memoized_scan_equals_the_member_by_member_scan(fam, kind, prime, data):
    ctx = make_prime_field(fam.ctx.p) if prime else fam.ctx
    dims = fam.dims
    element = st.integers(0, ctx.size - 1).map(ctx.from_index)
    if kind == "factored":
        rank = data.draw(st.integers(1, 3), label="rank")
        terms = [[data.draw(st.lists(element, min_size=n, max_size=n)) for n in dims]
                 for _ in range(rank)]
        t = LowRankTensor.from_factor_lists(ctx, dims, terms)
    else:
        t = DenseTensor.zeros(ctx, dims)
        if kind == "sparse":
            size = len(t.entries)
            for i in data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3)):
                t.entries[i] = data.draw(element)
    dense = family_tensor(t, fam)
    want = [m.inner(fam.ctx, dense) for m in fam.measurements]
    assert list(inner_products(t, fam)) == want
    assert first_witness(t, fam) == next(
        (i for i, v in enumerate(want) if v != fam.ctx.zero), None
    )


@pytest.mark.parametrize("fam", [hitting_set_B_prime(GF13, 2, 3, 4),
                                 hitting_set_tensor(make_prime_field(65537), 3, 3, 2),
                                 hitting_set_tensor(make_prime_field(65537), 4, 2, 2)],
                         ids=["Bprime", "TensorB-d3", "TensorB-d4"])
def test_a_scan_makes_one_dots_per_trailing_run_and_packs_each_part_once(fam, monkeypatch):
    calls = {"pack": 0, "dots": 0}
    for name in calls:
        def counted(self, *args, _name=name, _kernel=getattr(type(fam.ctx), name)):
            calls[_name] += 1
            return _kernel(self, *args)
        monkeypatch.setattr(type(fam.ctx), name, counted)
    d = len(fam.dims)
    t = DenseTensor(fam.ctx, fam.dims, [i % 7 for i in range(math.prod(fam.dims))])
    assert len(list(inner_products(t, fam))) == len(fam)
    runs = {m.factors[i:] for m in fam.measurements for i in range(1, d)}  # each one dots
    parts = {m.factors[i:] for m in fam.measurements for i in range(2, d + 1)}  # each packed
    assert calls == {"pack": len(parts), "dots": len(runs)}
    assert len(runs) < (d - 1) * len(fam)  # members share trailing runs


@pytest.mark.parametrize("fam", [hitting_set_D(GF13, 2, 3, 5),
                                 simulate_improper(hitting_set_D_prime(
                                     make_extension(make_prime_field(2), 3), 2, 3, 4))],
                         ids=["D", "SimImproper-Dprime"])
def test_a_scan_gathers_each_diagonal_once(fam, monkeypatch):
    calls = collections.Counter()

    def counted(t, k, _diagonal=hitting.diagonal):
        calls[k] += 1
        return _diagonal(t, k)

    monkeypatch.setattr(hitting, "diagonal", counted)
    ctx = fam.ctx
    t = DenseTensor(ctx, fam.dims, [ctx.from_index(i % ctx.size)
                                    for i in range(math.prod(fam.dims))])
    assert len(list(inner_products(t, fam))) == len(fam)
    ks = {m.diag[0] for m in fam.measurements}
    assert calls == {k: 1 for k in ks}
    assert len(fam) > len(ks)  # members share diagonals


def test_pit_exhaustive_gf2_rank1_via_simulated_D():
    gf2 = make_prime_field(2)
    K = make_extension(gf2, 2)
    sim = simulate_improper(hitting_set_D(K, 1, 3, 3))
    for u in itertools.product(range(2), repeat=3):
        for v in itertools.product(range(2), repeat=3):
            m = DenseTensor(gf2, (3, 3), [a * b % 2 for a in u for b in v])
            assert pit_test(m, sim) == (not m.is_zero())


def test_pit_lifts_prime_tensor_into_extension_family():
    gf2 = make_prime_field(2)
    K = make_extension(gf2, 2)
    fam = hitting_set_D(K, 1, 3, 3)
    m = DenseTensor(gf2, (3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 0])
    assert pit_test(m, fam)


def test_bivariate_reduction_oracle():
    # every nonzero rank<=r matrix has a nonzero f-hat(x, g^l x) for some l < r,
    # determined by interpolating from n+m-1 evaluations
    from tensorhit.linalg import newton_tables, poly_interpolate

    ctx = make_prime_field(13)
    n = m = 2
    g = ctx.element_of_order(m)
    alphas = ctx.first_elements(n + m - 1)
    from tensorhit.tensor import eval_fhat

    for entries in itertools.product(range(3), repeat=4):
        mat = DenseTensor(ctx, (2, 2), list(entries))
        r = matrix_rank(mat)
        if r == 0:
            continue
        found = False
        for l in range(r):
            gl = ctx.pow(g, l)
            evals = [eval_fhat(mat, [a, ctx.mul(gl, a)]) for a in alphas]
            coeffs = poly_interpolate(ctx, newton_tables(ctx, alphas), evals)
            if any(c != 0 for c in coeffs):
                found = True
                break
        assert found, entries


# -- naive family and hard tensors ----------------------------------------------


def test_naive_set_counts():
    fam = naive_set(GF7, (2, 2))
    assert len(fam) == 4
    total = DenseTensor(GF7, (2, 2), [1, 2, 3, 4])
    assert [m.inner(GF7, total) for m in fam.measurements] == [1, 2, 3, 4]


def test_hard_tensor_exceeds_rank_bound():
    h = hitting_set_B(GF7, 1, 3, 3)
    t = hard_tensor(h)
    assert not t.is_zero()
    assert all(m.inner(GF7, t) == 0 for m in h.measurements)
    assert matrix_rank(t) >= 2


def test_hard_tensor_full_rank_system():
    with pytest.raises(NoNullspace):
        hard_tensor(naive_set(GF7, (2, 2)))


@pytest.mark.parametrize("family,dims", [("Dprime", (0, 3)), ("Dprime", (3, 0)),
                                         ("TensorB", (0, 0))])
def test_a_family_refuses_an_empty_axis(family, dims):
    with pytest.raises(ShapeMismatch, match="needs dimensions >= 1"):
        generate_family(GF13, family, dims, 2)


def test_generate_family_dispatch():
    assert generate_family(GF13, "Dprime", (3, 3), 2).family == "Dprime"
    assert generate_family(GF13, "Naive", (2, 2), 0).family == "Naive"
    with pytest.raises(ValueError):
        generate_family(GF13, "Nope", (3, 3), 1)


# -- the one schedule per (field, family, shape, R) --------------------------


def test_equal_fields_and_list_or_tuple_dims_share_one_schedule():
    for make in (lambda: make_prime_field(65537), lambda: make_extension(make_prime_field(3), 7)):
        a, b = make(), make()
        assert a is not b and a == b
        for family, dims, R in (("Dprime", (3, 4), 4), ("B", (3, 4), 2),
                                ("Bprime", (3, 4), 2), ("TensorB", (2, 2, 2), 2)):
            s = schedule(a, family, dims, R)
            assert schedule(b, family, list(dims), R) is s
            assert schedule(a, family, dims, R + 1) is not s


def test_a_failed_schedule_raises_on_every_call():
    # GF(5) has no element of order 6, and a failure is never cached
    for _ in range(3):
        with pytest.raises(OrderUnreachable):
            schedule(make_prime_field(5), "Dprime", (3, 6), 2)
        with pytest.raises(OrderUnreachable):
            hitting_set_D_prime(make_prime_field(5), 2, 3, 6)
        with pytest.raises(ShapeMismatch, match="family D is for matrices"):
            generate_family(GF13, "D", (2, 2, 2), 1)
    with pytest.raises(ValueError, match="no schedule"):
        schedule(GF13, "Naive", (2, 2), 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_each_tensor_level_weighs_its_lattice_columns_by_position(d):
    ctx, n, R = make_prime_field(2**31 - 1), 3, 2
    s = schedule(ctx, "TensorB", (n,) * d, R)
    b = (d - 1).bit_length()
    assert ctx.order_at_least(s.g, (2 * d * n) ** d) and s.stride == n << b
    assert len(s.levels) == b and s.levels[0] == (n,) * d + (1,) * ((1 << b) - d)
    assert len(s.tables) == len(s.layouts) == b
    for layout, table in zip(s.layouts, s.tables):
        assert table.layout is layout and len(table.rows) == R
        for l, row in enumerate(table.rows):
            assert list(row) == [ctx.pow(s.g, l * j) for j in layout.cols]


@pytest.mark.parametrize("n, widths", [(3, [81, 25, 9]), (4, [256, 49, 13])])
def test_the_tables_of_an_order_8_tensor_are_as_wide_as_its_lattices(n, widths):
    # the padded matrix of level 1 is 28,851 columns wide at n = 3 and
    # 101,476 at n = 4; its lattice has n^4 columns
    ctx = make_prime_field(2**61 - 1)
    s = schedule(ctx, "TensorB", (n,) * 8, 2)
    assert s.layouts[0].m == {3: 28_851, 4: 101_476}[n]
    assert [len(layout.cols) for layout in s.layouts] == widths
    assert [{len(row) for row in table.rows} for table in s.tables] == [{w} for w in widths]
    for layout, table in zip(s.layouts, s.tables):
        assert list(table.rows[1]) == [ctx.pow(s.g, j) for j in layout.cols]


@pytest.mark.parametrize("ctx", [make_prime_field(65537), make_extension(make_prime_field(2), 8),
                                 make_extension(make_prime_field(13), 3)], ids=repr)
def test_a_matrix_family_has_one_table_of_every_column(ctx):
    for family, dims, R in (("Dprime", (5, 9), 4), ("Dprime", (4, 4), 9), ("B", (3, 7), 2),
                            ("Bprime", (6, 6), 3)):
        s = schedule(ctx, family, dims, R)
        rows = min(R, sum(dims) // 2)
        assert len(s.layouts) == 1
        assert _cells(s.layouts[0]) == _walk(range(dims[0]), range(dims[1]))
        assert [table.rows for table in s.tables] == [tuple(tuple(ctx.powers(gl, dims[1]))
                                                            for gl in ctx.powers(s.g, rows))]


def _walk(rows, cols):
    """The reference for ``Layout.of``: the cells rows x cols of a
    (rows[-1] + 1) x (cols[-1] + 1) matrix, one at a time, grouped by
    diagonal: (n, m, rows, cols, [(k, row positions, column positions)]),
    ascending k, each diagonal's cells by column."""
    by_k = {}
    for b, j in enumerate(cols):
        for a, i in enumerate(rows):
            by_k.setdefault(i + j, []).append((a, b))
    return (rows[-1] + 1, cols[-1] + 1, tuple(rows), tuple(cols),
            [(k, *map(tuple, zip(*by_k[k]))) for k in sorted(by_k)])


def _cells(layout):
    """A layout in the form ``_walk`` returns."""
    return (layout.n, layout.m, tuple(layout.rows), tuple(layout.cols),
            [(c.k, tuple(c.rows), tuple(c.cols)) for c in layout.diagonals])


@given(digits=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=3),
       extra=st.integers(0, 3))
@example(digits=[(6, 3)], extra=0)
@example(digits=[(3, 6)], extra=0)
@example(digits=[(1, 1)], extra=0)
@example(digits=[(1, 5)], extra=0)
@example(digits=[(1, 1), (3, 2), (1, 1)], extra=0)  # size-1 dummy digits
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_layout_built_digit_by_digit_has_the_cells_of_a_walk_over_every_cell(digits, extra):
    us, vs = zip(*digits)  # digit t is a cell of a us[t] x vs[t] matrix
    stride = max(u + v - 1 for u, v in digits) + extra
    steps = [stride**t for t in range(len(digits))]
    layout = Layout.of(us, vs, stride)
    assert _cells(layout) == _walk(packed(us, steps), packed(vs, steps))
    vec = list(range(100, 100 + max(len(layout.rows), len(layout.cols))))
    for cells in layout.diagonals:
        assert list(cells.at_rows(vec)) == [vec[a] for a in cells.rows]
        assert list(cells.at_cols(vec)) == [vec[b] for b in cells.cols]


@pytest.mark.parametrize("n, m", [(5, 9), (9, 5), (1, 1), (1, 7), (128, 128)])
def test_a_matrix_layout_keeps_range_cells_and_slice_gathers(n, m):
    # the recovery loop's advice step runs `in` and `index` on each
    # diagonal's rows and columns: O(1) on a range
    layout = Layout.of((n,), (m,), n + m - 1)
    assert (layout.n, layout.m, layout.rows, layout.cols) == (n, m, range(n), range(m))
    assert len(layout.diagonals) == n + m - 1
    for cells in layout.diagonals:
        assert isinstance(cells.rows, range) and isinstance(cells.cols, range)
        assert isinstance(cells.at_rows(list(range(n))), list)
        assert isinstance(cells.at_cols(list(range(m))), list)


_GATHER_CASES = [("Dprime", (5, 9)), ("Dprime", (9, 5)), ("Dprime", (1, 7)), ("Dprime", (7, 1)),
                 ("Bprime", (6, 6)), ("TensorB", (4, 4)), ("TensorB", (3,) * 4),
                 ("TensorB", (2,) * 5)]


@pytest.mark.parametrize("family, dims", _GATHER_CASES,
                         ids=[f"{f}-{'x'.join(map(str, dims))}" for f, dims in _GATHER_CASES])
def test_a_one_digit_layout_gathers_its_entries_by_slices(family, dims):
    # one place decides where cell (a, b) of each level sits in the level's
    # flat list: the tensor row-major at level 1, digit 0 fastest above it;
    # every entry is one cell, and each diagonal's gather reads its cells by
    # column, a slice when the layout has one digit (a matrix, a top level)
    ctx = make_prime_field(2**61 - 1)
    s = schedule(ctx, family, dims, 2)
    top = s.levels[-1]
    assert s.places[-1] == ((range(top[0]), range(0, top[0] * top[1], top[0])) if len(s.levels) > 1
                            else (range(0, dims[0] * dims[1], dims[1]), range(dims[1])))
    for i, (layout, (row_at, col_at)) in enumerate(zip(s.layouts, s.places)):
        size = len(row_at) * len(col_at)
        assert sorted(a + b for a in row_at for b in col_at) == list(range(size))
        flat = list(range(1000, 1000 + size))
        one_digit = isinstance(layout.rows, range)
        assert one_digit == (i == len(s.levels) - 1)
        for cells, at in zip(layout.diagonals, s.gathers[i]):
            got = at(flat)
            want = [flat[row_at[a] + col_at[b]] for a, b in zip(cells.rows, cells.cols)]
            assert list(got) == want
            assert isinstance(got, list) or not one_digit


def test_random_rank1_measurements_baseline():
    # non-product sanity baseline: a handful of random rank-1 probes already
    # catches random nonzero low-rank matrices (seeded; no failure observed)
    ctx = make_prime_field(101)
    rng = random.Random(42)
    n = m = r = 4
    probes = []
    for _ in range(4 * (n + m) * r):
        u = tuple(rng.randrange(1, 101) for _ in range(n))
        v = tuple(rng.randrange(1, 101) for _ in range(m))
        probes.append((u, v))
    for _ in range(200):
        mat = _rand_low_rank(ctx, rng, (n, m), r)
        if mat.is_zero():
            continue
        hit = False
        for u, v in probes:
            acc = ctx.zero
            for i in range(n):
                row_dot = ctx.zero
                for j in range(m):
                    row_dot = ctx.add(row_dot, ctx.mul(mat[i, j], v[j]))
                acc = ctx.add(acc, ctx.mul(u[i], row_dot))
            if acc != ctx.zero:
                hit = True
                break
        assert hit
