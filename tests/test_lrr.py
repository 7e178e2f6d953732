"""Echelon bookkeeping, diagonal recovery, basis conversion, tensor recovery."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorhit import formats, linalg, lrr
from tensorhit.errors import (
    InconsistentSyndrome,
    NotEchelon,
    RankPromiseViolated,
    ShapeMismatch,
)
from tensorhit.field import make_extension, make_prime_field
from tensorhit.hitting import (
    combine_simulated_syndromes,
    generate_family,
    hitting_set_B_prime,
    hitting_set_D_prime,
    hitting_set_tensor,
    simulate_improper,
)
from tensorhit.lrr import (
    RecoveryHooks,
    convert_B_to_D,
    lne_scan,
    make_upper_echelon,
    measure_D,
    measure_syndromes,
    ops_to_dense,
    recover_from_D,
    tensor_measure,
    tensor_recover,
)
from tensorhit.tensor import (
    DenseTensor,
    LowRankTensor,
    Rank1Tensor,
    diagonal,
    expand,
    matrix_rank,
)

GF13 = make_prime_field(13)
GF17 = make_prime_field(17)


def _rand_low_rank(ctx, rng, dims, r, exact=False):
    while True:
        out = DenseTensor.zeros(ctx, dims)
        for _ in range(r):
            vecs = [
                [ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)]
                for n in dims
            ]
            term = [ctx.one]
            for v in vecs:
                term = [ctx.mul(e, c) for e in term for c in v]
            out.entries = [ctx.add(a, b) for a, b in zip(out.entries, term)]
        if not exact or len(dims) != 2 or matrix_rank(out) == r:
            return out


# -- lne and echelon ----------------------------------------------------------


def test_lne_scan_zero_matrix():
    assert lne_scan(DenseTensor.zeros(GF13, (3, 3))) == set()


def test_lne_scan_identity_region():
    eye = DenseTensor(GF13, (3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert lne_scan(eye, 3) == {(0, 0), (1, 1)}
    assert lne_scan(eye) == {(0, 0), (1, 1), (2, 2)}


def test_distinct_lne_columns_imply_independent_rows():
    rng = random.Random(0)
    for _ in range(100):
        n, m = 4, 5
        cols = rng.sample(range(m), 3)
        rows = []
        for c in sorted(cols):
            row = [0] * m
            row[c] = rng.randrange(1, 13)
            for j in range(c + 1, m):
                row[j] = rng.randrange(13)
            rows.append(row)
        assert linalg.rank(GF13, rows) == 3


def test_make_upper_echelon_k0_and_zero():
    z = DenseTensor.zeros(GF13, (3, 3))
    assert make_upper_echelon(z, 3, 3, 0) == []
    assert make_upper_echelon(z, 3, 3, 3) == []


def test_make_upper_echelon_rejects_non_echelon():
    p = DenseTensor(GF13, (2, 2), [1, 1, 1, 0])
    with pytest.raises(NotEchelon):
        make_upper_echelon(p, 2, 2, 2)


def test_make_upper_echelon_postconditions():
    rng = random.Random(1)
    for _ in range(50):
        n = m = 5
        mat = _rand_low_rank(GF13, rng, (n, m), 2)
        # bring the matrix into (<k)-echelon form by running the ops diagonal
        # by diagonal, checking the contract at each step
        p = mat.copy()
        for k in range(n + m - 1):
            ops = make_upper_echelon(p, n, m, k)
            assert len(ops) <= matrix_rank(mat)
            before = [diagonal(p, kk) for kk in range(k)]
            dense = ops_to_dense(GF13, n, ops)
            rows = p.rows()
            flat = []
            for i in range(n):
                for j in range(m):
                    acc = GF13.zero
                    for t in range(n):
                        acc = GF13.add(acc, GF13.mul(dense[i][t], rows[t][j]))
                    flat.append(acc)
            p = DenseTensor(GF13, (n, m), flat)
            # L is unit lower triangular
            for i in range(n):
                assert dense[i][i] == GF13.one
                for j in range(i + 1, n):
                    assert dense[i][j] == GF13.zero
            # prefix diagonals unchanged
            for kk in range(k):
                assert diagonal(p, kk) == before[kk]


# -- matrix recovery ------------------------------------------------------------


def test_measure_D_counts_and_zero():
    z = DenseTensor.zeros(GF13, (4, 4))
    synd = measure_D(z, 1)
    assert len(synd) == 2 * (4 + 4 - 2) * 1 == 12
    assert all(s == 0 for s in synd)


def test_recover_zero_matrix():
    synd = [0] * 12
    assert recover_from_D(GF13, 4, 4, 1, synd).is_zero()


def test_recover_rank1_4x4():
    rng = random.Random(2)
    for _ in range(25):
        mat = _rand_low_rank(GF13, rng, (4, 4), 1)
        rec = recover_from_D(GF13, 4, 4, 1, measure_D(mat, 1))
        assert rec.entries == mat.entries


def test_recover_exhaustive_gf2_rank1_via_simulated_Dprime():
    gf2 = make_prime_field(2)
    K = make_extension(gf2, 2)
    sim = simulate_improper(hitting_set_D_prime(K, 2, 3, 3))
    for u in itertools.product(range(2), repeat=3):
        for v in itertools.product(range(2), repeat=3):
            mat = DenseTensor(gf2, (3, 3), [a * b % 2 for a in u for b in v])
            ks = combine_simulated_syndromes(K, measure_syndromes(mat, sim))
            rec = recover_from_D(K, 3, 3, 1, ks)
            assert rec.entries == [K.scalar(e) for e in mat.entries]


def test_recover_rectangular_and_transposed_shapes():
    rng = random.Random(3)
    for n, m in ((3, 6), (6, 3), (5, 5)):
        for _ in range(10):
            mat = _rand_low_rank(GF17, rng, (n, m), 2)
            rec = recover_from_D(GF17, n, m, 2, measure_D(mat, 2))
            assert rec.entries == mat.entries


def test_recover_syndrome_count_mismatch():
    with pytest.raises(ShapeMismatch):
        recover_from_D(GF13, 4, 4, 1, [0] * 11)


def test_recover_rank_promise_violation_detected():
    # a full-rank matrix against an r=1 budget must not decode silently
    rng = random.Random(4)
    eye = DenseTensor(GF13, (4, 4), [1 if i == j else 0 for i in range(4) for j in range(4)])
    extra = _rand_low_rank(GF13, rng, (4, 4), 3)
    mat = DenseTensor(GF13, (4, 4), [GF13.add(a, b) for a, b in zip(eye.entries, extra.entries)])
    if matrix_rank(mat) <= 1:
        pytest.skip("degenerate draw")
    synd = measure_D(mat, 1)
    try:
        rec = recover_from_D(GF13, 4, 4, 1, synd)
    except (InconsistentSyndrome, RankPromiseViolated):
        return
    assert rec.entries != mat.entries  # must at least not claim success


def test_reproof_zero_syndromes_give_zero():
    for n, m, r in ((4, 4, 1), (5, 7, 2), (6, 6, 3)):
        count = len(measure_D(DenseTensor.zeros(GF17, (n, m)), r))
        assert recover_from_D(GF17, n, m, r, [0] * count).is_zero()


def test_measurements_do_not_depend_on_the_tensor():
    # non-adaptivity: generation takes only (shape, r, field)
    fam1 = hitting_set_D_prime(GF13, 2, 4, 4)
    fam2 = hitting_set_D_prime(GF13, 2, 4, 4)
    assert fam1.measurements == fam2.measurements


def test_recovery_hooks_fire_in_order():
    rng = random.Random(5)
    mat = _rand_low_rank(GF13, rng, (4, 4), 1)
    seen = []
    hooks = RecoveryHooks(
        before_oracle=lambda k, state, advice: seen.append(("pre", k)),
        after_iteration=lambda k, state: seen.append(("post", k)),
    )
    recover_from_D(GF13, 4, 4, 1, measure_D(mat, 1), hooks=hooks)
    ks = [k for tag, k in seen if tag == "pre"]
    assert ks == list(range(7))
    assert seen[0] == ("pre", 0) and seen[1] == ("post", 0)


# -- conversion -----------------------------------------------------------------


def test_convert_zero():
    count = len(measure_syndromes(
        DenseTensor.zeros(GF17, (4, 4)), hitting_set_B_prime(GF17, 2, 4, 4)
    ))
    out = convert_B_to_D(GF17, 4, 4, 2, [0] * count)
    assert all(v == 0 for v in out)


def test_convert_single_family_is_plain_interpolation():
    # family parameter 1: one polynomial, no fringe subtraction
    rng = random.Random(6)
    mat = _rand_low_rank(GF17, rng, (3, 3), 1)
    bs = measure_syndromes(mat, hitting_set_B_prime(GF17, 1, 3, 3))
    ds = convert_B_to_D(GF17, 3, 3, 1, bs)
    direct = measure_syndromes(mat, hitting_set_D_prime(GF17, 1, 3, 3))
    assert ds == direct


def test_convert_matches_direct_D_syndromes():
    rng = random.Random(7)
    for n, m, rr in ((4, 4, 2), (4, 6, 4), (8, 8, 4)):
        for _ in range(5):
            mat = _rand_low_rank(GF17, rng, (n, m), 2)
            bs = measure_syndromes(mat, hitting_set_B_prime(GF17, rr, n, m))
            ds = convert_B_to_D(GF17, n, m, rr, bs)
            direct = measure_syndromes(mat, hitting_set_D_prime(GF17, rr, n, m))
            assert ds == direct


def test_convert_then_recover_roundtrip():
    rng = random.Random(8)
    for _ in range(10):
        mat = _rand_low_rank(GF17, rng, (8, 8), 2)
        bs = measure_syndromes(mat, hitting_set_B_prime(GF17, 4, 8, 8))
        rec = recover_from_D(GF17, 8, 8, 2, convert_B_to_D(GF17, 8, 8, 4, bs))
        assert rec.entries == mat.entries


def test_convert_count_mismatch():
    with pytest.raises(ShapeMismatch):
        convert_B_to_D(GF17, 4, 4, 2, [0] * 5)


# -- tensor recovery --------------------------------------------------------------


def _prime_at_least(n):
    from tensorhit.field import _is_prime

    p = n
    while not _is_prime(p):
        p += 1
    return p


def test_tensor_measure_zero_and_count():
    ctx = make_prime_field(_prime_at_least(145))
    z = DenseTensor.zeros(ctx, (3, 3))
    synd = tensor_measure(z, 1)
    assert len(synd) == 2 * 3 * 2 and all(s == 0 for s in synd)
    assert tensor_recover(ctx, 2, 3, 1, synd).is_zero()


def test_tensor_d2_crosschecks_with_conversion_path():
    ctx = make_prime_field(_prime_at_least(145))
    rng = random.Random(9)
    for _ in range(10):
        t = _rand_low_rank(ctx, rng, (3, 3), 1)
        via_tensor = tensor_recover(ctx, 2, 3, 1, tensor_measure(t, 1))
        bs = measure_syndromes(t, hitting_set_B_prime(ctx, 2, 3, 3))
        via_b = recover_from_D(ctx, 3, 3, 1, convert_B_to_D(ctx, 3, 3, 2, bs))
        assert via_tensor.entries == via_b.entries == t.entries


def test_tensor_d3_padded_roundtrip():
    ctx = make_prime_field(_prime_at_least((2 * 3 * 2) ** 3))
    rng = random.Random(10)
    for _ in range(10):
        t = _rand_low_rank(ctx, rng, (2, 2, 2), 1)
        rec = tensor_recover(ctx, 3, 2, 1, tensor_measure(t, 1))
        assert rec.entries == t.entries


def test_tensor_d4_roundtrip():
    ctx = make_prime_field(_prime_at_least((2 * 4 * 2) ** 4))
    rng = random.Random(11)
    for _ in range(5):
        t = _rand_low_rank(ctx, rng, (2, 2, 2, 2), 2)
        rec = tensor_recover(ctx, 4, 2, 2, tensor_measure(t, 2))
        assert rec.entries == t.entries


def test_tensor_syndrome_count_mismatch():
    ctx = make_prime_field(_prime_at_least(145))
    with pytest.raises(ShapeMismatch):
        tensor_recover(ctx, 2, 3, 1, [0] * 5)


def test_tensor_family_count_formula():
    ctx = make_prime_field(_prime_at_least((2 * 3 * 3) ** 3))
    fam = hitting_set_tensor(ctx, 3, 3, 4)
    assert len(fam) == 3 * 3 * 4 ** 2


# -- collapsed measurement of the rank-1 moment families ----------------------------

GF16 = make_extension(make_prime_field(2), 4)
GF65537 = make_prime_field(65537)
_TENSOR_MAX_N = {2: 4, 3: 3, 4: 2}  # (2dn)^d <= 65536


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_collapsed_measurement_equals_member_inner_products(data):
    ctx = data.draw(st.sampled_from([GF13, GF16, GF65537]), label="field")
    families = ["B", "Bprime"] + (["TensorB"] if ctx is GF65537 else [])
    family = data.draw(st.sampled_from(families), label="family")
    if family == "TensorB":
        d = data.draw(st.integers(2, 4), label="d")
        dims = (data.draw(st.integers(1, _TENSOR_MAX_N[d]), label="n"),) * d
        r = data.draw(st.integers(1, 3), label="r")
    else:
        n = data.draw(st.integers(1, 4), label="n")
        dims = (n, data.draw(st.integers(n, 6), label="m"))
        r = data.draw(st.integers(1, n), label="r")
    size = math.prod(dims)
    idx = data.draw(st.lists(st.integers(0, ctx.size - 1), min_size=size, max_size=size))
    t = DenseTensor(ctx, dims, [ctx.from_index(i) for i in idx])

    fam = generate_family(ctx, family, dims, r)
    synd = measure_syndromes(t, fam)
    assert synd == [m.inner(ctx, t) for m in fam.measurements]

    if family == "TensorB" or (family == "Bprime" and dims[0] >= 2):
        top = 2 if family == "TensorB" else dims[0] // 2
        rr = data.draw(st.integers(1, top), label="recovery r")
        assert lrr.measure(t, family, rr) == measure_syndromes(
            t, generate_family(ctx, family, dims, 2 * rr)
        )

    if family == "Bprime":
        # a family read back from a file is measured member by member
        back = formats.read_measurements(formats.write_measurements(fam))
        i = data.draw(st.integers(0, len(back) - 1), label="member")
        j = data.draw(st.integers(0, size - 1), label="entry")
        entries = list(back.measurements[i].entries)
        entries[j] = ctx.add(entries[j], ctx.one)
        members = list(back.measurements)
        members[i] = dataclasses.replace(members[i], entries=tuple(entries))
        altered = dataclasses.replace(back, measurements=tuple(members))
        got = measure_syndromes(t, altered)
        assert got == [m.inner(ctx, t) for m in altered.measurements]
        assert got[i] == ctx.add(synd[i], t.entries[j])
        assert got[:i] + got[i + 1 :] == synd[:i] + synd[i + 1 :]


def test_measure_syndromes_rejects_a_shape_mismatch():
    mat = DenseTensor(GF13, (3, 3), list(range(9)))
    for fam in (hitting_set_B_prime(GF13, 1, 4, 4), hitting_set_D_prime(GF13, 1, 4, 4)):
        with pytest.raises(ShapeMismatch):
            measure_syndromes(mat, fam)


def test_factored_tensors_are_measured_as_their_expansion():
    t = LowRankTensor(GF13, (3, 4), (
        Rank1Tensor(GF13, ((1, 2, 0), (4, 0, 1, 3))),
        Rank1Tensor(GF13, ((0, 5, 7), (1, 1, 2, 9))),
    ))
    fam = hitting_set_B_prime(GF13, 2, 3, 4)
    assert measure_syndromes(t, fam) == [m.inner(GF13, t) for m in fam.measurements]
    assert lrr.measure(t, "Dprime", 1) == lrr.measure(expand(t), "Dprime", 1)
    cube = LowRankTensor(GF65537, (2, 2, 2), (Rank1Tensor(GF65537, ((1, 2), (3, 4), (5, 6))),))
    fam = hitting_set_tensor(GF65537, 3, 2, 2)
    assert tensor_measure(cube, 1) == [m.inner(GF65537, cube) for m in fam.measurements]
