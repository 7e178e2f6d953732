"""Echelon bookkeeping, diagonal recovery, basis conversion, tensor recovery."""

import collections
import dataclasses
import itertools
import math
import random
import sys

import pytest
from _invariants import InvariantChecker, LatticeSupportChecker
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorhit import formats, hitting, linalg, lrr, sparse
from tensorhit.errors import (
    FieldTooSmall,
    InconsistentSyndrome,
    OracleFailure,
    PromiseViolation,
    RankPromiseViolated,
    ShapeMismatch,
    TensorhitError,
)
from tensorhit.field import FieldCtx, PrimeField, make_extension, make_prime_field
from tensorhit.hitting import (
    combine_simulated_syndromes,
    diag_row_count,
    generate_family,
    hitting_set_B_prime,
    hitting_set_D_prime,
    hitting_set_tensor,
    schedule,
    simulate_improper,
)
from tensorhit.lrr import (
    RecoveryHooks,
    convert_B_to_D,
    measure_D,
    measure_syndromes,
    recover_from_D,
    tensor_measure,
    tensor_recover,
)
from tensorhit.rankcode import build_code
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


def lne_scan(m, k=None):
    """Leading nonzero entries; restricted to the (<k)-diagonals if k given."""
    out = set()
    for i, row in enumerate(m.rows()):
        for j, v in enumerate(row):
            if v != m.ctx.zero:
                if k is None or i + j < k:
                    out.add((i, j))
                break
    return out


def make_upper_echelon(p, n, m, k):
    """Row operations turning a (<k)-upper-echelon matrix into (<=k) form.

    Returns the elementary operations (target += coeff * source) in
    application order; at most one per leading nonzero entry (i, j) of the
    (<k)-diagonals, clearing the cell of column j on the k-diagonal.
    """
    ctx, rows = p.ctx, p.rows()
    lne = sorted(lne_scan(p, k))
    if any(rows[i2][j] != ctx.zero for i, j in lne for i2 in range(i + 1, min(n, k - j))):
        raise AssertionError(f"matrix is not (<{k})-upper-echelon")
    ops = []
    for i, j in lne:
        if k - j < n and rows[k - j][j] != ctx.zero:
            ops.append((k - j, i, ctx.neg(ctx.mul(rows[k - j][j], ctx.inv(rows[i][j])))))
    return ops


def apply_row_ops(ctx, rows, ops):
    for tgt, src, c in ops:
        ctx.axpy(rows[tgt], c, rows[src])


def ops_to_dense(ctx, n, ops):
    rows = [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]
    apply_row_ops(ctx, rows, ops)
    return rows


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
    with pytest.raises(AssertionError, match=r"not \(<2\)-upper-echelon"):
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


def test_low_rank_recovery_rejects_a_missing_diagonal():
    # a dropped last diagonal used to come back as zeros: entry (2, 2) read 0, not 9
    mat = DenseTensor(GF13, (3, 3), list(range(1, 10)))
    s = schedule(GF13, "Dprime", (3, 3), 4)
    table = s.tables[0]
    synd = measure_D(mat, 2)
    by_k, off = [], 0
    for k in range(5):
        count = diag_row_count(4, 3, 3, k)
        by_k.append(synd[off : off + count])
        off += count
    assert lrr.low_rank_recovery(GF13, 2, table, by_k).entries == mat.entries
    with pytest.raises(ShapeMismatch, match="expected 5 diagonals, got 4"):
        lrr.low_rank_recovery(GF13, 2, table, by_k[:-1])


@pytest.mark.parametrize("ctx", [GF13, make_extension(make_prime_field(2), 4)], ids=repr)
def test_low_rank_recovery_rejects_more_syndromes_than_table_rows(ctx):
    # the packed table of GF(p) reads zero past its last row, a list of rows
    # reads nothing there: neither may stand in for a syndrome's weights
    s = schedule(ctx, "Dprime", (3, 3), 4)
    table = s.tables[0]
    assert len(table.rows) == 3
    by_k = [[ctx.zero] * diag_row_count(4, 3, 3, k) for k in range(5)]
    by_k[2] = [ctx.zero] * 4
    with pytest.raises(ShapeMismatch, match="^diagonal 2: 4 syndromes, 3 table rows$"):
        lrr.low_rank_recovery(ctx, 2, table, by_k)


def test_low_rank_recovery_rejects_a_table_not_as_wide_as_its_layout():
    # without the check, dots reads a short row on the columns it has, so the
    # last column drops out of a correction and the syndromes are blamed
    # (InconsistentSyndrome); a wider table is read on its leading columns,
    # which on a lattice (handed the padded matrix's table) are the wrong ones
    mat = DenseTensor(GF13, (3, 3), list(range(1, 10)))
    s = schedule(GF13, "Dprime", (3, 3), 4)
    layout, table = s.layouts[0], s.tables[0].rows
    synd = iter(measure_D(mat, 2))
    by_k = [[next(synd) for _ in range(diag_row_count(4, 3, 3, k))] for k in range(5)]
    assert lrr.low_rank_recovery(GF13, 2, s.tables[0], by_k) == mat
    for bad in ([row[:2] for row in table], [table[0][:2], *table[1:]],
                [[*row, GF13.one] for row in table]):
        with pytest.raises(ShapeMismatch, match="^table rows must be 3 wide"):
            lrr.low_rank_recovery(GF13, 2, hitting.WeightTable(GF13, layout, bad), by_k)
    ctx = make_prime_field(_prime_at_least((2 * 4 * 2) ** 4))
    s = schedule(ctx, "TensorB", (2, 2, 2, 2), 2)
    layout = s.layouts[0]  # rows and columns 0, 1, 8, 9 of a 10 x 10 matrix
    assert layout.cols == (0, 1, 8, 9) and layout.m == 10
    padded = [ctx.powers(gl, 10) for gl in ctx.powers(s.g, 2)]
    zeros = [[ctx.zero] * 2 for _ in layout.diagonals]
    assert lrr.low_rank_recovery(ctx, 1, s.tables[0], zeros).is_zero()
    with pytest.raises(ShapeMismatch, match="^table rows must be 4 wide"):
        lrr.low_rank_recovery(ctx, 1, hitting.WeightTable(ctx, layout, padded), zeros)


def test_recover_checks_the_syndrome_count_before_any_work_of_that_size():
    # the weights of a 10^6 x 10^6 matrix need an element of order 10^6,
    # which GF(5) lacks; the count is checked first
    with pytest.raises(ShapeMismatch):
        recover_from_D(make_prime_field(5), 10**6, 10**6, 1, [0])


_ENTRY_POINTS = {
    "generate_family": lambda t, family: generate_family(t.ctx, family, t.dims, 2),
    "measure": lambda t, family: lrr.measure(t, family, 1),
    "recover": lambda t, family: lrr.recover(t.ctx, family, t.dims, 1, [0] * 24),
    "build_code": lambda t, family: build_code(t.ctx, t.dims, 1, family),
    "tensor_measure": lambda t, family: tensor_measure(t, 1),
    "measure_moments": lambda t, family: lrr.measure_moments(t, family, 2),
}


@pytest.mark.parametrize("family,dims,entry", [
    pytest.param(family, dims, entry, id=f"{family}-{'x'.join(map(str, dims))}-{entry}")
    for family, dims in (("TensorB", (2, 2, 3)), ("Dprime", (2, 2, 2)), ("Bprime", (2, 2, 2)))
    for entry in _ENTRY_POINTS
    if entry != "tensor_measure" or family == "TensorB"
])
def test_every_entry_point_rejects_a_shape_outside_the_family(family, dims, entry):
    t = DenseTensor.zeros(make_prime_field(2**31 - 1), dims)
    with pytest.raises(ShapeMismatch):
        _ENTRY_POINTS[entry](t, family)


@pytest.mark.parametrize("dims, r", [((3, 3), 0), ((3, 3), -1), ((2, 2, 2), 1), ((4,), 1)])
def test_measure_D_rejects_what_measure_rejects(dims, r):
    t = DenseTensor.zeros(GF13, dims)
    with pytest.raises((ValueError, ShapeMismatch)) as want:
        lrr.measure(t, "Dprime", r)
    with pytest.raises(want.type) as got:
        measure_D(t, r)
    assert str(got.value) == str(want.value)


def test_measure_D_of_a_factored_matrix_measures_its_expansion():
    t = LowRankTensor.from_factor_lists(GF13, (3, 4), [[[1, 2, 3], [4, 5, 6, 7]],
                                                      [[0, 1, 1], [2, 0, 0, 9]]])
    assert measure_D(t, 2) == measure_D(expand(t), 2)


@pytest.mark.parametrize("family", lrr.RECOVERY_FAMILIES)
def test_a_field_without_the_needed_order_raises_field_too_small(family):
    # GF(5)^* has order 4; every recovery family at 8x8 needs order >= 8
    gf5 = make_prime_field(5)
    big = make_prime_field(65537)
    count = len(lrr.measure(DenseTensor.zeros(big, (8, 8)), family, 1))
    with pytest.raises(FieldTooSmall):
        lrr.measure(DenseTensor.zeros(gf5, (8, 8)), family, 1)
    with pytest.raises(FieldTooSmall):
        lrr.recover(gf5, family, (8, 8), 1, [0] * count)


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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_recover_returns_only_matrices_of_rank_r_that_match(data):
    # random syndromes, or those of a rank r + 1 matrix: recovery either
    # raises or returns a rank <= r matrix that measures to them
    family = data.draw(st.sampled_from(["Dprime", "Bprime"]), label="family")
    n = data.draw(st.integers(2, 5), label="n")
    m = data.draw(st.integers(n, 5), label="m")
    r = data.draw(st.integers(1, n // 2), label="r")
    count = len(lrr.measure(DenseTensor.zeros(GF13, (n, m)), family, r))
    if data.draw(st.booleans(), label="random"):
        synd = data.draw(st.lists(st.integers(0, 12), min_size=count, max_size=count))
    else:
        seed = data.draw(st.integers(0, 2**16), label="seed")
        mat = _rand_low_rank(GF13, random.Random(seed), (n, m), r + 1)
        synd = lrr.measure(mat, family, r)
    try:
        rec = lrr.recover(GF13, family, (n, m), r, synd)
    except PromiseViolation:
        return
    assert lrr.measure(rec, family, r) == synd
    assert matrix_rank(rec) <= r


def test_short_diagonal_rows_beyond_its_length_are_checked():
    # 2x4 at r=2: diagonal 2 has 2 entries and 3 D' rows, so any one
    # altered row contradicts the other two
    mat = DenseTensor(GF13, (2, 4), [3, 0, 7, 1, 5, 2, 0, 9])
    synd = measure_D(mat, 2)
    counts = [diag_row_count(4, 2, 4, k) for k in range(5)]
    assert counts[2] == 3
    for pos in range(sum(counts[:2]), sum(counts[:3])):
        bad = list(synd)
        bad[pos] = GF13.add(bad[pos], 1)
        with pytest.raises(InconsistentSyndrome):
            recover_from_D(GF13, 2, 4, 2, bad)


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


@pytest.mark.parametrize("ctx", [make_extension(make_prime_field(2), 8),
                                 make_extension(make_prime_field(2), 9)],
                         ids=["GF(2^8)-tables", "GF(2^9)-convolution"])
def test_recovery_invariants_hold_over_extension_fields(ctx):
    # N == M and P == L M on each new diagonal, the full P == L M at the end,
    # on the D' path and on B' after conversion
    rng = random.Random(repr(ctx))
    for n in (8, 12):
        for r in (1, 2):
            mat = _rand_low_rank(ctx, rng, (n, n), r, exact=True)
            checker = InvariantChecker(ctx, mat, n, n, r)
            assert recover_from_D(ctx, n, n, r, measure_D(mat, r), hooks=checker.hooks()) == mat
            assert checker.finished
            mat = _rand_low_rank(ctx, rng, (n, n), r, exact=True)
            checker = InvariantChecker(ctx, mat, n, n, r)
            bs = measure_syndromes(mat, hitting_set_B_prime(ctx, 2 * r, n, n))
            ds = convert_B_to_D(ctx, n, n, 2 * r, bs)
            assert recover_from_D(ctx, n, n, r, ds, hooks=checker.hooks()) == mat
            assert checker.finished


def _counted(name):
    def op(self, *args):
        self.ops += 1
        self.callers[name, sys._getframe(1).f_code.co_name] += 1
        return getattr(PrimeField, name)(self, *args)
    return op


class _CountingField(PrimeField):
    """GF(p), by default GF(65537), counting field operations.

    An element op counts 1; ``dot`` counts the shorter vector's length,
    ``sum_products`` that of each pair,
    ``dots`` the rows it reads times len(u) (one ``dot`` per row),
    ``axpy`` and ``horner`` the source length, ``powers`` its count.
    ``calls`` counts the calls of ``axpy``, ``horner`` and ``powers`` by name;
    ``callers`` those of ``dot``, ``dots`` and the element ops by (name,
    calling function).
    """

    def __init__(self, p=65537):
        super().__init__(p)
        self.ops = 0
        self.calls = collections.Counter()
        self.callers = collections.Counter()

    add, sub, neg, mul, inv, pow, scalar = map(
        _counted, ("add", "sub", "neg", "mul", "inv", "pow", "scalar"))

    def dot(self, u, v):
        self.ops += min(len(u), len(v))
        self.callers["dot", sys._getframe(1).f_code.co_name] += 1
        return super().dot(u, v)

    def dots(self, u, packed, count, at=None):
        self.ops += count * len(u)
        self.callers["dots", sys._getframe(1).f_code.co_name] += 1
        return super().dots(u, packed, count, at)

    def sum_products(self, us, vs):
        self.ops += sum(min(len(u), len(v)) for u, v in zip(us, vs))
        return super().sum_products(us, vs)

    def axpy(self, dst, c, src, start=0):
        self.ops += len(src)
        self.calls["axpy"] += 1
        super().axpy(dst, c, src, start)

    def horner(self, coeffs, x):
        self.ops += len(coeffs)
        self.calls["horner"] += 1
        return super().horner(coeffs, x)

    def powers(self, x, count):
        self.ops += count
        self.calls["powers"] += 1
        return super().powers(x, count)


def _recovery_ops(n, r):
    ctx = _CountingField()
    mat = _rand_low_rank(ctx, random.Random(f"ops {n} {r}"), (n, n), r)
    synd = measure_D(mat, r)
    assert recover_from_D(ctx, n, n, r, synd) == mat  # the cold call builds the tables
    ctx.ops = 0
    assert recover_from_D(ctx, n, n, r, synd) == mat
    return ctx.ops


def test_recovery_op_count_grows_as_r_n2_plus_r3_n():
    # O(r n^2 + r^3 n) field operations; at these sizes the r n^2 term
    # leads, so a doubling of n costs about 4x and one of r about 2x, and
    # the bounds leave room for the lower-order terms
    by_n = [_recovery_ops(n, 2) for n in (32, 64, 128)]
    by_r = [_recovery_ops(64, r) for r in (1, 2, 4, 8)]
    assert all(b <= 4.5 * a for a, b in zip(by_n, by_n[1:])), by_n
    assert all(b <= 2.5 * a for a, b in zip(by_r, by_r[1:])), by_r


def test_a_warm_recovery_corrects_each_diagonal_with_one_packed_dots():
    ctx, n, r = _CountingField(), 24, 2
    mat = _rand_low_rank(ctx, random.Random("warm recovery"), (n, n), r)
    synd = measure_D(mat, r)
    assert recover_from_D(ctx, n, n, r, synd) == mat  # the cold call builds the tables
    ctx.callers.clear()
    assert recover_from_D(ctx, n, n, r, synd) == mat
    layout = schedule(ctx, "Dprime", (n, n), 2 * r).layouts[0]
    assert ctx.callers["dots", "low_rank_recovery"] == len(layout.diagonals)
    assert ctx.callers["dot", "low_rank_recovery"] == 0


def _loop_element_ops_per_diagonal(n, r):
    """add/sub/neg/mul calls low_rank_recovery itself makes per diagonal in a
    warm D' recovery of an n x n matrix (every diagonal meets the layout)."""
    ctx = _CountingField()
    mat = _rand_low_rank(ctx, random.Random(f"loop ops {n} {r}"), (n, n), r)
    synd = measure_D(mat, r)
    assert recover_from_D(ctx, n, n, r, synd) == mat  # the cold call builds the tables
    ctx.callers.clear()
    assert recover_from_D(ctx, n, n, r, synd) == mat
    ops = sum(ctx.callers[op, "low_rank_recovery"] for op in ("add", "sub", "neg", "mul"))
    return ops / (2 * n - 1)


def test_the_recovery_loop_makes_o_r_element_ops_per_diagonal():
    # outside its kernels the loop touches only the <= 2r syndromes, the
    # oracle's <= 2r support cells and L's <= r columns per echelon op;
    # one op per cell, as N = P - correction was, would double this
    small, large = _loop_element_ops_per_diagonal(24, 2), _loop_element_ops_per_diagonal(48, 2)
    assert large <= 1.1 * small, (small, large)


def test_recovery_without_hooks_builds_no_echelon_state(monkeypatch):
    built = []

    class Spy(lrr.EchelonState):
        def __init__(self, *args):
            built.append(args[-1])  # the diagonals solved
            super().__init__(*args)

    monkeypatch.setattr(lrr, "EchelonState", Spy)
    mat = _rand_low_rank(GF13, random.Random("no hooks"), (6, 6), 2)
    synd = measure_D(mat, 2)
    assert recover_from_D(GF13, 6, 6, 2, synd) == mat
    assert built == []
    hooks = RecoveryHooks(after_iteration=lambda k, state: state.P)
    assert recover_from_D(GF13, 6, 6, 2, synd, hooks=hooks) == mat
    assert built == list(range(11))


def test_a_diagonal_short_of_its_prony_rows_raises_oracle_failure():
    # diagonal 5 of 6 x 6 has six cells, more than its 2r = 2 rows, so it
    # goes to Prony's method, which rejects a single syndrome value
    mat = _rand_low_rank(GF13, random.Random("one syndrome short"), (6, 6), 1, exact=True)
    counts = [diag_row_count(2, 6, 6, k) for k in range(11)]
    synd = iter(measure_D(mat, 1))
    by_k = [[next(synd) for _ in range(count)] for count in counts]
    by_k[5] = by_k[5][:1]
    s = schedule(GF13, "Dprime", (6, 6), 2)
    with pytest.raises(OracleFailure, match="^diagonal 5: expected 2 syndrome values, got 1$"):
        lrr.low_rank_recovery(GF13, 1, s.tables[0], by_k)


def test_a_caller_table_whose_points_repeat_gives_an_unsolvable_square_system():
    # row 1 of the table holds the points g^j; here every point is 1, so the
    # square system of diagonal 1 (2 cells, 2 rows) is singular, and syndromes
    # 1 and 2 lie off its image
    table = [[1, 1, 1], [1, 1, 1]]
    by_k = [[0], [1, 2], [0, 0], [0, 0], [0]]
    layout = hitting.Layout.of((3,), (3,), 5)
    with pytest.raises(InconsistentSyndrome, match="^diagonal 1: unsolvable square system$"):
        lrr.low_rank_recovery(GF13, 1, hitting.WeightTable(GF13, layout, table), by_k)


def test_a_consistent_square_system_on_repeated_points_is_unsolvable_too():
    # syndromes 1 and 1 lie in the image of the singular system, which then
    # has many solutions; the square-system solve needs distinct points
    table = [[1, 1, 1], [1, 1, 1]]
    by_k = [[0], [1, 1], [0, 0], [0, 0], [0]]
    layout = hitting.Layout.of((3,), (3,), 5)
    with pytest.raises(InconsistentSyndrome, match="^diagonal 1: unsolvable square system$"):
        lrr.low_rank_recovery(GF13, 1, hitting.WeightTable(GF13, layout, table), by_k)


SQUARE_FIELDS = {
    "GF13": GF13,
    "GF(2^64-59)": make_prime_field(2**64 - 59),
    "GF(2^8)-tables": make_extension(make_prime_field(2), 8),
    "GF(2^9)-convolution": make_extension(make_prime_field(2), 9),
}


@pytest.mark.parametrize("ctx", SQUARE_FIELDS.values(), ids=SQUARE_FIELDS)
def test_each_packed_square_inverse_equals_elimination(ctx):
    # D' 8 x 8 at R = 6: diagonals 0 to 5 have 1 to 6 cells and as many rows,
    # and so, from the other end, do diagonals 14 down to 9
    r, n = 3, 8
    table = schedule(ctx, "Dprime", (n, n), 2 * r).tables[0]
    rng = random.Random(f"inverse {ctx!r}")
    sizes = []
    for i, cells in enumerate(table.layout.diagonals):
        size = len(cells.cols)
        if size <= 2 * r:
            rows = [list(cells.at_cols(row)) for row in table.rows[:size]]
            y = [ctx.from_index(rng.randrange(ctx.size)) for _ in range(size)]
            assert ctx.dots(y, table.inverse(i), size) == linalg.solve(ctx, rows, y)
            sizes.append(size)
    assert sorted(sizes) == sorted([*range(1, 2 * r + 1)] * 2)


def _spy_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def spy(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("ctx", [GF13, make_extension(make_prime_field(2), 8)], ids=repr)
def test_warm_square_solves_build_no_polynomial_and_solve_no_system(ctx, monkeypatch):
    # 6 x 6 at r = 3: D' measures every diagonal on as many rows as it has
    # cells, so recovery never reaches Prony's method, and the B' conversion
    # solves diagonals 0 to 4 and 6 to 10 on the same table
    n, r = 6, 3
    mat = _rand_low_rank(ctx, random.Random(f"square {ctx!r}"), (n, n), r)
    ds, bs = measure_D(mat, r), lrr.measure(mat, "Bprime", r)
    calls = collections.Counter()
    for module, name in ((linalg, "poly_from_roots"), (sparse, "vandermonde_solve"),
                         (sparse, "vandermonde_inverse")):
        _spy_calls(monkeypatch, module, name, calls)
    hitting._schedule.cache_clear()
    assert recover_from_D(ctx, n, n, r, ds) == mat
    assert convert_B_to_D(ctx, n, n, 2 * r, bs) == ds
    assert calls == {"poly_from_roots": 2 * n - 1, "vandermonde_inverse": 2 * n - 1}
    calls.clear()
    assert recover_from_D(ctx, n, n, r, ds) == mat
    assert convert_B_to_D(ctx, n, n, 2 * r, bs) == ds
    assert calls == {}


def test_a_schedule_builds_each_square_inverse_once(monkeypatch):
    # D' 12 x 12 at r = 2: diagonals 0 to 3 and 19 to 22 have 1 to 4 cells
    # and as many rows; the B' conversion solves 0 to 2 and 20 to 22
    n, r = 12, 2
    built, real = [], sparse.vandermonde_inverse
    monkeypatch.setattr(sparse, "vandermonde_inverse",
                        lambda ctx, points: built.append(len(points)) or real(ctx, points))
    mat = _rand_low_rank(GF65537, random.Random("inverses once"), (n, n), r)
    ds, bs = measure_D(mat, r), lrr.measure(mat, "Bprime", r)
    hitting._schedule.cache_clear()
    for _ in range(3):
        assert convert_B_to_D(GF65537, n, n, 2 * r, bs) == ds
        assert recover_from_D(GF65537, n, n, r, ds) == mat
    assert sorted(built) == [1, 1, 2, 2, 3, 3, 4, 4]


def test_an_altered_redundant_row_of_a_square_diagonal_raises():
    # every diagonal measured on all four table rows, as B' and TensorB levels
    # are: diagonals 0 to 2 and 8 to 10 of 6 x 6 have fewer cells than rows
    mat = _rand_low_rank(GF13, random.Random("redundant rows"), (6, 6), 2)
    table, rows = schedule(GF13, "Dprime", (6, 6), 4).tables[0], mat.rows()
    by_k = [[GF13.dot([rows[i][j] for i, j in zip(cells.rows, cells.cols)], cells.at_cols(w))
             for w in table.rows] for cells in table.layout.diagonals]
    assert lrr.low_rank_recovery(GF13, 2, table, by_k) == mat
    for k in (0, 1, 2, 8, 9, 10):
        for l in range(min(k, 10 - k) + 1, 4):
            bad = [list(v) for v in by_k]
            bad[k][l] = GF13.add(bad[k][l], GF13.one)
            with pytest.raises(InconsistentSyndrome,
                               match=f"^diagonal {k}: redundant row mismatch$"):
                lrr.low_rank_recovery(GF13, 2, table, bad)


@pytest.mark.parametrize("family", ["Dprime", "Bprime"])
def test_recovery_solves_no_system_by_elimination(family, monkeypatch):
    mat = _rand_low_rank(GF13, random.Random(f"no elimination {family}"), (6, 6), 2)
    synd = lrr.measure(mat, family, 2)
    monkeypatch.setattr(linalg, "solve", None)
    assert lrr.recover(GF13, family, (6, 6), 2, synd) == mat


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


# -- each TensorB level on its packed lattice ---------------------------------

LATTICE_SHAPES = [(3, 3, 2), (4, 3, 1), (4, 2, 2), (5, 2, 1), (3, 4, 1)]  # (d, n, r)
GF_M31 = make_prime_field(2**31 - 1)


def _level_calls(d, n, r, seed):
    """(layout, table, syndromes of each layout diagonal) of each level that
    recovering a random rank <= r tensor of shape [n]^d solves, in the order
    it solves them."""
    t = _rand_low_rank(GF_M31, random.Random(seed), (n,) * d, r)
    calls, real = [], lrr.low_rank_recovery

    def spy(ctx, r, table, by_k, hooks=None):
        by_k = [list(v) for v in by_k]
        calls.append((table.layout, table.rows, by_k))
        return real(ctx, r, table, by_k, hooks=hooks)

    lrr.low_rank_recovery = spy
    try:
        assert tensor_recover(GF_M31, d, n, r, tensor_measure(t, r)).entries == t.entries
    finally:
        lrr.low_rank_recovery = real
    return calls


def _on_lattice(ctx, layout, r, table, by_k):
    return lrr.low_rank_recovery(ctx, r, hitting.WeightTable(ctx, layout, table), by_k)


def _on_every_cell(ctx, layout, r, g, by_pos, hooks=None, off=None):
    """The level recovered on every cell, as a padded matrix, then cut to the
    lattice; an entry off the lattice is a violation.  g is the level's
    generator, whose powers weigh every column of the padded matrix.  by_pos
    holds the syndromes of each layout diagonal; every other diagonal k
    measures zero, or off[k] if given."""
    table = [ctx.powers(gl, layout.m) for gl in ctx.powers(g, 2 * r)]
    by_k = [[ctx.zero] * len(table) for _ in range(layout.n + layout.m - 1)]
    for cells, synd in zip(layout.diagonals, by_pos):
        by_k[cells.k] = synd
    for k, synd in (off or {}).items():
        by_k[k] = synd
    every_cell = hitting.Layout.of((layout.n,), (layout.m,), layout.n + layout.m - 1)
    rows = lrr.low_rank_recovery(ctx, r, hitting.WeightTable(ctx, every_cell, table), by_k,
                                 hooks=hooks).rows()
    on = [[rows[i][j] for j in layout.cols] for i in layout.rows]
    nonzero = sum(v != ctx.zero for row in rows for v in row)
    if nonzero != sum(v != ctx.zero for row in on for v in row):
        raise InconsistentSyndrome("a recovered entry lies off the lattice")
    return DenseTensor.from_rows(ctx, on)


def _level_syndromes(ctx, layout, table, rows):
    """Syndromes of each layout diagonal of the matrix holding rows (over the
    layout) on its cells; table is the layout's, indexed by column position."""
    pos = {cells.k: p for p, cells in enumerate(layout.diagonals)}
    by_pos = [[ctx.zero] * len(table) for _ in layout.diagonals]
    for a, i in enumerate(layout.rows):
        for b, j in enumerate(layout.cols):
            if rows[a][b] != ctx.zero:
                synd = by_pos[pos[i + j]]
                for l, w in enumerate(table):
                    synd[l] = ctx.add(synd[l], ctx.mul(rows[a][b], w[b]))
    return by_pos


@pytest.mark.parametrize("d, n, r", LATTICE_SHAPES)
def test_a_level_recovers_the_same_matrix_on_its_lattice_and_on_every_cell(d, n, r):
    ctx = GF_M31
    g = schedule(ctx, "TensorB", (n,) * d, 2 * r).g
    calls = _level_calls(d, n, r, f"levels {d} {n} {r}")
    assert len(calls) == sum((2 * r) ** i for i in range((d - 1).bit_length()))
    rng = random.Random(f"lattice {d} {n} {r}")
    for layout, table, by_k in calls:
        # the level's own syndromes, then a random rank <= r matrix on its
        # lattice, measured as the level is
        m = _rand_low_rank(ctx, rng, (len(layout.rows), len(layout.cols)), r)
        for synd in (by_k, _level_syndromes(ctx, layout, table, m.rows())):
            checker = LatticeSupportChecker(ctx, layout)
            padded = _on_every_cell(ctx, layout, r, g, synd, checker.hooks())
            assert checker.iterations == layout.n + layout.m - 1
            assert _on_lattice(ctx, layout, r, table, synd) == padded
        assert padded == m


def _outcome(solve, *args):
    try:
        return solve(*args)
    except PromiseViolation as e:
        return type(e)


@pytest.mark.parametrize("d, n, r", LATTICE_SHAPES)
def test_corrupted_level_syndromes_raise_on_the_lattice_and_on_every_cell(d, n, r):
    ctx, R = GF_M31, 2 * r
    g = schedule(ctx, "TensorB", (n,) * d, R).g
    rng = random.Random(f"corrupt {d} {n} {r}")
    off_lattice = 0
    for layout, table, by_k in _level_calls(d, n, r, f"corrupt levels {d} {n} {r}"):
        # a bump on a diagonal with fewer cells than rows is inconsistent;
        # one on a longer diagonal may or may not be, alike on both
        short = [p for p, c in enumerate(layout.diagonals) if len(c.cols) < R]
        long = [p for p, c in enumerate(layout.diagonals) if len(c.cols) >= R]
        for ps, must_raise in ((short, True), (long, False)):
            for p in rng.sample(ps, min(3, len(ps))):
                bad = [list(v) for v in by_k]
                l = rng.randrange(R)
                bad[p][l] = ctx.add(bad[p][l], ctx.from_index(rng.randrange(1, ctx.size)))
                got = _outcome(_on_lattice, ctx, layout, r, table, bad)
                padded = _outcome(_on_every_cell, ctx, layout, r, g, bad)
                if must_raise or isinstance(got, type):
                    assert issubclass(got, PromiseViolation)
                    assert issubclass(padded, PromiseViolation)
                else:
                    assert got == padded
        # one cell off the lattice: syndromes nonzero on one diagonal that
        # meets no lattice cell, zero everywhere else (the top level fills
        # every cell of its matrix); the lattice recovery takes no vector
        # for such a diagonal
        met = {c.k for c in layout.diagonals}
        k = next((k for k in range(layout.n + layout.m - 1) if k not in met), None)
        if k is None:
            continue
        off_lattice += 1
        j = min(k, layout.m - 1)
        zeros = [[ctx.zero] * R for _ in by_k]
        weights = ctx.powers(ctx.pow(g, j), R)  # column j of the padded matrix's table
        with pytest.raises(InconsistentSyndrome, match="off the lattice"):
            _on_every_cell(ctx, layout, r, g, zeros, off={k: [ctx.mul(5, w) for w in weights]})
    assert off_lattice


def test_a_level_names_itself_and_the_diagonal_off_its_lattice():
    ctx = make_prime_field(_prime_at_least((2 * 3 * 2) ** 3))
    t = DenseTensor.zeros(ctx, (2, 2, 2))
    synd = tensor_measure(t, 1)
    s = schedule(ctx, "TensorB", (2, 2, 2), 2)
    # level 1 (4 variables of sizes 2, 2, 2, 1; stride 8) is solved last:
    # rows 0, 1, 8, 9 and columns 0, 1, so diagonals 3 to 7 meet no cell and
    # recovery is handed none of them
    assert s.layouts[0].rows == (0, 1, 8, 9) and s.layouts[0].cols == (0, 1)
    assert [c.k for c in s.layouts[0].diagonals] == [0, 1, 2, 8, 9, 10]
    top = s.layouts[1]
    assert [c.k for c in top.diagonals] == list(range(top.n + top.m - 1))
    real = lrr.low_rank_recovery

    def spy(ctx, r, table, by_k, hooks=None):
        by_k = [list(v) for v in by_k]
        if table.layout is s.layouts[0]:
            by_k[-1][1] = ctx.one  # the redundant row of diagonal 10's one cell (9, 1)
        return real(ctx, r, table, by_k, hooks=hooks)

    lrr.low_rank_recovery = spy
    try:
        with pytest.raises(InconsistentSyndrome,
                           match="level 1: diagonal 10: redundant row mismatch"):
            tensor_recover(ctx, 3, 2, 1, synd)
    finally:
        lrr.low_rank_recovery = real


@pytest.mark.parametrize("d, n", [(2, 7), (2, 8), (2, 9), (3, 3), (3, 4), (3, 5), (3, 15),
                                  (3, 16), (4, 6), (5, 6), (5, 7)])
def test_packed_corrections_equal_one_dot_per_row_on_every_tensor_layout(d, n):
    # every layout of [n]^2 and [n]^3 is n columns wide, so the table widths
    # 3, 4, 5; 7, 8, 9 and 15, 16 lie on both sides of 4, 8 and 16, where the
    # slot width of the packed table changes; d = 4 and 5 add lattices of
    # other levels, 36, 11 (and 6 at d = 5) columns wide at n = 6 and 49, 13, 7 at n = 7
    ctx = make_prime_field(2**61 - 1)
    s = schedule(ctx, "TensorB", (n,) * d, 4)
    rng = random.Random(f"corrections {d} {n}")
    for table in s.tables:
        for cells in table.layout.diagonals:
            for a in ([ctx.p - 1] * len(cells.cols), [rng.randrange(ctx.p) for _ in cells.cols]):
                want = [ctx.dot(a, cells.at_cols(row)) for row in table.rows]
                assert ctx.dots(a, table.packed, len(table.rows), cells.at_cols) == want


def test_a_rank_1_tensor_of_shape_2_to_the_8_round_trips_over_gf_2_61_minus_1():
    # level 1 is a 4370 x 4370 matrix of which 16 rows and 16 columns can be
    # nonzero; recovered on every cell it took about 16 s
    ctx = make_prime_field(2**61 - 1)
    t = _rand_low_rank(ctx, random.Random(12), (2,) * 8, 1)
    s = schedule(ctx, "TensorB", (2,) * 8, 2)
    assert (s.layouts[0].n, len(s.layouts[0].rows), len(s.layouts[0].cols)) == (4370, 16, 16)
    synd = tensor_measure(t, 1)
    assert len(synd) == 128
    assert tensor_recover(ctx, 8, 2, 1, synd).entries == t.entries


def test_level_1_of_a_3_to_the_8_tensor_is_handed_only_the_625_diagonals_its_lattice_meets(
        monkeypatch):
    # level 1 merges 8 variables of size 3 in base 24: its 81 x 81 lattice
    # meets 5^4 of the 57,701 diagonals of its padded matrix
    ctx = make_prime_field(2**61 - 1)
    t = _rand_low_rank(ctx, random.Random(38), (3,) * 8, 1)
    s = schedule(ctx, "TensorB", (3,) * 8, 2)
    layout = s.layouts[0]
    assert (len(layout.rows), len(layout.cols), layout.n + layout.m - 1) == (81, 81, 57_701)
    handed, real = [], lrr.low_rank_recovery

    def spy(ctx, r, table, by_k, hooks=None):
        by_k = [list(v) for v in by_k]
        handed.append((table.layout, by_k))
        return real(ctx, r, table, by_k, hooks=hooks)

    monkeypatch.setattr(lrr, "low_rank_recovery", spy)
    assert tensor_recover(ctx, 8, 3, 1, tensor_measure(t, 1)).entries == t.entries
    [by_k] = [by_k for got, by_k in handed if got is layout]
    assert len(by_k) == len(layout.diagonals) == 625
    padded = [[ctx.zero] * len(s.tables[0].rows) for _ in range(57_701)]
    for cells, synd in zip(layout.diagonals, by_k):
        padded[cells.k] = synd
    with pytest.raises(ShapeMismatch, match="expected 625 diagonals, got 57701"):
        real(ctx, 1, s.tables[0], padded)


GF7919 = make_prime_field(7919)  # order >= (2dn)^d for d, n <= 3


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_tensor_recover_returns_only_tensors_that_match(data):
    # one polynomial of degree <= d(n-1) per exponent index, evaluated at the
    # family's points: syndromes that most often no tensor produces
    d = data.draw(st.sampled_from([2, 3]), label="d")
    n = data.draw(st.sampled_from([2, 3]), label="n")
    ctx, deg = GF7919, d * (n - 1)
    alphas = ctx.first_elements(d * n)
    synd = []
    coeff = st.sampled_from([0, 0, 0, 1, 2])  # sparse, so some are consistent
    for _ in range(2 ** (d - 1).bit_length()):  # R^b polynomials, R = 2r = 2
        cs = data.draw(st.lists(coeff, min_size=deg + 1, max_size=deg + 1))
        synd.extend(ctx.horner(cs, a) for a in alphas)
    try:
        t = tensor_recover(ctx, d, n, 1, synd)
    except PromiseViolation:
        return
    assert tensor_measure(t, 1) == synd


def test_tensor_redundant_evaluations_are_checked():
    # d = n = 2: each polynomial has degree 2 and 4 evaluations, so
    # syndromes 3 and 7 are redundant
    ctx = make_prime_field(1733)
    synd = tensor_measure(DenseTensor(ctx, (2, 2), [1, 2, 3, 6]), 1)
    assert tensor_recover(ctx, 2, 2, 1, synd).entries == [1, 2, 3, 6]
    for pos in (3, 7):
        bad = list(synd)
        bad[pos] = ctx.add(bad[pos], 1)
        with pytest.raises(InconsistentSyndrome):
            tensor_recover(ctx, 2, 2, 1, bad)


@pytest.mark.parametrize("ctx, d, n", [(make_prime_field(1733), 3, 2),
                                       (make_extension(make_prime_field(2), 8), 2, 3)],
                         ids=["GF(1733)-2^3", "GF(2^8)-3^2"])
def test_altering_any_one_tensor_evaluation_raises_inconsistent_syndrome(ctx, d, n):
    # a block holds dn evaluations of a polynomial of degree d(n - 1); one changed
    # value moves the interpolant, or is a redundant one, and they then disagree;
    # syndromes given as a tuple pass the same check
    t = _rand_low_rank(ctx, random.Random(f"redundant {d} {n}"), (n,) * d, 1)
    synd = tensor_measure(t, 1)
    assert tensor_recover(ctx, d, n, 1, synd) == t
    assert tensor_recover(ctx, d, n, 1, tuple(synd)) == t
    assert lrr.recover(ctx, "TensorB", (n,) * d, 1, tuple(synd)) == t
    for pos in range(len(synd)):
        bad = list(synd)
        bad[pos] = ctx.add(bad[pos], ctx.one)
        with pytest.raises(InconsistentSyndrome,
                           match="^redundant evaluation disagrees with interpolant$"):
            tensor_recover(ctx, d, n, 1, bad)


def test_tensor_syndrome_count_mismatch():
    ctx = make_prime_field(_prime_at_least(145))
    with pytest.raises(ShapeMismatch):
        tensor_recover(ctx, 2, 3, 1, [0] * 5)


def test_tensor_family_count_formula():
    ctx = make_prime_field(_prime_at_least((2 * 3 * 3) ** 3))
    fam = hitting_set_tensor(ctx, 3, 3, 4)
    assert len(fam) == 3 * 3 * 4 ** 2


# -- packed measurement of the rank-1 moment families -------------------------------

GF_2_64_MINUS_59 = make_prime_field(2**64 - 59)  # the widest slots of the packed dots


def test_measure_moments_rejects_a_family_that_is_not_a_moment_family():
    t = DenseTensor(GF13, (3, 3), list(range(9)))
    with pytest.raises(ValueError, match="family Naive has no schedule"):
        lrr.measure_moments(t, "Naive", 2)


@pytest.mark.parametrize("family", ["D", "Dprime"])
def test_measure_moments_of_a_diagonal_family_equals_its_member_inner_products(family):
    for dims, R in (((3, 3), 2), ((2, 5), 2), ((4, 6), 3)):
        t = DenseTensor(GF13, dims, [i * 5 % 13 for i in range(math.prod(dims))])
        fam = generate_family(GF13, family, dims, R)
        assert lrr.measure_moments(t, family, R) == [m.inner(GF13, t) for m in fam.measurements]


def test_an_all_p_minus_1_matrix_measures_exactly_over_gf_2_64_minus_59():
    # every entry and weight at its largest, on diagonals up to 64 long
    ctx = GF_2_64_MINUS_59
    for family, n in (("Dprime", 64), ("Bprime", 16), ("TensorB", 8)):
        t = DenseTensor(ctx, (n, n), [ctx.p - 1] * (n * n))
        fam = generate_family(ctx, family, (n, n), 4)
        assert lrr.measure(t, family, 2) == [m.inner(ctx, t) for m in fam.measurements]


GF2, GF3 = make_prime_field(2), make_prime_field(3)
GF16 = make_extension(make_prime_field(2), 4)
GF65537 = make_prime_field(65537)
_TENSOR_MAX_N = {2: 4, 3: 3, 4: 2}  # (2dn)^d <= 65536


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_collapsed_measurement_equals_member_inner_products(data):
    fields = [GF2, GF3, GF13, GF16, GF65537, GF_2_64_MINUS_59]
    ctx = data.draw(st.sampled_from(fields), label="field")
    large = ctx in (GF65537, GF_2_64_MINUS_59)
    families = ["B", "Bprime", "D", "Dprime"] + (["TensorB"] if large else [])
    family = data.draw(st.sampled_from(families), label="family")
    if family == "TensorB":
        d = data.draw(st.integers(2, 4), label="d")
        dims = (data.draw(st.integers(1, _TENSOR_MAX_N[d]), label="n"),) * d
        r = data.draw(st.integers(1, 3), label="r")
    else:
        # g needs order >= m, and B and B' need n + m - 1 distinct nonzero points
        moment = family in ("B", "Bprime")
        n = data.draw(st.integers(1, min(4, ctx.size // 2 if moment else ctx.size - 1)),
                      label="n")
        m = data.draw(st.integers(n, min(6, ctx.size - n if moment else ctx.size - 1)),
                      label="m")
        dims = (n, m)
        r = data.draw(st.integers(1, n), label="r")
    size = math.prod(dims)
    idx = data.draw(st.lists(st.integers(0, ctx.size - 1), min_size=size, max_size=size))
    t = DenseTensor(ctx, dims, [ctx.from_index(i) for i in idx])

    fam = generate_family(ctx, family, dims, r)
    synd = measure_syndromes(t, fam)
    assert synd == [m.inner(ctx, t) for m in fam.measurements]

    if family == "TensorB" or (family in ("Bprime", "Dprime") and dims[0] >= 2):
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
        members[i] = members[i]._replace(entries=tuple(entries))
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


GF_2_61_MINUS_1 = make_prime_field(2**61 - 1)
GF8192 = make_extension(make_prime_field(2), 13)  # convolution arithmetic: base pack and dots


_WIDE_TENSORS = [(GF_2_61_MINUS_1, d, 2) for d in range(5, 9)] + [(GF_2_61_MINUS_1, 5, 3),
                                                                  (GF8192, 3, 2)]


@pytest.mark.parametrize("ctx, d, n", _WIDE_TENSORS,
                         ids=[f"{ctx!r}-d{d}-n{n}" for ctx, d, n in _WIDE_TENSORS])
def test_wide_tensor_measurement_equals_member_inner_products(ctx, d, n):
    # beyond the hypothesis ranges: up to eight variables through three merge levels
    rng = random.Random(f"wide {d} {n}")
    t = DenseTensor(ctx, (n,) * d, [ctx.from_index(rng.randrange(ctx.size)) for _ in range(n**d)])
    fam = hitting_set_tensor(ctx, d, n, 2)
    assert tensor_measure(t, 1) == [m.inner(ctx, t) for m in fam.measurements]


GF256 = make_extension(make_prime_field(2), 8)  # TableField kernels
GF2197 = make_extension(make_prime_field(13), 3)  # convolution arithmetic
_UPWARD_CASES = [(ctx, d, n) for ctx in (GF_2_61_MINUS_1, GF65537, GF256, GF2197)
                 for d in range(2, 6) for n in range(1, 5) if (2 * d * n) ** d <= ctx.size - 1]


@given(case=st.sampled_from(_UPWARD_CASES), R=st.integers(1, 4), seed=st.integers(0, 2**32),
       factored=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_merge_levels_run_upward_measure_as_a_member_by_member_scan(case, R, seed, factored):
    ctx, d, n = case
    rng = random.Random(seed)
    dims = (n,) * d
    if factored:  # a rank <= 2 LowRankTensor, expanded by ``expand`` in the measurement only
        terms = [[[ctx.from_index(rng.randrange(1, ctx.size)) for _ in range(n)] for _ in dims]
                 for _ in range(rng.randrange(3))]
        t = LowRankTensor.from_factor_lists(ctx, dims, terms)
        dense = DenseTensor.zeros(ctx, dims)
        for term in terms:
            for i, idx in enumerate(itertools.product(range(n), repeat=d)):
                x = ctx.one
                for v, j in zip(term, idx):
                    x = ctx.mul(x, v[j])
                dense.entries[i] = ctx.add(dense.entries[i], x)
        assert expand(t) == dense
    else:
        t = dense = DenseTensor(ctx, dims, [ctx.from_index(rng.randrange(ctx.size))
                                            for _ in range(n**d)])
    fam = hitting_set_tensor(ctx, d, n, R)
    assert lrr.measure_moments(t, "TensorB", R) == list(hitting.inner_products(dense, fam))


@pytest.mark.parametrize("p, family, dims", [(65537, "Bprime", (64, 64)),
                                             (2**31 - 1, "TensorB", (3,) * 4)],
                         ids=["Bprime-64x64", "TensorB-3^4"])
def test_a_warm_measurement_reads_its_tables_from_the_schedule(p, family, dims):
    ctx = _CountingField(p)
    t = _rand_low_rank(ctx, random.Random(f"warm {family}"), dims, 2)
    fam = generate_family(ctx, family, dims, 4)
    hitting._schedule.cache_clear()  # the cold call builds every table with this field
    cold = measure_syndromes(t, fam)
    assert ctx.calls["powers"] > 0
    ctx.calls.clear()
    warm = measure_syndromes(t, fam)
    assert ctx.calls == {}
    assert warm == cold == [m.inner(ctx, t) for m in fam.measurements]


# -- interpolation tables: cold, warm, and the moments formula ------------------------


def _moments_interpolate(ctx, tables, ys):
    """Lagrange interpolation over the master polynomial of the first len(ys)
    points of tables, whose Newton tables it does not read.

    The formula recovery interpolated with before the cached Newton tables:
    P = sum_i c_i M(x) / (x - xs[i]), c_i = ys[i] / M'(xs[i]), so
    coefficient j of P is sum_u M[j+1+u] s_u over the moments
    s_u = sum_i c_i xs[i]^u.
    """
    xs = tables[0][: len(ys)]
    n = len(xs)
    master = linalg.poly_from_roots(ctx, xs)
    deriv = [ctx.mul(ctx.scalar(t), master[t]) for t in range(1, n + 1)]
    moments = [ctx.zero] * n
    for x, y in zip(xs, ys):
        xp = ctx.powers(x, n)
        ctx.axpy(moments, ctx.mul(y, ctx.inv(ctx.dot(deriv, xp))), xp)
    return [ctx.dot(master[j + 1 :], moments) for j in range(n)]


@pytest.mark.parametrize("ctx", [GF65537, GF16, make_extension(make_prime_field(2), 9)],
                         ids=repr)
def test_cold_and_warm_tables_recover_as_the_moments_formula(ctx, monkeypatch):
    # 4x4 B' and the 4x4 tensor family interpolate on the first 7 and first 8
    # points, 3x4 and 4x5 B' on the first 6 and first 8: prefixes of each other
    rng = random.Random(13)
    calls = []
    for (n, m), R in (((4, 4), 4), ((3, 4), 2), ((4, 5), 4)):
        mat = _rand_low_rank(ctx, rng, (n, m), R // 2)
        bs = measure_syndromes(mat, hitting_set_B_prime(ctx, R, n, m))
        calls.append(lambda n=n, m=m, R=R, bs=bs: convert_B_to_D(ctx, n, m, R, bs))
    for d, n in ((2, 4), (3, 2)):
        if ctx.size - 1 >= (2 * d * n) ** d:
            synd = tensor_measure(_rand_low_rank(ctx, rng, (n,) * d, 1), 1)
            calls.append(lambda d=d, n=n, synd=synd: tensor_recover(ctx, d, n, 1, synd).entries)
    cold = []
    for call in calls:
        hitting._schedule.cache_clear()  # with it the schedule's Newton tables
        cold.append(call())
    warm = [call() for call in calls]
    monkeypatch.setattr(linalg, "poly_interpolate", _moments_interpolate)
    assert cold == warm == [call() for call in calls]


@pytest.mark.parametrize("table_first", [False, True], ids=["ring-then-table", "table-then-ring"])
def test_a_table_field_and_its_ring_each_read_their_own_packed_tables(table_first):
    # equal and hashing alike, the two pack differently (logs, tuples), so the
    # schedule cache, Newton tables included, must not hand one's tables to the other
    table = make_extension(make_prime_field(2), 4)
    ring = FieldCtx(2, 4, table.modulus)
    assert table == ring and hash(table) == hash(ring)
    rng = random.Random(4)
    entries = _rand_low_rank(table, rng, (4, 5), 1).entries
    xs, ys = table.first_elements(6), [table.from_index(rng.randrange(16)) for _ in range(5)]

    def run(ctx):
        mat = DenseTensor(ctx, (4, 5), entries)
        d_synd = measure_D(mat, 1)
        b_synd = lrr.measure_moments(mat, "Bprime", 2)
        return (linalg.poly_interpolate(ctx, linalg.newton_tables(ctx, xs), ys), d_synd,
                recover_from_D(ctx, 4, 5, 1, d_synd).entries, b_synd,
                convert_B_to_D(ctx, 4, 5, 2, b_synd))

    hitting._schedule.cache_clear()
    first, second = [run(ctx) for ctx in ((table, ring) if table_first else (ring, table))]
    assert first == second
    _, d_synd, recovered, _, converted = first
    assert recovered == entries and converted == d_synd


# -- one parameter domain per family ---------------------------------------------------


def _raised(call, accepts=()):
    """The error class call raises, or None when it returns or raises one of accepts."""
    try:
        call()
    except accepts:
        return None
    except (ValueError, TensorhitError) as e:  # the CLI's usage errors; anything else fails
        return type(e)
    return None


def _family_length(family, dims, r):
    """Members of a recovery family at 2r on dims by the paper's counts; any count off its shapes."""
    if family == "TensorB":
        d = len(dims)
        return d * dims[0] * (2 * r) ** (d - 1).bit_length()
    if len(dims) != 2:
        return 0
    n, m = dims
    return sum(max(0, min(2 * r, k + 1, n + m - k - 1)) for k in range(n + m - 1))


@given(st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_every_entry_point_of_a_family_accepts_the_same_inputs(data):
    # measure, recover, the builders and the code all read hitting.check_family;
    # recover may still find random syndromes outside the rank promise
    family = data.draw(st.sampled_from(lrr.RECOVERY_FAMILIES), label="family")
    if data.draw(st.booleans(), label="cubic"):
        dims = (data.draw(st.integers(1, 3), label="n"),) * data.draw(st.integers(2, 3), label="d")
    else:
        dims = tuple(data.draw(st.integers(1, 6), label=a) for a in ("n", "m"))
    r = data.draw(st.integers(0, 4), label="r")
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    t = DenseTensor(GF65537, dims, [rng.randrange(65537) for _ in range(math.prod(dims))])
    synd = [rng.randrange(65537) for _ in range(_family_length(family, dims, r))]
    outcomes = {
        "measure": _raised(lambda: lrr.measure(t, family, r)),
        "recover": _raised(lambda: lrr.recover(GF65537, family, dims, r, synd), PromiseViolation),
        "generate_family": _raised(lambda: generate_family(GF65537, family, dims, 2 * r)),
        "build_code": _raised(lambda: build_code(GF65537, dims, r, family)),
    }
    assert len(set(outcomes.values())) == 1, outcomes
    if outcomes["measure"] is None:  # an accepted input measures as its family, member by member
        fam = generate_family(GF65537, family, dims, 2 * r)
        assert lrr.measure(t, family, r) == [m.inner(GF65537, t) for m in fam.measurements]


@pytest.mark.parametrize("call", [
    lambda: recover_from_D(GF65537, 3, 3, 0, []),
    lambda: tensor_recover(GF65537, 2, 2, 0, []),
], ids=["recover_from_D", "tensor_recover"])
def test_direct_recovery_at_rank_zero_raises_value_error(call):
    with pytest.raises(ValueError, match="rank bound must be >= 1, got r=0"):
        call()
