"""Acceptance suite: one test per shipping criterion, exact tolerances.

Each test prints a single ``ACCEPTANCE <n> ...: PASS`` line (run with
``pytest tests/test_acceptance.py -s`` to see them).  Criterion 10 is the
one soft criterion: it reports timing ratios and warns, never fails.
"""

import itertools
import random
import time

import _fastrank
from _invariants import InvariantChecker
import numpy as np
from tensorhit import linalg
from tensorhit.field import (
    make_extension,
    make_prime_field,
    _is_prime,
)
from tensorhit.hitting import (
    hitting_set_B,
    hitting_set_B_prime,
    hitting_set_D,
    hitting_set_D_prime,
    hitting_set_tensor,
    pit_test,
    rank_preserver,
    simulate_improper,
    simulate_proper,
)
from tensorhit.lrr import (
    convert_B_to_D,
    measure_D,
    measure_syndromes,
    recover_from_D,
    tensor_measure,
    tensor_recover,
)
from tensorhit.rankcode import build_code, decode, encode, min_distance_brute
from tensorhit.sparse import dual_rs, pronys_method
from tensorhit.tensor import DenseTensor, matrix_rank

GF13 = make_prime_field(13)
GF169 = make_extension(GF13, 2)

GRID = [
    (r, n, m)
    for n in range(1, 13)
    for m in range(n, 13)
    for r in range(1, n + 1)
]

_FAMILIES: dict = {}
_EXT13: dict = {1: GF13, 2: GF169}


def _field_for_B(n: int, m: int):
    return GF13 if n + m - 1 <= 12 else GF169


def _ext13_for_order(bound: int):
    k = 1
    while 13**k - 1 < bound:
        k += 1
    if k not in _EXT13:
        _EXT13[k] = make_extension(GF13, k)
    return _EXT13[k]


def _family(tag, ctx, r, n, m):
    key = (tag, ctx.k, r, n, m)
    fam = _FAMILIES.get(key)
    if fam is None:
        builder = {
            "B": hitting_set_B,
            "Bprime": hitting_set_B_prime,
            "D": hitting_set_D,
            "Dprime": hitting_set_D_prime,
        }[tag]
        fam = builder(ctx, r, n, m)
        _FAMILIES[key] = fam
    return fam


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
        if not exact:
            if not out.is_zero():
                return out
        elif len(dims) == 2 and matrix_rank(out) == r:
            return out


def _report(num, name, t0, budget, detail=""):
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({name}): PASS in {dt:.1f}s (budget {budget}s) {detail}")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"


# -- 1: size formulas ---------------------------------------------------------


def test_criterion_01_size_formulas():
    t0 = time.perf_counter()
    for r, n, m in GRID:
        ctx = _field_for_B(n, m)
        assert len(_family("B", ctx, r, n, m)) == (n + m - 1) * r
        assert len(_family("Bprime", ctx, r, n, m)) == (n + m - r) * r
        assert len(_family("Dprime", GF13, r, n, m)) == (n + m - r) * r
    checked = 3 * len(GRID)
    for d in (2, 3, 4, 8):
        b = (d - 1).bit_length()
        for n in range(1, 5):
            ctx = _ext13_for_order((2 * d * n) ** d)
            for r in range(1, 4):
                fam = hitting_set_tensor(ctx, d, n, r)
                assert len(fam) == d * n * r**b
                checked += 1
    _report(1, "size formulas", t0, 10, f"[{checked} families]")


# -- 2: hitting exhaustively ----------------------------------------------------


def test_criterion_02_hitting():
    t0 = time.perf_counter()
    # (a) all 3x3 rank<=1 matrices over GF(2), via the improper simulation of D
    gf2 = make_prime_field(2)
    K = make_extension(gf2, (3 - 1).bit_length() + 1)  # ceil(lg m) + 1 = 3
    sim = simulate_improper(hitting_set_D(K, 1, 3, 3))
    zero = DenseTensor.zeros(gf2, (3, 3))
    assert not pit_test(zero, sim)
    checked = 0
    for u in itertools.product(range(2), repeat=3):
        for v in itertools.product(range(2), repeat=3):
            mat = DenseTensor(gf2, (3, 3), [a * b % 2 for a in u for b in v])
            if mat.is_zero():
                continue
            assert pit_test(mat, sim)
            checked += 1

    # (b) 10^4 random rank<=r matrices over GF(13), rotating families
    rng = random.Random(202)
    tags = ("B", "D", "Dprime", "Bprime")
    zero_checked = set()
    for trial in range(10_000):
        n = rng.randint(1, 12)
        m = rng.randint(n, 12)
        r = rng.randint(1, n)
        tag = tags[trial % 4]
        ctx = GF13 if tag in ("D", "Dprime") else _field_for_B(n, m)
        fam = _family(tag, ctx, r, n, m)
        if (tag, r, n, m) not in zero_checked:
            zero_checked.add((tag, r, n, m))
            assert not pit_test(DenseTensor.zeros(GF13, (n, m)), fam)
        mat = _rand_low_rank(GF13, rng, (n, m), r)
        assert pit_test(mat, fam), (tag, r, n, m)
    _report(2, "hitting exhaustively", t0, 60,
            f"[{checked} exhaustive + 10000 random]")


# -- 3: span equality and independence -------------------------------------------


def _rows_with_extras(tag_main, tag_sub, ctx, r, n, m):
    """(independent-subfamily rows, rows of the full family beyond it)."""
    sub = _family(tag_sub, ctx, r, n, m)
    full = _family(tag_main, ctx, r, n, m)
    sub_keys = {(mm.k, mm.ls) for mm in sub.measurements}
    extras = [mm for mm in full.measurements if (mm.k, mm.ls) not in sub_keys]
    if ctx.k == 1:
        return _fastrank.prime_rows(sub), _fastrank.prime_rows(full, extras)
    return _fastrank.doubled_rows(sub), _fastrank.doubled_rows(full, extras)


def test_criterion_03_span_and_independence():
    t0 = time.perf_counter()
    for r, n, m in GRID:
        target = (n + m - r) * r
        # D' independent and spanning D, over GF(13) throughout
        rows_dp, extras_d = _rows_with_extras("D", "Dprime", GF13, r, n, m)
        red, pivots = _fastrank.rref_mod(rows_dp, 13)
        assert len(pivots) == target, ("Dprime", r, n, m)
        assert _fastrank.in_rowspace(red, pivots, extras_d, 13), ("D", r, n, m)
        # B' independent and spanning B, over GF(13) or GF(13^2)
        ctx = _field_for_B(n, m)
        p = ctx.p
        rows_bp, extras_b = _rows_with_extras("B", "Bprime", ctx, r, n, m)
        red_b, pivots_b = _fastrank.rref_mod(rows_bp, p)
        scale = ctx.k
        assert len(pivots_b) == scale * target, ("Bprime", r, n, m)
        assert _fastrank.in_rowspace(red_b, pivots_b, extras_b, p), ("B", r, n, m)
    _report(3, "span/independence ranks", t0, 10, f"[{len(GRID)} combos x 4 families]")


def test_in_rowspace_is_exact_beyond_the_float_range():
    # over GF(2^31 - 1) a 40-term row combination overflows float64's 2^53
    p = 2**31 - 1
    rng = np.random.default_rng(303)
    basis = rng.integers(0, p, size=(40, 60))
    red, pivots = _fastrank.rref_mod(basis, p)
    comb = rng.integers(0, p, size=(5, 40))
    extras = np.array(
        [[sum(int(c) * int(b) for c, b in zip(row, col)) % p for col in basis.T]
         for row in comb],
        dtype=np.int64,
    )
    assert _fastrank.in_rowspace(red, pivots, extras, p)
    extras[2, 7] = (extras[2, 7] + 1) % p
    assert not _fastrank.in_rowspace(red, pivots, extras, p)


# -- 4: rank-preserver bound -------------------------------------------------------


def test_criterion_04_rank_preserver_bound():
    t0 = time.perf_counter()
    rng = random.Random(404)
    fields = {
        16: make_extension(make_prime_field(2), 4),
        17: make_prime_field(17),
        64: make_extension(make_prime_field(2), 6),
    }
    for q, ctx in fields.items():
        g = ctx.element_of_order(8)
        for _ in range(100):
            n = rng.randint(1, 8)
            r = rng.randint(1, n)
            while True:
                mat = [
                    [ctx.from_index(rng.randrange(ctx.size)) for _ in range(r)]
                    for _ in range(n)
                ]
                if linalg.rank(ctx, mat) == r:
                    break
            bad = 0
            for idx in range(ctx.size):
                alpha = ctx.from_index(idx)
                a = rank_preserver(ctx, g, r, n, alpha)
                rows_a = a.rows()
                prod = [
                    [
                        _dot(ctx, [rows_a[i][t] for t in range(n)],
                             [mat[t][j] for t in range(n)])
                        for j in range(r)
                    ]
                    for i in range(r)
                ]
                if linalg.rank(ctx, prod) < r:
                    bad += 1
            assert bad <= n * r - r * (r + 1) // 2, (q, n, r, bad)
    _report(4, "rank-preserver bound", t0, 30, "[300 matrices, full alpha sweeps]")


def _dot(ctx, u, v):
    acc = ctx.zero
    for a, b in zip(u, v):
        if a != ctx.zero and b != ctx.zero:
            acc = ctx.add(acc, ctx.mul(a, b))
    return acc


# -- 5: Prony roundtrip --------------------------------------------------------------


def test_criterion_05_prony_roundtrip():
    t0 = time.perf_counter()
    calls = 0
    for n in range(1, 7):
        for s in (1, 2):
            v = dual_rs(GF13, n, s)
            pts = list(v.points)
            cols = [[row[j] for row in v.rows] for j in range(n)]
            width = 2 * s
            for s_size in range(0, min(2 * s, n) + 1):
                budget = s - (s_size + 1) // 2
                for s_set in itertools.combinations(range(n), s_size):
                    outside = [i for i in range(n) if i not in s_set]
                    for extra in range(0, budget + 1):
                        for t_set in itertools.combinations(outside, extra):
                            for vals in itertools.product(
                                range(13), repeat=s_size
                            ):
                                for tvals in itertools.product(
                                    range(1, 13), repeat=extra
                                ):
                                    x = [0] * n
                                    y = [0] * width
                                    for pos, val in zip(s_set, vals):
                                        x[pos] = val
                                        if val:
                                            c = cols[pos]
                                            for i in range(width):
                                                y[i] = (y[i] + val * c[i]) % 13
                                    for pos, val in zip(t_set, tvals):
                                        x[pos] = val
                                        c = cols[pos]
                                        for i in range(width):
                                            y[i] = (y[i] + val * c[i]) % 13
                                    got = pronys_method(
                                        GF13, n, s, set(s_set), y, pts
                                    )
                                    assert got == x, (n, s, s_set, x)
                                    calls += 1
    # random trials at n = 64, s = 8 over GF(67)
    ctx = make_prime_field(67)
    v = dual_rs(ctx, 64, 8)
    pts = list(v.points)
    rng = random.Random(505)
    for _ in range(1000):
        s_size = rng.randint(0, 16)
        advice = set(rng.sample(range(64), s_size))
        budget = 8 - (s_size + 1) // 2
        extra = rng.randint(0, budget)
        outside = [i for i in range(64) if i not in advice]
        supp = set(rng.sample(outside, extra))
        x = [0] * 64
        for i in advice:
            x[i] = rng.randrange(67)
        for i in supp:
            x[i] = rng.randrange(1, 67)
        y = v.measure(x)
        assert pronys_method(ctx, 64, 8, advice, y, pts) == x
    _report(5, "Prony roundtrip", t0, 60, f"[{calls} exhaustive + 1000 random]")


# -- 6 + 7: matrix LRR roundtrip with loop invariants ---------------------------------


def test_criterion_06_07_matrix_lrr_roundtrip_and_invariants():
    t0 = time.perf_counter()
    ctx = make_prime_field(67)
    rng = random.Random(606)
    trials_per_cell = 56  # 56 * 9 cells * 2 paths = 1008 >= 10^3 recoveries
    total = 0
    for n in (8, 16, 32):
        for r in (1, 2, 4):
            count_expected = 2 * (n + n - 2 * r) * r
            bprime = hitting_set_B_prime(ctx, 2 * r, n, n)
            assert len(bprime) == count_expected
            for _ in range(trials_per_cell):
                mat = _rand_low_rank(ctx, rng, (n, n), r, exact=True)
                hooks = InvariantChecker(ctx, mat, n, n, r).hooks()
                synd = measure_D(mat, r)
                assert len(synd) == count_expected
                rec = recover_from_D(ctx, n, n, r, synd, hooks=hooks)
                assert rec.entries == mat.entries
                total += 1

                mat2 = _rand_low_rank(ctx, rng, (n, n), r, exact=True)
                hooks2 = InvariantChecker(ctx, mat2, n, n, r).hooks()
                bs = measure_syndromes(mat2, bprime)
                ds = convert_B_to_D(ctx, n, n, 2 * r, bs)
                rec2 = recover_from_D(ctx, n, n, r, ds, hooks=hooks2)
                assert rec2.entries == mat2.entries
                total += 1
    _report(6, "matrix LRR roundtrip", t0, 120, f"[{total} recoveries]")
    print("ACCEPTANCE 7 (recovery loop invariants): PASS "
          f"[checked across all {total} criterion-6 recoveries]")


# -- 8: tensor LRR roundtrip ------------------------------------------------------------


def _prime_at_least(n):
    while not _is_prime(n):
        n += 1
    return n


def test_criterion_08_tensor_lrr_roundtrip():
    t0 = time.perf_counter()
    for d, n, r in ((4, 3, 2), (3, 3, 2)):
        ctx = make_prime_field(_prime_at_least((2 * d * n) ** d + 1))
        rng = random.Random(808 + d)
        b = (d - 1).bit_length()
        expected = d * n * (2 * r) ** b
        for trial in range(100):
            t = _rand_low_rank(ctx, rng, (n,) * d, r)
            synd = tensor_measure(t, r)
            assert len(synd) == expected
            rec = tensor_recover(ctx, d, n, r, synd)
            assert rec.entries == t.entries, (d, trial)
    _report(8, "tensor LRR roundtrip", t0, 300, "[100 tensors each for d=4, d=3]")


# -- 9: rank-metric codes -----------------------------------------------------------------


def test_criterion_09_rank_metric_codes():
    t0 = time.perf_counter()
    ctx = make_prime_field(17)
    for n in (4, 6, 8):
        for r in range(1, n // 2 + 1):
            code = build_code(ctx, (n, n), r, "Dprime")
            assert code.dimension == n * n - 2 * (n + n - 2 * r) * r, (n, r)

    rng = random.Random(909)
    trials = 0
    for r in (1, 2):
        code = build_code(ctx, (6, 6), r, "Dprime")
        for _ in range(500):
            msg = [rng.randrange(17) for _ in range(code.dimension)]
            word = encode(code, msg)
            err = _rand_low_rank(ctx, rng, (6, 6), r)
            recv = DenseTensor(
                ctx, (6, 6),
                [ctx.add(a, b) for a, b in zip(word.entries, err.entries)],
            )
            got_word, got_err = decode(code, recv)
            assert got_word.entries == word.entries
            assert got_err.entries == err.entries
            trials += 1

    code7 = build_code(make_prime_field(7), (3, 3), 1, "Dprime")
    assert code7.dimension == 1
    assert min_distance_brute(code7) >= 3
    _report(9, "rank-metric codes", t0, 120, f"[9 dimensions, {trials} decodes]")


# -- 10: runtime shape (soft) ----------------------------------------------------------------


def test_criterion_10_runtime_shape_soft():
    t0 = time.perf_counter()
    ctx = make_prime_field(257)
    rng = random.Random(1010)
    times = []
    for n in (32, 64, 128):
        mat = _rand_low_rank(ctx, rng, (n, n), 2)
        t1 = time.perf_counter()
        synd = measure_D(mat, 2)
        t2 = time.perf_counter()
        rec = recover_from_D(ctx, n, n, 2, synd)
        t3 = time.perf_counter()
        assert rec.entries == mat.entries
        times.append((n, t2 - t1, t3 - t2))
    ratios = [times[i + 1][2] / max(times[i][2], 1e-9) for i in range(2)]
    detail = ", ".join(
        f"n={n}: recover {rt:.3f}s" for n, _, rt in times
    ) + "; growth " + ", ".join(f"{x:.2f}x" for x in ratios)
    for x in ratios:
        if x > 4.5:
            print(f"ACCEPTANCE 10 warning: recover-time grew {x:.2f}x on doubling")
    print(f"ACCEPTANCE 10 (runtime shape, soft): PASS [{detail}]")
    assert time.perf_counter() - t0 < 120


# -- 11: small-field simulation counts ----------------------------------------------------------


def test_criterion_11_simulation_counts():
    t0 = time.perf_counter()
    gf2 = make_prime_field(2)
    exts: dict = {}
    combos = 0
    for r, n, m in GRID:
        k = max((m - 1).bit_length(), 1) + 1  # ceil(lg m) + 1
        if k not in exts:
            exts[k] = make_extension(gf2, k)
        K = exts[k]
        dfam = hitting_set_D_prime(K, r, n, m)
        improper = simulate_improper(dfam)
        assert len(improper) == k * len(dfam), (r, n, m)
        bfam = hitting_set_B_prime(K, r, n, m)
        proper = simulate_proper(bfam)
        assert len(proper) == k**2 * len(bfam), (r, n, m)
        combos += 1
    _report(11, "small-field simulation counts", t0, 10, f"[{combos} combos]")
