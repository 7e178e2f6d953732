"""Low-rank recovery from diagonal measurements.

The engine reconstructs a rank <= r matrix one k-diagonal at a time from
non-adaptive inner products.  Row-reducing the already-recovered prefix
keeps it in (<k)-upper-echelon form, which forces the next diagonal of the
reduced matrix to be sparse outside a small set of predictable columns.
A diagonal with at least as many syndrome rows as entries is solved from
its first rows (a Vandermonde system) and every further row is checked;
a longer diagonal goes to Prony's method on dual Reed-Solomon rows with
the echelon advice set.  After each diagonal the leading nonzero entries
are counted against r, so a returned matrix has rank <= r and matches
every syndrome.  The row operations live in a unit lower-triangular L whose
off-identity columns stay confined to rows that own leading nonzero
entries, so the correction of a diagonal is at most r kernel passes, one
per such column.

Echelon conventions.  A leading nonzero entry (lne) of a row is its first
nonzero column; lne(M^(<k)) collects those falling strictly below the
k-diagonal.  M is (<k)-upper-echelon when, for each such (i, j), the
entries (i', j) with i < i' < k - j vanish.  Within this module diagonals
are handled in column order (slot t of diagonal k is column j_lo + t),
because measurement weights and evaluation points are indexed by column.

Beyond matrices, the module converts rank-1-family syndromes into diagonal
syndromes by staircase interpolation, and reverses the variable-merging
reduction to recover order-d tensors measured with the tensor family: each
level packs its polynomials with ``tensor.merge_variables``, recovers the
merged coefficient matrix, and unpacks it with ``tensor.split_variables``.
Every shape, generator, point and weight is read from ``hitting``.
``measure_moments`` measures the rank-1 families (B, B', TensorB) through
one collapsed polynomial per exponent index.  ``measure`` and ``recover``
are the one entry point for each family in ``RECOVERY_FAMILIES``.
"""

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import (
    InconsistentSyndrome,
    NotEchelon,
    OracleFailure,
    PromiseViolation,
    RankPromiseViolated,
    ShapeMismatch,
    TensorhitError,
)
from .field import Fel, FieldCtx
from .hitting import (
    MOMENT_FAMILIES,
    check_shape,
    diag_columns,
    diag_row_count,
    diag_weight_table,
    dprime_size,
    dprime_table,
    family_generator,
    family_tensor,
    inner_products,
    moment_schedule,
)
from .tensor import (
    DenseTensor,
    LowRankTensor,
    expand,
    merge_variables,
    permute_axes,
    split_variables,
)
from .sparse import pronys_method


def lne_scan(m: DenseTensor, k: int | None = None) -> set[tuple[int, int]]:
    """Leading nonzero entries; restricted to the (<k)-diagonals if k given."""
    ctx = m.ctx
    n, mm = m.dims
    out = set()
    for i, row in enumerate(m.rows()):
        for j, v in enumerate(row):
            if v != ctx.zero:
                if k is None or i + j < k:
                    out.add((i, j))
                break
    return out


def _check_lt_k_echelon(p: DenseTensor, k: int) -> bool:
    rows, n, zero = p.rows(), p.dims[0], p.ctx.zero
    return all(
        rows[i2][j] == zero
        for i, j in lne_scan(p, k)
        for i2 in range(i + 1, min(n, k - j))
    )


RowOp = tuple[int, int, Fel]  # (target_row, source_row, coefficient)


def make_upper_echelon(p: DenseTensor, n: int, m: int, k: int) -> list[RowOp]:
    """Row operations turning a (<k)-upper-echelon matrix into (<=k) form.

    Returns the elementary operations (target += coeff * source) in
    application order; at most one per leading nonzero entry, each with
    source in lne_R(P^(<k)).  Applying them leaves the (<k)-diagonals
    untouched and zeroes the k-diagonal in every lne column.
    """
    if not _check_lt_k_echelon(p, k):
        raise NotEchelon(f"matrix is not (<{k})-upper-echelon")
    return _echelon_ops(p.ctx, p.rows(), dict(lne_scan(p, k)), n, k)


def _echelon_ops(ctx, rows, lne: dict[int, int], n: int, k: int) -> list[RowOp]:
    ops = []
    for i in sorted(lne):
        j = lne[i]
        tgt = k - j
        if tgt >= n:
            continue
        v = rows[tgt][j]
        if v == ctx.zero:
            continue
        ops.append((tgt, i, ctx.neg(ctx.mul(v, ctx.inv(rows[i][j])))))
    return ops


def apply_row_ops(ctx, rows, ops: list[RowOp]) -> None:
    for tgt, src, c in ops:
        ctx.axpy(rows[tgt], c, rows[src])


def ops_to_dense(ctx, n: int, ops: list[RowOp]) -> list[list[Fel]]:
    rows = [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]
    apply_row_ops(ctx, rows, ops)
    return rows


@dataclass(frozen=True)
class EchelonState:
    """Live view of the recovery loop's state, passed to hooks (read-only)."""

    ctx: FieldCtx
    n: int
    m: int
    L: list
    N: list
    P: list
    lne: dict


@dataclass(frozen=True)
class RecoveryHooks:
    """Optional instrumentation points for the recovery loop.

    before_oracle(k, state, advice_cols) fires after the correction is
    computed and before the diagonal is solved; after_iteration(k, state)
    fires at the end of the loop body, with state.lne still describing the
    (<k) region.
    """

    before_oracle: object = None
    after_iteration: object = None


def _solve_diagonal(ctx, table, n: int, m: int, k: int, ys) -> list[Fel]:
    """Diagonal k (column order) from ys[l], its inner product with row l of table.

    Solves the square Vandermonde system of the first rows, one per entry,
    and checks every further row against the solution.
    """
    j_lo, j_hi = diag_columns(n, m, k)
    length = j_hi - j_lo + 1
    x = linalg.solve(ctx, [row[j_lo : j_hi + 1] for row in table[:length]], ys[:length])
    if x is None:
        raise InconsistentSyndrome("unsolvable square system")
    for row, target in zip(table[length:], ys[length:]):
        if ctx.dot(x, row[j_lo:]) != target:
            raise InconsistentSyndrome("redundant row mismatch")
    return x


def low_rank_recovery(
    ctx: FieldCtx,
    n: int,
    m: int,
    r: int,
    table: list[list[Fel]],
    syndromes_by_k,
    hooks: RecoveryHooks | None = None,
) -> DenseTensor:
    """Reconstruct the unique rank <= r matrix matching the syndromes.

    syndromes_by_k[k][l] is the inner product of diagonal k with row l of
    ``table`` (``hitting.diag_weight_table``) over the diagonal's columns.
    A diagonal with at least as many rows as entries goes to
    ``_solve_diagonal``; a longer one must have 2r rows and goes to Prony's
    method with the echelon advice set, reading its points from row 1.
    An error from either names its diagonal as ``diagonal k:``.
    """
    zero, one, minus_one = ctx.zero, ctx.one, ctx.neg(ctx.one)
    L = [[one if i == j else zero for j in range(n)] for i in range(n)]
    l_cols: set[int] = set()
    N = [[zero] * m for _ in range(n)]
    P = [[zero] * m for _ in range(n)]
    lne: dict[int, int] = {}

    for k, synd in enumerate(syndromes_by_k):
        j_lo, j_hi = diag_columns(n, m, k)
        length = j_hi - j_lo + 1

        # correction ((L - I) N) on this diagonal, column order: each
        # off-identity column c of L meets row c of N on the columns j < k - c
        a_diag = [zero] * length
        for c in l_cols:
            end = min(j_hi + 1, k - c)
            if end > j_lo:
                ctx.fma(a_diag, [L[i][c] for i in range(k - j_lo, k - end, -1)], N[c][j_lo:end])

        advice = set()
        for i0, j0 in lne.items():
            c1 = k - i0
            if j_lo <= c1 <= j_hi:
                advice.add(c1 - j_lo)
            if j_lo <= j0 <= j_hi:
                advice.add(j0 - j_lo)

        y = [
            ctx.add(s_val, ctx.dot(a_diag, row[j_lo:]))
            for row, s_val in zip(table, synd)
        ]

        if hooks and hooks.before_oracle:
            hooks.before_oracle(
                k,
                EchelonState(ctx, n, m, L, N, P, lne),
                {j_lo + t for t in advice},
            )

        try:
            if len(y) >= length:
                p_diag = _solve_diagonal(ctx, table, n, m, k, y)
            else:  # a long diagonal has all 2r >= 2 rows; row 1 holds the points g^j
                p_diag = pronys_method(ctx, length, r, advice, y, table[1][j_lo : j_hi + 1])
        except PromiseViolation as e:
            raise type(e)(f"diagonal {k}: {e}") from e
        except TensorhitError as e:
            raise OracleFailure(f"diagonal {k}: {e}") from e

        n_diag = list(p_diag)  # N = P - correction
        ctx.axpy(n_diag, minus_one, a_diag)
        for j, p_val, n_val in zip(range(j_lo, j_hi + 1), p_diag, n_diag):
            P[k - j][j] = p_val
            N[k - j][j] = n_val

        ops = _echelon_ops(ctx, P, lne, n, k)
        apply_row_ops(ctx, P, ops)
        apply_row_ops(ctx, L, ops)
        for _, src, _ in ops:
            l_cols.add(src)

        if hooks and hooks.after_iteration:
            hooks.after_iteration(k, EchelonState(ctx, n, m, L, N, P, lne))

        for j in range(j_lo, j_hi + 1):
            i = k - j
            if i not in lne and P[i][j] != zero:
                lne[i] = j
        if len(lne) > r:
            raise RankPromiseViolated(
                f"{len(lne)} leading entries below diagonal {k + 1}; rank promise was {r}"
            )

    return DenseTensor.from_rows(ctx, N)


# ---------------------------------------------------------------------------
# dual Reed-Solomon diagonal families (the D' instantiation)
# ---------------------------------------------------------------------------


def measure_D(mat: DenseTensor, r: int) -> list[Fel]:
    """Syndromes of mat (dense or factored) against the diagonal family at 2r.

    Ordered by ascending diagonal, ascending weight exponent inside each
    diagonal; generation depends only on (shape, r, field), never on mat.
    """
    check_recovery("Dprime", mat.dims, r)
    if isinstance(mat, LowRankTensor):
        mat = expand(mat)
    ctx = mat.ctx
    n, m = mat.dims
    table = dprime_table(ctx, n, m, 2 * r)
    rows = mat.rows()
    out = []
    for k in range(n + m - 1):
        j_lo, j_hi = diag_columns(n, m, k)
        vals = [rows[k - j][j] for j in range(j_lo, j_hi + 1)]
        out.extend(ctx.dot(vals, row[j_lo:]) for row in table[: diag_row_count(2 * r, n, m, k)])
    return out


def recover_from_D(
    ctx: FieldCtx,
    n: int,
    m: int,
    r: int,
    syndromes: list[Fel],
    hooks: RecoveryHooks | None = None,
) -> DenseTensor:
    """Exact recovery from measure_D output.

    Diagonals shorter than the 2r measurement budget are solved outright;
    the rest go through Prony's method with the echelon advice set.
    """
    if r < 1:
        raise ValueError(f"rank bound must be >= 1, got r={r}")
    expected = dprime_size(n, m, 2 * r)
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    table = dprime_table(ctx, n, m, 2 * r)
    counts = [diag_row_count(2 * r, n, m, k) for k in range(n + m - 1)]
    ends = itertools.accumulate(counts)
    synd_by_k = [syndromes[e - c : e] for c, e in zip(counts, ends)]
    return low_rank_recovery(ctx, n, m, r, table, synd_by_k, hooks=hooks)


# ---------------------------------------------------------------------------
# rank-1 family syndromes -> diagonal syndromes (staircase interpolation)
# ---------------------------------------------------------------------------


def convert_B_to_D(
    ctx: FieldCtx, n: int, m: int, R: int, syndromes: list[Fel]
) -> list[Fel]:
    """Convert staircase rank-1-family syndromes into diagonal syndromes.

    Input: inner products against the independent rank-1 family with
    parameter R (exponent-major, evaluation-point-minor).  Output: the
    diagonal-family syndromes with the same parameter R, diagonal-major.

    Block l of the input evaluates a polynomial whose extreme coefficients
    are already determined by blocks < l; subtracting those fringes and
    dividing by the evaluation point's l-th power leaves a polynomial short
    enough to interpolate from the block's (n+m-1) - 2l evaluations.

    This inverts exactly the map ``measure_moments`` computes: block l
    holds the evaluations at the alphas of p_l(x) = sum_(i,j) M[i,j] g^(lj)
    x^(i+j), whose coefficient k is the D syndrome (k, l).
    """
    # |B'| = |D'|, counted before the schedule's O(n + m) points
    expected = dprime_size(n, m, R)
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    alphas, blocks = moment_schedule(ctx, "Bprime", (n, m), R)
    table = dprime_table(ctx, n, m, R)
    width = len(alphas)
    inv_alphas = [ctx.inv(a) for a in alphas]
    down = [ctx.one] * width  # a^-l at block l, for each point a
    up = [ctx.pow(a, width) for a in alphas]  # a^(width - l) at block l

    coeff: list[list[Fel]] = []
    diag_vals: dict[int, list[Fel]] = {}

    def fringe_value(l: int, kp: int) -> Fel:
        # sum_j c_j g^(l j) over the columns j_lo.. of diagonal kp
        j_lo, _ = diag_columns(n, m, kp)
        return ctx.mul(table[l][j_lo], ctx.horner(diag_vals[kp], table[l][1]))

    off = 0
    for l, (_, _, cnt) in enumerate(blocks):
        block = syndromes[off : off + cnt]
        off += cnt
        if l == 0:
            coeff.append(linalg.poly_interpolate(ctx, alphas, block))
            continue
        # diagonals l - 1 and width - l have l entries, all measured by now
        for kp in (l - 1, width - l):
            diag_vals[kp] = _solve_diagonal(ctx, table, n, m, kp, [c[kp] for c in coeff])
        lows = [fringe_value(l, kp) for kp in range(l)]
        highs = [fringe_value(l, kp) for kp in range(width - l, width)]
        down = list(map(ctx.mul, down[:cnt], inv_alphas))
        up = list(map(ctx.mul, up[:cnt], inv_alphas))
        h_vals = []
        for a, e, a_down, a_up in zip(alphas, block, down, up):
            # e minus the fringe terms sum_kp c_kp a^kp, divided by a^l
            fringe = ctx.add(ctx.horner(lows, a), ctx.mul(a_up, ctx.horner(highs, a)))
            h_vals.append(ctx.mul(ctx.sub(e, fringe), a_down))
        h = linalg.poly_interpolate(ctx, alphas, h_vals)
        coeff.append(lows + h + highs)
    return [coeff[l][k] for k in range(width) for l in range(diag_row_count(R, n, m, k))]


# ---------------------------------------------------------------------------
# tensors: measure with the tensor family, recover by reversing the merge
# ---------------------------------------------------------------------------


def _level_sizes(d: int, n: int) -> list[list[int]]:
    """Variable-count/degree bookkeeping of the pairwise merging recursion."""
    b = (d - 1).bit_length()
    sizes = [[n] * d + [1] * ((1 << b) - d)]
    while len(sizes[-1]) > 1:
        prev = sizes[-1]
        sizes.append(
            [prev[2 * j] + prev[2 * j + 1] - 1 for j in range(len(prev) // 2)]
        )
    return sizes


def tensor_measure(t: DenseTensor, r: int) -> list[Fel]:
    """Inner products of a cubic tensor against the tensor family at 2r."""
    return measure_moments(t, "TensorB", 2 * r)


def _pack(t: DenseTensor, stride: int) -> list[Fel]:
    """Coefficients of t's polynomial under x_a -> x^(stride^a): one axis."""
    for a in range(len(t.dims) - 2, -1, -1):
        t = merge_variables(t, a, a + 1, stride)
    return t.entries


def _unpack(w: DenseTensor, tgt: list[int], stride: int) -> DenseTensor:
    """Split w's row and column exponents into base-stride digits, interleaved.

    Row digit j is variable 2j of the finer level and column digit j is
    variable 2j + 1, with lengths ``tgt``; a nonzero coefficient whose digit
    overflows its length raises ShapeMismatch.
    """
    half = len(tgt) // 2
    for j in range(half - 1):
        w = split_variables(w, j, stride, tgt[2 * j])
    for j in range(half - 1):
        w = split_variables(w, half + j, stride, tgt[2 * j + 1])
    return permute_axes(w, tuple(a for j in range(half) for a in (j, half + j)))


def tensor_recover(
    ctx: FieldCtx, d: int, n: int, r: int, syndromes: list[Fel]
) -> DenseTensor:
    """Exact recovery of a rank <= r tensor from tensor_measure output.

    Interpolates one univariate polynomial per exponent-index tuple, then
    walks the merging recursion backwards: the R polynomials that share an
    index prefix, packed into one variable, hold the full diagonal-family
    syndromes of a merged coefficient matrix of rank <= r.  Each matrix is
    recovered from all R rows of every diagonal and unpacked into one more
    variable pair per level.
    """
    if r < 1:
        raise ValueError(f"rank bound must be >= 1, got r={r}")
    R = 2 * r
    b = (d - 1).bit_length()
    deg = d * (n - 1)
    # counted before the schedule's O(dn) points
    expected = d * n * R**b
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    dims = (n,) * d
    alphas, blocks = moment_schedule(ctx, "TensorB", dims, R)
    g = family_generator(ctx, "TensorB", dims)
    stride = n << b
    sizes = _level_sizes(d, n)

    polys: dict[tuple[int, ...], DenseTensor] = {}
    for i, (ls, _, count) in enumerate(blocks):
        evals = syndromes[i * count : (i + 1) * count]
        cs = linalg.poly_interpolate(ctx, alphas, evals[: deg + 1])
        for a, e in zip(alphas[deg + 1 :], evals[deg + 1 :]):
            if ctx.horner(cs, a) != e:
                raise InconsistentSyndrome(
                    "redundant evaluation disagrees with interpolant"
                )
        polys[ls] = DenseTensor(ctx, (deg + 1,), cs)

    for level in range(b, 0, -1):
        tgt = sizes[level - 1]
        half = len(tgt) // 2
        n_rows = 1 + sum((tgt[2 * j] - 1) * stride**j for j in range(half))
        n_cols = 1 + sum((tgt[2 * j + 1] - 1) * stride**j for j in range(half))
        table = diag_weight_table(ctx, g, R, n_cols)
        new_polys = {}
        for prefix in itertools.product(range(R), repeat=level - 1):
            univs = [_pack(polys[prefix + (i,)], stride) for i in range(R)]
            try:
                w = low_rank_recovery(ctx, n_rows, n_cols, r, table, zip(*univs))
                new_polys[prefix] = _unpack(w, tgt, stride)
            except PromiseViolation as e:
                raise type(e)(f"level {level}: {e}") from e
            except ShapeMismatch as e:
                raise InconsistentSyndrome(f"level {level}: {e}") from e
        polys = new_polys

    full = polys[()]
    # dummy axes (all of length one) sit at the end; dropping them keeps
    # the row-major order intact
    return DenseTensor(ctx, dims, full.entries)


def _collapse(t: DenseTensor, mults: tuple[Fel, ...]) -> list[Fel]:
    """Coefficients of sum_idx t[idx] prod_a mults[a]^idx_a x^(sum_a idx_a).

    The last axis scales each row into a polynomial; every earlier axis
    then folds each group of n consecutive polynomials into
    sum_i mult^i x^i poly_i, so every axis costs O(entries) ops.
    """
    ctx = t.ctx
    zero = ctx.zero
    *outer, n = t.dims
    pw = ctx.powers(mults[-1], n)
    entries = t.entries
    polys = [
        [e if e == zero else ctx.mul(c, e) for c, e in zip(pw, entries[base : base + n])]
        for base in range(0, len(entries), n)
    ]
    for n, mult in zip(reversed(outer), reversed(mults[:-1])):
        pw = ctx.powers(mult, n)
        width = len(polys[0]) + n - 1
        folded = []
        for base in range(0, len(polys), n):
            acc = [zero] * width
            for i, c in enumerate(pw):
                ctx.axpy(acc, c, polys[base + i], i)
            folded.append(acc)
        polys = folded
    return polys[0]


def measure_moments(t: DenseTensor, family: str, r: int) -> list[Fel]:
    """Syndromes of t against the rank-1 moment family ``family`` at r.

    Member (k, ls) of B, B' and TensorB evaluates one polynomial at alpha_k
    (``hitting.moment_schedule``), so t is collapsed once per exponent index
    ls and each member costs one Horner evaluation: O(R * entries) to
    collapse plus O(|family| * degree) to evaluate, instead of O(entries)
    per member.  For matrices the collapsed coefficients are the full
    diagonal-family syndromes, which ``convert_B_to_D`` reads back.
    """
    if isinstance(t, LowRankTensor):
        t = expand(t)
    ctx = t.ctx
    alphas, blocks = moment_schedule(ctx, family, t.dims, r)
    out = []
    for _, mults, count in blocks:
        coeffs = _collapse(t, mults)
        out.extend(ctx.horner(coeffs, a) for a in alphas[:count])
    return out


def measure_syndromes(t, fam) -> list[Fel]:
    """Inner products against a measurement family, in family order.

    t may be dense or factored, over the family's field or its prime
    subfield; a shape other than the family's raises ShapeMismatch.  B, B'
    and TensorB families with factored members, as the ``hitting`` builders
    make them, take the collapsed ``measure_moments`` path; every other
    family (D, D', Naive, simulated, read from a file) is measured member
    by member in one ``hitting.inner_products`` scan.
    """
    t = family_tensor(t, fam)
    if fam.family in MOMENT_FAMILIES and all(
        m.factors is not None for m in fam.measurements
    ):
        return measure_moments(t, fam.family, fam.r)
    return list(inner_products(t, fam))


# ---------------------------------------------------------------------------
# one entry point per recovery family: measure at 2r, recover rank <= r
# ---------------------------------------------------------------------------

RECOVERY_FAMILIES = ("Dprime", "Bprime", "TensorB")


def check_recovery(family: str, dims: tuple[int, ...], r: int) -> None:
    """Raise unless ``family`` recovers rank <= r tensors of shape ``dims``."""
    if family not in RECOVERY_FAMILIES:
        raise ValueError(f"family {family} is not a recovery family")
    if r < 1:
        raise ValueError(f"rank bound must be >= 1, got r={r}")
    check_shape(family, dims)


def measure(t: DenseTensor, family: str, r: int) -> list[Fel]:
    """Syndromes of t (dense or factored) against the family for rank <= r."""
    check_recovery(family, t.dims, r)
    if family == "Dprime":
        return measure_D(t, r)
    return measure_moments(t, family, 2 * r)


def recover(
    ctx: FieldCtx, family: str, dims: tuple[int, ...], r: int, syndromes: list[Fel]
) -> DenseTensor:
    """The rank <= r tensor of shape dims whose ``measure`` output is syndromes."""
    check_recovery(family, dims, r)
    if family == "TensorB":
        return tensor_recover(ctx, len(dims), dims[0], r, syndromes)
    n, m = dims
    if family == "Bprime":
        syndromes = convert_B_to_D(ctx, n, m, 2 * r, syndromes)
    return recover_from_D(ctx, n, m, r, syndromes)
