"""Low-rank recovery from diagonal measurements.

The engine reconstructs a rank <= r matrix one k-diagonal at a time from
non-adaptive inner products.  Row-reducing the already-recovered prefix
keeps it in (<k)-upper-echelon form, which forces the next diagonal of the
reduced matrix to be sparse outside a small set of predictable columns; a
per-diagonal advice-sparse-recovery oracle (Prony on dual Reed-Solomon
rows, or a plain Vandermonde solve when the diagonal is short) then pins it
down exactly.  The row operations live in a unit lower-triangular L whose
off-identity columns stay confined to rows that own leading nonzero
entries, so corrections cost O(r) per entry.

Echelon conventions.  A leading nonzero entry (lne) of a row is its first
nonzero column; lne(M^(<k)) collects those falling strictly below the
k-diagonal.  M is (<k)-upper-echelon when, for each such (i, j), the
entries (i', j) with i < i' < k - j vanish.  Within this module diagonals
are handled in column order (slot t of diagonal k is column j_lo + t),
because measurement weights and evaluation points are indexed by column.

Beyond matrices, the module converts rank-1-family syndromes into diagonal
syndromes by staircase interpolation, and reverses the variable-merging
reduction to recover order-d tensors measured with the tensor family.
``measure_moments`` measures the rank-1 families (B, B', TensorB) through
one collapsed polynomial per exponent index.  ``measure`` and ``recover``
are the one entry point for each family in ``RECOVERY_FAMILIES``.
"""

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import (
    InconsistentEvaluations,
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
    diag_row_count,
    diag_weight_rows,
    family_tensor,
    moment_schedule,
    moment_vector,
)
from .tensor import DenseTensor, LowRankTensor, diag_bounds, expand


def _col_bounds(n: int, m: int, k: int) -> tuple[int, int]:
    """Column range [lo, hi] of the k-diagonal of an n x m matrix."""
    lo, hi = diag_bounds(n, m, k)
    return k - hi, k - lo


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


def make_upper_echelon(
    p: DenseTensor, n: int, m: int, k: int, validate: bool = True
) -> list[RowOp]:
    """Row operations turning a (<k)-upper-echelon matrix into (<=k) form.

    Returns the elementary operations (target += coeff * source) in
    application order; at most one per leading nonzero entry, each with
    source in lne_R(P^(<k)).  Applying them leaves the (<k)-diagonals
    untouched and zeroes the k-diagonal in every lne column.
    """
    if validate and not _check_lt_k_echelon(p, k):
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
class DiagonalMeasurements:
    """Per-diagonal measurement weights and their syndromes.

    weights_by_k[k][t] is the weight vector of the t-th measurement on
    diagonal k, in column order; syndromes_by_k matches it.
    """

    ctx: FieldCtx
    n: int
    m: int
    weights_by_k: tuple[tuple[tuple[Fel, ...], ...], ...]
    syndromes_by_k: tuple[tuple[Fel, ...], ...]


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
    computed and before the oracle call; after_iteration(k, state) fires at
    the end of the loop body, with state.lne still describing the (<k)
    region.
    """

    before_oracle: object = None
    after_iteration: object = None


def low_rank_recovery(
    ctx: FieldCtx,
    n: int,
    m: int,
    r: int,
    meas: DiagonalMeasurements,
    oracle,
    hooks: RecoveryHooks | None = None,
) -> DenseTensor:
    """Reconstruct the unique rank <= r matrix matching the syndromes.

    ``oracle(k, advice, y)`` must return the k-diagonal (column order) of
    the row-reduced matrix, given local advice positions and corrected
    syndromes; it is called once per diagonal, in order.
    """
    zero, one = ctx.zero, ctx.one
    L = [[one if i == j else zero for j in range(n)] for i in range(n)]
    l_cols: set[int] = set()
    N = [[zero] * m for _ in range(n)]
    P = [[zero] * m for _ in range(n)]
    lne: dict[int, int] = {}

    for k in range(n + m - 1):
        j_lo, j_hi = _col_bounds(n, m, k)
        length = j_hi - j_lo + 1

        # correction ((L - I) N) on this diagonal, column order
        a_diag = []
        for j in range(j_lo, j_hi + 1):
            cols = [c for c in l_cols if c < k - j]
            a_diag.append(ctx.dot([L[k - j][c] for c in cols], [N[c][j] for c in cols]))

        if len(lne) > r:
            raise RankPromiseViolated(
                f"{len(lne)} leading entries below diagonal {k}; rank promise was {r}"
            )
        advice = set()
        for i0, j0 in lne.items():
            c1 = k - i0
            if j_lo <= c1 <= j_hi:
                advice.add(c1 - j_lo)
            if j_lo <= j0 <= j_hi:
                advice.add(j0 - j_lo)

        y = [
            ctx.add(s_val, ctx.dot(a_diag, w))
            for w, s_val in zip(meas.weights_by_k[k], meas.syndromes_by_k[k])
        ]

        if hooks and hooks.before_oracle:
            hooks.before_oracle(
                k,
                EchelonState(ctx, n, m, L, N, P, lne),
                {j_lo + t for t in advice},
            )

        try:
            p_diag = oracle(k, advice, y)
        except PromiseViolation:
            raise
        except TensorhitError as e:
            raise OracleFailure(f"diagonal {k}: {e}") from e
        if len(p_diag) != length:
            raise OracleFailure(f"oracle returned {len(p_diag)} values on diagonal {k}")

        for t in range(length):
            j = j_lo + t
            i = k - j
            P[i][j] = p_diag[t]
            N[i][j] = ctx.sub(p_diag[t], a_diag[t])

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

    flat: list[Fel] = []
    for row in N:
        flat.extend(row)
    return DenseTensor(ctx, (n, m), flat)


# ---------------------------------------------------------------------------
# dual Reed-Solomon diagonal families (the D' instantiation)
# ---------------------------------------------------------------------------


def measure_D(mat: DenseTensor, r: int) -> list[Fel]:
    """Syndromes of mat against the diagonal family with parameter 2r.

    Ordered by ascending diagonal, ascending weight exponent inside each
    diagonal; generation depends only on (shape, r, field), never on mat.
    """
    ctx = mat.ctx
    n, m = mat.dims
    g = ctx.element_of_order(m)
    out = []
    rows = mat.rows()
    for k in range(n + m - 1):
        j_lo, j_hi = _col_bounds(n, m, k)
        vals = [rows[k - j][j] for j in range(j_lo, j_hi + 1)]
        count = diag_row_count(2 * r, n, m, k)
        out.extend(ctx.dot(vals, w) for w in diag_weight_rows(ctx, g, count, n, m, k))
    return out


def _recover_from_diag(ctx, g, n, m, r, syndromes, hooks=None) -> DenseTensor:
    from .sparse import pronys_method

    if r < 1:
        raise ValueError(f"rank bound must be >= 1, got r={r}")
    counts = [diag_row_count(2 * r, n, m, k) for k in range(n + m - 1)]
    if len(syndromes) != sum(counts):
        raise ShapeMismatch(f"expected {sum(counts)} syndromes, got {len(syndromes)}")

    weights_by_k = []
    synd_by_k = []
    off = 0
    for k, cnt in enumerate(counts):
        weights_by_k.append(tuple(diag_weight_rows(ctx, g, cnt, n, m, k)))
        synd_by_k.append(tuple(syndromes[off : off + cnt]))
        off += cnt
    meas = DiagonalMeasurements(
        ctx, n, m, tuple(weights_by_k), tuple(synd_by_k)
    )

    def oracle(k, advice, y):
        weights = meas.weights_by_k[k]
        length = len(weights[0])
        if len(y) >= length:
            # short diagonal: plain Vandermonde solve, remaining rows verify
            x = linalg.solve(ctx, weights[:length], list(y[:length]))
            if x is None:
                raise InconsistentSyndrome(f"diagonal {k}: unsolvable square system")
            for w, target in zip(weights[length:], y[length:]):
                if ctx.dot(w, x) != target:
                    raise InconsistentSyndrome(f"diagonal {k}: redundant row mismatch")
            return x
        # a long diagonal has all 2r >= 2 rows; row 1 holds the points g^j
        return pronys_method(ctx, length, r, advice, list(y), list(weights[1]))

    return low_rank_recovery(ctx, n, m, r, meas, oracle, hooks=hooks)


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
    g = ctx.element_of_order(m)
    return _recover_from_diag(ctx, g, n, m, r, syndromes, hooks=hooks)


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
    if not 1 <= R <= n <= m:
        raise ValueError(f"need m >= n >= R >= 1, got R={R}, n={n}, m={m}")
    expected = (n + m - R) * R
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    g = ctx.element_of_order(m)
    alphas = ctx.first_elements(n + m - 1)
    width = n + m - 1

    coeff: list[list[Fel]] = []
    diag_vals: dict[int, list[Fel]] = {}

    def solve_diagonal(kp: int) -> None:
        if kp in diag_vals:
            return
        j_lo, j_hi = _col_bounds(n, m, kp)
        d = j_hi - j_lo + 1
        rows = diag_weight_rows(ctx, g, d, n, m, kp)
        vals = linalg.solve(ctx, rows, [coeff[lp][kp] for lp in range(d)])
        if vals is None:
            raise InconsistentEvaluations(f"diagonal {kp}: fringe system unsolvable")
        diag_vals[kp] = vals

    def fringe_value(l: int, kp: int) -> Fel:
        j_lo, _ = _col_bounds(n, m, kp)
        gl = ctx.pow(g, l)
        return ctx.mul(ctx.pow(gl, j_lo), ctx.horner(diag_vals[kp], gl))

    off = 0
    for l in range(R):
        cnt = width - 2 * l
        block = syndromes[off : off + cnt]
        off += cnt
        if l == 0:
            coeff.append(linalg.poly_interpolate(ctx, alphas[:cnt], list(block)))
            continue
        solve_diagonal(l - 1)
        solve_diagonal(width - l)
        lows = [fringe_value(l, kp) for kp in range(l)]
        highs = [fringe_value(l, kp) for kp in range(width - l, width)]
        h_vals = []
        for a, e in zip(alphas[:cnt], block):
            # e minus the fringe terms sum_kp c_kp a^kp, divided by a^l
            fringe = ctx.add(
                ctx.horner(lows, a),
                ctx.mul(ctx.pow(a, width - l), ctx.horner(highs, a)),
            )
            h_vals.append(ctx.mul(ctx.sub(e, fringe), ctx.inv(ctx.pow(a, l))))
        h = linalg.poly_interpolate(ctx, alphas[:cnt], h_vals)
        coeff.append(lows + h + highs)

    out = []
    for k in range(width):
        for l in range(diag_row_count(R, n, m, k)):
            out.append(coeff[l][k])
    return out


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
    d = len(t.dims)
    if d < 2 or len(set(t.dims)) != 1:
        raise ShapeMismatch("tensor measurement requires shape [n]^d, d >= 2")
    return measure_moments(t, "TensorB", 2 * r)


def _flatten_strided(arr: DenseTensor, stride: int, out_len: int) -> list[Fel]:
    ctx = arr.ctx
    out = [ctx.zero] * out_len
    dims = arr.dims
    d = len(dims)
    strides = [stride**j for j in range(d)]
    idx = [0] * d
    for flat, e in enumerate(arr.entries):
        if e == ctx.zero:
            continue
        rem = flat
        for a in range(d - 1, -1, -1):
            idx[a] = rem % dims[a]
            rem //= dims[a]
        out[sum(i * s for i, s in zip(idx, strides))] = e
    return out


def _unmerge(w: DenseTensor, tgt_sizes: list[int], stride: int) -> DenseTensor:
    """Split the two merged exponents of w back into the target variables."""
    ctx = w.ctx
    out = DenseTensor.zeros(ctx, tuple(tgt_sizes))
    half = len(tgt_sizes) // 2
    n_rows, n_cols = w.dims
    for flat, e in enumerate(w.entries):
        if e == ctx.zero:
            continue
        e0, e1 = divmod(flat, n_cols)
        idx = [0] * len(tgt_sizes)
        for j in range(half):
            e0, idx[2 * j] = divmod(e0, stride)
            e1, idx[2 * j + 1] = divmod(e1, stride)
            if idx[2 * j] >= tgt_sizes[2 * j] or idx[2 * j + 1] >= tgt_sizes[2 * j + 1]:
                raise InconsistentSyndrome(
                    "recovered coefficient outside the merged-exponent range"
                )
        if e0 or e1:
            raise InconsistentSyndrome(
                "recovered coefficient outside the merged-exponent range"
            )
        out[tuple(idx)] = e
    return out


def tensor_recover(
    ctx: FieldCtx, d: int, n: int, r: int, syndromes: list[Fel]
) -> DenseTensor:
    """Exact recovery of a rank <= r tensor from tensor_measure output.

    Interpolates one univariate polynomial per exponent-index tuple, then
    walks the merging recursion backwards: groups over the last index are
    the diagonal syndromes of a merged coefficient matrix of rank <= r,
    recovered exactly and split back into one more variable pair per level.
    """
    R = 2 * r
    b = (d - 1).bit_length()
    deg = d * (n - 1)
    per_poly = d * n
    expected = per_poly * R**b
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    g = ctx.element_of_order((2 * d * n) ** d)
    alphas = ctx.first_elements(per_poly)
    stride = n << b
    sizes = _level_sizes(d, n)

    polys: dict[tuple[int, ...], DenseTensor] = {}
    for i, ls in enumerate(itertools.product(range(R), repeat=b)):
        evals = syndromes[i * per_poly : (i + 1) * per_poly]
        cs = linalg.poly_interpolate(ctx, alphas[: deg + 1], list(evals[: deg + 1]))
        for a, e in zip(alphas[deg + 1 :], evals[deg + 1 :]):
            if linalg.poly_eval(ctx, cs, a) != e:
                raise InconsistentSyndrome(
                    "redundant evaluation disagrees with interpolant"
                )
        polys[ls] = DenseTensor(ctx, (deg + 1,), cs)

    for level in range(b, 0, -1):
        tgt = sizes[level - 1]
        half = len(tgt) // 2
        n_rows = 1 + sum((tgt[2 * j] - 1) * stride**j for j in range(half))
        n_cols = 1 + sum((tgt[2 * j + 1] - 1) * stride**j for j in range(half))
        univ_len = n_rows + n_cols - 1
        new_polys = {}
        for prefix in itertools.product(range(R), repeat=level - 1):
            univs = [
                _flatten_strided(polys[prefix + (i,)], stride, univ_len)
                for i in range(R)
            ]
            synd = []
            for k in range(univ_len):
                for i in range(diag_row_count(R, n_rows, n_cols, k)):
                    synd.append(univs[i][k])
            w = _recover_from_diag(ctx, g, n_rows, n_cols, r, synd)
            new_polys[prefix] = _unmerge(w, tgt, stride)
        polys = new_polys

    full = polys[()]
    # dummy axes (all of length one) sit at the end; dropping them keeps
    # the row-major order intact
    return DenseTensor(ctx, (n,) * d, full.entries)


def _collapse(t: DenseTensor, mults: tuple[Fel, ...]) -> list[Fel]:
    """Coefficients of sum_idx t[idx] prod_a mults[a]^idx_a x^(sum_a idx_a).

    The last axis scales each row into a polynomial; every earlier axis
    then folds each group of n consecutive polynomials into
    sum_i mult^i x^i poly_i, so every axis costs O(entries) ops.
    """
    ctx = t.ctx
    zero = ctx.zero
    *outer, n = t.dims
    pw = moment_vector(ctx, mults[-1], n)
    entries = t.entries
    polys = [
        [e if e == zero else ctx.mul(c, e) for c, e in zip(pw, entries[base : base + n])]
        for base in range(0, len(entries), n)
    ]
    for n, mult in zip(reversed(outer), reversed(mults[:-1])):
        pw = moment_vector(ctx, mult, n)
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
        out.extend(linalg.poly_eval(ctx, coeffs, a) for a in alphas[:count])
    return out


def measure_syndromes(t, fam) -> list[Fel]:
    """Inner products against a measurement family, in family order.

    t may be dense or factored, over the family's field or its prime
    subfield; a shape other than the family's raises ShapeMismatch.  B, B'
    and TensorB families with factored members, as the ``hitting`` builders
    make them, take the collapsed ``measure_moments`` path; every other
    family (D, D', Naive, simulated, read from a file) is measured member
    by member with ``Measurement.inner``.
    """
    t = family_tensor(t, fam)
    if fam.family in MOMENT_FAMILIES and all(
        m.factors is not None for m in fam.measurements
    ):
        return measure_moments(t, fam.family, fam.r)
    return [m.inner(fam.ctx, t) for m in fam.measurements]


# ---------------------------------------------------------------------------
# one entry point per recovery family: measure at 2r, recover rank <= r
# ---------------------------------------------------------------------------

RECOVERY_FAMILIES = ("Dprime", "Bprime", "TensorB")


def _check_recovery(family: str, dims: tuple[int, ...], r: int) -> None:
    if family not in RECOVERY_FAMILIES:
        raise ValueError(f"family {family} is not a recovery family")
    if r < 1:
        raise ValueError(f"rank bound must be >= 1, got r={r}")
    if family == "TensorB":
        if len(dims) < 2 or len(set(dims)) != 1:
            raise ShapeMismatch("TensorB requires shape [n]^d with d >= 2")
    elif len(dims) != 2:
        raise ShapeMismatch(f"family {family} is for matrices, got dims {dims}")


def measure(t: DenseTensor, family: str, r: int) -> list[Fel]:
    """Syndromes of t (dense or factored) against the family for rank <= r."""
    _check_recovery(family, t.dims, r)
    if isinstance(t, LowRankTensor):
        t = expand(t)
    if family == "Dprime":
        return measure_D(t, r)
    if family == "Bprime":
        return measure_moments(t, "Bprime", 2 * r)
    return tensor_measure(t, r)


def recover(
    ctx: FieldCtx, family: str, dims: tuple[int, ...], r: int, syndromes: list[Fel]
) -> DenseTensor:
    """The rank <= r tensor of shape dims whose ``measure`` output is syndromes."""
    _check_recovery(family, dims, r)
    if family == "TensorB":
        return tensor_recover(ctx, len(dims), dims[0], r, syndromes)
    n, m = dims
    if family == "Bprime":
        syndromes = convert_B_to_D(ctx, n, m, 2 * r, syndromes)
    return recover_from_D(ctx, n, m, r, syndromes)
