"""Low-rank recovery from diagonal measurements.

The engine reconstructs a rank <= r matrix one k-diagonal at a time from
non-adaptive inner products, over the cells of a ``hitting.Layout``: every
cell of a plain matrix, or the packed lattice of a TensorB merge level,
the only cells its matrix can fill; the layout alone says which cells lie
on each diagonal.  Row-reducing the already-recovered prefix keeps it in
(<k)-upper-echelon form, which forces the next diagonal of the reduced
matrix to be sparse outside a small set of predictable columns.
A diagonal with at least as many syndrome rows as entries is solved from
its first rows and every further row is checked; a longer diagonal goes
to Prony's method on dual Reed-Solomon rows with the echelon advice set.
Row 0 of the weight table is all ones and row l is row 1 to the power l,
so both end in one O(len^2) transposed-Vandermonde solve
(``sparse.vandermonde_solve``) and return the diagonal's support with its
values.  After each diagonal the leading nonzero entries
are counted against r, so a returned matrix has rank <= r and matches
every syndrome.  The row operations live in a unit lower-triangular L,
kept as its <= r off-identity columns negated, and of the reduced matrix
P the loop keeps only the current diagonal on its support and the pivots
of the leading entries.  A diagonal's negated correction is one
``ctx.sum_products`` and its effect on the syndromes one multi-row
``ctx.dots`` on the layout's packed weight table, read through the
diagonal's column gather; everything else on a diagonal costs O(r) field
operations.

Echelon conventions.  A leading nonzero entry (lne) of a row is its first
nonzero column; lne(M^(<k)) collects those falling strictly below the
k-diagonal.  M is (<k)-upper-echelon when, for each such (i, j), the
entries (i', j) with i < i' < k - j vanish.  Within this module diagonals
are handled in column order, because measurement weights and evaluation
points are indexed by column position in the layout.

Beyond matrices, the module converts rank-1-family syndromes into diagonal
syndromes by staircase interpolation (two ``dots`` per interpolation, on
the schedule's packed Newton tables), and reverses the variable-merging
reduction to recover order-d tensors measured with the tensor family: each
level recovers the merged coefficient matrix on the level's lattice from
one coefficient per diagonal it meets, and writes its cells straight into
the finer level's coefficients.  Every shape rule, generator,
point, weight, merge level and layout is read from ``hitting``.
``measure_D`` and ``measure_moments`` on matrices (B, B', TensorB at
d = 2) share one syndrome pass, one multi-row ``ctx.dots`` per diagonal;
a TensorB tensor of order d >= 3 takes one ``dots`` per degree class of
its cells instead.  The moment families then evaluate each block's
polynomial with one ``dots`` on the schedule's packed Vandermonde rows.
``measure`` and ``recover`` are the one entry point for each family in
``RECOVERY_FAMILIES``.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

from . import linalg
from .errors import (
    InconsistentSyndrome,
    OracleFailure,
    PromiseViolation,
    RankPromiseViolated,
    ShapeMismatch,
    TensorhitError,
)
from .field import Fel, FieldCtx
from .hitting import (
    MOMENT_FAMILIES,
    Layout,
    Schedule,
    check_family,
    diag_row_count,
    dprime_size,
    family_tensor,
    inner_products,
    packed,
    schedule,
    tensor_size,
)
from .tensor import DenseTensor, LowRankTensor, expand
from .sparse import prony_support, vandermonde_solve


RowOp = tuple[int, int, Fel]  # (target_row, source_row, coefficient)


def _echelon_ops(ctx, p_diag: dict, pivot, under: list[tuple[int, int]], diag_rows) -> list[RowOp]:
    """The ops target += coefficient * source clearing, under each lne (i, j),
    the cell of column j on the current diagonal of P.

    ``under`` pairs each such row i with the slot t of column j on the
    diagonal, whose row is diag_rows[t]; p_diag maps the slots of the
    support, which holds every such t, to P's entries, and pivot[i] is
    P[i][j].  Each op's target cell is zeroed in p_diag.
    """
    ops = []
    for i, t in sorted(under):
        v = p_diag[t]
        if v == ctx.zero:
            continue
        ops.append((diag_rows[t], i, ctx.neg(ctx.mul(v, ctx.inv(pivot[i])))))
        p_diag[t] = ctx.zero
    return ops


@dataclass(frozen=True)
class EchelonState:
    """View of the recovery loop's state, passed to hooks (read-only).

    Matrices are stored over the layout's rows and columns: entry [a][b] is
    cell (layout.rows[a], layout.cols[b]), and lne maps row positions to
    column positions.  The loop keeps N and the off-identity columns of the
    unit lower-triangular L, negated (``l_cols``, column position -> entries);
    ``L`` and ``P`` are built from them on first read.  L is the identity
    with those columns negated back, and P = L N on the diagonals <= ``solved`` and zero
    beyond: the reduced matrix on the diagonals solved so far.  Read them
    during the hook call, since the loop goes on to change N and l_cols.
    """

    ctx: FieldCtx
    layout: Layout
    N: list
    lne: dict
    l_cols: dict
    solved: int

    @functools.cached_property
    def L(self) -> list:
        ctx, size = self.ctx, len(self.N)
        unit = [ctx.zero] * size
        cols = [list(map(ctx.neg, self.l_cols[c])) if c in self.l_cols
                else unit[:c] + [ctx.one] + unit[c + 1 :] for c in range(size)]
        return list(map(list, zip(*cols)))

    @functools.cached_property
    def P(self) -> list:
        ctx, zero, cols = self.ctx, self.ctx.zero, self.layout.cols
        out = []
        for a, (i, lrow) in enumerate(zip(self.layout.rows, self.L)):
            cut = bisect.bisect_right(cols, self.solved - i)  # the cells on solved diagonals
            terms = [c for c in self.l_cols if c != a and lrow[c] != zero]
            if terms:
                terms.append(a)
                prow = ctx.sum_products([[lrow[c]] * cut for c in terms],
                                        [self.N[c][:cut] for c in terms])
            else:
                prow = self.N[a][:cut]
            out.append(prow + [zero] * (len(cols) - cut))
        return out


@dataclass(frozen=True)
class RecoveryHooks:
    """Optional instrumentation points for the recovery loop.

    before_oracle(k, state, advice_cols) fires after the correction is
    computed and before each diagonal k of the layout is solved, with the
    advice as column positions; after_iteration(k, state) fires at the end
    of that diagonal's loop body, with state.lne still describing the (<k)
    region.  The loop builds an ``EchelonState`` only for a hook it calls.
    """

    before_oracle: object = None
    after_iteration: object = None


def _solve_diagonal(ctx, weights, ys) -> list[Fel]:
    """A diagonal's entries x from ys[l] = <x, weights[l]>.

    Row 0 of weights is all ones and row l is row 1 to the power l, so the
    first rows, one per entry, are a transposed Vandermonde system on the
    points weights[1], which ``sparse.vandermonde_solve`` solves; every
    further row is checked against the solution.
    """
    length = len(weights[0])
    points = weights[1] if length > 1 else weights[0]  # one entry needs no point
    x = vandermonde_solve(ctx, linalg.poly_from_roots(ctx, points), points, ys)
    for row, target in zip(weights[length:], ys[length:]):
        if ctx.dot(x, row) != target:
            raise InconsistentSyndrome("redundant row mismatch")
    return x


def low_rank_recovery(
    ctx: FieldCtx,
    r: int,
    layout: Layout,
    table: list[list[Fel]],
    packed_table: list,
    syndromes_by_k,
    hooks: RecoveryHooks | None = None,
) -> DenseTensor:
    """Reconstruct the unique rank <= r matrix matching the syndromes.

    ``layout`` (``hitting.Layout``) names the cells that may be nonzero: N
    and the columns of L are stored over its rows and columns, and the
    returned matrix is N over them.  syndromes_by_k holds one vector per
    entry of ``layout.diagonals``, in that order.  ``table`` is the
    layout's weight table (``hitting.Schedule.tables``): row 0 all ones,
    row l row 1 to the power l, one entry per layout column.  Entry l of
    diagonal k's vector is its inner product with row l on the diagonal's
    column positions (``Cells.at_cols``).  ``packed_table`` is
    ``ctx.pack(table)`` (``Schedule.packed_tables``).  Another vector
    count, another table width, or a diagonal with more syndromes than
    ``table`` has rows raises ShapeMismatch.  Each diagonal is solved on
    its cells, from their points in row 1.  One with at least as many rows
    as cells goes to ``_solve_diagonal``; a longer one must have 2r rows
    and goes to Prony's method with the echelon advice set.  Both return
    the diagonal's support (a short diagonal's cells; Prony's advice and
    locator roots) with the values there.  An error names its diagonal as
    ``diagonal k:``.

    The loop keeps only what it reads.  L is its <= r off-identity columns
    ``l_cols``, negated, and b = -(L - I) N on the diagonal is one
    ``ctx.sum_products`` of them with N: row c of N is still zero on the
    diagonal and beyond, so the entry -L[c][c] adds nothing.  The corrected
    syndromes are the syndromes minus one ``ctx.dots`` of b on the packed
    table.  P's diagonal is zero off the support, so N = P + b is b patched
    there, and only there can a new leading entry lie.  Of P the loop keeps
    the current diagonal ``p_diag`` on the support and the pivot
    P[i][lne[i]] of each leading entry.  An echelon op (tgt, src, c) on
    diagonal k changes row tgt of P only on diagonals >= k, since row src is
    zero left of its pivot, so no later op changes a pivot, and on diagonal
    k it zeroes one entry of ``p_diag``.  Row src of L is zero outside the
    off-identity columns and src, so the op updates at most r + 1 entries of
    L; being linear, it updates the negated columns alike, and a new one
    starts as -e_src.  Hooks get an ``EchelonState`` built from this state.
    """
    syndromes_by_k = list(syndromes_by_k)
    expected = len(layout.diagonals)
    if len(syndromes_by_k) != expected:
        raise ShapeMismatch(f"expected {expected} diagonals, got {len(syndromes_by_k)}")
    size, width = len(layout.rows), len(layout.cols)
    if {len(row) for row in table} != {width}:
        raise ShapeMismatch(f"table rows must be {width} wide, one entry per layout column")
    zero, minus_one = ctx.zero, ctx.neg(ctx.one)
    l_cols: dict[int, list[Fel]] = {}  # off-identity column c of L -> its entries, negated
    N = [[zero] * width for _ in range(size)]
    lne: dict[int, int] = {}
    pivot: dict[int, Fel] = {}  # row i -> P[i][lne[i]]

    for cells, synd in zip(layout.diagonals, syndromes_by_k):
        k, rows, cols = cells.k, cells.rows, cells.cols
        if len(synd) > len(table):
            raise ShapeMismatch(f"diagonal {k}: {len(synd)} syndromes, {len(table)} table rows")

        if l_cols:  # minus the correction ((L - I) N) on this diagonal
            b = ctx.sum_products(list(map(cells.at_rows, l_cols.values())),
                                 [cells.at_cols(N[c]) for c in l_cols])
        else:
            b = [zero] * len(cols)

        advice, under = set(), []  # under: (i, slot of lne[i]) for the lne columns here
        for i0, j0 in lne.items():
            if i0 in rows:
                advice.add(rows.index(i0))
            if j0 in cols:
                t = cols.index(j0)
                advice.add(t)
                under.append((i0, t))

        at = cells.at_cols
        y = list(map(ctx.sub, synd, ctx.dots(b, packed_table, len(synd), at)))

        if hooks and hooks.before_oracle:
            hooks.before_oracle(
                k,
                EchelonState(ctx, layout, N, lne, l_cols, k - 1),
                {cols[t] for t in advice},
            )

        try:
            if len(y) >= len(cols):
                support = range(len(cols))
                values = _solve_diagonal(ctx, list(map(at, table[: len(y)])), y)
            else:  # a long diagonal has all 2r >= 2 rows; row 1 holds the points g^j
                support, values = prony_support(ctx, len(cols), r, advice, y, at(table[1]))
        except PromiseViolation as e:
            raise type(e)(f"diagonal {k}: {e}") from e
        except TensorhitError as e:
            raise OracleFailure(f"diagonal {k}: {e}") from e

        p_diag = dict(zip(support, values))  # P's diagonal is zero off the support
        for t, v in p_diag.items():  # N = P + b
            b[t] = ctx.add(b[t], v)
        for i, j, v in zip(rows, cols, b):
            N[i][j] = v

        for tgt, src, coef in _echelon_ops(ctx, p_diag, pivot, under, rows):
            if src not in l_cols:
                l_cols[src] = [zero] * size
                l_cols[src][src] = minus_one
            for col in l_cols.values():
                v = col[src]
                if v != zero:
                    col[tgt] = ctx.add(col[tgt], ctx.mul(coef, v))

        if hooks and hooks.after_iteration:
            hooks.after_iteration(k, EchelonState(ctx, layout, N, lne, l_cols, k))

        for t, v in sorted(p_diag.items()):
            if v != zero and rows[t] not in lne:
                lne[rows[t]] = cols[t]
                pivot[rows[t]] = v
        if len(lne) > r:
            raise RankPromiseViolated(
                f"{len(lne)} leading entries below diagonal {k + 1}; rank promise was {r}"
            )

    return DenseTensor.from_rows(ctx, N)


# ---------------------------------------------------------------------------
# dual Reed-Solomon diagonal families (the D' instantiation)
# ---------------------------------------------------------------------------


def _diagonal_syndromes(mat: DenseTensor, s: Schedule, counts) -> list[list[Fel]]:
    """[<diagonal k of mat, row l of s.tables[0]> for l < counts[k]] for each k.

    One gather (a strided slice of the entries) and one ``ctx.dots`` on the
    schedule's packed table per diagonal serve all of its rows at once.
    """
    ctx, table = mat.ctx, s.packed_tables[0]
    m = mat.dims[1]
    entries, step = mat.entries, m - 1 or 1  # down a row and left a column
    out = []
    for cells, count in zip(s.layouts[0].diagonals, counts):
        top = cells.rows[-1] * m + cells.cols[-1]  # the cell in the last column
        vals = entries[top : top + step * (len(cells.cols) - 1) + 1 : step][::-1]  # by column
        out.append(ctx.dots(vals, table, count, cells.at_cols))
    return out


def measure_D(mat: DenseTensor, r: int) -> list[Fel]:
    """Syndromes of mat (dense or factored) against the diagonal family at 2r.

    Ordered by ascending diagonal, ascending weight exponent inside each
    diagonal; generation depends only on (shape, r, field), never on mat.
    Each diagonal is gathered once and measured against all of its rows of
    the weight table in one ``ctx.dots`` (``_diagonal_syndromes``).
    """
    check_recovery("Dprime", mat.dims, r)
    if isinstance(mat, LowRankTensor):
        mat = expand(mat)
    n, m = mat.dims
    s = schedule(mat.ctx, "Dprime", (n, m), 2 * r)
    counts = [diag_row_count(2 * r, n, m, k) for k in range(n + m - 1)]
    return [y for ys in _diagonal_syndromes(mat, s, counts) for y in ys]


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
    check_recovery("Dprime", (n, m), r)
    expected = dprime_size(n, m, 2 * r)
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    s = schedule(ctx, "Dprime", (n, m), 2 * r)
    counts = [diag_row_count(2 * r, n, m, k) for k in range(n + m - 1)]
    ends = itertools.accumulate(counts)
    synd_by_k = [syndromes[e - c : e] for c, e in zip(counts, ends)]
    return low_rank_recovery(ctx, r, s.layouts[0], s.tables[0], s.packed_tables[0], synd_by_k,
                             hooks=hooks)


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
    s = schedule(ctx, "Bprime", (n, m), R)
    alphas, table = s.alphas, s.tables[0]
    diagonals = s.layouts[0].diagonals  # every cell: diagonal k is diagonals[k]
    width = len(alphas)
    inv_alphas = [ctx.inv(a) for a in alphas]
    down = [ctx.one] * width  # a^-l at block l, for each point a
    up = [ctx.pow(a, width) for a in alphas]  # a^(width - l) at block l

    coeff: list[list[Fel]] = []
    diag_vals: dict[int, list[Fel]] = {}

    def fringe_value(l: int, kp: int) -> Fel:
        # sum_j c_j g^(l j) over the columns j of diagonal kp, from its first
        first = diagonals[kp].cols[0]
        return ctx.mul(table[l][first], ctx.horner(diag_vals[kp], table[l][1]))

    off = 0
    for l, (_, _, cnt) in enumerate(s.blocks):
        block = syndromes[off : off + cnt]
        off += cnt
        if l == 0:
            coeff.append(linalg.poly_interpolate(ctx, alphas, block))
            continue
        # diagonals l - 1 and width - l have l entries, all measured by now
        for kp in (l - 1, width - l):
            weights = list(map(diagonals[kp].at_cols, table[:l]))
            diag_vals[kp] = _solve_diagonal(ctx, weights, [c[kp] for c in coeff])
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


def tensor_measure(t: DenseTensor, r: int) -> list[Fel]:
    """Inner products of a cubic tensor against the tensor family at 2r."""
    return measure_moments(t, "TensorB", 2 * r)


def _unpack(w: DenseTensor, tgt: tuple[int, ...], steps: list[int]) -> list[Fel]:
    """The entries of the finer tensor, of variable sizes ``tgt``, from w over
    the level's lattice, variable a at step steps[a] of the flat list.

    Lattice row a holds the digits of the even variables 0, 2, ... and
    column b those of the odd ones, digit 0 fastest (``hitting.packed``), so
    w's cells are exactly the finer tensor's entries.
    """
    entries = [w.ctx.zero] * math.prod(tgt)
    cols = packed(tgt[1::2], steps[1::2])
    for a, row in zip(packed(tgt[0::2], steps[0::2]), w.rows()):
        for b, x in zip(cols, row):
            entries[a + b] = x
    return entries


def tensor_recover(
    ctx: FieldCtx, d: int, n: int, r: int, syndromes: list[Fel]
) -> DenseTensor:
    """Exact recovery of a rank <= r tensor from tensor_measure output.

    Interpolates one univariate polynomial per exponent-index tuple, then
    walks the merging recursion backwards: the R polynomials that share an
    index prefix hold the diagonal-family syndromes of a merged coefficient
    matrix of rank <= r.  Only the cells of the level's packed lattice
    (``Schedule.layouts``) can be nonzero, so each matrix is recovered over
    them from the diagonals they meet, and its cells are written into the
    finer level's coefficients.  A polynomial is a plain list of its
    coefficients on those diagonals, ascending: in base stride = n 2^b a
    diagonal adds its row's and column's digits without carries, so that
    order is the level above's cells written digit 0 fastest (the top
    level's single variable is in it already).  Level 1 writes them
    row-major, which is the tensor.  Every lattice cell is an entry of the
    finer tensor, so no recovered entry can fall outside it.
    """
    dims = (n,) * d
    check_recovery("TensorB", dims, r)
    R = 2 * r
    deg = d * (n - 1)
    # counted before the schedule's O(dn) points
    expected = tensor_size(d, n, R)
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    s = schedule(ctx, "TensorB", dims, R)
    alphas = s.alphas

    polys: dict[tuple[int, ...], list[Fel]] = {}
    for i, (ls, _, count) in enumerate(s.blocks):
        evals = syndromes[i * count : (i + 1) * count]
        cs = linalg.poly_interpolate(ctx, alphas, evals[: deg + 1])
        for a, e in zip(alphas[deg + 1 :], evals[deg + 1 :]):
            if ctx.horner(cs, a) != e:
                raise InconsistentSyndrome(
                    "redundant evaluation disagrees with interpolant"
                )
        polys[ls] = cs

    for level in range(len(s.levels), 0, -1):
        tgt, layout = s.levels[level - 1], s.layouts[level - 1]
        table, packed_table = s.tables[level - 1], s.packed_tables[level - 1]
        steps = [math.prod(tgt[a + 1 :] if level == 1 else tgt[:a]) for a in range(len(tgt))]
        new_polys = {}
        for prefix in itertools.product(range(R), repeat=level - 1):
            univs = [polys[prefix + (i,)] for i in range(R)]
            try:
                w = low_rank_recovery(ctx, r, layout, table, packed_table, zip(*univs))
            except PromiseViolation as e:
                raise type(e)(f"level {level}: {e}") from e
            new_polys[prefix] = _unpack(w, tgt, steps)
        polys = new_polys

    # dummy axes (all of length one) sit at the end; dropping them keeps
    # the row-major order intact
    return DenseTensor(ctx, dims, polys[()])


def measure_moments(t: DenseTensor, family: str, r: int) -> list[Fel]:
    """Syndromes of t against the rank-1 moment family ``family`` at r.

    Member (k, ls) of B, B' and TensorB evaluates the polynomial of block ls
    at alpha_k (``hitting.schedule``), so a measurement is two packed passes
    on tables the schedule builds on first read.  The first yields every
    block's coefficients, one multi-row ``ctx.dots`` per degree: on a
    matrix every block's multipliers are (1, g^l), so its coefficients are
    the full diagonal-family syndromes of row l, which ``convert_B_to_D``
    reads back (``_diagonal_syndromes``, shared with ``measure_D``); a
    tensor of order d >= 3 gathers each class of cells of equal degree
    against ``Schedule.degree_classes``, one weight row per block.  The
    second evaluates block l at its first count_l points, one ``dots`` on
    ``Schedule.vandermonde``, already in family order.
    """
    if isinstance(t, LowRankTensor):
        t = expand(t)
    if family not in MOMENT_FAMILIES:
        raise ValueError(f"family {family} is not a rank-1 moment family")
    ctx = t.ctx
    s = schedule(ctx, family, t.dims, r)
    counts = [count for _, _, count in s.blocks]
    if len(t.dims) == 2:
        by_deg = _diagonal_syndromes(t, s, [len(counts)] * (sum(t.dims) - 1))
    else:
        classes, weights = s.degree_classes
        by_deg = [ctx.dots(at(t.entries), weights, len(counts), cols) for at, cols in classes]
    return [y for poly, count in zip(zip(*by_deg), counts)
            for y in ctx.dots(poly, s.vandermonde, count)]


def measure_syndromes(t, fam) -> list[Fel]:
    """Inner products against a measurement family, in family order.

    t may be dense or factored, over the family's field or its prime
    subfield; a shape other than the family's raises ShapeMismatch.  B, B'
    and TensorB families with factored members, as the ``hitting`` builders
    make them, take the packed ``measure_moments`` path; every other
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
    """Raise unless ``family`` recovers rank <= r tensors of shape ``dims``: a
    recovery family, r >= 1, then ``hitting.check_family`` at R = 2r."""
    if family not in RECOVERY_FAMILIES:
        raise ValueError(f"family {family} is not a recovery family")
    if r < 1:
        raise ValueError(f"rank bound must be >= 1, got r={r}")
    check_family(family, dims, 2 * r)


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
