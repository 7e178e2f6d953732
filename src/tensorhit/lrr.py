"""Low-rank recovery from diagonal measurements, and the families built on it.

``low_rank_recovery`` reconstructs a rank <= r matrix one k-diagonal at a
time over the cells of a ``hitting.Layout``.  Row-reducing the recovered
prefix keeps it (<k)-upper-echelon, which makes the next diagonal of the
reduced matrix sparse outside a small advice set: a short diagonal is
solved outright, a long one by Prony's method with that advice.

Echelon conventions.  A leading nonzero entry (lne) of a row is its first
nonzero column; lne(M^(<k)) collects those falling strictly below the
k-diagonal.  M is (<k)-upper-echelon when, for each such (i, j), the
entries (i', j) with i < i' < k - j vanish.  Diagonals are handled in
column order, since weights and points are indexed by column position.

The rank-1 families B' and TensorB are read back to diagonal syndromes by
interpolation; TensorB then reverses the paper's variable-merging
reduction level by level.  Every shape rule, point, weight, level and
layout comes from ``hitting``.  ``measure`` and ``recover`` are the entry
points for each family in ``RECOVERY_FAMILIES``.
"""

import bisect
import functools
import itertools
from collections.abc import Sequence
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
    SCHEDULED_FAMILIES,
    Layout,
    Schedule,
    WeightTable,
    check_family,
    dprime_size,
    family_tensor,
    inner_products,
    schedule,
    tensor_size,
)
from .tensor import DenseTensor, LowRankTensor, expand
from .sparse import prony_support


RowOp = tuple[int, int, Fel]  # (target_row, source_row, coefficient)


def _echelon_ops(ctx, p_diag: dict, pivot, under: list[tuple[int, int]], diag_rows) -> list[RowOp]:
    """The ops target += coefficient * source clearing, under each lne (i, j),
    the cell of column j on the current diagonal of P.

    ``under`` pairs each such row i with the slot t of column j on the
    diagonal, whose row is diag_rows[t]; p_diag maps the slots of the
    support, which holds every such t, to P's entries, and pivot[i] is
    -1 / P[i][j].  Each op's target cell is zeroed in p_diag.
    """
    ops = []
    for i, t in sorted(under):
        v = p_diag[t]
        if v == ctx.zero:
            continue
        ops.append((diag_rows[t], i, ctx.mul(v, pivot[i])))
        p_diag[t] = ctx.zero
    return ops


@dataclass(frozen=True)
class EchelonState:
    """View of the recovery loop's state, passed to hooks (read-only).

    Matrices are over the layout's rows and columns: entry [a][b] is cell
    (layout.rows[a], layout.cols[b]), and lne maps row positions to column
    positions.  ``l_cols`` maps each off-identity column of the unit
    lower-triangular L to its entries, negated.  ``L`` is built on first
    read; ``P`` = L N on the diagonals <= ``solved``, zero beyond, is a
    sequence of rows whose entries are computed when read.  Read them during the
    hook call; the loop goes on to change N and l_cols.
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
        rows = [[ctx.zero] * size for _ in range(size)]
        for a, row in enumerate(rows):
            row[a] = ctx.one
        for c, col in self.l_cols.items():
            for row, v in zip(rows, col):
                row[c] = ctx.neg(v)
        return rows

    @functools.cached_property
    def P(self) -> "_ProductRows":
        return _ProductRows(self)

    def _p_row(self, a: int) -> list[Fel]:
        ctx, zero, cols, l_cols = self.ctx, self.ctx.zero, self.layout.cols, self.l_cols
        cut = bisect.bisect_right(cols, self.solved - self.layout.rows[a])  # on solved diagonals
        terms = [c for c, col in l_cols.items() if c != a and col[a] != zero]
        if terms:  # L[a][c] is -l_cols[c][a], and L[a][a] is one
            lrow = [[ctx.neg(l_cols[c][a])] * cut for c in terms]
            prow = ctx.sum_products(lrow + [[ctx.one] * cut],
                                    [self.N[c][:cut] for c in terms] + [self.N[a][:cut]])
        else:
            prow = self.N[a][:cut]
        return prow + [zero] * (len(cols) - cut)

    def _p_entry(self, a: int, b: int) -> Fel:
        ctx, N = self.ctx, self.N
        if self.layout.rows[a] + self.layout.cols[b] > self.solved:
            return ctx.zero
        acc = N[a][b]
        for c, col in self.l_cols.items():
            if c != a and col[a] != ctx.zero:
                acc = ctx.sub(acc, ctx.mul(col[a], N[c][b]))
        return acc


class _ProductRows(Sequence):
    """P of an ``EchelonState``: P[a] is row a as a ``_ProductRow``, and
    iterating P gives each row as a list."""

    def __init__(self, state: EchelonState):
        self._state, self._size = state, len(state.layout.rows)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, a):
        if isinstance(a, slice):
            return [self[i] for i in range(*a.indices(self._size))]
        return _ProductRow(self._state, range(self._size)[a])

    def __iter__(self):
        return map(self._state._p_row, range(self._size))


class _ProductRow(Sequence):
    """Row a of an ``EchelonState``'s P, each entry computed when read."""

    def __init__(self, state: EchelonState, a: int):
        self._entry, self._row, self._a = state._p_entry, state._p_row, a
        self._width = len(state.layout.cols)

    def __len__(self) -> int:
        return self._width

    def __getitem__(self, b):
        if isinstance(b, slice):
            return [self[j] for j in range(*b.indices(self._width))]
        return self._entry(self._a, b)

    def __iter__(self):
        return iter(self._row(self._a))


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


def _solve_diagonal(ctx, table: WeightTable, i: int, y: list[Fel]) -> list[Fel]:
    """The entries x of diagonal i of table.layout, which has at most len(y)
    cells, from y[l] = <x, row l of table on the diagonal's cells>.

    One ``dots`` on the table's packed inverse of the diagonal gives x; when
    y has more rows, one ``dots`` on the packed table checks them all, and
    a mismatch raises InconsistentSyndrome.
    """
    cells = table.layout.diagonals[i]
    size = len(cells.cols)
    x = ctx.dots(y[:size], table.inverse(i), size)
    if len(y) > size and ctx.dots(x, table.packed, len(y), cells.at_cols) != y:
        raise InconsistentSyndrome("redundant row mismatch")
    return x


def low_rank_recovery(
    ctx: FieldCtx,
    r: int,
    table: WeightTable,
    syndromes_by_k,
    hooks: RecoveryHooks | None = None,
) -> DenseTensor:
    """Reconstruct the unique rank <= r matrix matching the syndromes.

    ``table`` (``hitting.WeightTable`` over ctx, as ``Schedule.tables``
    holds) carries the layout, whose cells may be nonzero, and the returned
    matrix is over its rows and columns.  syndromes_by_k holds one vector
    per entry of ``layout.diagonals``, in that order; entry l of diagonal
    k's vector is its inner product with row l of the table on the
    diagonal's column positions (``Cells.at_cols``).  A diagonal with at
    least as many syndromes as cells is solved outright, one ``dots`` on
    the inverse the table keeps for it, so every recovery on one table
    builds each inverse once; a longer one must have 2r, for Prony's
    method.  Another vector count, or more syndromes than the table has
    rows, raises ShapeMismatch.  Syndromes no rank <= r matrix explains
    raise a PromiseViolation naming the diagonal where it showed.

    The loop keeps L, the unit lower-triangular row operations, as its <= r
    off-identity columns negated, and of the reduced matrix P = L N only
    the current diagonal on its support and the pivots of the leading
    entries; hooks get an ``EchelonState`` built from them.
    """
    syndromes_by_k = list(syndromes_by_k)
    layout, packed_table = table.layout, table.packed
    expected = len(layout.diagonals)
    if len(syndromes_by_k) != expected:
        raise ShapeMismatch(f"expected {expected} diagonals, got {len(syndromes_by_k)}")
    size, width = len(layout.rows), len(layout.cols)
    zero, minus_one = ctx.zero, ctx.neg(ctx.one)
    l_cols: dict[int, list[Fel]] = {}  # off-identity column c of L -> its entries, negated
    N = [[zero] * width for _ in range(size)]
    lne: dict[int, int] = {}
    pivot: dict[int, Fel] = {}  # row i -> -1 / P[i][lne[i]]

    for pos, (cells, synd) in enumerate(zip(layout.diagonals, syndromes_by_k)):
        k, rows, cols = cells.k, cells.rows, cells.cols
        if len(synd) > len(table.rows):
            raise ShapeMismatch(
                f"diagonal {k}: {len(synd)} syndromes, {len(table.rows)} table rows")

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
                values = _solve_diagonal(ctx, table, pos, y)
            else:  # a long diagonal has all 2r >= 2 rows; row 1 holds the points g^j
                support, values = prony_support(ctx, len(cols), r, advice, y, at(table.rows[1]))
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
                pivot[rows[t]] = ctx.neg(ctx.inv(v))
        if len(lne) > r:
            raise RankPromiseViolated(
                f"{len(lne)} leading entries below diagonal {k + 1}; rank promise was {r}"
            )

    return DenseTensor.from_rows(ctx, N)


# ---------------------------------------------------------------------------
# dual Reed-Solomon diagonal families (the D' instantiation)
# ---------------------------------------------------------------------------


def _diagonal_syndromes(s: Schedule, i: int, entries, counts) -> list[list[Fel]]:
    """[<diagonal k, row l of s.tables[i]> for l < counts[k]] for each diagonal k
    of s.layouts[i], read from the level's flat list ``entries``."""
    table = s.tables[i].packed
    return [s.ctx.dots(at(entries), table, count, cells.at_cols)
            for cells, at, count in zip(s.layouts[i].diagonals, s.gathers[i], counts)]


def measure_D(mat: DenseTensor, r: int) -> list[Fel]:
    """Syndromes of mat (dense or factored) against the D' family at 2r,
    in family order: ascending diagonal, then ascending weight exponent."""
    return measure(mat, "Dprime", r)


def recover_from_D(
    ctx: FieldCtx,
    n: int,
    m: int,
    r: int,
    syndromes: list[Fel],
    hooks: RecoveryHooks | None = None,
) -> DenseTensor:
    """The rank <= r n x m matrix whose measure_D output is syndromes."""
    check_recovery("Dprime", (n, m), r)
    expected = dprime_size(n, m, 2 * r)
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    s = schedule(ctx, "Dprime", (n, m), 2 * r)
    ends = itertools.accumulate(s.counts)
    synd_by_k = [syndromes[e - c : e] for c, e in zip(s.counts, ends)]
    return low_rank_recovery(ctx, r, s.tables[0], synd_by_k, hooks=hooks)


# ---------------------------------------------------------------------------
# rank-1 family syndromes -> diagonal syndromes (staircase interpolation)
# ---------------------------------------------------------------------------


def convert_B_to_D(
    ctx: FieldCtx, n: int, m: int, R: int, syndromes: list[Fel]
) -> list[Fel]:
    """The D' syndromes at R of the matrix whose B' syndromes at R are given.

    Block l of B' evaluates p_l(x) = sum_(i,j) M[i,j] g^(lj) x^(i+j), whose
    coefficient k is D' syndrome (k, l).  Its l lowest and l highest
    coefficients follow from blocks < l; subtracting them and dividing by
    x^l leaves a polynomial short enough to interpolate from the block's
    (n+m-1) - 2l evaluations.
    """
    # |B'| = |D'|, counted before the schedule's O(n + m) points
    expected = dprime_size(n, m, R)
    if len(syndromes) != expected:
        raise ShapeMismatch(f"expected {expected} syndromes, got {len(syndromes)}")
    s = schedule(ctx, "Bprime", (n, m), R)
    # D' has B''s layout and table rows, and recover_from_D reads the same table
    d_prime = schedule(ctx, "Dprime", (n, m), R)
    alphas, newton, table = s.alphas, s.newton, d_prime.tables[0]
    rows, diagonals = table.rows, table.layout.diagonals  # every cell: diagonal k is diagonals[k]
    width = len(alphas)
    inv_alphas = [ctx.inv(a) for a in alphas]
    down = [ctx.one] * width  # a^-l at block l, for each point a
    up = [ctx.pow(a, width) for a in alphas]  # a^(width - l) at block l

    coeff: list[list[Fel]] = []
    diag_vals: dict[int, list[Fel]] = {}

    def fringe_value(l: int, kp: int) -> Fel:
        # sum_j c_j g^(l j) over the columns j of diagonal kp, from its first
        first = diagonals[kp].cols[0]
        return ctx.mul(rows[l][first], ctx.horner(diag_vals[kp], rows[l][1]))

    off = 0
    for l, (_, _, cnt) in enumerate(s.blocks):
        block = syndromes[off : off + cnt]
        off += cnt
        if l == 0:
            coeff.append(linalg.poly_interpolate(ctx, newton, block))
            continue
        # diagonals l - 1 and width - l have l entries, all measured by now
        for kp in (l - 1, width - l):
            diag_vals[kp] = _solve_diagonal(ctx, table, kp, [c[kp] for c in coeff])
        lows = [fringe_value(l, kp) for kp in range(l)]
        highs = [fringe_value(l, kp) for kp in range(width - l, width)]
        down = list(map(ctx.mul, down[:cnt], inv_alphas))
        up = list(map(ctx.mul, up[:cnt], inv_alphas))
        h_vals = []
        for a, e, a_down, a_up in zip(alphas, block, down, up):
            # e minus the fringe terms sum_kp c_kp a^kp, divided by a^l
            fringe = ctx.add(ctx.horner(lows, a), ctx.mul(a_up, ctx.horner(highs, a)))
            h_vals.append(ctx.mul(ctx.sub(e, fringe), a_down))
        h = linalg.poly_interpolate(ctx, newton, h_vals)
        coeff.append(lows + h + highs)
    return [coeff[l][k] for k, count in enumerate(d_prime.counts) for l in range(count)]


# ---------------------------------------------------------------------------
# tensors: measure with the tensor family, recover by reversing the merge
# ---------------------------------------------------------------------------


def tensor_measure(t: DenseTensor, r: int) -> list[Fel]:
    """Inner products of a cubic tensor against the tensor family at 2r."""
    return measure_moments(t, "TensorB", 2 * r)


def _unpack(w: DenseTensor, row_at, col_at) -> list[Fel]:
    """The level's flat list from w, the matrix over its lattice: cell (a, b)
    is entry row_at[a] + col_at[b] (``Schedule.places``)."""
    entries = [w.ctx.zero] * (row_at[-1] + col_at[-1] + 1)
    for a, row in zip(row_at, w.rows()):
        for b, x in zip(col_at, row):
            entries[a + b] = x
    return entries


def tensor_recover(
    ctx: FieldCtx, d: int, n: int, r: int, syndromes: list[Fel]
) -> DenseTensor:
    """The rank <= r tensor of shape [n]^d whose tensor_measure output is syndromes.

    Interpolates one polynomial per exponent-index tuple, then reverses the
    variable-merging reduction: the R polynomials sharing an index prefix
    hold the D' syndromes of a merged matrix of rank <= r, recovered on its
    level's lattice (``Schedule.layouts``) and written into the finer
    level's coefficients at ``Schedule.places``.  An error names its level.
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

    polys: dict[tuple[int, ...], list[Fel]] = {}
    for i, (ls, _, count) in enumerate(s.blocks):
        evals = syndromes[i * count : (i + 1) * count]
        cs = linalg.poly_interpolate(ctx, s.newton, evals[: deg + 1])
        if ctx.dots(cs, s.vandermonde, count) != list(evals):  # cs meets the first deg + 1
            raise InconsistentSyndrome("redundant evaluation disagrees with interpolant")
        polys[ls] = cs

    for level in range(len(s.levels), 0, -1):
        table, places = s.tables[level - 1], s.places[level - 1]
        new_polys = {}
        for prefix in itertools.product(range(R), repeat=level - 1):
            univs = [polys[prefix + (i,)] for i in range(R)]
            try:
                w = low_rank_recovery(ctx, r, table, zip(*univs))
            except PromiseViolation as e:
                raise type(e)(f"level {level}: {e}") from e
            new_polys[prefix] = _unpack(w, *places)
        polys = new_polys

    # dummy axes (all of length one) sit at the end; dropping them keeps
    # the row-major order intact
    return DenseTensor(ctx, dims, polys[()])


def measure_moments(t: DenseTensor, family: str, r: int) -> list[Fel]:
    """Syndromes of t against ``family`` at r, one of ``hitting.schedule``'s.

    Member (k, ls) of B, B' and TensorB evaluates the polynomial of block ls
    at alpha_k.  Its coefficients come from ``tensor_recover``'s levels run
    upward: at level i, row l of the D' syndromes of prefix ls[:i - 1] is
    the flat list of prefix ls[:i - 1] + (l,), and at level 1 the flat list
    is t's entries.  Those of a matrix are D's: member (k, l) of D and D',
    l < ``Schedule.counts[k]``, is the coefficient of x^k in block l.
    """
    if isinstance(t, LowRankTensor):
        t = expand(t)
    s = schedule(t.ctx, family, t.dims, r)
    if not s.blocks:  # D and D': the coefficients are the syndromes
        return [y for ys in _diagonal_syndromes(s, 0, t.entries, s.counts) for y in ys]
    rows = itertools.repeat(s.table_rows)
    polys = {(): t.entries}
    for i in range(len(s.levels)):
        polys = {prefix + (l,): poly for prefix, entries in polys.items()
                 for l, poly in enumerate(zip(*_diagonal_syndromes(s, i, entries, rows)))}
    return [y for ls, _, count in s.blocks for y in t.ctx.dots(polys[ls], s.vandermonde, count)]


def measure_syndromes(t, fam) -> list[Fel]:
    """Inner products against a measurement family, in family order.

    t may be dense or factored, over the family's field or its prime
    subfield; a shape other than the family's raises ShapeMismatch.  A family
    tagged with a scheduled family and with no dense member is taken to be
    the one ``hitting`` builds, and ``measure_moments`` measures it without
    reading a member.  Every other family (a file's, which is dense, or a
    simulation) is scanned (``hitting.inner_products``).
    """
    t = family_tensor(t, fam)
    if fam.family in SCHEDULED_FAMILIES and all(m.entries is None for m in fam.measurements):
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
