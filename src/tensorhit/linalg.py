"""Dense exact linear algebra over a FieldCtx.

Row-reduction, solving, nullspaces and interpolation, all on plain lists
of field elements and written once for every field on top of the FieldCtx
vector kernels.  Pivoting takes the first nonzero entry
scanning top to bottom; over a finite field there is nothing better to
choose, and the fixed rule keeps every derived construction deterministic.

Interpolation reads one cached pair of packed Newton tables per point
sequence and field class (``_newton_tables``, the last four kept) with two
``ctx.dots``.
Recovery interpolates on prefixes of one fixed schedule, and every prefix
reads the schedule's tables, so their inversions and their packing are
paid once per schedule.
"""

import functools
import itertools

from .errors import ShapeMismatch
from .field import Fel, FieldCtx

Matrix = list[list[Fel]]


def rref(ctx: FieldCtx, rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    return rows, _reduce(ctx, rows)


def _reduce(ctx: FieldCtx, rows: Matrix) -> list[int]:
    """Bring rows to reduced row-echelon form in place; returns the pivot columns.

    Rows left of the current pivot column are all zero (pivot columns were
    eliminated, skipped columns never held a nonzero below the frontier),
    so each pivot step updates from its column onward.
    """
    if not rows:
        return []
    zero, nrows = ctx.zero, len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0])):
        for i in range(r, nrows):
            if rows[i][c] != zero:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        ctx.pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(ctx: FieldCtx, rows: Matrix) -> int:
    return len(rref(ctx, rows)[1])


def solve(ctx: FieldCtx, rows: Matrix, rhs: list[Fel]) -> list[Fel] | None:
    """Unique solution of rows @ x = rhs, or None when none exists.

    Raises ShapeMismatch when the system is consistent but underdetermined;
    callers here always expect full column rank.
    """
    if len(rows) != len(rhs):
        raise ShapeMismatch("rhs length does not match row count")
    if not rows:
        return []
    ncols = len(rows[0])
    red = [[*r, y] for r, y in zip(rows, rhs)]
    pivots = _reduce(ctx, red)
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    if len(pivots) < ncols:
        raise ShapeMismatch("underdetermined system")
    x = [ctx.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x


def nullspace_basis(ctx: FieldCtx, rows: Matrix, ncols: int) -> list[list[Fel]]:
    """Reduced-echelon nullspace basis, one vector per free column.

    Free columns are taken in canonical (ascending) order; basis vector t has
    a 1 in the t-th free column and zeros in the others, so the basis is
    systematic in the free positions.
    """
    red, pivots = rref(ctx, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ctx.zero] * ncols
        v[f] = ctx.one
        for i, c in enumerate(pivots):
            v[c] = ctx.neg(red[i][f])
        basis.append(v)
    return basis


def poly_from_roots(ctx: FieldCtx, xs: list[Fel]) -> list[Fel]:
    """Coefficients of prod_j (x - xs[j]), constant term first."""
    out = [ctx.one]
    for x in xs:
        shifted = [ctx.zero] + out
        ctx.axpy(shifted, ctx.neg(x), out)
        out = shifted
    return out


def poly_interpolate(ctx: FieldCtx, xs: list[Fel], ys: list[Fel]) -> list[Fel]:
    """Coefficients of the degree < len(ys) polynomial taking ys on xs[:len(ys)].

    Newton form P = sum_k a_k N_k with N_k = prod_(j<k) (x - xs[j]), read
    off the packed tables of ``_newton_tables``: a_k = <dd[k], ys>, and
    coefficient j of P is <basis[j], a'>, with a' the a_k from k =
    len(xs) - 1 down, zero for k >= len(ys).  That is two ``ctx.dots`` and
    no inversion.  Any prefix of xs reads the same tables, so callers pass
    their whole schedule.  Raises ShapeMismatch when there are more values
    than points, and ZeroDivisionError when two points of xs coincide.
    """
    if len(ys) > len(xs):
        raise ShapeMismatch("interpolation needs at least as many points as values")
    dd, basis = _newton_tables(ctx, tuple(xs))
    a = ctx.dots(ys, dd, len(ys))
    return ctx.dots([ctx.zero] * (len(xs) - len(ys)) + a[::-1], basis, len(ys))


@functools.lru_cache(maxsize=4, typed=True)  # typed: a TableField packs unlike its ring
def _newton_tables(ctx: FieldCtx, xs: tuple[Fel, ...]):
    """The two triangular Newton tables of the points xs, packed by ``ctx.pack``.

    Row k of ``dd`` is ``dd[k][i] = 1 / prod_(j<=k, j!=i) (xs[i] - xs[j])``
    for i <= k, so <dd[k], ys> is the divided difference [ys[0], ...,
    ys[k]]; row j of ``basis`` is coefficient j of N_k for k = len(xs) - 1
    down to j.  Each row ends at its last entry that can be nonzero, so a
    dot reads no zero past it.  Row k of dd and the coefficients of N_k
    depend on xs[:k+1] alone, which is what lets every prefix share them.
    """
    # dd[k][i] = dd[k-1][i] / (xs[i] - xs[k]); a schedule's differences
    # repeat, so each distinct one is inverted once
    inv = functools.lru_cache(maxsize=None)(ctx.inv)
    dd, row, newton, cols = [], (), [ctx.one], [[] for _ in xs]
    for k, x in enumerate(xs):
        invs = list(map(inv, map(ctx.sub, xs[:k], itertools.repeat(x))))
        last = functools.reduce(ctx.mul, invs, ctx.one)  # (-1)^k dd[k][k]
        row = (*map(ctx.mul, row, invs), ctx.neg(last) if k % 2 else last)
        dd.append(row)
        for col, c in zip(cols, newton):  # newton = N_k
            col.append(c)
        shifted = [ctx.zero] + newton  # N_(k+1) = x N_k - xs[k] N_k
        ctx.axpy(shifted, ctx.neg(x), newton)
        newton = shifted
    return ctx.pack(dd), ctx.pack([col[::-1] for col in cols])
