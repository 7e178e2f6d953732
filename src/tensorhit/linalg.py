"""Dense exact linear algebra over a FieldCtx, on plain lists of elements.

Pivoting takes the first nonzero entry scanning top to bottom, which keeps
every derived construction deterministic.
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
    """Bring rows to reduced row-echelon form in place; returns the pivot columns."""
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


def poly_interpolate(ctx: FieldCtx, tables, ys: list[Fel]) -> list[Fel]:
    """Coefficients of the degree < len(ys) polynomial taking ys on the first
    len(ys) points of tables = ``newton_tables(ctx, xs)``, in Newton form
    P = sum_k <dd[k], ys> N_k.  Raises ShapeMismatch when there are more
    values than points.
    """
    xs, dd, basis = tables
    if len(ys) > len(xs):
        raise ShapeMismatch("interpolation needs at least as many points as values")
    a = ctx.dots(ys, dd, len(ys))
    return ctx.dots([ctx.zero] * (len(xs) - len(ys)) + a[::-1], basis, len(ys))


def newton_tables(ctx: FieldCtx, xs) -> tuple:
    """(xs, dd, basis): the two triangular Newton tables of the points xs,
    packed by ``ctx.pack``, which serve every prefix of xs.

    ``dd[k][i] = 1 / prod_(j<=k, j!=i) (xs[i] - xs[j])``, so <dd[k], ys> is
    the divided difference [ys[0], ..., ys[k]]; row j of ``basis`` is
    coefficient j of N_k = prod_(j<k) (x - xs[j]) for k = len(xs) - 1 down
    to j.  Raises ZeroDivisionError when two points coincide.
    """
    xs = tuple(xs)
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
    return xs, ctx.pack(dd), ctx.pack([col[::-1] for col in cols])
