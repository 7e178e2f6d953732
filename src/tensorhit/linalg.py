"""Dense exact linear algebra over a FieldCtx.

Row-reduction, solving, nullspaces, determinants and interpolation, all on
plain lists of field elements and written once for every field on top of
the FieldCtx vector kernels.  Pivoting takes the first nonzero entry
scanning top to bottom; over a finite field there is nothing better to
choose, and the fixed rule keeps every derived construction deterministic.
"""

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


def det(ctx: FieldCtx, rows: Matrix) -> Fel:
    """Determinant by fraction-free-ish elimination with row swaps."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeMismatch("determinant needs a square matrix")
    a = [list(r) for r in rows]
    result = ctx.one
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if a[i][c] != ctx.zero:
                pivot = i
                break
        if pivot is None:
            return ctx.zero
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = ctx.neg(result)
        result = ctx.mul(result, a[c][c])
        inv = ctx.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != ctx.zero:
                ctx.axpy(a[i], ctx.neg(ctx.mul(a[i][c], inv)), a[c][c:], c)
    return result


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
    """Coefficients of the unique degree < len(xs) polynomial through (xs, ys).

    Lagrange form over the master polynomial M(x) = prod_j (x - xs[j]):
    P = sum_i c_i M(x) / (x - xs[i]) with c_i = ys[i] / M'(xs[i]), and
    coefficient j of P is sum_u M[j+1+u] s_u for the moments
    s_u = sum_i c_i xs[i]^u.  O(n) vector kernels of length n and n
    inversions, instead of O(n^2) scalar steps and inversions.
    """
    n = len(xs)
    if n != len(ys):
        raise ShapeMismatch("interpolation needs matching point/value counts")
    master = poly_from_roots(ctx, xs)
    # M'(xs[i]) = prod_{j != i} (xs[i] - xs[j]), nonzero for distinct points
    deriv = [ctx.mul(ctx.scalar(t), master[t]) for t in range(1, n + 1)]
    moments = [ctx.zero] * n
    for x, y in zip(xs, ys):
        xp = ctx.powers(x, n)
        ctx.axpy(moments, ctx.mul(y, ctx.inv(ctx.dot(deriv, xp))), xp)
    return [ctx.dot(master[j + 1 :], moments) for j in range(n)]
