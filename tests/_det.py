"""The determinant, a reference for tests of the field and of Vandermonde minors."""

from tensorhit.errors import ShapeMismatch


def det(ctx, rows):
    """Determinant by elimination: the product of the pivots, negated per row swap."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeMismatch("determinant needs a square matrix")
    a = [list(r) for r in rows]
    result = ctx.one
    for c in range(n):
        i = next((i for i in range(c, n) if a[i][c] != ctx.zero), None)
        if i is None:
            return ctx.zero
        if i != c:
            a[c], a[i] = a[i], a[c]
            result = ctx.neg(result)
        result = ctx.mul(result, a[c][c])
        ctx.pivot(a, c, c)
    return result
