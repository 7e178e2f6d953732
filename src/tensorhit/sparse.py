"""Syndrome decoding of dual Reed-Solomon measurements: Prony's method.

The measurement matrix is V[i, j] = g_j^i over distinct points g_j, with 2s
rows.  Any 2s of its columns are independent, so an s-sparse vector is the
unique preimage of its syndrome; with an advice set S of suspected support
positions the budget improves to |supp(x) \\ S| <= s - |S|/2, each advice
position costing half an error.

pronys_method recovers such a vector from its syndrome alone: it builds a
mixed matrix whose first |S| rows are point-power rows for the advice
positions and whose remaining rows are sliding windows of the syndrome,
row-reduces it, cuts at the largest invertible leading principal minor (its
size is |S| plus the number of surprises outside S), and reads the error
locator polynomial off the reduced form.  The locator's roots among the
points give the support; a final overdetermined Vandermonde solve fills in
the values and doubles as a promise check.
"""

from dataclasses import dataclass

from . import linalg
from .errors import (
    AdviceTooLarge,
    DuplicatePoints,
    FieldTooSmall,
    InconsistentSyndrome,
    ShapeMismatch,
)
from .field import Fel, FieldCtx


@dataclass(frozen=True)
class DualRSMeasurements:
    """The 2s x n matrix V[i, j] = points[j]^i over distinct points."""

    ctx: FieldCtx
    points: tuple[Fel, ...]
    s: int
    rows: tuple[tuple[Fel, ...], ...]

    def measure(self, x: list[Fel]) -> list[Fel]:
        return [self.ctx.dot(row, x) for row in self.rows]


def dual_rs(ctx: FieldCtx, points, s: int) -> DualRSMeasurements:
    """Measurements for s-advice-sparse recovery; 2s rows.

    ``points`` may be an explicit list of distinct elements or an int n, in
    which case the first n powers 1, g, ..., g^(n-1) of the canonical
    element of order >= n are used.
    """
    if isinstance(points, int):
        points = ctx.powers(ctx.element_of_order(points), points)
    points = tuple(points)
    if len(set(points)) != len(points):
        raise DuplicatePoints("evaluation points must be pairwise distinct")
    rows = []
    cur = [ctx.one] * len(points)
    for _ in range(2 * s):
        rows.append(tuple(cur))
        cur = [ctx.mul(c, p) for c, p in zip(cur, points)]
    return DualRSMeasurements(ctx, points, s, tuple(rows))


def pronys_method(
    ctx: FieldCtx,
    n: int,
    s: int,
    advice: set[int],
    y: list[Fel],
    points: list[Fel],
) -> list[Fel]:
    """Recover x of length n from y = V x, given advice on its support.

    Promise: x has at most s - ceil(|advice|/2) nonzero entries outside the
    advice set.  Violations surface as InconsistentSyndrome, never as a
    silently wrong vector, because the final linear solve is overdetermined
    and fully verified.
    """
    if len(y) != 2 * s:
        raise ShapeMismatch(f"expected {2 * s} syndrome values, got {len(y)}")
    if len(points) != n:
        raise ShapeMismatch("need one evaluation point per coordinate")
    advice = set(advice)
    if len(advice) > 2 * s:
        raise AdviceTooLarge(f"|S| = {len(advice)} exceeds 2s = {2 * s}")
    if advice and (min(advice) < 0 or max(advice) >= n):
        raise AdviceTooLarge("advice positions must index the vector")

    points = list(points)
    if len(advice) % 2:
        # enlarge by the smallest absent index; if none, simulate index n
        free = next((i for i in range(n) if i not in advice), None)
        if free is None:
            points.append(_fresh_point(ctx, points))
            advice.add(n)
        else:
            advice.add(free)
    t = len(advice) // 2
    s_idx = sorted(advice)

    # mixed matrix: |S| point-power rows, then s-t sliding syndrome windows
    width = s + t + 1
    a_rows = [ctx.powers(points[i], width) for i in s_idx]
    a_rows.extend(y[off : off + width] for off in range(s - t))

    red, pivots = linalg.rref(ctx, a_rows)
    rho = len(pivots)
    if pivots != list(range(rho)):
        # honest syndromes put all pivots on the diagonal, making the
        # locator nullspace one-dimensional at the principal-minor cut
        raise InconsistentSyndrome("syndrome matrix is not in generic position")
    # the locator with its sign flipped: sum_i red[i][rho] x^i - x^rho
    coeffs = [row[rho] for row in red[:rho]] + [ctx.neg(ctx.one)]

    zero = ctx.zero
    support = [i for i, pt in enumerate(points) if ctx.horner(coeffs, pt) == zero]
    if len(support) != rho:
        raise InconsistentSyndrome(
            "locator roots do not all lie among the evaluation points"
        )

    # solve the full 2s x |support| system and verify every equation
    cols = [ctx.powers(points[i], 2 * s) for i in support]
    rows = list(zip(*cols)) or [()] * (2 * s)  # an empty support leaves empty rows
    z = linalg.solve(ctx, rows, list(y))
    if z is None:
        raise InconsistentSyndrome("syndrome outside the promised support model")

    x = [ctx.zero] * n
    for i, v in zip(support, z):
        if i >= n:
            if v != ctx.zero:  # the simulated coordinate is zero by construction
                raise InconsistentSyndrome("virtual coordinate got a nonzero value")
            continue
        x[i] = v
    return x


def _fresh_point(ctx: FieldCtx, points: list[Fel]) -> Fel:
    used = set(points)
    for cand in ctx.nonzero_elements():
        if cand not in used:
            return cand
    raise FieldTooSmall("no unused evaluation point left for the virtual index")
