"""Syndrome decoding of dual Reed-Solomon measurements: Prony's method.

The measurement matrix is V[i, j] = g_j^i over distinct points g_j, with 2s
rows.  Any 2s of its columns are independent, so an s-sparse vector is the
unique preimage of its syndrome; with an advice set S of suspected support
positions the budget improves to |supp(x) \\ S| <= s - |S|/2.

Decoding is that of errors-and-erasures Reed-Solomon: the erasure
polynomial of S (Forney, "On decoding BCH codes", IEEE Trans. IT 1965)
filters the advice out, Berlekamp-Massey (Massey, "Shift-register
synthesis and BCH decoding", IEEE Trans. IT 1969) finds the error locator,
and the values solve a transposed Vandermonde system (Kaltofen and
Lakshman, ISSAC 1988, for this step of Ben-Or and Tiwari's sparse
interpolation).
"""

import itertools
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
    advice set.  An odd advice set is first enlarged by its smallest absent
    index, or by a simulated index n when it holds them all (whose value
    must come out zero), and the vector returned is the unique preimage of
    y with at most that many nonzero entries outside the enlarged set.
    When there is none, InconsistentSyndrome is raised, never a silently
    wrong vector: y obeys the recurrence of the master polynomial at every
    index, so the support and values found explain all of y.
    """
    x = [ctx.zero] * n
    for i, v in zip(*prony_support(ctx, n, s, advice, y, points)):
        x[i] = v
    return x


def prony_support(ctx: FieldCtx, n: int, s: int, advice: set[int], y: list[Fel],
                  points: list[Fel]) -> tuple[list[int], list[Fel]]:
    """The support ``pronys_method`` finds and x's values on it.

    The support is the error locator's roots, then the enlarged advice set
    ascending, without a simulated index; x is zero off it, and an advice
    position may hold a zero value.  Raises as ``pronys_method`` does.
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

    if len(advice) % 2:
        # enlarge by the smallest absent index; if none, simulate index n
        free = next((i for i in range(n) if i not in advice), None)
        if free is None:
            points = [*points, _fresh_point(ctx, points)]
            advice.add(n)
        else:
            advice.add(free)
    t = len(advice) // 2
    zero = ctx.zero

    # filter the advice points out: f_i = sum_u Gamma_u y_(i+u) sums the
    # surprises' exponentials alone, each weighted by Gamma at its point
    s_idx = sorted(advice)
    gamma = linalg.poly_from_roots(ctx, [points[i] for i in s_idx])
    conn = _berlekamp_massey(ctx, [ctx.dot(gamma, y[i:]) for i in range(2 * (s - t))], s - t)
    support, master = s_idx, gamma  # the master polynomial M = Gamma * locator
    if len(conn) > 1:  # surprises left; none on most recovery diagonals
        locator = conn[::-1]  # z^L C(1/z), with L = len(conn) - 1
        roots = [
            i for i in range(len(points))
            if i not in advice and ctx.horner(locator, points[i]) == zero
        ]
        if len(roots) != len(conn) - 1:
            raise InconsistentSyndrome(
                "locator roots do not all lie among the evaluation points"
            )
        support = roots + s_idx  # a simulated index n stays last
        master = [zero] * (len(support) + 1)
        for u, c in enumerate(locator):
            ctx.axpy(master, c, gamma, u)

    values = vandermonde_solve(ctx, master, map(points.__getitem__, support), y)
    if support and support[-1] == n:
        support.pop()
        if values.pop() != zero:  # the simulated coordinate is zero by construction
            raise InconsistentSyndrome("virtual coordinate got a nonzero value")
    return support, values


def vandermonde_solve(ctx: FieldCtx, master: list[Fel], points, y: list[Fel]) -> list[Fel]:
    """x with sum_j x_j points[j]^l = y[l] for l < deg M, in O(deg(M)^2).

    master is M = prod_j (z - points[j]), constant term first, and points
    may be any iterable of M's roots, in the order of x; then x_j =
    <M / (z - p_j), y> / M'(p_j).  Two coinciding points make the system
    singular and raise InconsistentSyndrome.
    """
    h = [ctx.dot(master[e + 1 :], y) for e in range(len(master) - 1)]
    deriv = [ctx.mul(ctx.scalar(e), master[e]) for e in range(1, len(master))]
    out = []
    for p in points:
        d = ctx.horner(deriv, p)
        if d == ctx.zero:
            raise InconsistentSyndrome("unsolvable square system")
        out.append(ctx.mul(ctx.horner(h, p), ctx.inv(d)))
    return out


def vandermonde_inverse(ctx: FieldCtx, points) -> list[list[Fel]]:
    """Rows W, x = W y solving sum_j x_j points[j]^l = y[l] for l < len(points).

    Row t holds the coefficients of M / (z - p_t), constant term first,
    divided by M'(p_t), with M = prod_j (z - p_j): the Lagrange form of
    ``vandermonde_solve``.  O(len^2): M once, one synthetic division and one
    inversion per point.  Two coinciding points raise InconsistentSyndrome.
    """
    points = list(points)
    master = linalg.poly_from_roots(ctx, points)
    rows = []
    for p in points:
        quotient = [ctx.one]  # M / (z - p), leading coefficient first
        for c in master[-2:0:-1]:
            quotient.append(ctx.add(c, ctx.mul(p, quotient[-1])))
        quotient.reverse()
        d = ctx.horner(quotient, p)  # M'(p)
        if d == ctx.zero:
            raise InconsistentSyndrome("unsolvable square system")
        rows.append(list(map(ctx.mul, quotient, itertools.repeat(ctx.inv(d)))))
    return rows


def _berlekamp_massey(ctx: FieldCtx, f: list[Fel], bound: int) -> list[Fel]:
    """Shortest connection polynomial C of f, padded to its length L plus one.

    C[0] = 1 and sum_u C[u] f[i - u] = 0 for L <= i < len(f).  Raises
    InconsistentSyndrome as soon as L exceeds ``bound``.
    """
    zero = ctx.zero
    conn, prev = [ctx.one], [ctx.one]  # C, and C before its last lengthening
    length, shift, prev_d = 0, 1, ctx.one
    for i in range(len(f)):
        d = ctx.dot(conn, f[i::-1])
        if d == zero:
            shift += 1
            continue
        coef = ctx.neg(ctx.mul(d, ctx.inv(prev_d)))
        if 2 * length > i:
            ctx.axpy(conn, coef, prev, shift)
            shift += 1
            continue
        old = conn
        conn = conn + [zero] * (i + 1 - 2 * length)
        ctx.axpy(conn, coef, prev, shift)
        length, prev, prev_d, shift = i + 1 - length, old, d, 1
        if length > bound:
            raise InconsistentSyndrome(
                f"syndrome needs a locator of degree {length}; the promise allows {bound}"
            )
    return conn


def _fresh_point(ctx: FieldCtx, points: list[Fel]) -> Fel:
    used = set(points)
    for cand in ctx.nonzero_elements():
        if cand not in used:
            return cand
    raise FieldTooSmall("no unused evaluation point left for the virtual index")
