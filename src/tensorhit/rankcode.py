"""Rank-metric error-correcting codes from low-rank-recovery families.

A code is the nullspace of a measurement family that performs r-low-rank
recovery: codewords are the tensors all of whose parity inner products
vanish, distance is measured by tensor rank, and a corrupted word decodes
by recovering the error tensor from the syndrome alone.  Encoding is
systematic in the free positions of the echelonized nullspace basis; the
theory pins down only the subspace, so the encoder map is a convention of
this implementation.

A D' code's basis is built diagonal by diagonal from the one packed
Vandermonde inverse its schedule keeps (``_diagonal_basis``), with no
dense elimination; B' and D' at 2r span one row space, so a B' code shares
D''s basis.  TensorB codes eliminate their dense parity rows
(``linalg.nullspace_basis``).
"""

import itertools
import math
import operator
from dataclasses import dataclass

from . import linalg, lrr
from .errors import (
    DecodeFailure,
    LengthMismatch,
    PromiseViolation,
    ShapeMismatch,
    TooLarge,
)
from .field import FieldCtx
from .hitting import MeasurementSet, generate_family, schedule
from .tensor import DenseTensor, matrix_rank


@dataclass(frozen=True)
class RankMetricCode:
    """Parity family, nullspace generator basis, and decode parameters."""

    ctx: FieldCtx
    dims: tuple[int, ...]
    r: int
    family: str
    parity: MeasurementSet
    basis: tuple[tuple, ...]  # generator rows, systematic in free positions

    @property
    def dimension(self) -> int:
        return len(self.basis)


def build_code(
    ctx: FieldCtx, dims: tuple[int, ...], r: int, family: str
) -> RankMetricCode:
    """Code correcting r rank errors, from the chosen parity family at 2r."""
    dims = tuple(dims)
    lrr.check_recovery(family, dims, r)
    parity = generate_family(ctx, family, dims, 2 * r)
    if family == "TensorB":
        basis = map(tuple, linalg.nullspace_basis(ctx, parity.dense_rows(), math.prod(dims)))
    else:  # B' and D' at 2r span one row space
        basis = _diagonal_basis(ctx, dims, 2 * r)
    return RankMetricCode(ctx, dims, r, family, parity, tuple(basis))


def _diagonal_basis(ctx: FieldCtx, dims: tuple[int, ...], R: int) -> list[tuple]:
    """``linalg.nullspace_basis`` of D' at R on dims, built diagonal by diagonal.

    D''s rows on diagonal k are the first counts[k] rows of its Vandermonde
    block, so its pivots are its first counts[k] cells in flat order, the
    last in column order.  A diagonal with free cells has counts[k] = R and
    pivot columns j0 ... j0 + R - 1; factoring out g^(l j0), the free cell
    at column j0 - d is the pivots' combination x_d with sum_c x_d[c]
    g^(l c) = g^(-d l) for l < R, the system of diagonal R - 1's packed
    inverse.  Its vector has 1 there and -x_d on the pivots; the vectors
    list the free cells in ascending flat order.
    """
    s = schedule(ctx, "Dprime", dims, R)
    m, total = dims[1], math.prod(dims)
    ginv, solved = ctx.inv(s.g), [None]  # solved[d] = -x_d
    by_cell = []
    for cells, count in zip(s.layouts[0].diagonals, s.counts):
        free = len(cells.cols) - count
        if free <= 0:
            continue
        while len(solved) <= free:
            y = ctx.powers(ctx.pow(ginv, len(solved)), R)
            solved.append([ctx.neg(x) for x in ctx.dots(y, s.tables[0].inverse(R - 1), R)])
        flat = [a * m + b for a, b in zip(cells.rows, cells.cols)]
        for t, f in enumerate(flat[:free]):
            v = [ctx.zero] * total
            v[f] = ctx.one
            for at, x in zip(flat[free:], solved[free - t]):
                v[at] = x
            by_cell.append((f, tuple(v)))
    by_cell.sort(key=operator.itemgetter(0))
    return [v for _, v in by_cell]


def encode(code: RankMetricCode, message: list) -> DenseTensor:
    """Sum of basis rows weighted by the message symbols."""
    ctx = code.ctx
    if len(message) != code.dimension:
        raise LengthMismatch(
            f"message length {len(message)} != dimension {code.dimension}"
        )
    total = math.prod(code.dims)
    entries = [ctx.zero] * total
    for sym, row in zip(message, code.basis):
        ctx.axpy(entries, sym, row)
    return DenseTensor(ctx, code.dims, entries)


def syndrome(code: RankMetricCode, word: DenseTensor) -> list:
    return lrr.measure(word, code.family, code.r)


def error_rank_bound(t: DenseTensor) -> int:
    """Exact rank for matrices; for d > 2 the largest rank of an unfolding, a
    lower bound on tensor rank.  Row i of the mode-a unfolding holds the
    entries with index i on axis a, in row-major order of the other axes."""
    if len(t.dims) == 2:
        return matrix_rank(t)
    best, entries = 0, t.entries
    for axis, n_ax in enumerate(t.dims):
        inner = math.prod(t.dims[axis + 1 :])
        starts = range(0, len(entries), n_ax * inner)  # one per outer index
        rows = [[e for o in starts for e in entries[o + i * inner : o + (i + 1) * inner]]
                for i in range(n_ax)]
        best = max(best, linalg.rank(t.ctx, rows))
    return best


def decode(
    code: RankMetricCode, received: DenseTensor
) -> tuple[DenseTensor, DenseTensor]:
    """Split a received word into (codeword, error) for error rank <= r.

    The error is recovered from the syndrome and re-verified (zero residual
    syndrome, ``error_rank_bound`` within r), so an input outside the
    promise raises DecodeFailure.  For d > 2 that bound is only a lower
    bound on tensor rank, so an error of tensor rank above r may pass.
    """
    ctx = code.ctx
    if received.dims != code.dims or received.ctx != ctx:
        raise ShapeMismatch("received word does not match the code's shape/field")
    synd = syndrome(code, received)
    try:
        err = lrr.recover(ctx, code.family, code.dims, code.r, synd)
    except PromiseViolation as e:
        raise DecodeFailure(f"error recovery failed: {e}") from e
    word = DenseTensor(
        ctx,
        code.dims,
        [ctx.sub(a, b) for a, b in zip(received.entries, err.entries)],
    )
    if any(v != ctx.zero for v in syndrome(code, word)):
        raise DecodeFailure("decoded word has a nonzero syndrome")
    if error_rank_bound(err) > code.r:
        raise DecodeFailure("recovered error exceeds the correction radius")
    return word, err


def min_distance_brute(code: RankMetricCode, cap: int = 200_000):
    """Minimum rank over all nonzero codewords, by full enumeration.

    Returns math.inf for the zero-dimensional code.  For d > 2 it is
    ``error_rank_bound``'s, a lower bound on the rank distance.  More than
    ``cap`` codewords raises TooLarge.
    """
    ctx = code.ctx
    dim = code.dimension
    if dim == 0:
        return math.inf
    count = ctx.size**dim
    if count > cap:
        raise TooLarge(f"{count} codewords exceeds cap {cap}")
    elements = [ctx.from_index(t) for t in range(ctx.size)]
    best = None
    for msg in itertools.product(elements, repeat=dim):
        if all(s == ctx.zero for s in msg):
            continue
        word = encode(code, list(msg))
        rank_val = error_rank_bound(word)
        if best is None or rank_val < best:
            best = rank_val
    return best
