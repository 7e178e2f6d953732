"""Dense and factored tensors over a FieldCtx, and their polynomial views.

A DenseTensor is a row-major flat list of field elements; a matrix is the
d = 2 case, indexed (row, column) from zero.  Rank1Tensor and LowRankTensor
are the factored forms.  Values are treated as immutable, except that
set_diagonal writes into a matrix the caller owns.
"""

import itertools
import math
from dataclasses import dataclass

from . import linalg
from .errors import DiagonalOutOfRange, ShapeMismatch
from .field import Fel, FieldCtx


class DenseTensor:
    """Exact coefficient array of shape dims, row-major, 0-indexed."""

    __slots__ = ("ctx", "dims", "entries")

    def __init__(self, ctx: FieldCtx, dims: tuple[int, ...], entries: list[Fel]):
        dims = tuple(dims)
        if math.prod(dims) != len(entries):
            raise ShapeMismatch(f"{len(entries)} entries for shape {dims}")
        self.ctx = ctx
        self.dims = dims
        self.entries = entries

    @classmethod
    def zeros(cls, ctx: FieldCtx, dims: tuple[int, ...]) -> "DenseTensor":
        return cls(ctx, dims, [ctx.zero] * math.prod(dims))

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows: list[list[Fel]]) -> "DenseTensor":
        n = len(rows)
        m = len(rows[0]) if rows else 0
        flat: list[Fel] = []
        for r in rows:
            if len(r) != m:
                raise ShapeMismatch("ragged rows")
            flat.extend(r)
        return cls(ctx, (n, m), flat)

    def flat_index(self, idx: tuple[int, ...]) -> int:
        if len(idx) != len(self.dims):
            raise ShapeMismatch(f"index {idx} for shape {self.dims}")
        flat = 0
        for i, n in zip(idx, self.dims):
            if not 0 <= i < n:
                raise ShapeMismatch(f"index {idx} out of bounds for {self.dims}")
            flat = flat * n + i
        return flat

    def __getitem__(self, idx: tuple[int, ...]) -> Fel:
        return self.entries[self.flat_index(idx)]

    def __setitem__(self, idx: tuple[int, ...], value: Fel) -> None:
        self.entries[self.flat_index(idx)] = value

    def __eq__(self, other):
        return (
            isinstance(other, DenseTensor)
            and self.ctx == other.ctx
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __repr__(self):
        shape = "x".join(str(n) for n in self.dims)
        return f"DenseTensor({self.ctx!r}, {shape})"

    def is_zero(self) -> bool:
        z = self.ctx.zero
        return all(e == z for e in self.entries)

    def copy(self) -> "DenseTensor":
        return DenseTensor(self.ctx, self.dims, list(self.entries))

    def rows(self) -> list[list[Fel]]:
        if len(self.dims) != 2:
            raise ShapeMismatch("rows() requires a matrix")
        n, m = self.dims
        return [self.entries[i * m : (i + 1) * m] for i in range(n)]


@dataclass(frozen=True)
class Rank1Tensor:
    """Outer product of d factor vectors, each with a nonzero coordinate."""

    ctx: FieldCtx
    factors: tuple[tuple[Fel, ...], ...]

    def __post_init__(self):
        z = self.ctx.zero
        for v in self.factors:
            if all(c == z for c in v):
                raise ShapeMismatch("rank-1 factor vector is all zero")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.factors)

    def expand(self) -> DenseTensor:
        return _expand_outer(self.ctx, self.factors)


@dataclass(frozen=True)
class LowRankTensor:
    """Sum of at most r rank-1 terms over a common shape."""

    ctx: FieldCtx
    dims: tuple[int, ...]
    terms: tuple[Rank1Tensor, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.dims != self.dims:
                raise ShapeMismatch("term shape differs from tensor shape")

    @classmethod
    def from_factor_lists(cls, ctx, dims, factor_lists) -> "LowRankTensor":
        """Build from raw vectors, dropping any term with an all-zero factor."""
        z = ctx.zero
        terms = []
        for factors in factor_lists:
            if any(all(c == z for c in v) for v in factors):
                continue
            terms.append(Rank1Tensor(ctx, tuple(tuple(v) for v in factors)))
        return cls(ctx, tuple(dims), tuple(terms))


def _expand_outer(ctx: FieldCtx, factors) -> DenseTensor:
    entries = [ctx.one]
    for v in factors:
        entries = [ctx.mul(e, c) for e in entries for c in v]
    return DenseTensor(ctx, tuple(len(v) for v in factors), entries)


def expand(t: LowRankTensor) -> DenseTensor:
    """The dense sum of t's terms (zero for none), in one ``ctx.sum_products``."""
    ctx, width = t.ctx, t.dims[-1]
    if not t.terms:
        return DenseTensor.zeros(ctx, t.dims)
    heads = [_expand_outer(ctx, term.factors[:-1]).entries for term in t.terms]
    us = [list(itertools.chain.from_iterable(map(itertools.repeat, head, itertools.repeat(width))))
          for head in heads]
    vs = [list(term.factors[-1]) * len(head) for term, head in zip(t.terms, heads)]
    return DenseTensor(ctx, t.dims, ctx.sum_products(us, vs))


def eval_fT(t: DenseTensor, vectors: list[tuple[Fel, ...]]) -> Fel:
    """f_T(a_1, ..., a_d) = <T, a_1 x ... x a_d>, the paper's multilinear form of t.

    Raises ShapeMismatch unless there is one vector per axis, as long as it.
    """
    if len(vectors) != len(t.dims):
        raise ShapeMismatch("one vector per axis required")
    if tuple(map(len, vectors)) != t.dims:
        raise ShapeMismatch("vector length does not match axis")
    entries = t.entries
    for v in reversed(vectors):  # contract the last axis, one dot per row
        entries = [t.ctx.dot(entries[b : b + len(v)], v) for b in range(0, len(entries), len(v))]
    return entries[0]


def eval_fhat(t: DenseTensor, xs: list[Fel]) -> Fel:
    """f-hat_T(xs): eval_fT at the moment vectors (1, x, x^2, ...) of xs."""
    if len(xs) != len(t.dims):
        raise ShapeMismatch("one scalar per axis required")
    return eval_fT(t, [t.ctx.powers(x, n) for x, n in zip(xs, t.dims)])


def matrix_rank(m: DenseTensor) -> int:
    """Row rank over the tensor's field, by Gaussian elimination."""
    return linalg.rank(m.ctx, m.rows())


def diag_bounds(n: int, m: int, k: int) -> tuple[int, int]:
    """Row range [lo, hi] of the k-diagonal of an n x m matrix."""
    if not 0 <= k <= n + m - 2:
        raise DiagonalOutOfRange(f"k={k} for shape {n}x{m}")
    return max(0, k - (m - 1)), min(n - 1, k)


def diagonal(m: DenseTensor, k: int) -> list[Fel]:
    """Entries {M[i, j] : i + j = k}, ordered by increasing row index i."""
    if len(m.dims) != 2:
        raise ShapeMismatch("diagonal requires a matrix")
    n, mm = m.dims
    lo, hi = diag_bounds(n, mm, k)
    ent = m.entries
    return [ent[i * mm + (k - i)] for i in range(lo, hi + 1)]


def set_diagonal(m: DenseTensor, k: int, values: list[Fel]) -> None:
    """Write the k-diagonal, in the same increasing-i order diagonal() uses."""
    if len(m.dims) != 2:
        raise ShapeMismatch("set_diagonal requires a matrix")
    n, mm = m.dims
    lo, hi = diag_bounds(n, mm, k)
    if len(values) != hi - lo + 1:
        raise ShapeMismatch(f"diagonal {k} has {hi - lo + 1} slots")
    for t, i in enumerate(range(lo, hi + 1)):
        m.entries[i * mm + (k - i)] = values[t]
