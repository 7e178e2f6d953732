"""Dense and factored tensors over a FieldCtx.

A DenseTensor stores a row-major flat list of field elements for an
arbitrary shape; matrices are the d = 2 case and index as (row, column)
from zero.  Rank1Tensor / LowRankTensor hold the factored certificate
forms.  The module also provides the polynomial views of a tensor
(eval_fT / eval_fhat), k-diagonal access, exact rank and axis permutation.

Operations are pure and values are treated as immutable; the only sanctioned
mutation is set_diagonal on a matrix the caller owns.
"""

import itertools
import math
import operator
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
    """Entrywise sum of the outer products; empty term list gives zero."""
    out = DenseTensor.zeros(t.ctx, t.dims)
    for term in t.terms:
        d = term.expand()
        out.entries = [t.ctx.add(a, b) for a, b in zip(out.entries, d.entries)]
    return out


def _contract_last_axis(ctx, entries, vec):
    """Sum entries against vec along the final axis, of length len(vec)."""
    inner = len(vec)
    return [
        ctx.dot(entries[base : base + inner], vec)
        for base in range(0, len(entries), inner)
    ]


def _inner_dense_factors(ctx, dense: DenseTensor, factors) -> Fel:
    entries = dense.entries
    for v in reversed(factors):
        entries = _contract_last_axis(ctx, entries, v)
    return entries[0]


def inner_product(t1, t2) -> Fel:
    """<T1, T2>: sum of entrywise products; factored shortcut when possible.

    A LowRankTensor operand is expanded first.
    """
    ctx = t1.ctx
    if ctx != t2.ctx:
        raise ShapeMismatch("inner product requires a common field")
    if t1.dims != t2.dims:
        raise ShapeMismatch(f"shape {t1.dims} vs {t2.dims}")
    if isinstance(t1, LowRankTensor):
        t1 = expand(t1)
    if isinstance(t2, LowRankTensor):
        t2 = expand(t2)
    if isinstance(t1, Rank1Tensor) and isinstance(t2, Rank1Tensor):
        out = ctx.one
        for u, v in zip(t1.factors, t2.factors):
            out = ctx.mul(out, ctx.dot(u, v))
        return out
    if isinstance(t1, Rank1Tensor):
        return _inner_dense_factors(ctx, t2, t1.factors)
    if isinstance(t2, Rank1Tensor):
        return _inner_dense_factors(ctx, t1, t2.factors)
    return ctx.dot(t1.entries, t2.entries)


def eval_fT(t: DenseTensor, vectors: list[tuple[Fel, ...]]) -> Fel:
    """The multilinear form of t at the given vectors: <T, a_1 x ... x a_d>."""
    if len(vectors) != len(t.dims):
        raise ShapeMismatch("one vector per axis required")
    for v, n in zip(vectors, t.dims):
        if len(v) != n:
            raise ShapeMismatch("vector length does not match axis")
    return _inner_dense_factors(t.ctx, t, vectors)


def eval_fhat(t: DenseTensor, xs: list[Fel]) -> Fel:
    """The polynomial of t at scalars xs: eval_fT at moment vectors (1, x, x^2, ...).

    Folds one axis at a time with Horner's rule, so no moment vector is
    materialized.
    """
    ctx = t.ctx
    if len(xs) != len(t.dims):
        raise ShapeMismatch("one scalar per axis required")
    entries = t.entries
    dims = list(t.dims)
    for x in reversed(xs):
        inner = dims.pop()
        entries = [
            ctx.horner(entries[base : base + inner], x)
            for base in range(0, len(entries), inner)
        ]
    return entries[0]


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


def _nonzeros(t: DenseTensor):
    """(index, entry) of each nonzero entry of t, in row-major order."""
    zero = t.ctx.zero
    for idx, e in zip(itertools.product(*map(range, t.dims)), t.entries):
        if e != zero:
            yield idx, e


def _placed(ctx: FieldCtx, dims: tuple[int, ...], items) -> DenseTensor:
    """The tensor of shape dims holding e at idx for each (idx, e) of items."""
    out = DenseTensor.zeros(ctx, dims)
    strides = [math.prod(dims[a + 1 :]) for a in range(len(dims))]
    for idx, e in items:
        out.entries[sum(map(operator.mul, idx, strides))] = e
    return out


def permute_axes(t: DenseTensor, perm: tuple[int, ...]) -> DenseTensor:
    """Axis permutation: output axis a is input axis perm[a]."""
    if sorted(perm) != list(range(len(t.dims))):
        raise ShapeMismatch(f"{perm} is not a permutation of the axes")
    return _placed(
        t.ctx,
        tuple(t.dims[p] for p in perm),
        ((tuple(idx[p] for p in perm), e) for idx, e in _nonzeros(t)),
    )


def nnz(t: DenseTensor) -> int:
    """Number of nonzero coefficients (monomials of the polynomial view)."""
    z = t.ctx.zero
    return sum(1 for e in t.entries if e != z)
