"""Hitting-set families for low-rank matrices and tensors, and the PIT test.

Families and their enumeration order (fixed so files and witnesses are
reproducible):

* ``B``        rank-1 matrices B[k,l][i,j] = a_k^i (g^l a_k)^j, for l < r and
               k < n+m-1; ordered l-major, k-minor.
* ``D``        improper, diagonal-supported: D[k,l][i,j] = g^(l j) on i+j = k;
               ordered k-major, l-minor, l < r.
* ``Dprime``   the linearly independent subfamily of D with
               l < min(r, k+1, (n+m)-(k+1)); same order.
* ``Bprime``   the subfamily of B with k <= (n+m-2)-2l; l-major, k-minor.
* ``TensorB``  rank-1 tensors whose axis-a factor is the moment vector of
               g^L(a) * a_k, where L is the exponent schedule below; ordered
               by the exponent index tuple (lexicographic, last coordinate
               fastest), then k < dn.
* ``Naive``    one indicator per position, row-major.
* ``SimImproper`` / ``SimProper``  base-field simulations of a family built
               over an extension; source-major, projection index minor.

Each family is decided here once, and ``lrr`` and ``rankcode`` read it:
``check_family`` is the one parameter domain.  Naive takes any shape;
TensorB takes [n]^d with d >= 2 and R >= 1; Dprime takes any matrix with
R >= 1 (rows past (n + m) // 2 measure nothing); B, Bprime and D take
n x m with 1 <= R <= n <= m, the paper's.  ``schedule`` derives the rest
once per (field class, field, family, shape, R): the one g, the alphas,
multipliers and block counts of the rank-1 families B, Bprime and TensorB,
the merge levels (a matrix is the one level), the ``Layout`` of cells each
level solves for (every cell of a matrix, each TensorB level's packed
lattice) with where those cells sit in the level's flat list, one weight
table per layout, as wide as its columns, and the packed Vandermonde and
Newton tables of the moment families.
``dprime_size`` counts D' and ``tensor_size`` counts TensorB without
building them.
``inner_products`` is the one scan of a family against a tensor: it
reuses the contractions of the trailing factors its members share.

The alphas are the first canonical nonzero field elements, so they are
distinct and nonzero; nonzero matters because downstream interpolation
divides by powers of evaluation points.

The exponent schedule ``L(n, b, k, ls)`` assigns padded variable position k
(0-based, k < 2^len(ls)) the exponent sum over the set bits of k of
ls[j-1] * (n 2^b)^(k >> j).  Real tensor axis a (0-based) occupies padded
position a; the padding positions d..2^b-1 are dummies of degree zero.
"""

import functools
import itertools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .errors import (
    NoNullspace,
    NotRank1,
    OrderTooSmall,
    ShapeMismatch,
)
from .field import Fel, FieldCtx, embed_as_matrix, make_prime_field
from .tensor import (
    DenseTensor,
    LowRankTensor,
    _contract_last_axis,
    _expand_outer,
    _inner_dense_factors,
    diag_bounds,
    diagonal,
    expand,
    set_diagonal,
)


@dataclass(frozen=True, slots=True)
class Measurement:
    """One inner-product functional, in whichever representation is natural.

    Exactly one of ``factors`` (rank-1 outer product), ``diag`` (k-diagonal
    support with weights ordered by increasing row), or ``entries`` (dense,
    row-major) is set.
    """

    k: int
    ls: tuple[int, ...]
    phi: tuple[int, ...] = ()
    factors: tuple[tuple[Fel, ...], ...] | None = None
    diag: tuple[int, tuple[Fel, ...]] | None = None
    entries: tuple[Fel, ...] | None = None

    def to_dense(self, ctx: FieldCtx, dims: tuple[int, ...]) -> DenseTensor:
        if self.entries is not None:
            return DenseTensor(ctx, dims, list(self.entries))
        if self.factors is not None:
            return DenseTensor(ctx, dims, _expand_outer(ctx, self.factors).entries)
        out = DenseTensor.zeros(ctx, dims)
        set_diagonal(out, *self.diag)
        return out

    def inner(self, ctx: FieldCtx, t) -> Fel:
        """<t, self> over ctx, the member's field (a base-field t is embedded)."""
        t = _in_field(t, ctx)
        if self.diag is not None:
            k, weights = self.diag
            return ctx.dot(diagonal(t, k), weights)
        if self.factors is not None:
            return _inner_dense_factors(ctx, t, self.factors)
        return ctx.dot(t.entries, self.entries)


@dataclass(frozen=True)
class MeasurementSet:
    """An ordered family of measurement tensors over a common field."""

    ctx: FieldCtx
    dims: tuple[int, ...]
    family: str
    r: int
    measurements: tuple[Measurement, ...]

    def __len__(self):
        return len(self.measurements)

    def dense_rows(self) -> list[list[Fel]]:
        """Each measurement flattened to a row vector (for stacked-rank checks)."""
        return [
            m.to_dense(self.ctx, self.dims).entries for m in self.measurements
        ]


def rank_preserver(
    ctx: FieldCtx, g: Fel, r: int, n: int, alpha: Fel
) -> DenseTensor:
    """The r x n matrix with entry (i, j) = (g^i * alpha)^j.

    For any full-column-rank M in F^(n x r), at most nr - r(r+1)/2 choices of
    alpha make rank(A M) < r, provided g has order >= n.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need n >= r >= 1, got r={r}, n={n}")
    if not ctx.order_at_least(g, n):
        raise OrderTooSmall(f"generator order < {n}")
    rows = []
    base = alpha
    for _ in range(r):
        rows.append(ctx.powers(base, n))
        base = ctx.mul(base, g)
    return DenseTensor.from_rows(ctx, rows)


FAMILIES = ("B", "D", "Dprime", "Bprime", "TensorB", "Naive")
MOMENT_FAMILIES = ("B", "Bprime", "TensorB")


def check_family(family: str, dims: tuple[int, ...], R: int) -> None:
    """Raise unless family is defined on dims at R (module docstring): an R below
    one raises ValueError before any shape is read, then a shape outside the
    family (or an empty axis) ShapeMismatch and an R outside the shape ValueError."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "Naive":
        return
    if R < 1:
        raise ValueError(f"need r >= 1, got r={R}")
    if family == "TensorB":
        if len(dims) < 2 or len(set(dims)) != 1:
            raise ShapeMismatch("TensorB requires shape [n]^d with d >= 2")
    elif len(dims) != 2:
        raise ShapeMismatch(f"family {family} is for matrices")
    elif family != "Dprime" and not R <= dims[0] <= dims[1]:
        raise ValueError(f"need m >= n >= r >= 1, got r={R}, n={dims[0]}, m={dims[1]}")
    if min(dims) < 1:
        raise ShapeMismatch(f"family {family} needs dimensions >= 1, got {dims}")


class Cells(NamedTuple):
    """The cells of a ``Layout`` on its k-diagonal, in column order.

    ``rows`` and ``cols`` are their positions in the layout (rows descend),
    ranges on a one-digit layout; ``at_rows`` and ``at_cols`` gather, in one
    call, the entries at those cells of a vector indexed by row and by
    column position (a weight row): a slice on a range.
    """

    k: int
    rows: Sequence[int]
    cols: Sequence[int]
    at_rows: Callable
    at_cols: Callable


@dataclass(frozen=True)
class Layout:
    """The cells of an n x m matrix that recovery solves for.

    ``rows`` and ``cols`` (ascending) are the rows and columns that may hold
    a nonzero entry; recovery stores its matrices over them, so position a
    stands for row rows[a].  ``diagonals`` holds the ``Cells`` of each
    diagonal that a cell lies on, in ascending k; recovery solves those and
    no other.  ``Layout.of`` builds every layout.
    """

    n: int
    m: int
    rows: Sequence[int]
    cols: Sequence[int]
    diagonals: tuple[Cells, ...]

    @classmethod
    def of(cls, us: Sequence[int], vs: Sequence[int], stride: int) -> "Layout":
        """The cells whose base-``stride`` digit t lies below us[t] in the row
        and below vs[t] in the column, positions counted digit 0 fastest; a
        plain n x m matrix is the one digit (n,), (m,).

        Each digit pair is a cell of a us[t] x vs[t] matrix, and stride >=
        us[t] + vs[t] - 1, so digits add without carries: diagonal k's cells
        are the products of one diagonal per digit, and enumerating those
        digit 0 fastest is ascending k.  Folded from digit 0, so a one-digit
        layout keeps ranges, and its gathers are slices.
        """
        rows, cols = range(us[0]), range(vs[0])
        diags = list(_digit_diagonals(us[0], vs[0]))
        step = 1
        for u, v in zip(us[1:], vs[1:]):
            step *= stride
            size, width = len(rows), len(cols)
            diags = [(k + kt * step, tuple([a + at * size for at in ra for a in a0]),
                      tuple([b + bt * width for bt in ca for b in b0]))
                     for kt, ra, ca in _digit_diagonals(u, v) for k, a0, b0 in diags]
            rows = tuple([x + a * step for a in range(u) for x in rows])
            cols = tuple([x + b * step for b in range(v) for x in cols])
        return cls(rows[-1] + 1, cols[-1] + 1, rows, cols,
                   tuple(Cells(k, a, b, _gather(a), _gather(b)) for k, a, b in diags))


def _digit_diagonals(u: int, v: int):
    """(k, rows, cols) of each k-diagonal of a u x v matrix, as ranges by column."""
    for k in range(u + v - 1):
        lo, hi = diag_bounds(u, v, k)
        yield k, range(hi, lo - 1, -1), range(k - hi, k - lo + 1)


def _gather(idx: Sequence[int]) -> Callable:
    """v -> the entries of v at idx, as a sequence: a slice when idx is a range."""
    if isinstance(idx, range):
        return operator.itemgetter(slice(idx.start, idx.stop if idx.stop >= 0 else None, idx.step))
    if len(idx) == 1:
        return operator.itemgetter(slice(idx[0], idx[0] + 1))
    return operator.itemgetter(*idx)


def packed(sizes: Sequence[int], steps: Sequence[int]) -> Sequence[int]:
    """Every sum_j a_j steps[j] with 0 <= a_j < sizes[j], digit 0 fastest: a
    range for one digit (steps[0] >= 1)."""
    out = range(0, sizes[0] * steps[0], steps[0])
    for size, step in zip(sizes[1:], steps[1:]):
        out = [x + a * step for a in range(size) for x in out]
    return out


@dataclass(frozen=True)
class Schedule:
    """Everything a family derives from (field, family, shape, R), built once.

    ``g`` is the generator.  Block ``(ls, mults, count)`` of a moment family
    (B, Bprime, TensorB) lists, in family order, the members (k, ls) for
    k < count, whose axis-a factor is the moment vector of mults[a] *
    alphas[k]: member (k, ls) evaluates sum_idx T[idx] prod_a mults[a]^idx_a
    x^(sum idx) at alphas[k].  Merge level i + 1 merges the variables of
    sizes ``levels[i]`` in pairs, 2j (rows) and 2j + 1 (columns) into j,
    packed in base ``stride``: a matrix is one level, its shape (n, m), with
    stride n + m - 1; TensorB's first level is the padded [n]^d, with stride
    n 2^b.  ``layouts[i]`` (``Layout.of``) holds the cells level i + 1
    solves for: every cell of a matrix; for TensorB the packed lattice whose
    row (column) digits lie below the sizes of the even (odd) variables, the
    only cells a merged matrix can fill, and whose ``diagonals`` are the
    cells of the level above.  ``places[i]`` = (row_at, col_at) puts cell
    (a, b) at row_at[a] + col_at[b] of the level's flat list: the tensor,
    row-major, at level 1; above it a coefficient list, one per diagonal of
    the level below, which is digit 0 fastest.  ``gathers[i]`` read each
    diagonal's entries from it by column, a strided slice on a one-digit
    layout.  ``tables[i]``, the weight table of ``layouts[i]``, has
    ``table_rows`` rows indexed by column position: entry (l, b) is
    g^(l cols[b]).  A matrix's rows are D' at R, without the rows l >=
    (n + m) // 2 that measure nothing; TensorB has R rows.
    ``packed_tables[i]`` is ``tables[i]`` bundled by ``ctx.pack`` for
    ``ctx.dots``.  The moment families read two more: ``vandermonde`` packs
    the rows (alphas[k]^i)_i for i <= sum(dims) - d, and ``newton`` is
    ``linalg.newton_tables`` of the alphas, which every interpolation on a
    prefix of them reads.  Every table and layout is built on first read.
    """

    ctx: FieldCtx
    dims: tuple[int, ...]
    g: Fel
    table_rows: int
    alphas: tuple[Fel, ...]
    blocks: tuple[tuple[tuple[int, ...], tuple[Fel, ...], int], ...]
    stride: int
    levels: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def tables(self) -> tuple[tuple[tuple[Fel, ...], ...], ...]:
        rows = self.ctx.powers(self.g, self.table_rows)
        return tuple(tuple(_powers_at(self.ctx, gl, layout.cols) for gl in rows)
                     for layout in self.layouts)

    @functools.cached_property
    def packed_tables(self) -> tuple[list, ...]:
        return tuple(map(self.ctx.pack, self.tables))

    @functools.cached_property
    def vandermonde(self) -> list:
        deg = sum(self.dims) - len(self.dims)
        return self.ctx.pack([self.ctx.powers(a, deg + 1) for a in self.alphas])

    @functools.cached_property
    def newton(self) -> tuple:
        return linalg.newton_tables(self.ctx, self.alphas)

    @functools.cached_property
    def layouts(self) -> tuple[Layout, ...]:
        return tuple(Layout.of(tgt[0::2], tgt[1::2], self.stride) for tgt in self.levels)

    @functools.cached_property
    def places(self) -> tuple[tuple[Sequence[int], Sequence[int]], ...]:
        out = []
        for i, tgt in enumerate(self.levels):
            steps = [math.prod(tgt[a + 1 :] if i == 0 else tgt[:a]) for a in range(len(tgt))]
            out.append((packed(tgt[0::2], steps[0::2]), packed(tgt[1::2], steps[1::2])))
        return tuple(out)

    @functools.cached_property
    def gathers(self) -> tuple[tuple[Callable, ...], ...]:
        return tuple(tuple(_gather(_diagonal_places(*places, cells)) for cells in layout.diagonals)
                     for layout, places in zip(self.layouts, self.places))


def _diagonal_places(row_at: Sequence[int], col_at: Sequence[int], cells: Cells) -> Sequence[int]:
    """row_at[a] + col_at[b] for each cell (a, b) of ``cells``, by column: a range
    when all four are ranges, which a one-digit layout's are."""
    if all(isinstance(x, range) for x in (row_at, col_at, cells.rows, cells.cols)):
        start = row_at[cells.rows[0]] + col_at[cells.cols[0]]
        step = row_at.step * cells.rows.step + col_at.step * cells.cols.step or 1
        return range(start, start + step * len(cells.cols), step)
    return [row_at[a] + col_at[b] for a, b in zip(cells.rows, cells.cols)]


def _powers_at(ctx: FieldCtx, x: Fel, cols: Sequence[int]) -> tuple[Fel, ...]:
    """(x^j for j in cols), cols ascending from 0: one mul per column past the
    first, by x or, past a gap, by a pow of it."""
    out = [ctx.one]
    for i, j in zip(cols, cols[1:]):
        out.append(ctx.mul(x if j - i == 1 else ctx.pow(x, j - i), out[-1]))
    return tuple(out)


def schedule(ctx: FieldCtx, family: str, dims, R: int) -> Schedule:
    """The schedule of family on dims at R, after ``check_family``: g has order
    >= (2dn)^d for TensorB on [n]^d, else >= m.  Built once per (field
    class, field, family, shape, R), so list or tuple dims share it; a
    TableField and the ring on its modulus are equal but pack differently,
    so each gets its own."""
    return _schedule(ctx, family, tuple(dims), R)


@functools.lru_cache(maxsize=32, typed=True)  # typed: keyed on type(ctx) too
def _schedule(ctx: FieldCtx, family: str, dims: tuple[int, ...], R: int) -> Schedule:
    check_family(family, dims, R)
    if family == "Naive":
        raise ValueError("family Naive has no schedule")
    alphas, blocks, levels, count = [], [], [], R
    if family == "TensorB":
        d, n = len(dims), dims[0]
        b = (d - 1).bit_length()
        g = ctx.element_of_order((2 * d * n) ** d)
        alphas = ctx.first_elements(d * n)
        blocks = [(ls, tuple(ctx.pow(g, L(n, b, a, ls)) for a in range(d)), d * n)
                  for ls in itertools.product(range(R), repeat=b)]
        stride = n << b
        sizes = [n] * d + [1] * ((1 << b) - d)
        for _ in range(b):  # merge variables 2j (rows) and 2j + 1 (columns) into j
            levels.append(tuple(sizes))
            sizes = [u + v - 1 for u, v in zip(sizes[::2], sizes[1::2])]
    else:
        n, m = dims
        stride, levels = n + m - 1, [dims]  # the one level: the matrix's own cells
        g = ctx.element_of_order(m)
        count = min(R, (n + m) // 2)
        if family in MOMENT_FAMILIES:
            alphas = ctx.first_elements(n + m - 1)
            shrink = 2 if family == "Bprime" else 0  # B' drops 2l points from block l
            blocks = [((l,), (ctx.one, ctx.pow(g, l)), (n + m - 1) - shrink * l)
                      for l in range(R)]
    return Schedule(ctx, dims, g, count, tuple(alphas), tuple(blocks), stride,
                    tuple(levels))


def _moment_family(
    ctx: FieldCtx, family: str, dims: tuple[int, ...], r: int
) -> MeasurementSet:
    s = schedule(ctx, family, dims, r)
    moments = {}  # (multiplier, k): the moment vector of mult * alpha_k, cut per axis
    meas = []
    for ls, mults, count in s.blocks:
        for k, a in enumerate(s.alphas[:count]):
            factors = []
            for mult, size in zip(mults, dims):
                vec = moments.get((mult, k))
                if vec is None:
                    vec = moments[mult, k] = tuple(ctx.powers(ctx.mul(mult, a), max(dims)))
                factors.append(vec[:size])
            meas.append(Measurement(k=k, ls=ls, factors=tuple(factors)))
    return MeasurementSet(ctx, tuple(dims), family, r, tuple(meas))


def hitting_set_B(ctx: FieldCtx, r: int, n: int, m: int) -> MeasurementSet:
    """(n+m-1)r rank-1 matrices: r polynomials interpolated at n+m-1 points."""
    return _moment_family(ctx, "B", (n, m), r)


def hitting_set_B_prime(ctx: FieldCtx, r: int, n: int, m: int) -> MeasurementSet:
    """The (n+m-r)r linearly independent subfamily of B (k <= (n+m-2)-2l)."""
    return _moment_family(ctx, "Bprime", (n, m), r)


def diag_row_count(r: int, n: int, m: int, k: int) -> int:
    """How many rows l < r of the diagonal family D' measure the k-diagonal."""
    return min(r, k + 1, (n + m) - (k + 1))


def dprime_size(n: int, m: int, R: int) -> int:
    """Members of D' at R on n x m: row l measures the n+m-1-2l diagonals l..n+m-2-l."""
    rows = max(0, min(R, (n + m) // 2))
    return (n + m - rows) * rows


def tensor_size(d: int, n: int, R: int) -> int:
    """Members of TensorB at R on [n]^d: dn points per exponent index in [R]^ceil(lg d)."""
    return d * n * R ** (d - 1).bit_length()


def _diagonal_family(
    ctx: FieldCtx, family: str, dims: tuple[int, ...], r: int
) -> MeasurementSet:
    s = schedule(ctx, family, dims, r)
    n, m = dims  # only after the schedule has checked the shape
    meas = []
    for cells in s.layouts[0].diagonals:  # every cell, so every diagonal
        k = cells.k
        count = r if family == "D" else diag_row_count(r, n, m, k)
        for l, row in enumerate(s.tables[0][:count]):
            weights = tuple(reversed(cells.at_cols(row)))  # by row: columns descend
            meas.append(Measurement(k=k, ls=(l,), diag=(k, weights)))
    return MeasurementSet(ctx, (n, m), family, r, tuple(meas))


def hitting_set_D(ctx: FieldCtx, r: int, n: int, m: int) -> MeasurementSet:
    """(n+m-1)r n-sparse matrices, each supported on one k-diagonal."""
    return _diagonal_family(ctx, "D", (n, m), r)


def hitting_set_D_prime(ctx: FieldCtx, r: int, n: int, m: int) -> MeasurementSet:
    """The (n+m-r)r linearly independent subfamily of D."""
    return _diagonal_family(ctx, "Dprime", (n, m), r)


def L(n: int, b: int, k: int, indices: tuple[int, ...]) -> int:
    """Exponent schedule of the variable-merging reduction.

    Sums indices[j-1] * (n 2^b)^(k >> j) over the set bits j-1 of the padded
    variable position k.  Values grow like (n 2^b)^(2^(d-1)); exact integers
    throughout.
    """
    d = len(indices)
    if not 0 <= k < (1 << d):
        raise ValueError(f"position {k} out of range for {d} index slots")
    base = n << b
    total = 0
    for j in range(1, d + 1):
        if (k >> (j - 1)) & 1:
            total += indices[j - 1] * base ** (k >> j)
    return total


def hitting_set_tensor(ctx: FieldCtx, d: int, n: int, r: int) -> MeasurementSet:
    """dn * r^ceil(lg d) rank-1 tensors of shape [n]^d.

    Axis a (0-based) of the (k, ls) measurement is the moment vector of
    g^L(n, b, a, ls) * alpha_k, with b = ceil(lg d).  Requires an element of
    order >= (2dn)^d, so small base fields must extend first.
    """
    return _moment_family(ctx, "TensorB", (n,) * d, r)


def naive_set(ctx: FieldCtx, dims: tuple[int, ...]) -> MeasurementSet:
    """All position indicators; the trivial full-recovery family."""
    dims = tuple(dims)
    meas = []
    for flat, idx in enumerate(itertools.product(*[range(n) for n in dims])):
        factors = []
        for a, n in enumerate(dims):
            v = [ctx.zero] * n
            v[idx[a]] = ctx.one
            factors.append(tuple(v))
        meas.append(Measurement(k=flat, ls=(), factors=tuple(factors)))
    return MeasurementSet(ctx, dims, "Naive", 0, tuple(meas))


# ---------------------------------------------------------------------------
# small-field simulation
# ---------------------------------------------------------------------------


def simulate_improper(h: MeasurementSet) -> MeasurementSet:
    """Project an extension-field family onto base coordinates.

    Each source measurement yields k base-field measurements (its
    coordinate projections); sparsity patterns survive.  Degree-1 input is
    returned unchanged.
    """
    k = h.ctx.k
    if k == 1:
        return h
    base = make_prime_field(h.ctx.p)
    meas = []
    for src in h.measurements:
        if src.diag is not None:
            dk, weights = src.diag
            for l in range(k):
                proj = tuple(w[l] for w in weights)
                meas.append(
                    Measurement(k=src.k, ls=src.ls, phi=(l,), diag=(dk, proj))
                )
        else:
            dense = src.to_dense(h.ctx, h.dims)
            for l in range(k):
                proj = tuple(e[l] for e in dense.entries)
                meas.append(
                    Measurement(k=src.k, ls=src.ls, phi=(l,), entries=proj)
                )
    return MeasurementSet(base, h.dims, "SimImproper", h.r, tuple(meas))


def simulate_proper(h: MeasurementSet) -> MeasurementSet:
    """Rank-1-preserving base-field simulation via multiplication matrices.

    Each rank-1 source over GF(p^k) yields k^d base measurements indexed by
    (l_0, ..., l_(d-1)); axis a takes entry (l_a, l_(a+1)) of the factor
    coordinates' multiplication matrices, with l_d pinned to 0.  Some outputs
    may degenerate to zero tensors; they are kept so counts stay exact.
    """
    k = h.ctx.k
    if k == 1:
        return h
    if any(m.factors is None for m in h.measurements):
        raise NotRank1(f"family {h.family} is not rank-1; use simulate_improper")
    base = make_prime_field(h.ctx.p)
    d = len(h.dims)
    coords = {c for src in h.measurements for factor in src.factors for c in factor}
    flat = {c: sum(embed_as_matrix(h.ctx, c), []) for c in coords}  # row-major matrices
    meas = []
    for src in h.measurements:
        # sel[a][u*k + v]: entry (u, v) of every coordinate of factor a
        sel = [tuple(zip(*[flat[c] for c in factor])) for factor in src.factors]
        for ls in itertools.product(range(k), repeat=d):
            pins = ls + (0,)
            factors = tuple(sel[a][pins[a] * k + pins[a + 1]] for a in range(d))
            meas.append(Measurement(k=src.k, ls=src.ls, phi=ls, factors=factors))
    return MeasurementSet(base, h.dims, "SimProper", h.r, tuple(meas))


def combine_simulated_syndromes(
    ext_ctx: FieldCtx, syndromes: list[Fel]
) -> list[Fel]:
    """Reassemble extension-field syndromes from improper-simulation ones.

    The projections are the power-basis coordinates, so each group of
    k = ext_ctx.k consecutive base values is exactly one extension element.
    """
    k = ext_ctx.k
    if k == 1:
        return list(syndromes)
    if len(syndromes) % k:
        raise ShapeMismatch("syndrome count is not a multiple of the degree")
    return [
        tuple(syndromes[i : i + k]) for i in range(0, len(syndromes), k)
    ]


# ---------------------------------------------------------------------------
# the PIT predicate and hard-tensor extraction
# ---------------------------------------------------------------------------


def family_tensor(t, h: MeasurementSet) -> DenseTensor:
    """t as a dense tensor over h's field (a base-field t is embedded).

    Raises ShapeMismatch when t's shape differs from h's or its field does
    not embed in h's.
    """
    if t.dims != h.dims:
        raise ShapeMismatch(f"tensor shape {t.dims} vs family shape {h.dims}")
    return _in_field(t, h.ctx)


def _in_field(t, ctx: FieldCtx) -> DenseTensor:
    """t as a dense tensor over ctx: a tensor over ctx's prime field is embedded.

    Raises ShapeMismatch for any other field.
    """
    if isinstance(t, LowRankTensor):
        t = expand(t)
    if t.ctx == ctx:
        return t
    if t.ctx.p != ctx.p or t.ctx.k != 1:
        raise ShapeMismatch("tensor field does not embed in the family field")
    return DenseTensor(ctx, t.dims, [ctx.scalar(e) for e in t.entries])


def inner_products(t, h: MeasurementSet):
    """Yield <t, m> for each member m of h, in family order, as it is read.

    t is taken to h's field (``family_tensor``).  A factored member
    contracts t from its last axis inward, and each partial contraction is
    kept for this scan, keyed by the trailing factors it used: members that
    share them (k per source and axis-1 row of a proper simulation) reuse it.
    """
    t = family_tensor(t, h)
    ctx, memo = h.ctx, {(): t.entries}
    for m in h.measurements:
        f = m.factors
        if f is None:
            yield m.inner(ctx, t)
            continue
        j = next(i for i in range(1, len(f) + 1) if f[i:] in memo)  # longest suffix first
        part = memo[f[j:]]
        for i in range(j - 1, 0, -1):
            part = memo[f[i:]] = _contract_last_axis(ctx, part, f[i])
        yield ctx.dot(part, f[0])


def first_witness(t, h: MeasurementSet) -> int | None:
    """Index of the first measurement with nonzero inner product, else None:
    one ``inner_products`` scan, reusing trailing-factor contractions, stopped there."""
    zero = h.ctx.zero
    return next((i for i, v in enumerate(inner_products(t, h)) if v != zero), None)


def pit_test(t, h: MeasurementSet) -> bool:
    """True iff some measurement detects t.

    A False answer proves t = 0 only under the family's rank promise.
    """
    return first_witness(t, h) is not None


def hard_tensor(h: MeasurementSet) -> DenseTensor:
    """A nonzero tensor annihilated by every measurement in h.

    When h is a hitting set for rank <= r, the result is a certified
    rank > r tensor.  Free variables of the elimination are set to
    (1, 0, 0, ...), so the output is deterministic.
    """
    rows = h.dense_rows()
    ncols = 1
    for n in h.dims:
        ncols *= n
    basis = linalg.nullspace_basis(h.ctx, rows, ncols)
    if not basis:
        raise NoNullspace("measurement system has full rank")
    return DenseTensor(h.ctx, h.dims, basis[0])


def generate_family(
    ctx: FieldCtx, family: str, dims: tuple[int, ...], r: int
) -> MeasurementSet:
    """The family on dims at r, built and checked by its kind: Naive, moment or diagonal."""
    if family == "Naive":
        return naive_set(ctx, dims)
    if family in MOMENT_FAMILIES:
        return _moment_family(ctx, family, dims, r)
    return _diagonal_family(ctx, family, dims, r)
