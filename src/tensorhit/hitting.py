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
               g^L(a) * a_k, with L the exponent schedule ``L``; ordered
               by the exponent index tuple (lexicographic, last coordinate
               fastest), then k < dn.
* ``Naive``    one indicator per position, row-major.
* ``SimImproper`` / ``SimProper``  base-field simulations of a family built
               over an extension; source-major, projection index minor.

Each family is decided here once, and ``lrr`` and ``rankcode`` read it:
``check_family`` is its parameter domain and ``schedule`` everything
derived from (field, family, shape, R).  The alphas are the first
canonical nonzero field elements, so distinct and nonzero.
"""

import functools
import itertools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from . import linalg, sparse
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
    _expand_outer,
    diag_bounds,
    diagonal,
    eval_fT,
    expand,
    set_diagonal,
)


class Measurement(NamedTuple):
    """One inner-product functional, in whichever representation is natural.

    Exactly one of ``factors`` (rank-1 outer product), ``diag`` (k-diagonal
    support with weights ordered by increasing row), or ``entries`` (dense,
    row-major) is set.  A named tuple: it equals the tuple of its fields,
    and ``_replace`` makes a copy with some of them changed.
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
            return eval_fT(t, self.factors)
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


SCHEDULED_FAMILIES = ("B", "D", "Dprime", "Bprime", "TensorB")
FAMILIES = SCHEDULED_FAMILIES + ("Naive",)
MOMENT_FAMILIES = ("B", "Bprime", "TensorB")


def check_family(family: str, dims: tuple[int, ...], R: int) -> None:
    """Raise unless family is defined on dims at R.

    Naive takes any shape; TensorB [n]^d with d >= 2; Dprime any matrix (rows
    past (n + m) // 2 measure nothing); B, Bprime and D n x m with R <= n <=
    m, the paper's.  An R below one raises ValueError before any shape is
    read, then a shape outside the family (or an empty axis) ShapeMismatch
    and an R outside the shape ValueError.
    """
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

    ``rows`` and ``cols`` are their positions in the layout (rows descend);
    ``at_rows`` and ``at_cols`` gather the entries at those cells of a
    vector indexed by row and by column position.
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
    a nonzero entry, so position a stands for row rows[a].  ``diagonals``
    holds the ``Cells`` of each diagonal a cell lies on, in ascending k.
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
        plain n x m matrix is the one digit (n,), (m,).  Needs stride >=
        us[t] + vs[t] - 1, so that digits add without carries.  A one-digit
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
    lists the members (k, ls), k < count, in family order: member (k, ls)
    evaluates sum_idx T[idx] prod_a mults[a]^idx_a x^(sum idx) at alphas[k].
    D and D' have no blocks.  ``counts[k]`` of a matrix family is how many
    table rows measure diagonal k: ``diag_row_count`` for D', ``table_rows``
    for the others; it is empty for TensorB.
    Merge level i + 1 merges the variables of sizes ``levels[i]`` in pairs,
    2j (rows) and 2j + 1 (columns) into j, in base ``stride``; a matrix is
    the one level.  ``layouts[i]`` holds the cells level i + 1 solves for,
    ``places[i]`` = (row_at, col_at) puts cell (a, b) at row_at[a] +
    col_at[b] of the level's flat list (the tensor, row-major, at level 1),
    and ``gathers[i]`` read each diagonal's entries from that list.
    ``tables[i]`` is the ``WeightTable`` of ``layouts[i]``, ``table_rows``
    rows with entry (l, b) g^(l cols[b]): every recovery on the schedule
    reads its packed rows and shares the square inverses it keeps.
    ``vandermonde`` packs the rows
    (alphas[k]^i)_i, i <= sum(dims) - d, and ``newton`` is
    ``linalg.newton_tables`` of the alphas.  Tables and layouts are built on
    first read.
    """

    ctx: FieldCtx
    dims: tuple[int, ...]
    g: Fel
    table_rows: int
    counts: tuple[int, ...]
    alphas: tuple[Fel, ...]
    blocks: tuple[tuple[tuple[int, ...], tuple[Fel, ...], int], ...]
    stride: int
    levels: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def tables(self) -> tuple["WeightTable", ...]:
        rows = self.ctx.powers(self.g, self.table_rows)
        return tuple(WeightTable(self.ctx, layout,
                                 tuple(_powers_at(self.ctx, gl, layout.cols) for gl in rows))
                     for layout in self.layouts)

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


@dataclass(frozen=True)
class WeightTable:
    """The weights a ``Layout``'s diagonals are measured with, over ctx.

    ``rows[l][b]`` weighs column position b in row l: row 0 is all ones and
    row l is row 1 to the power l, so row 1 holds the points g^cols[b].
    ``packed`` is ``ctx.pack(rows)``, built on first read.  ``inverse(i)``
    is the packed L x L inverse of diagonal i's square system, L its cell
    count: x = ``ctx.dots(y[:L], inverse(i), L)`` is the x with
    <x, row l on the diagonal's cells> = y[l] for l < L.  Each inverse is
    built on first call (``sparse.vandermonde_inverse``, O(L^2)) and kept;
    points that coincide raise InconsistentSyndrome then.  Rows not all as
    wide as the layout's columns raise ShapeMismatch.
    """

    ctx: FieldCtx
    layout: Layout
    rows: tuple[tuple[Fel, ...], ...]
    _inverses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        width = len(self.layout.cols)
        if {len(row) for row in self.rows} != {width}:
            raise ShapeMismatch(f"table rows must be {width} wide, one entry per layout column")

    @functools.cached_property
    def packed(self) -> list:
        return self.ctx.pack(self.rows)

    def inverse(self, i: int) -> list:
        inverse = self._inverses.get(i)
        if inverse is None:
            cells = self.layout.diagonals[i]
            row = self.rows[1 if len(cells.cols) > 1 else 0]  # one cell takes any point
            inverse = sparse.vandermonde_inverse(self.ctx, cells.at_cols(row))
            inverse = self._inverses[i] = self.ctx.pack(inverse)
        return inverse


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
    >= (2dn)^d for TensorB on [n]^d, else >= m.  Cached per (field class,
    field, family, shape, R)."""
    return _schedule(ctx, family, tuple(dims), R)


@functools.lru_cache(maxsize=32, typed=True)  # typed: keyed on type(ctx) too
def _schedule(ctx: FieldCtx, family: str, dims: tuple[int, ...], R: int) -> Schedule:
    check_family(family, dims, R)
    if family == "Naive":
        raise ValueError("family Naive has no schedule")
    alphas, blocks, levels, count, counts = [], [], [], R, []
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
        counts = [diag_row_count(R, n, m, k) if family == "Dprime" else count
                  for k in range(n + m - 1)]
        if family in MOMENT_FAMILIES:
            alphas = ctx.first_elements(n + m - 1)
            shrink = 2 if family == "Bprime" else 0  # B' drops 2l points from block l
            blocks = [((l,), (ctx.one, ctx.pow(g, l)), (n + m - 1) - shrink * l)
                      for l in range(R)]
    return Schedule(ctx, dims, g, count, tuple(counts), tuple(alphas), tuple(blocks),
                    stride, tuple(levels))


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
    meas = []
    for cells, count in zip(s.layouts[0].diagonals, s.counts):  # every cell, so every diagonal
        k = cells.k
        for l, row in enumerate(s.tables[0].rows[:count]):
            weights = tuple(reversed(cells.at_cols(row)))  # by row: columns descend
            meas.append(Measurement(k=k, ls=(l,), diag=(k, weights)))
    return MeasurementSet(ctx, s.dims, family, r, tuple(meas))


def hitting_set_D(ctx: FieldCtx, r: int, n: int, m: int) -> MeasurementSet:
    """(n+m-1)r n-sparse matrices, each supported on one k-diagonal."""
    return _diagonal_family(ctx, "D", (n, m), r)


def hitting_set_D_prime(ctx: FieldCtx, r: int, n: int, m: int) -> MeasurementSet:
    """The (n+m-r)r linearly independent subfamily of D."""
    return _diagonal_family(ctx, "Dprime", (n, m), r)


def L(n: int, b: int, k: int, indices: tuple[int, ...]) -> int:
    """Exponent schedule of the variable-merging reduction: the sum of
    indices[j-1] * (n 2^b)^(k >> j) over the set bits j-1 of the padded
    variable position k (axis a is position a; positions d.. are dummies)."""
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
    phis = [(l,) for l in range(k)]
    meas = []
    for src in h.measurements:
        if src.diag is not None:
            dk, weights = src.diag
            meas += [Measurement(src.k, src.ls, phi, diag=(dk, proj))
                     for phi, proj in zip(phis, zip(*weights))]
        else:
            entries = src.to_dense(h.ctx, h.dims).entries
            meas += [Measurement(src.k, src.ls, phi, entries=proj)
                     for phi, proj in zip(phis, zip(*entries))]
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
    phis = list(itertools.product(range(k), repeat=d))
    pins = [phi + (0,) for phi in phis]  # axis a of member phi reads entry (phi[a], phi[a + 1])
    picks = [operator.itemgetter(*[pin[a] * k + pin[a + 1] for pin in pins]) for a in range(d)]
    meas = []
    for src in h.measurements:
        # axis a, before its pick: entry u * k + v is entry (u, v) of each coordinate
        axes = [pick(tuple(zip(*map(flat.__getitem__, factor))))
                for pick, factor in zip(picks, src.factors)]
        meas += [Measurement(src.k, src.ls, phi, factors)
                 for phi, factors in zip(phis, zip(*axes))]
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

    t is taken to h's field (``family_tensor``), and each member is one
    ``dot`` with a part of t read from a memo: t's entries for a dense member,
    t's k-diagonal for a k-diagonal one, t contracted with the trailing
    factors f[1:] for a factored one.  A run not seen before is contracted
    axis by axis, each axis one ``FieldCtx.dots`` over the rows of the part
    below it, packed once per scan (``_packed_part``).
    """
    t = family_tensor(t, h)
    ctx, memo, packs = h.ctx, {(): t.entries}, {}  # memo: k or f[1:] -> the part it reads
    for m in h.measurements:
        f = m.factors
        if f is None:  # a dense member reads the part of key (), t's entries
            k, weights = m.diag or ((), m.entries)
            part = memo.get(k)
            if part is None:
                part = memo[k] = diagonal(t, k)
            yield ctx.dot(part, weights)
            continue
        part = memo.get(f[1:])
        if part is None:
            part = memo[f[1:]] = ctx.dots(f[1], _packed_part(ctx, t, packs, f[2:]), t.dims[0])
        yield ctx.dot(part, f[0])


def _packed_part(ctx: FieldCtx, t: DenseTensor, packs: dict, s: tuple) -> list:
    """The rows of t contracted with the trailing factors s, packed; memo ``packs``."""
    rows = packs.get(s)
    if rows is None:
        part = (ctx.dots(s[0], _packed_part(ctx, t, packs, s[1:]), math.prod(t.dims[: -len(s)]))
                if s else t.entries)
        rows = packs[s] = ctx.pack(zip(*[iter(part)] * t.dims[-len(s) - 1]))
    return rows


def first_witness(t, h: MeasurementSet) -> int | None:
    """Index of the first measurement with nonzero inner product, else None."""
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
    basis = linalg.nullspace_basis(h.ctx, rows, math.prod(h.dims))
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
