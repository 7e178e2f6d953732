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

``moment_schedule`` is the one definition of the alphas and multipliers of
the rank-1 families B, Bprime and TensorB; their builders and
``lrr.measure_moments`` both read it.

The alphas are the first canonical nonzero field elements, so they are
distinct and nonzero; nonzero matters because downstream interpolation
divides by powers of evaluation points.

The exponent schedule ``L(n, b, k, ls)`` assigns padded variable position k
(0-based, k < 2^len(ls)) the exponent sum over the set bits of k of
ls[j-1] * (n 2^b)^(k >> j).  Real tensor axis a (0-based) occupies padded
position a; the padding positions d..2^b-1 are dummies of degree zero.
"""

import itertools
from dataclasses import dataclass, field

from . import linalg
from .errors import (
    FieldTooSmall,
    NoNullspace,
    NotRank1,
    OrderTooSmall,
    OrderUnreachable,
    ShapeMismatch,
)
from .field import Fel, FieldCtx, embed_as_matrix, make_prime_field
from .tensor import (
    DenseTensor,
    LowRankTensor,
    _inner_dense_factors,
    diag_bounds,
    diagonal,
    expand,
)


def moment_vector(ctx: FieldCtx, x: Fel, count: int) -> tuple[Fel, ...]:
    """(1, x, x^2, ..., x^(count-1))."""
    return tuple(ctx.powers(x, count))


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
            entries = [ctx.one]
            for v in self.factors:
                entries = [ctx.mul(e, c) for e in entries for c in v]
            return DenseTensor(ctx, dims, entries)
        k, weights = self.diag
        out = DenseTensor.zeros(ctx, dims)
        n, m = dims
        lo, hi = diag_bounds(n, m, k)
        for t, i in enumerate(range(lo, hi + 1)):
            out[i, k - i] = weights[t]
        return out

    def inner(self, ctx: FieldCtx, t) -> Fel:
        if isinstance(t, LowRankTensor):
            t = expand(t)
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
    base_family: str | None = None
    ext_degree: int = 1
    params: tuple = field(default=())

    def __len__(self):
        return len(self.measurements)

    def dense_rows(self) -> list[list[Fel]]:
        """Each measurement flattened to a row vector (for stacked-rank checks)."""
        return [
            m.to_dense(self.ctx, self.dims).entries for m in self.measurements
        ]


def _element_of_order(ctx: FieldCtx, bound: int) -> Fel:
    try:
        return ctx.element_of_order(bound)
    except OrderUnreachable as e:
        raise FieldTooSmall(str(e)) from e


def _check_matrix_params(r: int, n: int, m: int) -> None:
    if not 1 <= r <= n <= m:
        raise ValueError(f"need m >= n >= r >= 1, got r={r}, n={n}, m={m}")


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
        rows.append(list(moment_vector(ctx, base, n)))
        base = ctx.mul(base, g)
    return DenseTensor.from_rows(ctx, rows)


MOMENT_FAMILIES = ("B", "Bprime", "TensorB")


def moment_schedule(
    ctx: FieldCtx, family: str, dims: tuple[int, ...], r: int
) -> tuple[list[Fel], list[tuple[tuple[int, ...], tuple[Fel, ...], int]]]:
    """Evaluation points and multipliers of a rank-1 moment family.

    Returns ``(alphas, blocks)``; each block ``(ls, mults, count)`` lists, in
    family order, the members (k, ls) for k < count, whose axis-a factor is
    the moment vector of mults[a] * alphas[k].  So member (k, ls) evaluates
    the polynomial sum_idx T[idx] prod_a mults[a]^idx_a x^(sum idx) at
    alphas[k].  ``family`` is ``B``, ``Bprime`` (dims (n, m), multipliers
    (1, g^l)) or ``TensorB`` (dims [n]^d, multipliers g^L(n, b, a, ls)).
    """
    if family not in MOMENT_FAMILIES:
        raise ValueError(f"family {family} is not a rank-1 moment family")
    if family == "TensorB":
        d = len(dims)
        n = dims[0] if dims else 0
        if d < 2 or n < 1 or r < 1:
            raise ValueError(f"need d >= 2, n >= 1, r >= 1, got d={d}, n={n}, r={r}")
        b = (d - 1).bit_length()
        g = _element_of_order(ctx, (2 * d * n) ** d)
        alphas = ctx.first_elements(d * n)
        blocks = [
            (ls, tuple(ctx.pow(g, L(n, b, a, ls)) for a in range(d)), d * n)
            for ls in itertools.product(range(r), repeat=b)
        ]
        return alphas, blocks
    n, m = dims
    _check_matrix_params(r, n, m)
    g = _element_of_order(ctx, m)
    alphas = ctx.first_elements(n + m - 1)
    shrink = 2 if family == "Bprime" else 0  # B' drops 2l points from block l
    blocks = [
        ((l,), (ctx.one, ctx.pow(g, l)), (n + m - 1) - shrink * l) for l in range(r)
    ]
    return alphas, blocks


def _moment_family(
    ctx: FieldCtx, family: str, dims: tuple[int, ...], r: int
) -> MeasurementSet:
    alphas, blocks = moment_schedule(ctx, family, dims, r)
    # a multiplier of one reuses the moment vector of alpha_k itself
    moments = [moment_vector(ctx, a, max(dims)) for a in alphas]
    meas = []
    for ls, mults, count in blocks:
        for k, a in enumerate(alphas[:count]):
            factors = tuple(
                moments[k][:size] if mult == ctx.one
                else moment_vector(ctx, ctx.mul(mult, a), size)
                for mult, size in zip(mults, dims)
            )
            meas.append(Measurement(k=k, ls=ls, factors=factors))
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


def diag_weight_rows(
    ctx: FieldCtx, g: Fel, count: int, n: int, m: int, k: int
) -> list[tuple[Fel, ...]]:
    """Weights g^(l j) over the k-diagonal for l < count, in column order."""
    lo, hi = diag_bounds(n, m, k)
    rows = []
    for l in range(count):
        gl = ctx.pow(g, l)
        w = [ctx.pow(gl, k - hi)]  # smallest column index on this diagonal
        for _ in range(hi - lo):
            w.append(ctx.mul(w[-1], gl))
        rows.append(tuple(w))
    return rows


def hitting_set_D(ctx: FieldCtx, r: int, n: int, m: int) -> MeasurementSet:
    """(n+m-1)r n-sparse matrices, each supported on one k-diagonal."""
    _check_matrix_params(r, n, m)
    g = _element_of_order(ctx, m)
    meas = []
    for k in range(n + m - 1):
        for l, w in enumerate(diag_weight_rows(ctx, g, r, n, m, k)):
            meas.append(Measurement(k=k, ls=(l,), diag=(k, w[::-1])))
    return MeasurementSet(ctx, (n, m), "D", r, tuple(meas))


def hitting_set_D_prime(ctx: FieldCtx, r: int, n: int, m: int) -> MeasurementSet:
    """The (n+m-r)r linearly independent subfamily of D."""
    _check_matrix_params(r, n, m)
    g = _element_of_order(ctx, m)
    meas = []
    for k in range(n + m - 1):
        count = diag_row_count(r, n, m, k)
        for l, w in enumerate(diag_weight_rows(ctx, g, count, n, m, k)):
            meas.append(Measurement(k=k, ls=(l,), diag=(k, w[::-1])))
    return MeasurementSet(ctx, (n, m), "Dprime", r, tuple(meas))


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

    Each source measurement yields ext_degree base-field measurements (its
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
    return MeasurementSet(
        base, h.dims, "SimImproper", h.r, tuple(meas),
        base_family=h.family, ext_degree=k,
    )


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
    emb: dict = {}

    def mat(a: Fel):
        m = emb.get(a)
        if m is None:
            m = embed_as_matrix(h.ctx, a)
            emb[a] = m
        return m

    meas = []
    for src in h.measurements:
        mats = [[mat(c) for c in v] for v in src.factors]
        for ls in itertools.product(range(k), repeat=d):
            pins = ls + (0,)
            factors = tuple(
                tuple(mats[a][i][pins[a]][pins[a + 1]] for i in range(h.dims[a]))
                for a in range(d)
            )
            meas.append(Measurement(k=src.k, ls=src.ls, phi=ls, factors=factors))
    return MeasurementSet(
        base, h.dims, "SimProper", h.r, tuple(meas),
        base_family=h.family, ext_degree=k,
    )


def combine_simulated_syndromes(
    ext_ctx: FieldCtx, syndromes: list[Fel]
) -> list[Fel]:
    """Reassemble extension-field syndromes from improper-simulation ones.

    The projections are the power-basis coordinates, so each group of
    ext_degree consecutive base values is exactly one extension element.
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
    if isinstance(t, LowRankTensor):
        t = expand(t)
    if t.dims != h.dims:
        raise ShapeMismatch(f"tensor shape {t.dims} vs family shape {h.dims}")
    if t.ctx == h.ctx:
        return t
    if t.ctx.p != h.ctx.p or t.ctx.k != 1:
        raise ShapeMismatch("tensor field does not embed in the family field")
    return DenseTensor(h.ctx, t.dims, [h.ctx.scalar(e) for e in t.entries])


def first_witness(t, h: MeasurementSet) -> int | None:
    """Index of the first measurement with nonzero inner product, else None."""
    t = family_tensor(t, h)
    for i, m in enumerate(h.measurements):
        if m.inner(h.ctx, t) != h.ctx.zero:
            return i
    return None


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


FAMILIES = ("B", "D", "Dprime", "Bprime", "TensorB", "Naive")

FAMILY_BUILDERS = {
    "B": hitting_set_B,
    "D": hitting_set_D,
    "Dprime": hitting_set_D_prime,
    "Bprime": hitting_set_B_prime,
}


def generate_family(
    ctx: FieldCtx, family: str, dims: tuple[int, ...], r: int
) -> MeasurementSet:
    """Dispatch on the family tag; TensorB requires a cubic shape."""
    if family == "Naive":
        return naive_set(ctx, dims)
    if family == "TensorB":
        d = len(dims)
        if d < 2 or len(set(dims)) != 1:
            raise ShapeMismatch("TensorB requires shape [n]^d with d >= 2")
        return hitting_set_tensor(ctx, d, dims[0], r)
    if family in FAMILY_BUILDERS:
        if len(dims) != 2:
            raise ShapeMismatch(f"family {family} is for matrices")
        return FAMILY_BUILDERS[family](ctx, r, dims[0], dims[1])
    raise ValueError(f"unknown family {family!r}")
