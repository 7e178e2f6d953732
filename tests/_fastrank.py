"""numpy-accelerated exact rank computations for the acceptance grid.

Ranks over GF(p) come from vectorized Gauss-Jordan on int64 arrays.  Ranks
over GF(p^2) use the regular-representation doubling: replacing each entry
by its 2x2 multiplication matrix over GF(p) exactly doubles the rank, so
the extension rank is the prime rank of the doubled matrix halved.
"""

import numpy as np


def rref_mod(a: np.ndarray, p: int):
    """Gauss-Jordan over GF(p); returns (reduced array, pivot column list).

    The pivot row of column c is zero left of c, so each step touches only
    columns c and beyond of the rows it changes.
    """
    a = a.astype(np.int64, copy=True) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r, c:] = a[r, c:] * inv % p
        fac = a[:, c].copy()
        fac[r] = 0
        hit = np.flatnonzero(fac)
        if hit.size:
            a[hit, c:] = (a[hit, c:] - fac[hit, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_mod(a: np.ndarray, p: int) -> int:
    return len(rref_mod(a, p)[1])


def in_rowspace(rref: np.ndarray, pivots, extras: np.ndarray, p: int) -> bool:
    """Whether every extra row lies in the span of the reduced basis rows.

    The basis is the identity on the pivot columns, so only the free
    columns of extras - coeff @ basis can be nonzero.  The product runs in
    int64, reduced mod p after each block of pivots small enough that no
    partial sum leaves the int64 range, so it is exact for every p < 2^31.
    """
    if extras.size == 0:
        return True
    block = (1 << 62) // (p - 1) ** 2
    assert block >= 1, "int64 products need p < 2^31"
    free = np.setdiff1d(np.arange(extras.shape[1]), pivots)
    basis = rref[: len(pivots)][:, free].astype(np.int64)
    coeff = extras[:, pivots].astype(np.int64)
    reduced = extras[:, free].astype(np.int64) % p
    for lo in range(0, len(pivots), block):
        reduced = (reduced - coeff[:, lo : lo + block] @ basis[lo : lo + block]) % p
    return not reduced.any()


def _scatter_diag(row, n, m, k, weights):
    lo, hi = max(0, k - (m - 1)), min(n - 1, k)
    for t, i in enumerate(range(lo, hi + 1)):
        row[i * m + (k - i)] = weights[t]


def _pair_arrays(ms, measurements=None):
    """Coefficient arrays (A0, A1) of measurements over a k=2 extension.

    Rank-1 matrix measurements densify by numpy outer products using the
    extension's quadratic reduction; diagonal ones scatter their weights.
    """
    ctx = ms.ctx
    p = ctx.p
    r0, r1 = (-c % p for c in ctx.modulus[:2])  # x^2 = r0 + r1 x
    n, m = ms.dims
    measurements = ms.measurements if measurements is None else measurements
    total = n * m
    a0 = np.zeros((len(measurements), total), dtype=np.int64)
    a1 = np.zeros((len(measurements), total), dtype=np.int64)
    for i, meas in enumerate(measurements):
        if meas.factors is not None:
            u, v = meas.factors
            u0 = np.array([c[0] for c in u]); u1 = np.array([c[1] for c in u])
            v0 = np.array([c[0] for c in v]); v1 = np.array([c[1] for c in v])
            cross = np.outer(u1, v1)
            a0[i] = (np.outer(u0, v0) + r0 * cross).ravel() % p
            a1[i] = (np.outer(u0, v1) + np.outer(u1, v0) + r1 * cross).ravel() % p
        elif meas.diag is not None:
            k, weights = meas.diag
            row0, row1 = a0[i], a1[i]
            lo, hi = max(0, k - (m - 1)), min(n - 1, k)
            for t, ii in enumerate(range(lo, hi + 1)):
                row0[ii * m + (k - ii)] = weights[t][0]
                row1[ii * m + (k - ii)] = weights[t][1]
        else:
            a0[i] = [e[0] for e in meas.entries]
            a1[i] = [e[1] for e in meas.entries]
    return a0, a1


def doubled_rows(ms, measurements=None) -> np.ndarray:
    """GF(p) regular-representation blow-up of rows over GF(p^2)."""
    ctx = ms.ctx
    assert ctx.k == 2
    p = ctx.p
    r0, r1 = (-c % p for c in ctx.modulus[:2])
    a0, a1 = _pair_arrays(ms, measurements)
    nrows, ncols = a0.shape
    out = np.zeros((2 * nrows, 2 * ncols), dtype=np.int64)
    out[0::2, 0::2] = a0
    out[0::2, 1::2] = a1 * r0 % p
    out[1::2, 0::2] = a1
    out[1::2, 1::2] = (a0 + a1 * r1) % p
    return out


def prime_rows(ms, measurements=None) -> np.ndarray:
    ctx = ms.ctx
    assert ctx.k == 1
    p = ctx.p
    n, m = ms.dims
    measurements = ms.measurements if measurements is None else measurements
    out = np.zeros((len(measurements), n * m), dtype=np.int64)
    for i, meas in enumerate(measurements):
        if meas.factors is not None:
            u, v = meas.factors
            out[i] = np.outer(np.array(u), np.array(v)).ravel() % p
        elif meas.diag is not None:
            k, weights = meas.diag
            _scatter_diag(out[i], n, m, k, weights)
        else:
            out[i] = meas.entries
    return out


def stacked_rank(ms) -> int:
    """Exact rank of a measurement set stacked as vectors, any k in {1, 2}."""
    if ms.ctx.k == 1:
        return rank_mod(prime_rows(ms), ms.ctx.p)
    doubled = doubled_rows(ms)
    rank2 = rank_mod(doubled, ms.ctx.p)
    assert rank2 % 2 == 0
    return rank2 // 2
