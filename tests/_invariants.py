"""Recovery-loop invariants, asserted from ``RecoveryHooks`` against a planted matrix."""

from tensorhit.lrr import RecoveryHooks


class InvariantChecker:
    """Asserts the recovery loop invariants against a planted matrix."""

    def __init__(self, ctx, planted, n, m, r):
        self.ctx = ctx
        self.M = planted.rows()
        self.n, self.m, self.r = n, m, r
        self.finished = False  # set once the full P == L M check has run

    def hooks(self):
        return RecoveryHooks(before_oracle=self.before_oracle,
                             after_iteration=self.after_iteration)

    def _lm_diag(self, state, k):
        ctx, M = self.ctx, self.M
        lo, hi = max(0, k - (self.n - 1)), min(self.m - 1, k)
        out = []
        cols = [c for c in state.lne]
        for j in range(lo, hi + 1):
            i = k - j
            acc = M[i][j]
            lrow = state.L[i]
            for c in cols:
                if c < i and lrow[c] != ctx.zero and M[c][j] != ctx.zero:
                    acc = ctx.add(acc, ctx.mul(lrow[c], M[c][j]))
            out.append(acc)
        return out, lo, hi

    def before_oracle(self, k, state, advice_cols):
        # corrected-diagonal sparsity: <= r - |lne| nonzeros outside the advice
        ctx = self.ctx
        s_cnt = len(state.lne)
        assert s_cnt <= self.r
        diag, lo, hi = self._lm_diag(state, k)
        outside = sum(
            1
            for t, j in enumerate(range(lo, hi + 1))
            if diag[t] != ctx.zero and j not in advice_cols
        )
        assert outside <= self.r - s_cnt, f"sparsity bound broke at diagonal {k}"

    def after_iteration(self, k, state):
        ctx = self.ctx
        n, m = self.n, self.m
        lo, hi = max(0, k - (n - 1)), min(m - 1, k)
        # invariant 1: N agrees with the planted matrix on the new diagonal
        for j in range(lo, hi + 1):
            assert state.N[k - j][j] == self.M[k - j][j], f"N != M at diagonal {k}"
        # invariant 2: P agrees with (L M) on the new diagonal (current L)
        diag, lo, hi = self._lm_diag(state, k)
        for t, j in enumerate(range(lo, hi + 1)):
            assert state.P[k - j][j] == diag[t], f"P != LM at diagonal {k}"
        # invariant 3: the k-diagonal entry under every lne column was zeroed
        for i, j in state.lne.items():
            tgt = k - j
            if i < tgt < n:
                assert state.P[tgt][j] == ctx.zero, f"echelon broke at diagonal {k}"
        # invariant 4: L unit lower-triangular, off-identity columns in lne rows
        lne_rows = set(state.lne)
        for i in range(n):
            row = state.L[i]
            assert row[i] == ctx.one
            for j in range(i + 1, n):
                assert row[j] == ctx.zero
            for j in range(i):
                if row[j] != ctx.zero:
                    assert j in lne_rows, f"L column {j} outside lne rows"
        if k == n + m - 2:
            self._final(state)

    def _final(self, state):
        ctx = self.ctx
        for i in range(self.n):
            for j in range(self.m):
                assert state.N[i][j] == self.M[i][j]
                acc = self.M[i][j]
                for c in state.lne:
                    if c < i and state.L[i][c] != ctx.zero:
                        acc = ctx.add(acc, ctx.mul(state.L[i][c], self.M[c][j]))
                assert state.P[i][j] == acc
        self.finished = True


class LatticeSupportChecker:
    """Asserts that P, N and the off-identity entries of L stay on a layout's
    rows and columns while the loop runs on every cell of the same matrix."""

    def __init__(self, ctx, layout):
        self.zero = ctx.zero
        self.rows, self.cols = set(layout.rows), set(layout.cols)
        self.iterations = 0

    def hooks(self):
        return RecoveryHooks(after_iteration=self.after_iteration)

    def after_iteration(self, k, state):
        zero, rows, cols = self.zero, self.rows, self.cols
        for i, (prow, nrow, lrow) in enumerate(zip(state.P, state.N, state.L)):
            for j, (p, q) in enumerate(zip(prow, nrow)):
                if p != zero or q != zero:
                    assert i in rows and j in cols, f"P or N left the lattice at diagonal {k}"
            for c in range(i):
                if lrow[c] != zero:
                    assert i in rows and c in rows, f"L left the lattice at diagonal {k}"
        self.iterations += 1
