"""The benchmark's three workloads: set-up, one round of operations, checks.

A workload's ``setup()`` makes the program calls whose results every round
reuses (field contexts, element orders, families, codes) and returns them
as a state object.  ``run_round()`` plants fresh inputs for round ``i`` of
seed ``seed``, sends them through the program, times only the program
calls (``timing.Clock``), and checks every output (``checks``).  Every
round makes the same operations, so the share of failed operations does
not depend on how many rounds a run completes.

The program is reached through its module attributes (``lrr.measure_D``,
not an imported name), so the traced run can wrap the calls in place.
"""

import contextlib
import io
import os
import sys
import traceback

import checks
import planted
import timing
from tensorhit import cli, field, hitting, lrr, rankcode, tensor

R = 2  # rank budget of every matrix and tensor pipeline


class Tally:
    """Operations attempted, failed (the program raised) and found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    @contextlib.contextmanager
    def op(self, label: str, clock: timing.Clock):
        self.attempted += 1
        clock.begin_op()
        try:
            yield
        except checks.CheckError as e:
            self.wrong.append(str(e))
            print(f"wrong output: {e}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"failed operation {label}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        finally:
            clock.end_op()


def _dense(ctx, dims, arith, entries):
    return tensor.DenseTensor(ctx, tuple(dims), [arith.to_fel(e) for e in entries])


# ---------------------------------------------------------------------------
# pipelines shared by the workloads
# ---------------------------------------------------------------------------


def dprime_op(ctx, arith, rng, n, clock, verify):
    """D' measure -> recover of one planted rank <= R n x n matrix."""
    want = planted.low_rank(arith, rng, (n, n), R)
    mat = _dense(ctx, (n, n), arith, want)
    synd = clock.call("measure", "dprime_measure_ms", lrr.measure_D, mat, R)
    out = clock.call("recover", "dprime_recover_ms", lrr.recover_from_D, ctx, n, n, R, synd)
    checks.count("D' syndromes", len(synd), checks.matrix_syndrome_count(n, n, R))
    checks.same_entries("D' recovery", arith, out.entries, want)
    if verify:
        fam = hitting.hitting_set_D_prime(ctx, 2 * R, n, n)
        checks.syndromes_match("D' syndromes", arith, fam, want, synd)


def bprime_op(ctx, arith, rng, n, fam, clock, verify):
    """B' measure -> convert -> recover of one planted rank <= R matrix."""
    want = planted.low_rank(arith, rng, (n, n), R)
    mat = _dense(ctx, (n, n), arith, want)
    synd = clock.call("measure", "bprime_measure_ms", lrr.measure_syndromes, mat, fam)
    d_synd = clock.call("recover", "bprime_recover_ms",
                        lrr.convert_B_to_D, ctx, n, n, 2 * R, synd)
    out = clock.call("recover", "bprime_recover_ms",
                     lrr.recover_from_D, ctx, n, n, R, d_synd)
    checks.count("B' syndromes", len(synd), checks.matrix_syndrome_count(n, n, R))
    checks.same_entries("B' recovery", arith, out.entries, want)
    if verify:
        checks.syndromes_match("B' syndromes", arith, fam, want, synd)


def hitset_op(fctx, n, r, seeds, clock):
    """Build D' and B' over GF(2^k), simulate them to GF(2), PIT-test GF(2) matrices.

    D' is simulated improperly (coordinate projections) and B' properly
    (multiplication matrices); each planted rank <= r GF(2) matrix and the
    zero matrix are tested against both.
    """
    k = fctx.k
    dfam = clock.call(None, "hitset_build_s", hitting.hitting_set_D_prime, fctx, r, n, n)
    bfam = clock.call(None, "hitset_build_s", hitting.hitting_set_B_prime, fctx, r, n, n)
    sim_d = clock.call(None, "hitset_build_s", hitting.simulate_improper, dfam)
    sim_b = clock.call(None, "hitset_build_s", hitting.simulate_proper, bfam)
    label = f"GF(2^{k}) n={n} r={r}"
    checks.family_size(f"{label} D'", len(dfam), n, n, r)
    checks.family_size(f"{label} B'", len(bfam), n, n, r)
    checks.simulated_sizes(label, k, len(dfam), len(sim_d), len(bfam), len(sim_b))
    gf2 = planted.PrimeArith(2)
    mats = [planted.low_rank(gf2, rng, (n, n), r) for rng in seeds]
    mats.append([0] * (n * n))
    for want in mats:
        mat = tensor.DenseTensor(sim_d.ctx, (n, n), list(want))
        for name, fam in (("improper D'", sim_d), ("proper B'", sim_b)):
            got = clock.call(None, "hitset_build_s", hitting.first_witness, mat, fam)
            checks.witness(f"{label} {name}", gf2, fam, want, got)


def tensor_op(ctx, arith, rng, d, n, clock, verify):
    """TensorB measure -> recover of one planted rank <= R [n]^d tensor."""
    dims = (n,) * d
    want = planted.low_rank(arith, rng, dims, R)
    t = _dense(ctx, dims, arith, want)
    synd = clock.call("measure", "tensor_measure_ms", lrr.tensor_measure, t, R)
    out = clock.call("recover", "tensor_recover_ms", lrr.tensor_recover, ctx, d, n, R, synd)
    checks.count("tensor syndromes", len(synd), checks.tensor_syndrome_count(d, n, R))
    checks.same_entries("tensor recovery", arith, out.entries, want)
    if verify:
        fam = hitting.hitting_set_tensor(ctx, d, n, 2 * R)
        checks.syndromes_match("tensor syndromes", arith, fam, want, synd)


def code_op(code, arith, rng, clock):
    """Encode a random message, add a rank <= r error, decode."""
    n = code.dims[0]
    checks.count("code dimension", code.dimension, checks.code_dimension(n, code.r))
    msg = planted.message(arith, rng, code.dimension)
    word = clock.call(None, None, rankcode.encode, code, [arith.to_fel(s) for s in msg])
    err = planted.low_rank(arith, rng, code.dims, code.r)
    sent = [arith.from_fel(x) for x in word.entries]
    received = _dense(code.ctx, code.dims, arith,
                      [arith.add(a, b) for a, b in zip(sent, err)])
    got, got_err = clock.call("recover", "code_decode_ms", rankcode.decode, code, received)
    checks.same_entries("decoded word", arith, got.entries, sent)
    checks.same_entries("recovered error", arith, got_err.entries, err)
    checks.parity_zero(f"decoded {n}x{n} word", arith, code.parity,
                       [arith.from_fel(x) for x in got.entries])


def cli_op(arith, rng, n, workdir, clock):
    """``tensorhit measure`` then ``recover`` of a factored rank-R file."""
    terms = planted.low_rank_factors(arith, rng, (n, n), R)
    src = os.path.join(workdir, "planted.txt")
    synd = os.path.join(workdir, "syndromes.txt")
    out = os.path.join(workdir, "recovered.txt")
    with open(src, "w") as fh:
        fh.write(planted.lowrank_text(arith, (n, n), terms))
    expected = planted.tensor_text(arith, (n, n), planted.expand_factors(arith, (n, n), terms))
    with contextlib.redirect_stdout(io.StringIO()):
        code = clock.call("measure", "cli_roundtrip_ms", cli.main,
                          ["measure", "--tensor", src, "--family", "Dprime",
                           "--r", str(R), "--out", synd])
        checks.exit_ok("tensorhit measure", code)
        code = clock.call("recover", "cli_roundtrip_ms", cli.main,
                          ["recover", "--syndromes", synd, "--out", out])
    with open(out, "rb") as fh:
        got = fh.read()
    checks.cli_output("tensorhit recover", code, got, expected.encode())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class MatrixPrime:
    """D' at n=128 and B' at n=64 over GF(65537): the int fast path."""

    name = "matrix-prime"
    reference = "mixed"  # the timing.BLOCKS entry whose speed follows this workload's
    d_n = 128
    b_n = 64

    def make_field(self):
        return field.make_prime_field(65537)

    def setup(self):
        ctx = self.make_field()
        ctx.element_of_order(self.d_n)
        bfam = hitting.hitting_set_B_prime(ctx, 2 * R, self.b_n, self.b_n)
        return {"ctx": ctx, "bfam": bfam}

    def main_field(self, st):
        return st["ctx"]

    def run_round(self, st, seed, i, clock, tally, verify=False):
        ctx = st["ctx"]
        arith = planted.arith_for(ctx)
        with tally.op("dprime", clock):
            dprime_op(ctx, arith, planted.rng_for(seed, "dprime", i), self.d_n, clock, verify)
        with tally.op("bprime", clock):
            bprime_op(ctx, arith, planted.rng_for(seed, "bprime", i), self.b_n,
                      st["bfam"], clock, verify)


class MatrixExt(MatrixPrime):
    """D' at n=48 and B' at n=24 over GF(2^8), plus the GF(2) hitting-set grid."""

    name = "matrix-ext"
    reference = "tuple"
    d_n = 48
    b_n = 24
    grid_n = (4, 8, 16)
    grid_r = (1, 2, 3)
    grid_mats = 3  # random rank <= r GF(2) matrices per grid cell, plus zero

    def make_field(self):
        return field.make_extension(field.make_prime_field(2), 8)

    def setup(self):
        st = super().setup()
        gf2 = field.make_prime_field(2)
        st["grid"] = {}
        for n in self.grid_n:
            k = (n - 1).bit_length() + 1  # ceil(lg n) + 1
            st["grid"][n] = field.make_extension(gf2, k)
            st["grid"][n].element_of_order(n)
        return st

    def run_round(self, st, seed, i, clock, tally, verify=False):
        super().run_round(st, seed, i, clock, tally, verify)
        for n in self.grid_n:
            for r in self.grid_r:
                rngs = [planted.rng_for(seed, "gf2", i, n, r, j) for j in range(self.grid_mats)]
                with tally.op(f"hitset n={n} r={r}", clock):
                    hitset_op(st["grid"][n], n, r, rngs, clock)


class TensorCodeCli:
    """TensorB over GF(2^31-1), a D' code over GF(257), CLI over GF(65537)."""

    name = "tensor-code-cli"
    reference = "mixed"
    tensor_p = 2**31 - 1
    d = 4
    n = 3
    tensors = 3
    code_p = 257
    code_n = 8
    code_r = 2
    words = 20
    cli_p = 65537
    cli_n = 48
    workdir = ""  # directory for the CLI's files; set by the runner

    def setup(self):
        tctx = field.make_prime_field(self.tensor_p)
        tctx.element_of_order((2 * self.d * self.n) ** self.d)
        cctx = field.make_prime_field(self.code_p)
        code = rankcode.build_code(cctx, (self.code_n, self.code_n), self.code_r, "Dprime")
        return {"tctx": tctx, "code": code}

    def main_field(self, st):
        return st["tctx"]

    def run_round(self, st, seed, i, clock, tally, verify=False):
        tctx, code = st["tctx"], st["code"]
        tarith = planted.arith_for(tctx)
        for j in range(self.tensors):
            with tally.op("tensor", clock):
                tensor_op(tctx, tarith, planted.rng_for(seed, "tensor", i, j),
                          self.d, self.n, clock, verify and j == 0)
        carith = planted.arith_for(code.ctx)
        for j in range(self.words):
            with tally.op("code", clock):
                code_op(code, carith, planted.rng_for(seed, "code", i, j), clock)
        with tally.op("cli", clock):
            cli_op(planted.PrimeArith(self.cli_p), planted.rng_for(seed, "cli", i),
                   self.cli_n, self.workdir, clock)


WORKLOADS = {w.name: w for w in (MatrixPrime, MatrixExt, TensorCodeCli)}
