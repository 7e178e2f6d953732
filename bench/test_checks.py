"""Each output check accepts a correct result and rejects a corrupted one.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py
"""

import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import planted  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from tensorhit import cli, field, hitting, lrr, rankcode, tensor  # noqa: E402

GF257 = field.make_prime_field(257)
GF256 = field.make_extension(field.make_prime_field(2), 8)


def _planted_matrix(ctx, n, seed=1):
    arith = planted.arith_for(ctx)
    want = planted.low_rank(arith, random.Random(seed), (n, n), 2)
    return arith, want, tensor.DenseTensor(ctx, (n, n), [arith.to_fel(e) for e in want])


@pytest.mark.parametrize("ctx", [GF257, GF256], ids=["GF(257)", "GF(2^8)"])
def test_own_arithmetic_matches_the_field_convention(ctx):
    arith = planted.arith_for(ctx)
    rng = random.Random(0)
    for _ in range(200):
        a, b = arith.rand(rng), arith.rand(rng)
        assert arith.to_fel(arith.mul(a, b)) == ctx.mul(arith.to_fel(a), arith.to_fel(b))
        assert arith.to_fel(arith.add(a, b)) == ctx.add(arith.to_fel(a), arith.to_fel(b))


def test_reducible_modulus_is_refused():
    with pytest.raises(ValueError):
        planted.Gf2kArith((1, 0, 1))  # 1 + x^2 = (1 + x)^2


@pytest.mark.parametrize("ctx", [GF257, GF256], ids=["GF(257)", "GF(2^8)"])
def test_recovery_check_rejects_one_flipped_entry(ctx):
    arith, want, mat = _planted_matrix(ctx, 8)
    got = lrr.recover_from_D(ctx, 8, 8, 2, lrr.measure_D(mat, 2))
    checks.same_entries("D'", arith, got.entries, want)
    bad = list(got.entries)
    bad[17] = ctx.add(bad[17], ctx.one)
    with pytest.raises(CheckError, match="entry 17"):
        checks.same_entries("D'", arith, bad, want)
    with pytest.raises(CheckError):
        checks.same_entries("D'", arith, got.entries[:-1], want)


def test_syndrome_counts_follow_the_formulas():
    _, _, mat = _planted_matrix(GF257, 9)
    checks.count("D'", len(lrr.measure_D(mat, 2)), checks.matrix_syndrome_count(9, 9, 2))
    fam = hitting.hitting_set_B_prime(GF257, 4, 9, 9)
    checks.count("B'", len(fam), checks.matrix_syndrome_count(9, 9, 2))
    gf = field.make_prime_field(2**31 - 1)
    t = tensor.DenseTensor(gf, (2, 2, 2), [1, 2, 3, 4, 5, 6, 7, 8])
    checks.count("tensor", len(lrr.tensor_measure(t, 1)), checks.tensor_syndrome_count(3, 2, 1))
    with pytest.raises(CheckError):
        checks.count("D'", len(lrr.measure_D(mat, 2)) - 1, checks.matrix_syndrome_count(9, 9, 2))


@pytest.mark.parametrize("family", ["Dprime", "Bprime"])
@pytest.mark.parametrize("ctx", [GF257, GF256], ids=["GF(257)", "GF(2^8)"])
def test_syndrome_check_rejects_a_corrupted_syndrome(ctx, family):
    arith, want, mat = _planted_matrix(ctx, 6)
    if family == "Dprime":
        fam = hitting.hitting_set_D_prime(ctx, 4, 6, 6)
        synd = lrr.measure_D(mat, 2)
    else:
        fam = hitting.hitting_set_B_prime(ctx, 4, 6, 6)
        synd = lrr.measure_syndromes(mat, fam)
    checks.syndromes_match(family, arith, fam, want, synd)
    bad = list(synd)
    bad[5] = ctx.add(bad[5], ctx.one)
    with pytest.raises(CheckError, match="syndrome 5"):
        checks.syndromes_match(family, arith, fam, want, bad)


def test_tensor_syndrome_check_rejects_a_corrupted_syndrome():
    ctx = field.make_prime_field(2**31 - 1)
    arith = planted.arith_for(ctx)
    want = planted.low_rank(arith, random.Random(2), (2, 2, 2), 1)
    t = tensor.DenseTensor(ctx, (2, 2, 2), want)
    fam = hitting.hitting_set_tensor(ctx, 3, 2, 2)
    synd = lrr.tensor_measure(t, 1)
    checks.syndromes_match("tensor", arith, fam, want, synd)
    synd[0] = (synd[0] + 1) % ctx.p
    with pytest.raises(CheckError, match="syndrome 0"):
        checks.syndromes_match("tensor", arith, fam, want, synd)


def test_code_checks_reject_a_wrong_word_and_dimension():
    code = rankcode.build_code(GF257, (6, 6), 1, "Dprime")
    checks.count("dimension", code.dimension, checks.code_dimension(6, 1))
    with pytest.raises(CheckError):
        checks.count("dimension", code.dimension + 1, checks.code_dimension(6, 1))
    arith = planted.arith_for(GF257)
    word = rankcode.encode(code, [arith.rand(random.Random(3)) for _ in range(code.dimension)])
    entries = [arith.from_fel(x) for x in word.entries]
    checks.parity_zero("word", arith, code.parity, entries)
    entries[0] = arith.add(entries[0], 1)
    with pytest.raises(CheckError, match="parity check"):
        checks.parity_zero("word", arith, code.parity, entries)


def test_family_and_simulated_size_checks_reject_a_wrong_count():
    ext = field.make_extension(field.make_prime_field(2), 4)
    d = hitting.hitting_set_D_prime(ext, 2, 8, 8)
    b = hitting.hitting_set_B_prime(ext, 2, 8, 8)
    sd, sb = hitting.simulate_improper(d), hitting.simulate_proper(b)
    checks.family_size("D'", len(d), 8, 8, 2)
    checks.family_size("B'", len(b), 8, 8, 2)
    with pytest.raises(CheckError):
        checks.family_size("D'", len(d), 8, 8, 1)
    checks.simulated_sizes("grid", 4, len(d), len(sd), len(b), len(sb))
    with pytest.raises(CheckError, match="proper"):
        checks.simulated_sizes("grid", 4, len(d), len(sd), len(b), len(sb) - 1)
    with pytest.raises(CheckError, match="improper"):
        checks.simulated_sizes("grid", 4, len(d), len(sd) + 4, len(b), len(sb))


def test_witness_check_rejects_wrong_witnesses():
    ext = field.make_extension(field.make_prime_field(2), 4)
    fam = hitting.simulate_proper(hitting.hitting_set_B_prime(ext, 2, 8, 8))
    gf2 = planted.PrimeArith(2)
    want = planted.low_rank(gf2, random.Random(4), (8, 8), 2)
    assert any(want)
    mat = tensor.DenseTensor(fam.ctx, (8, 8), list(want))
    got = hitting.first_witness(mat, fam)
    checks.witness("B'", gf2, fam, want, got)
    zero = [0] * 64
    checks.witness("B'", gf2, fam, zero, hitting.first_witness(
        tensor.DenseTensor(fam.ctx, (8, 8), zero), fam))
    with pytest.raises(CheckError, match="no witness"):
        checks.witness("B'", gf2, fam, want, None)
    with pytest.raises(CheckError, match="zero matrix"):
        checks.witness("B'", gf2, fam, zero, got)
    later = next(i for i in range(got + 1, len(fam))
                 if checks.inner(gf2, fam.measurements[i], fam.dims, want))
    with pytest.raises(CheckError, match="already hits"):
        checks.witness("B'", gf2, fam, want, later)
    missed = next(i for i in range(len(fam))
                  if not checks.inner(gf2, fam.measurements[i], fam.dims, want))
    with pytest.raises(CheckError, match="zero inner product"):
        checks.witness("B'", gf2, fam, want, missed)


def test_cli_check_rejects_a_truncated_file_and_a_failed_exit(tmp_path, capsys):
    arith = planted.PrimeArith(65537)
    terms = planted.low_rank_factors(arith, random.Random(5), (6, 6), 2)
    src, synd, out = (str(tmp_path / f) for f in ("in.txt", "synd.txt", "out.txt"))
    with open(src, "w") as fh:
        fh.write(planted.lowrank_text(arith, (6, 6), terms))
    want = planted.tensor_text(arith, (6, 6), planted.expand_factors(arith, (6, 6), terms))
    assert cli.main(["measure", "--tensor", src, "--family", "Dprime", "--r", "2",
                     "--out", synd]) == 0
    code = cli.main(["recover", "--syndromes", synd, "--out", out])
    with open(out, "rb") as fh:
        got = fh.read()
    checks.cli_output("recover", code, got, want.encode())
    with pytest.raises(CheckError, match="differs"):
        checks.cli_output("recover", code, got[:-3], want.encode())
    with pytest.raises(CheckError, match="exit code"):
        checks.cli_output("recover", 3, got, want.encode())


class _SmallPrime(workloads.MatrixPrime):
    d_n = 8
    b_n = 6


class _SmallCodeCli(workloads.TensorCodeCli):
    d = 3
    n = 2
    tensors = 1
    code_n = 6
    words = 2
    cli_n = 6


@pytest.mark.parametrize("wl_class", [_SmallPrime, _SmallCodeCli])
def test_a_small_round_passes_every_check(wl_class, tmp_path):
    wl = wl_class()
    wl.workdir = str(tmp_path)
    tally = workloads.Tally()
    clock = timing.Clock(timing.Speed(every=0))
    wl.run_round(wl.setup(), 7, 0, clock, tally, verify=True)
    clock.finish()
    assert tally.attempted > 0 and tally.failed == 0 and tally.wrong == []
    assert clock.roles["work"] > 0 and clock.roles["measure"] > 0


def test_a_wrong_recovery_is_reported_not_counted_as_failed(monkeypatch):
    original = lrr.recover_from_D

    def flipped(ctx, n, m, r, synd, hooks=None):
        out = original(ctx, n, m, r, synd, hooks)
        out.entries[0] = ctx.add(out.entries[0], ctx.one)
        return out

    monkeypatch.setattr(lrr, "recover_from_D", flipped)
    wl = _SmallPrime()
    tally = workloads.Tally()
    clock = timing.Clock(timing.Speed(every=0))
    wl.run_round(wl.setup(), 7, 0, clock, tally)
    assert tally.failed == 0 and len(tally.wrong) == 2


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "matrix-prime",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
