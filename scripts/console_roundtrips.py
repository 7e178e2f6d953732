#!/usr/bin/env python3
"""Measure and recover fixed low-rank tensors through the command line, in fresh processes.

    python3 scripts/console_roundtrips.py

For each case the script writes a ``lowrank`` file and the ``tensor``
file of its dense expansion into a temporary directory.  Then, for each family of the case, it runs
``python -m tensorhit.cli measure`` on the low-rank file and ``recover``
on the syndromes, each in a new process under a 60 s timeout, and compares
the recovered file with the expansion byte for byte.  It imports tensorhit,
and runs the CLI, from the ``src/`` next to its own directory.  One line
per round trip gives the case, the family and the two wall times; the
script exits 1 if any command fails, times out or recovers other bytes.
"""

import os
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from tensorhit import formats, make_extension, make_prime_field, tensor  # noqa: E402

M61, P64 = make_prime_field(2**61 - 1), make_prime_field(2**64 - 59)
GF65537 = make_prime_field(65537)
GF2_8, GF3_5 = make_extension(make_prime_field(2), 8), make_extension(make_prime_field(3), 5)
GF2_9 = make_extension(make_prime_field(2), 9)


def _moment_terms(ctx, n, rank):
    """rank terms (x, x^2, ..., x^n) (y, y^2, ..., y^n), with x and y elements 3 + 2c and 7 + 4c."""
    def moments(t):
        return [ctx.pow(ctx.from_index(t), i + 1) for i in range(n)]
    return [[moments(3 + 2 * c), moments(7 + 4 * c)] for c in range(rank)]


# name: (field, dims, r, families, factor vectors of each term)
CASES = {
    # each TensorB level recovered on its packed lattice
    "tensorB-2^8": (M61, (2,) * 8, 1, ["TensorB"], [[[3 + a, 5 + 7 * a] for a in range(8)]]),
    # 8 variables through three merge levels, measured upward and recovered downward
    "tensorB-3^8": (M61, (3,) * 8, 1, ["TensorB"],
                    [[[3 + a, 5 + 7 * a, 11 + a * a] for a in range(8)]]),
    # a dummy variable in the final row-major write, R = 4 prefixes per level
    "tensorB-3^7": (M61, (3,) * 7, 2, ["TensorB"],
                    [[[3 + a + c, 5 + 7 * a, 11 + a * a + c] for a in range(7)] for c in range(2)]),
    # level 1's padded matrix is 101,476 columns wide, its lattice and weight table 256
    "tensorB-4^8": (M61, (4,) * 8, 1, ["TensorB"],
                    [[[3 + a, 5 + 7 * a, 11 + a * a, 13 + 2 * a] for a in range(8)]]),
    # the widest slots of the packed dots
    "64x64-GF(2^64-59)": (P64, (64, 64), 2, ["Dprime", "Bprime"], _moment_terms(P64, 64, 2)),
    # 32 of the 127 diagonals on the transposed-Vandermonde square solve at R = 16
    "64x64-rank8-GF(65537)": (GF65537, (64, 64), 8, ["Dprime", "Bprime"],
                              _moment_terms(GF65537, 64, 8)),
    # the widest packed Newton table, 255 rows
    "128x128-GF(2^64-59)": (P64, (128, 128), 2, ["Bprime"], _moment_terms(P64, 128, 2)),
    # the log-packed TableField dots
    "96x96-GF(2^8)": (GF2_8, (96, 96), 2, ["Dprime", "Bprime"], _moment_terms(GF2_8, 96, 2)),
    # the TableField sum_products with four terms and odd-characteristic negation
    "48x48-GF(3^5)": (GF3_5, (48, 48), 4, ["Dprime", "Bprime"], _moment_terms(GF3_5, 48, 4)),
    # above the TableField cap: the square inverses through the base-class pack and dots
    "24x24-GF(2^9)": (GF2_9, (24, 24), 2, ["Dprime", "Bprime"], _moment_terms(GF2_9, 24, 2)),
}


def _cli(*args):
    """Run one CLI command in a new process; (exit code, stderr, seconds)."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "tensorhit.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return None, "timed out after 60 s", time.perf_counter() - t0
    return proc.returncode, proc.stderr.strip(), time.perf_counter() - t0


def run_case(name, tmp) -> bool:
    ctx, dims, r, families, terms = CASES[name]
    t = tensor.LowRankTensor.from_factor_lists(ctx, dims, terms)
    src, dense = os.path.join(tmp, f"{name}.txt"), os.path.join(tmp, f"{name}-dense.txt")
    with open(src, "w") as fh:
        fh.write(formats.write_lowrank(t))
    with open(dense, "w") as fh:
        fh.write(formats.write_tensor(tensor.expand(t)))
    ok = True
    for family in families:
        synd, rec = (os.path.join(tmp, f"{name}-{family}-{s}.txt") for s in ("synd", "rec"))
        code, err, measure_s = _cli("measure", "--tensor", src, "--family", family,
                                    "--r", str(r), "--out", synd)
        recover_s = 0.0
        if code == 0:
            code, err, recover_s = _cli("recover", "--syndromes", synd, "--out", rec)
        if code == 0:
            with open(dense, "rb") as a, open(rec, "rb") as b:
                same = a.read() == b.read()
            err = "" if same else "recovered file differs from the expansion"
        status = "ok" if code == 0 and not err else "FAIL"
        ok &= status == "ok"
        print(f"{status} {name} {family} measure {measure_s:.2f}s recover {recover_s:.2f}s"
              + (f": {err}" if status == "FAIL" else ""), flush=True)
    return ok


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = [run_case(name, tmp) for name in CASES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
