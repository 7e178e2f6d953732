#!/usr/bin/env python3
"""Tabulate rank-metric code parameters over a square-matrix grid.

For each (n, r) the diagonal-family code has nm - 2(n+m-2r)r information
symbols and corrects r rank errors; the table shows how the rate behaves as
the radius grows, with a decode smoke test per row.  Exits 1 if any row's
decode fails.
"""

import argparse
import random
import sys

from tensorhit.field import make_prime_field
from tensorhit.rankcode import build_code, decode, encode
from tensorhit.tensor import DenseTensor


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=17)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ctx = make_prime_field(args.p)
    rng = random.Random(args.seed)
    print(f"{'n':>4} {'r':>4} {'checks':>8} {'dim':>6} {'rate':>8} {'decode':>8}")
    failed = False
    for n in range(2, args.max_n + 1):
        for r in range(1, n // 2 + 1):
            code = build_code(ctx, (n, n), r, "Dprime")
            status = "-"
            if code.dimension:
                msg = [ctx.from_index(rng.randrange(ctx.size))
                       for _ in range(code.dimension)]
                word = encode(code, msg)
                err = DenseTensor.zeros(ctx, (n, n))
                u = [ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)]
                v = [ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)]
                err.entries = [ctx.mul(a, b) for a in u for b in v]
                recv = DenseTensor(
                    ctx, (n, n),
                    [ctx.add(a, b) for a, b in zip(word.entries, err.entries)],
                )
                got, _ = decode(code, recv)
                status = "ok" if got.entries == word.entries else "FAIL"
                failed |= status == "FAIL"
            print(f"{n:>4} {r:>4} {len(code.parity):>8} {code.dimension:>6} "
                  f"{code.dimension / (n * n):>8.3f} {status:>8}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
