"""Command-line front end.

Verbs: gen-hit, pit, measure, recover, encode, decode, selftest.
Exit codes: 0 success, 2 usage/flag errors, 3 promise violations
(inconsistent syndromes, decode failures).  File outputs are byte-identical
across repeated identical invocations; selftest prints timing information
that naturally varies.
"""

import argparse
import random
import sys
import time

from . import formats, hitting, linalg, lrr, rankcode, sparse, tensor
from .errors import PromiseViolation, TensorhitError
from .field import FieldCtx, make_extension, make_prime_field


def _build_field(p: int, k: int) -> FieldCtx:
    ctx = make_prime_field(p)
    if k > 1:
        ctx = make_extension(ctx, k)
    return ctx


def _family_with_simulation(ctx, family, dims, r, extend, simulate):
    if extend:
        if ctx.k != 1:
            raise TensorhitError("--extend requires a prime base field")
        work = make_extension(ctx, extend)
    else:
        work = ctx
    ms = hitting.generate_family(work, family, dims, r)
    if simulate == "improper":
        return hitting.simulate_improper(ms)
    if simulate == "proper":
        return hitting.simulate_proper(ms)
    return ms


def _random_low_rank(ctx, rng, dims, r):
    terms = [
        [[ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)] for n in dims]
        for _ in range(rng.randint(1, r))
    ]
    return tensor.expand(tensor.LowRankTensor.from_factor_lists(ctx, dims, terms))


def _cmd_gen_hit(args) -> int:
    ctx = _build_field(args.p, args.k)
    dims = formats._parse_dims(args.dims)
    ms = _family_with_simulation(ctx, args.family, dims, args.r, args.extend, args.simulate)
    text = formats.write_measurements(ms)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {len(ms)} measurements to {args.out}")
    return 0


def _cmd_pit(args) -> int:
    with open(args.tensor) as fh:
        t = formats.read_tensor_or_lowrank(fh.read())
    ms = _family_with_simulation(
        t.ctx, args.family, t.dims, args.r, args.extend, args.simulate
    )
    witness = hitting.first_witness(t, ms)
    if witness is None:
        print("ZERO")
    else:
        print(f"NONZERO witness={witness}")
    return 0


def _cmd_measure(args) -> int:
    with open(args.tensor) as fh:
        t = formats.read_tensor_or_lowrank(fh.read())
    synd = lrr.measure(t, args.family, args.r)
    text = formats.write_syndromes(t.ctx, args.family, args.r, t.dims, synd)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {len(synd)} syndromes to {args.out}")
    return 0


def _cmd_recover(args) -> int:
    with open(args.syndromes) as fh:
        ctx, family, r, dims, synd = formats.read_syndromes(fh.read())
    t = lrr.recover(ctx, family, dims, r, synd)
    with open(args.out, "w") as fh:
        fh.write(formats.write_tensor(t))
    print(f"recovered tensor written to {args.out}")
    return 0


def _cmd_encode(args) -> int:
    ctx = _build_field(args.p, args.k)
    dims = formats._parse_dims(args.dims)
    code = rankcode.build_code(ctx, dims, args.r, args.family)
    with open(args.message) as fh:
        msg = formats.read_tensor(fh.read())
    if len(msg.dims) != 1:
        raise TensorhitError("message file must hold a one-axis tensor")
    word = rankcode.encode(code, msg.entries)
    with open(args.out, "w") as fh:
        fh.write(formats.write_tensor(word))
    print(f"encoded {code.dimension} symbols into {args.out}")
    return 0


def _cmd_decode(args) -> int:
    ctx = _build_field(args.p, args.k)
    dims = formats._parse_dims(args.dims)
    code = rankcode.build_code(ctx, dims, args.r, args.family)
    with open(args.word) as fh:
        received = formats.read_tensor(fh.read())
    word, err = rankcode.decode(code, received)
    with open(args.out, "w") as fh:
        fh.write(formats.write_tensor(word))
    if args.error_out:
        with open(args.error_out, "w") as fh:
            fh.write(formats.write_tensor(err))
    print(f"decoded codeword written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# selftest: named tiny-scale invariant suites
# ---------------------------------------------------------------------------


def _st_field_axioms():
    for ctx in (make_prime_field(13), make_extension(make_prime_field(2), 2),
                make_extension(make_prime_field(3), 2)):
        rng = random.Random(0)
        els = [ctx.from_index(t) for t in range(ctx.size)]
        for _ in range(200):
            a, b, c = (els[rng.randrange(ctx.size)] for _ in range(3))
            assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, ctx.neg(a)) == ctx.zero
            assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
            if a != ctx.zero:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one


def _st_family_sizes():
    ctx = make_prime_field(13)
    for n in range(1, 5):
        for m in range(n, 5):
            for r in range(1, n + 1):
                assert len(hitting.hitting_set_B(ctx, r, n, m)) == (n + m - 1) * r
                assert len(hitting.hitting_set_D_prime(ctx, r, n, m)) == (n + m - r) * r
                assert len(hitting.hitting_set_B_prime(ctx, r, n, m)) == (n + m - r) * r


def _st_span_equality():
    ctx = make_prime_field(7)
    b = hitting.hitting_set_B(ctx, 2, 3, 3)
    d = hitting.hitting_set_D(ctx, 2, 3, 3)
    rb = b.dense_rows()
    rd = d.dense_rows()
    rank_b = linalg.rank(ctx, rb)
    rank_d = linalg.rank(ctx, rd)
    rank_union = linalg.rank(ctx, rb + rd)
    assert rank_b == rank_d == rank_union == 8


def _st_prony_exhaustive():
    import itertools

    ctx = make_prime_field(7)
    n, s = 4, 1
    v = sparse.dual_rs(ctx, n, s)
    for supp in itertools.combinations(range(n), s):
        for val in range(1, 7):
            x = [0] * n
            x[supp[0]] = val
            y = v.measure(x)
            got = sparse.pronys_method(ctx, n, s, set(), y, list(v.points))
            assert got == x


def _st_lrr_roundtrip():
    ctx = make_prime_field(17)
    rng = random.Random(1)
    for _ in range(5):
        mat = _random_low_rank(ctx, rng, (8, 8), 2)
        synd = lrr.measure_D(mat, 2)
        assert lrr.recover_from_D(ctx, 8, 8, 2, synd).entries == mat.entries
        bs = lrr.measure_syndromes(mat, hitting.hitting_set_B_prime(ctx, 4, 8, 8))
        ds = lrr.convert_B_to_D(ctx, 8, 8, 4, bs)
        assert lrr.recover_from_D(ctx, 8, 8, 2, ds).entries == mat.entries


def _st_tensor_roundtrip():
    ctx = make_prime_field(1733)
    rng = random.Random(2)
    t = _random_low_rank(ctx, rng, (2, 2, 2), 1)
    synd = lrr.tensor_measure(t, 1)
    assert lrr.tensor_recover(ctx, 3, 2, 1, synd).entries == t.entries


def _st_rankcode_decode():
    ctx = make_prime_field(13)
    code = rankcode.build_code(ctx, (4, 4), 1, "Dprime")
    assert code.dimension == 4
    rng = random.Random(3)
    for _ in range(5):
        msg = [ctx.from_index(rng.randrange(ctx.size)) for _ in range(4)]
        word = rankcode.encode(code, msg)
        err = _random_low_rank(ctx, rng, (4, 4), 1)
        received = tensor.DenseTensor(
            ctx, (4, 4), [ctx.add(a, b) for a, b in zip(word.entries, err.entries)]
        )
        decoded, got_err = rankcode.decode(code, received)
        assert decoded.entries == word.entries and got_err.entries == err.entries


SELFTESTS = [
    ("field-axioms", _st_field_axioms),
    ("family-sizes", _st_family_sizes),
    ("span-equality", _st_span_equality),
    ("prony-exhaustive-tiny", _st_prony_exhaustive),
    ("lrr-roundtrip", _st_lrr_roundtrip),
    ("tensor-roundtrip", _st_tensor_roundtrip),
    ("rankcode-decode", _st_rankcode_decode),
]


def _cmd_selftest(args) -> int:
    failed = 0
    for name, fn in SELFTESTS:
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - report and continue
            failed += 1
            print(f"FAIL {name}: {e}")
            continue
        print(f"ok {name} ({time.perf_counter() - t0:.2f}s)")
    return 1 if failed else 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tensorhit")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_field_flags(sp):
        sp.add_argument("--p", type=int, required=True, help="field characteristic")
        sp.add_argument("--k", type=int, default=1, help="extension degree")

    sp = sub.add_parser("gen-hit", help="write a measurement-set file")
    add_field_flags(sp)
    sp.add_argument("--family", required=True,
                    choices=hitting.FAMILIES)
    sp.add_argument("--dims", required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--extend", type=int, default=0,
                    help="build over GF(p^E) and simulate back")
    sp.add_argument("--simulate", choices=["improper", "proper"], default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_gen_hit)

    sp = sub.add_parser("pit", help="identity-test a tensor file")
    sp.add_argument("--tensor", required=True)
    sp.add_argument("--family", required=True,
                    choices=hitting.FAMILIES)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--extend", type=int, default=0)
    sp.add_argument("--simulate", choices=["improper", "proper"], default=None)
    sp.set_defaults(fn=_cmd_pit)

    sp = sub.add_parser("measure", help="write recovery syndromes for a tensor")
    sp.add_argument("--tensor", required=True)
    sp.add_argument("--family", required=True, choices=lrr.RECOVERY_FAMILIES)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_measure)

    sp = sub.add_parser("recover", help="rebuild a tensor from a syndrome file")
    sp.add_argument("--syndromes", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_recover)

    sp = sub.add_parser("encode", help="encode a message into a rank-metric codeword")
    add_field_flags(sp)
    sp.add_argument("--dims", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--family", default="Dprime", choices=lrr.RECOVERY_FAMILIES)
    sp.add_argument("--message", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_encode)

    sp = sub.add_parser("decode", help="decode a corrupted rank-metric word")
    add_field_flags(sp)
    sp.add_argument("--dims", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--family", default="Dprime", choices=lrr.RECOVERY_FAMILIES)
    sp.add_argument("--word", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--error-out", dest="error_out", default=None)
    sp.set_defaults(fn=_cmd_decode)

    sp = sub.add_parser("selftest", help="run the tiny-scale invariant suites")
    sp.set_defaults(fn=_cmd_selftest)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except PromiseViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (TensorhitError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
