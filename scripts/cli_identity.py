#!/usr/bin/env python3
"""Digest the outputs of a fixed list of tensorhit commands, to compare checkouts.

    python3 scripts/cli_identity.py > digest.txt

The script imports tensorhit from the ``src/`` next to its own directory,
so a copy of it placed in another checkout runs that checkout; ``diff``
the two digests.  It writes its input files into a temporary directory
from a fixed seed, then runs every command in process through
``tensorhit.cli.main``:

* ``gen-hit`` of every family, and ``--extend`` with no, improper and
  proper simulation over small prime fields;
* ``measure`` of rank r and rank r + 1 inputs with every recovery family,
  ``recover`` of each syndrome file and of copies with one altered value;
  the same at r = 2 over GF(2^61 - 1), the largest prime of the documented
  64-bit scope, with one altered copy of each file;
* ``pit`` of a zero tensor and of tensors of rank 1 to 3 with every
  family, at r = 1 and 2; and the same over GF(2) and GF(3) with
  ``--extend 3`` and improper or proper simulation (the families proper
  simulation rejects print their error); and, at the largest cell of the
  benchmark's hitting-set grid, a zero and a rank-3 16x16 GF(2) matrix
  against ``Bprime`` and ``Dprime`` at r = 3 with ``--extend 5`` and
  either simulation;
* ``encode`` of a random message, and ``decode`` of the codeword plus no
  error, a rank-r and a rank r + 1 error;
* back-to-back ``recover`` of ``Bprime`` and ``TensorB`` syndrome files of
  one 4x4 matrix, whose evaluation points are the first 7 and the first 8
  field elements, and of ``Bprime`` files at 3x4 then 4x5 (the first 6 and
  the first 8), each first file recovered again after the second;
* once, over GF(13) unless a file says otherwise, inputs every command must
  reject: ``measure`` of a tensor of the wrong shape for each recovery
  family, syndrome files with r = 0, an unknown family, non-cubic
  ``TensorB`` dims or dims of two million (which must be refused before any
  work of that size), ``encode`` and ``decode`` with ``--r 0``, and
  ``gen-hit --k 0``;
* ``Dprime`` outside B's domain over GF(13): ``gen-hit`` on 6x3 at r = 4
  and on 5x5 at r = 6, ``decode`` of a zero and a rank-3 word in the 4x4
  code at r = 3, whose dimension is 0, and ``measure`` then ``recover``
  (and one altered copy) on 6x3, 3x6, 1x5 and 1x1 at r = 1 and 2.

The fields are GF(13), GF(2^4), GF(3^2), GF(2^8), GF(1733), GF(65537),
GF(2^31 - 1) and GF(2^9), above the exp/log table cap.  Each command
prints one line: a label, the exit code, the SHA-256 of every file it
wrote (``-`` for none), and its standard output and standard error.  The
script exits 1 if any command ends in an exit code outside {0, 2, 3} or in
an uncaught exception (printed as ``TRACEBACK``), else 0.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from tensorhit import cli, formats, rankcode, tensor  # noqa: E402
from tensorhit.errors import TensorhitError  # noqa: E402
from tensorhit.field import make_extension, make_prime_field  # noqa: E402

FIELDS = [(13, 1), (2, 4), (3, 2), (2, 8), (1733, 1), (65537, 1), (2**31 - 1, 1), (2, 9)]
SIM_PRIMES = [2, 3, 13]  # --extend with each simulation
PIT_SIM_PRIMES = [2, 3]  # pit --extend 3 with each simulation
FAMILIES = ("B", "D", "Dprime", "Bprime", "TensorB", "Naive")
MATRIX_DIMS = ((6, 7), (5, 5), (10, 12))
CUBE_DIMS = ((2, 2, 2), (3, 3, 3))
RECOVERY_SHAPES = ([(fam, dims) for fam in ("Dprime", "Bprime") for dims in MATRIX_DIMS]
                   + [("TensorB", dims) for dims in CUBE_DIMS])
WIDE_PRIME = 2**61 - 1


def field(p, k):
    ctx = make_prime_field(p)
    return make_extension(ctx, k) if k > 1 else ctx


def low_rank(ctx, rng, dims, rank):
    """A sum of ``rank`` random rank-1 tensors, as a lowrank file's text."""
    terms = [[[ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)] for n in dims]
             for _ in range(rank)]
    return formats.write_lowrank(tensor.LowRankTensor.from_factor_lists(ctx, dims, terms))


def altered(text, rng):
    """The syndrome file text with one value's constant coefficient bumped."""
    lines = text.splitlines()
    i = rng.randrange(2, len(lines))
    coeffs = lines[i].split(",")
    p = int(lines[0].split()[1].partition("=")[2])
    coeffs[0] = str((int(coeffs[0]) + 1) % p)
    lines[i] = ",".join(coeffs)
    return "\n".join(lines) + "\n"


class Runner:
    def __init__(self, workdir):
        self.workdir = workdir
        self.failed = False

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, name, text):
        with open(self.path(name), "w") as fh:
            fh.write(text)
        return self.path(name)

    def read(self, name):
        with open(self.path(name)) as fh:
            return fh.read()

    def run(self, label, argv, outs=()):
        """Run one command, print its digest line; returns its exit code."""
        for name in outs:
            if os.path.exists(self.path(name)):
                os.remove(self.path(name))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([a if not a.startswith("@") else self.path(a[1:])
                                 for a in argv])
            except SystemExit as e:  # argparse usage errors
                code = e.code
            except Exception:  # noqa: BLE001 - recorded, and fails the run
                code = "TRACEBACK " + traceback.format_exc().strip().splitlines()[-1]
        if code not in (0, 2, 3):
            self.failed = True
        digests = []
        for name in outs:
            if os.path.exists(self.path(name)):
                with open(self.path(name), "rb") as fh:
                    digests.append(hashlib.sha256(fh.read()).hexdigest()[:16])
            else:
                digests.append("-")
        text = " | ".join(s.getvalue().strip().replace("\n", "\\n").replace(self.workdir, "<dir>")
                          for s in (out, err))
        print(f"{label} | exit={code} | files={','.join(digests) or '-'} | {text}")
        return code


def gen_hit(run, p, k):
    flags = ["--p", str(p), "--k", str(k)]
    for family in FAMILIES:
        dims = "2x2x2" if family == "TensorB" else "3x4"
        for r in (1, 2):
            run.run(f"gen-hit {p}^{k} {family} r={r}",
                    ["gen-hit", *flags, "--family", family, "--dims", dims, "--r", str(r),
                     "--out", "@fam.txt"], ["fam.txt"])


def simulations(run, p):
    for family in FAMILIES:
        dims = "2x2x2" if family == "TensorB" else "3x3"
        for sim in ("", "improper", "proper"):
            argv = ["gen-hit", "--p", str(p), "--family", family, "--dims", dims, "--r", "1",
                    "--extend", "3", "--out", "@sim.txt"]
            run.run(f"gen-hit {p} extend=3 {family} sim={sim or 'none'}",
                    argv + (["--simulate", sim] if sim else []), ["sim.txt"])


def recovery(run, rng, ctx, tag, shapes=RECOVERY_SHAPES, rs=(1, 2, 3), alterations=3):
    for family, dims in shapes:
        shape = "x".join(map(str, dims))
        for r in rs:
            for rank in (r, r + 1):
                src = run.write("t.txt", low_rank(ctx, rng, dims, rank))
                label = f"{tag} {family} {shape} r={r} rank={rank}"
                code = run.run(f"measure {label}", ["measure", "--tensor", src, "--family",
                                                    family, "--r", str(r), "--out", "@s.txt"],
                               ["s.txt"])
                if code:
                    continue
                run.run(f"recover {label}", ["recover", "--syndromes", "@s.txt",
                                             "--out", "@rec.txt"], ["rec.txt"])
                text = run.read("s.txt")
                for i in range(alterations):
                    run.write("bad.txt", altered(text, rng))
                    run.run(f"recover {label} altered#{i}",
                            ["recover", "--syndromes", "@bad.txt", "--out", "@rec.txt"],
                            ["rec.txt"])


def pit(run, rng, ctx, tag, sims=("",)):
    for dims in ((4, 5), (2, 2, 2)):
        shape = "x".join(map(str, dims))
        tensors = {"zero": formats.write_tensor(tensor.DenseTensor.zeros(ctx, dims))}
        for rank in (1, 2, 3):
            tensors[f"rank={rank}"] = low_rank(ctx, rng, dims, rank)
        for name, text in tensors.items():
            src = run.write("pit.txt", text)
            for family in FAMILIES:
                for r in (1, 2):
                    for sim in sims:
                        flags = ["--extend", "3", "--simulate", sim] if sim else []
                        run.run(f"pit {tag} {shape} {name} {family} r={r}"
                                + (f" extend=3 sim={sim}" if sim else ""),
                                ["pit", "--tensor", src, "--family", family, "--r", str(r),
                                 *flags])


def pit_grid(run):
    """pit of 16x16 GF(2) matrices against B' and D' at r = 3 over GF(2^5), both simulations."""
    ctx, rng = field(2, 1), random.Random("pit grid")
    tensors = {"zero": formats.write_tensor(tensor.DenseTensor.zeros(ctx, (16, 16))),
               "rank=3": low_rank(ctx, rng, (16, 16), 3)}
    for name, text in tensors.items():
        src = run.write("pit.txt", text)
        for family in ("Bprime", "Dprime"):
            for sim in ("improper", "proper"):
                run.run(f"pit 2^1 16x16 {name} {family} r=3 extend=5 sim={sim}",
                        ["pit", "--tensor", src, "--family", family, "--r", "3",
                         "--extend", "5", "--simulate", sim])


def codes(run, rng, ctx, tag, p, k):
    flags = ["--p", str(p), "--k", str(k)]
    for family, dims in (("Dprime", (5, 5)), ("Bprime", (4, 6)), ("TensorB", (2, 2, 2)),
                         ("TensorB", (4, 4, 4))):
        shape = "x".join(map(str, dims))
        r = 1
        try:
            dim = rankcode.build_code(ctx, dims, r, family).dimension
        except TensorhitError:  # the commands below report the same error
            dim = 0
        # a file cannot hold an empty message: encode a one-symbol message
        # instead, which fails as it should
        msg = [ctx.from_index(rng.randrange(ctx.size)) for _ in range(max(dim, 1))]
        run.write("msg.txt", formats.write_tensor(tensor.DenseTensor(ctx, (len(msg),), msg)))
        common = [*flags, "--dims", shape, "--r", str(r), "--family", family]
        label = f"{tag} {family} {shape} r={r}"
        if run.run(f"encode {label}", ["encode", *common, "--message", "@msg.txt",
                                       "--out", "@cw.txt"], ["cw.txt"]) == 0:
            word = formats.read_tensor(run.read("cw.txt"))
        else:  # the zero word is in every code
            word = tensor.DenseTensor.zeros(ctx, dims)
        for rank in (0, r, r + 1):
            err = formats.read_tensor_or_lowrank(low_rank(ctx, rng, dims, rank)) if rank \
                else tensor.DenseTensor.zeros(ctx, dims)
            received = tensor.DenseTensor(ctx, dims, [ctx.add(a, b) for a, b in
                                                      zip(word.entries, err.entries)])
            run.write("rx.txt", formats.write_tensor(received))
            run.run(f"decode {label} error-rank={rank}",
                    ["decode", *common, "--word", "@rx.txt", "--out", "@dec.txt",
                     "--error-out", "@err.txt"], ["dec.txt", "err.txt"])


def schedules(run, rng, ctx, tag):
    """Recoveries whose evaluation points are prefixes of each other's, back to back."""
    pairs = ((((4, 4), "Bprime", 2), ((4, 4), "TensorB", 1)),
             (((3, 4), "Bprime", 1), ((4, 5), "Bprime", 2)))
    for pair in pairs:
        names = []
        for i, (dims, family, r) in enumerate(pair):
            shape = "x".join(map(str, dims))
            names.append((f"{tag} {family} {shape} r={r}", f"sched{i}.txt"))
            src = run.write("t.txt", low_rank(ctx, rng, dims, r))
            run.run(f"measure schedule {names[-1][0]}",
                    ["measure", "--tensor", src, "--family", family, "--r", str(r),
                     "--out", f"@{names[-1][1]}"], [names[-1][1]])
        for label, name in names + names[:1]:
            if os.path.exists(run.path(name)):
                run.run(f"recover schedule {label}",
                        ["recover", "--syndromes", f"@{name}", "--out", "@rec.txt"],
                        ["rec.txt"])


def validation(run):
    ctx, rng = field(13, 1), random.Random("validation")
    for family, dims in (("Dprime", (2, 2, 2)), ("Bprime", (2, 2, 2)), ("TensorB", (2, 3)),
                         ("TensorB", (2, 2, 3)), ("Dprime", (4,)), ("Bprime", (4,)),
                         ("TensorB", (4,))):
        shape = "x".join(map(str, dims))
        src = run.write("t.txt", low_rank(ctx, rng, dims, 1))
        run.run(f"measure wrong-shape {family} {shape}",
                ["measure", "--tensor", src, "--family", family, "--r", "1", "--out", "@s.txt"],
                ["s.txt"])
    huge = "2000000x2000000"
    for p, header in ((13, "family=Dprime r=0 dims=3x3"), (13, "family=Bprime r=0 dims=3x3"),
                      (13, "family=TensorB r=0 dims=2x2x2"), (13, "family=Nope r=1 dims=3x3"),
                      (13, "family=TensorB r=1 dims=3x4"), (13, "family=TensorB r=1 dims=2x2x3"),
                      (2**31 - 1, f"family=Dprime r=1 dims={huge}"),
                      (2**31 - 1, f"family=Bprime r=1 dims={huge}"),
                      (2**31 - 1, f"family=TensorB r=1 dims={huge}")):
        run.write("bad.txt", f"field p={p} k=1\nsyndromes {header}\n5\n")
        run.run(f"recover {p}^1 {header}",
                ["recover", "--syndromes", "@bad.txt", "--out", "@rec.txt"], ["rec.txt"])
    run.write("msg.txt", formats.write_tensor(tensor.DenseTensor(ctx, (1,), [1])))
    for family, shape in (("Dprime", "5x5"), ("Bprime", "4x6"), ("TensorB", "2x2x2")):
        dims = tuple(map(int, shape.split("x")))
        run.write("rx.txt", formats.write_tensor(tensor.DenseTensor.zeros(ctx, dims)))
        common = ["--p", "13", "--dims", shape, "--r", "0", "--family", family]
        run.run(f"encode 13^1 {family} {shape} r=0",
                ["encode", *common, "--message", "@msg.txt", "--out", "@cw.txt"], ["cw.txt"])
        run.run(f"decode 13^1 {family} {shape} r=0",
                ["decode", *common, "--word", "@rx.txt", "--out", "@dec.txt"], ["dec.txt"])
    run.run("gen-hit 13^0 Dprime r=1", ["gen-hit", "--p", "13", "--k", "0", "--family", "Dprime",
                                        "--dims", "3x3", "--r", "1", "--out", "@fam.txt"],
            ["fam.txt"])


def dprime_domain(run):
    """D' outside B's domain: n > m, R > n, a code with 2r > n (of dimension 0), and
    round trips on tall, wide, single-row and 1x1 matrices."""
    for shape, r in (("6x3", 4), ("5x5", 6)):
        run.run(f"gen-hit 13^1 Dprime {shape} r={r}",
                ["gen-hit", "--p", "13", "--family", "Dprime", "--dims", shape, "--r", str(r),
                 "--out", "@fam.txt"], ["fam.txt"])
    ctx, rng = field(13, 1), random.Random("dprime domain")
    for rank in (0, 3):
        word = formats.read_tensor_or_lowrank(low_rank(ctx, rng, (4, 4), rank)) if rank \
            else tensor.DenseTensor.zeros(ctx, (4, 4))
        run.write("rx.txt", formats.write_tensor(word))
        run.run(f"decode 13^1 Dprime 4x4 r=3 error-rank={rank}",
                ["decode", "--p", "13", "--family", "Dprime", "--dims", "4x4", "--r", "3",
                 "--word", "@rx.txt", "--out", "@dec.txt", "--error-out", "@err.txt"],
                ["dec.txt", "err.txt"])
    recovery(run, rng, ctx, "13^1 domain",
             shapes=[("Dprime", dims) for dims in ((6, 3), (3, 6), (1, 5), (1, 1))],
             rs=(1, 2), alterations=1)


def main():
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as workdir:
        run = Runner(workdir)
        for p, k in FIELDS:
            ctx, tag = field(p, k), f"{p}^{k}"
            rng = random.Random(f"{p}^{k}")
            gen_hit(run, p, k)
            recovery(run, rng, ctx, tag)
            pit(run, rng, ctx, tag)
            codes(run, rng, ctx, tag, p, k)
            schedules(run, rng, ctx, tag)
        recovery(run, random.Random(f"{WIDE_PRIME}^1"), field(WIDE_PRIME, 1), f"{WIDE_PRIME}^1",
                 shapes=(("Dprime", (10, 12)), ("Bprime", (10, 12)), ("TensorB", (3, 3, 3))),
                 rs=(2,), alterations=1)
        for p in SIM_PRIMES:
            simulations(run, p)
        for p in PIT_SIM_PRIMES:
            pit(run, random.Random(f"pit {p}"), field(p, 1), f"{p}^1",
                sims=("improper", "proper"))
        pit_grid(run)
        validation(run)
        dprime_domain(run)
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
