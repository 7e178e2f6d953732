"""Seeded planted inputs, computed with the benchmark's own field arithmetic.

Nothing here calls the ``FieldCtx`` under test.  GF(p) elements are plain
ints mod p.  GF(2^k) elements are ints whose bit i is the coefficient of
x^i, multiplied as carry-less products reduced by the field's modulus.
``to_fel``/``from_fel`` convert to and from the program's representation
(an int over GF(p), a constant-term-first coefficient tuple over GF(p^k)).

Every generator takes an explicit ``random.Random``; ``rng_for`` derives one
from the run's seed and the input's role, so a seed fixes every input.
"""

import random


def rng_for(seed: int, *parts) -> random.Random:
    """Independent deterministic stream for one input of one run."""
    return random.Random("/".join(str(p) for p in (seed, *parts)))


class PrimeArith:
    """GF(p) on plain ints."""

    def __init__(self, p: int):
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def rand(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def to_fel(self, a: int):
        return a

    def from_fel(self, x) -> int:
        return x

    def serialize(self, a: int) -> str:
        return str(a)

    def header(self) -> str:
        return f"field p={self.p} k=1"


def _clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _polymod2(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def is_irreducible_gf2(m: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2 over GF(2)."""
    deg = m.bit_length() - 1
    for d in range(1, deg // 2 + 1):
        for f in range(1 << d, 1 << (d + 1)):
            if _polymod2(m, f) == 0:
                return False
    return deg >= 1


class Gf2kArith:
    """GF(2^k) on ints: xor for addition, reduced carry-less products."""

    def __init__(self, modulus: tuple[int, ...]):
        self.k = len(modulus) - 1
        self.size = 1 << self.k
        self.modulus = tuple(modulus)
        self.mod_bits = sum(c << i for i, c in enumerate(modulus))
        if not is_irreducible_gf2(self.mod_bits):
            raise ValueError(f"modulus {modulus} is not irreducible over GF(2)")

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return _polymod2(_clmul(a, b), self.mod_bits)

    def rand(self, rng: random.Random) -> int:
        return rng.randrange(self.size)

    def to_fel(self, a: int) -> tuple[int, ...]:
        return tuple((a >> i) & 1 for i in range(self.k))

    def from_fel(self, x) -> int:
        return sum(c << i for i, c in enumerate(x))

    def serialize(self, a: int) -> str:
        return ",".join(str((a >> i) & 1) for i in range(self.k))

    def header(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"field p=2 k={self.k} mod={mod}"


def arith_for(ctx):
    """The benchmark's arithmetic for a program field: its p, k and modulus."""
    if ctx.k == 1:
        return PrimeArith(ctx.p)
    if ctx.p != 2:
        raise ValueError("the benchmark's own arithmetic covers GF(p) and GF(2^k)")
    return Gf2kArith(ctx.modulus)


# ---------------------------------------------------------------------------
# planted inputs (own representation: ints; flat row-major lists)
# ---------------------------------------------------------------------------


def nonzero_vector(arith, rng: random.Random, n: int) -> list[int]:
    while True:
        v = [arith.rand(rng) for _ in range(n)]
        if any(v):
            return v


def low_rank_factors(arith, rng, dims, r: int) -> list[list[list[int]]]:
    """r terms of nonzero factor vectors, one per axis."""
    return [[nonzero_vector(arith, rng, n) for n in dims] for _ in range(r)]


def expand_factors(arith, dims, terms) -> list[int]:
    """Row-major entries of the sum of the outer products in ``terms``."""
    total = 1
    for n in dims:
        total *= n
    out = [0] * total
    for factors in terms:
        entries = [1]
        for v in factors:
            entries = [arith.mul(e, c) for e in entries for c in v]
        out = [arith.add(a, b) for a, b in zip(out, entries)]
    return out


def low_rank(arith, rng, dims, r: int) -> list[int]:
    """A rank <= r tensor (a matrix for two axes), row-major."""
    return expand_factors(arith, dims, low_rank_factors(arith, rng, dims, r))


def message(arith, rng, length: int) -> list[int]:
    return [arith.rand(rng) for _ in range(length)]


# ---------------------------------------------------------------------------
# CLI files in the documented text format
# ---------------------------------------------------------------------------


def _dims_str(dims) -> str:
    return "x".join(str(n) for n in dims)


def tensor_text(arith, dims, entries) -> str:
    """``field`` header, ``tensor dims=`` line, one row per line."""
    lines = [arith.header(), f"tensor dims={_dims_str(dims)}"]
    row = dims[-1]
    for base in range(0, len(entries), row):
        lines.append(" ".join(arith.serialize(e) for e in entries[base : base + row]))
    return "\n".join(lines) + "\n"


def lowrank_text(arith, dims, terms) -> str:
    """``field`` header, ``lowrank dims= terms=`` line, one factor per line."""
    lines = [arith.header(), f"lowrank dims={_dims_str(dims)} terms={len(terms)}"]
    for factors in terms:
        for v in factors:
            lines.append(" ".join(arith.serialize(c) for c in v))
    return "\n".join(lines) + "\n"
