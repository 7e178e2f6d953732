"""Exact arithmetic in prime fields GF(p) and extensions GF(p^k).

Element representation
----------------------
GF(p) elements are plain ints in ``[0, p)``.  GF(p^k) elements with k >= 2
are length-k tuples of ints: the coefficients of the residue polynomial in
the power basis ``1, x, ..., x^(k-1)``, constant term first.  Extension
elements stay tuples because files, the benchmark's planted inputs and its
checks read and write them in that form.  All arithmetic goes through the
context owning the element, whose class :func:`make_prime_field` and
:func:`make_extension` pick once:

* :class:`PrimeField`, for GF(p), reduces ints mod p inline;
* :class:`TableField`, for an extension with q = p^k <= 2^8 elements, looks
  products, sums and inverses up in discrete-log tables (Lidl and
  Niederreiter, *Finite Fields*, ch. 9);
* :class:`FieldCtx`, the base of both, is the ring GF(p)[x]/f of a monic f:
  it adds coefficient-wise, multiplies by coefficient convolution reduced
  mod f and inverts a by solving M_a x = 1 over GF(p), with M_a its
  multiplication matrix (``embed_as_matrix``).  Larger extensions (GF(2^16),
  GF(13^3), extensions of large primes) and the rings of the irreducibility
  test, which have no logarithm, run on it.

With g = ``element_of_order(q - 1)``, a TableField's ``exp`` lists g^0, ...,
g^(q-2) twice over and then zeros, and ``log`` maps each tuple to its
exponent, zero to 2(q - 1), which indexes the zero padding.  A product is
``exp[log[a] + log[b]]`` with no branch, and ``inv`` and ``pow`` are index
arithmetic.  Sums use Zech logarithms (K. Huber, "Some comments on Zech's
logarithms", IEEE Trans. IT 36(4), 1990): with ``zech[i] = log(1 + g^i)``,
a sum of nonzero a and b is ``exp[la + zech[lb - la]]``; a zero operand
takes a branch of its own.  A negation is ``exp[log[a] + half]`` with
``half = log(-1)``, which is 0 for p = 2 and (q - 1)/2 otherwise, and a
difference adds the negation.  The tables change speed, never a value: a
TableField equals, and hashes as, the ring on its modulus, though its
``pack`` differs, so caches of packed tables key on type(ctx) too.  The
cap keeps the build at a few milliseconds, which every command reading a
file pays; GF(2^8) is the largest extension the benchmark multiplies in.

Canonical enumeration
---------------------
Several constructions need "the first few field elements" and reproducible
builds need one fixed order.  We enumerate the nonzero elements by their
coefficient tuples in lexicographic order, comparing from the constant term
upward (so over GF(p) the enumeration is simply 1, 2, 3, ...).  The zero
element is skipped.  The same order drives modulus selection: an extension
is built on the first candidate x^k + (element t of GF(p^k)) that passes
Rabin's test, run with this module's arithmetic in the ring GF(p)[x]/f.
That is the lexicographically least monic irreducible polynomial of the
requested degree, which makes every derived construction byte-reproducible.

Order certification
-------------------
``ctx.element_of_order(b)`` returns the first enumerated element whose
multiplicative order is at least ``b``.  The order is computed exactly from
the factorization of ``p^k - 1``, factored once per field one cyclotomic
factor Phi_e(p), e | k, at a time, so certifying costs a few
exponentiations per candidate whatever the bound.

Vector kernels
--------------
Besides the element operations, a context offers a few vector kernels:

* ``dot(u, v)``: sum of u[i] * v[i];
* ``axpy(dst, c, src, start=0)``: dst[start + j] += c * src[j], in place;
* ``fma(dst, u, v)``: dst[i] += u[i] * v[i], in place;
* ``pivot(rows, r, c)``: scale row r so its column-c entry is one, then
  clear column c of every other row, touching columns c onward only;
* ``powers(x, count)``: [1, x, ..., x^(count-1)];
* ``horner(coeffs, x)``: sum of coeffs[i] * x^i;
* ``pack(rows)`` and ``dots(u, packed, count, at=None)``: rows bundled
  once, then [dot(u, at(row)) for row in rows[:count]] in one call, at
  picking the columns read (None: the leading ones), for count at most the
  rows packed; a row may end early and reads as zero past its end, when at
  is None or a slice.

Each class has one body per element operation and kernel that its
representation changes, and these bodies are the only code that knows how
elements are stored: linear algebra, Prony's method, recovery, measurement
and encoding are written once, over any field, on top of them.  FieldCtx's
``dot`` sums unreduced coefficient convolutions and reduces once through
``_reduce``, the one reduction mod the modulus (everything else that
multiplies extension elements goes through ``mul``, except that
``embed_as_matrix``, and so ``inv``, multiplies by x as a shift plus the
reduction table's first row, x^k mod f); its other kernels fold ``add``
and ``mul``, and its ``dots`` makes one ``dot`` per row.  PrimeField packs
the rows of ``dots`` into one int per column.  TableField packs each row
as its logs and keeps ``kexp``, each power of g as one int with its k
coefficients in 64-bit slots, so ``dot`` and each row of ``dots`` are one
C-level sum of ``kexp[log a + log b]`` read back slot by slot mod p; it
inherits the other kernels with table lookups inside.

Everything here is immutable after construction apart from memoized order
discoveries and lazily built helpers (a prime field's inverse table below
2^16, an extension's GF(p) for ``inv``, a TableField's ``kexp``), which
are write-once and race-benign.  A TableField's exp, log and Zech tables
are complete when it is built and never change.  Contexts may be shared
freely across threads and all element operations are pure.
"""

import itertools
import math
import operator
import struct

from .errors import CompositeCharacteristic, FieldTooSmall, OrderUnreachable

Fel = int | tuple[int, ...]

_TABLE_CAP = 1 << 8  # extensions with at most this many elements get exp/log/Zech tables


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases; deterministic below 3.3e24.

    Above that bound a pass rests on these fixed bases, and so does every
    factorization of p^k - 1 (``_exact_order``) with a cofactor that large.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise AssertionError("unreachable")


def _factorize(n: int) -> dict[int, int]:
    """Full factorization of n (trial division, then Pollard rho)."""
    factors: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return factors


def _group_order_factors(p: int, k: int) -> dict[int, int]:
    """Factorization of p^k - 1, merged from those of Phi_e(p) for e | k.

    Phi_e(p) = (p^e - 1) / prod_(d | e, d < e) Phi_d(p).  Rho slows with the
    second-largest prime of what it splits, so p - 1 and p + 1 are split one
    at a time; a Phi_e(p), e >= 3, made of two large primes is still slow.
    """
    phi, factors = {}, {}
    for e in (d for d in range(1, k + 1) if k % d == 0):
        phi[e] = (p**e - 1) // math.prod(v for d, v in phi.items() if e % d == 0)
        for q, c in _factorize(phi[e]).items():
            factors[q] = factors.get(q, 0) + c
    return factors


class FieldCtx:
    """The ring GF(p)[x]/f of a monic f, in convolution arithmetic.

    With f irreducible of degree k it is the field GF(p^k), and ``inv``
    eliminates over GF(p) on the multiplication matrix.  Callers use
    :func:`make_prime_field` and :func:`make_extension`, which build a
    subclass where one applies; the irreducibility test builds the ring on a
    candidate modulus f, where every operation but ``inv`` is valid.
    """

    _exp: list[tuple[int, ...]] | None = None  # set by TableField only
    _log: dict[tuple[int, ...], int] | None = None

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.modulus = modulus  # monic, length k+1, None when k == 1
        self.size = p**k
        self.zero: Fel = 0 if k == 1 else (0,) * k
        self.one: Fel = 1 if k == 1 else (1,) + (0,) * (k - 1)
        self._order_memo: dict[int, Fel] = {}
        self._group_factors: dict[int, int] | None = None
        self._base: PrimeField | None = None  # GF(p), built by the first inv
        if k > 1:
            # reduction table: x^(k+i) mod modulus, i in [0, k-1)
            assert modulus is not None and modulus[-1] == 1 and len(modulus) == k + 1
            red = []
            cur = [(-c) % p for c in modulus[:-1]]  # x^k
            red.append(tuple(cur))
            for _ in range(k - 2):
                cur = [0] + cur
                hi = cur.pop()  # coefficient of x^k
                cur = [(c + hi * r) % p for c, r in zip(cur, red[0])]
                red.append(tuple(cur))
            self._red = red

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # -- arithmetic ---------------------------------------------------------
    # map over repeat(p): a comprehension reading p makes a closure cell per call

    def add(self, a: Fel, b: Fel) -> Fel:
        return tuple(map(operator.mod, map(operator.add, a, b), itertools.repeat(self.p)))

    def sub(self, a: Fel, b: Fel) -> Fel:
        return tuple(map(operator.mod, map(operator.sub, a, b), itertools.repeat(self.p)))

    def neg(self, a: Fel) -> Fel:
        return tuple(map(operator.mod, map(operator.neg, a), itertools.repeat(self.p)))

    def mul(self, a: Fel, b: Fel) -> Fel:
        conv = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    conv[j] += ai * bj
        return self._reduce(conv)

    def _reduce(self, conv: list[int]) -> tuple[int, ...]:
        """The element whose unreduced coefficient convolution is conv."""
        p, k = self.p, self.k
        out = conv[:k]
        for i, red in enumerate(self._red, k):
            hi = conv[i] % p
            if hi:
                for t in range(k):
                    out[t] += hi * red[t]
        for t in range(k):
            out[t] %= p
        return tuple(out)

    def inv(self, a: Fel) -> Fel:
        """Solve M_a x = 1 over GF(p), M_a = ``embed_as_matrix(self, a)``."""
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        base = self._base
        if base is None:  # the candidate rings of the irreducibility test never get here
            base = self._base = PrimeField(self.p)
        rows = [row + [b] for row, b in zip(embed_as_matrix(self, a), self.one)]
        for c in range(self.k):
            r = c
            while not rows[r][c]:
                r += 1
            rows[c], rows[r] = rows[r], rows[c]
            base.pivot(rows, c, c)
        return tuple(map(operator.itemgetter(self.k), rows))

    def pow(self, a: Fel, e: int) -> Fel:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e == 0:
            return self.one
        result = a  # left-to-right square-and-multiply over the bits after the top one
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def scalar(self, n: int) -> Fel:
        """Image of the integer n in the field (n mod p, embedded)."""
        return (n % self.p,) + (0,) * (self.k - 1)

    # -- vector kernels -------------------------------------------------------

    def dot(self, u, v) -> Fel:
        """sum_i u[i] * v[i], over the shorter of the two vectors."""
        zero = self.zero
        conv = [0] * (2 * self.k - 1)
        for a, b in zip(u, v):
            if a != zero and b != zero:
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b, i):
                            conv[j] += ai * bj
        return self._reduce(conv)

    def fma(self, dst: list, u, v) -> None:
        """dst[i] += u[i] * v[i] over the shorter of u and v, in place.

        dst must be at least as long as that.
        """
        dst[: min(len(u), len(v))] = map(self.add, dst, map(self.mul, u, v))

    def axpy(self, dst: list, c: Fel, src, start: int = 0) -> None:
        """dst[start + j] += c * src[j] for every j, in place."""
        zero, one = self.zero, self.one
        if c == zero:
            return
        for j, s in enumerate(src, start):
            if s != zero:
                dst[j] = self.add(dst[j], s if c == one else self.mul(c, s))

    def pivot(self, rows: list[list], r: int, c: int) -> None:
        """Scale rows[r] to a one in column c, then clear column c elsewhere.

        Entries of rows[r] left of column c must be zero, so only columns c
        onward are updated, in place.
        """
        prow = rows[r]
        prow[c:] = tail = list(map(self.mul, itertools.repeat(self.inv(prow[c])), prow[c:]))
        for row in rows:
            if row[c] != self.zero and row is not prow:
                self.axpy(row, self.neg(row[c]), tail, c)

    def powers(self, x: Fel, count: int) -> list[Fel]:
        """[1, x, x^2, ..., x^(count-1)]."""
        out = [self.one] if count > 0 else []
        for _ in range(count - 1):  # the base first: mul skips its zero coefficients
            out.append(self.mul(x, out[-1]))
        return out

    def horner(self, coeffs, x: Fel) -> Fel:
        """sum_i coeffs[i] * x^i."""
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def pack(self, rows) -> list:
        """Rows bundled for ``dots``; a row read past its end reads as zero."""
        return list(rows)

    def dots(self, u, packed, count: int, at=None) -> list[Fel]:
        """[dot(u, at(row)) for row in rows[:count]], with packed = pack(rows).

        ``at`` picks the columns each row is read on (a slice or a gather,
        such as ``hitting.Cells.at_weights``); None reads the leading ones.
        count must not exceed the rows packed: past them the classes differ
        (PrimeField reads zero rows, the others return fewer values), and
        ``lrr.low_rank_recovery``, the one caller whose count comes from its
        input, raises ShapeMismatch first.
        """
        rows = packed[:count] if at is None else map(at, packed[:count])
        return list(map(self.dot, itertools.repeat(u), rows))

    # -- enumeration and serialization ---------------------------------------

    def from_index(self, t: int) -> Fel:
        """Element number t in the lexicographic (constant-term-first) order."""
        if not 0 <= t < self.size:
            raise ValueError(f"index {t} out of range for {self!r}")
        if self.k == 1:
            return t
        return _digits(t, self.p, self.k)  # constant term is the major digit

    def nonzero_elements(self):
        """Canonical enumeration: all nonzero elements, lexicographic order."""
        for t in range(1, self.size):
            yield self.from_index(t)

    def first_elements(self, count: int) -> list[Fel]:
        """First ``count`` canonical nonzero elements."""
        if count > self.size - 1:
            raise FieldTooSmall(
                f"{self!r} has only {self.size - 1} nonzero elements, need {count}"
            )
        return list(itertools.islice(self.nonzero_elements(), count))

    def serialize(self, a: Fel) -> str:
        if self.k == 1:
            return str(a)
        return ",".join(str(c) for c in a)

    def parse(self, s: str) -> Fel:
        parts = [int(c) for c in s.split(",")]
        if len(parts) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {s!r}")
        if any(not 0 <= c < self.p for c in parts):
            raise ValueError(f"coefficient out of range in {s!r}")
        return parts[0] if self.k == 1 else tuple(parts)

    # -- multiplicative order -------------------------------------------------

    def _exact_order(self, a: Fel) -> int:
        """Multiplicative order of a nonzero a, from ``_group_order_factors(p, k)``.

        A factor above 3.3e24 is taken as prime on fixed-base Miller-Rabin.
        """
        if self._group_factors is None:
            self._group_factors = _group_order_factors(self.p, self.k)
        order = self.size - 1
        for q in self._group_factors:
            while order % q == 0 and self.pow(a, order // q) == self.one:
                order //= q
        return order

    def order_at_least(self, a: Fel, bound: int) -> bool:
        """Whether a has multiplicative order >= bound (a nonzero)."""
        if a == self.zero:
            return False
        return bound <= 1 or self._exact_order(a) >= bound

    def element_of_order(self, min_order: int) -> Fel:
        """First canonical element of multiplicative order >= min_order."""
        if min_order > self.size - 1:
            raise OrderUnreachable(
                f"{self!r} has multiplicative group of size {self.size - 1}, "
                f"order {min_order} unreachable; extend the field"
            )
        memo = self._order_memo.get(min_order)
        if memo is not None:
            return memo
        for a in self.nonzero_elements():
            if self.order_at_least(a, min_order):
                self._order_memo[min_order] = a
                return a
        raise AssertionError("cyclic group must contain a high-order element")


class PrimeField(FieldCtx):
    """GF(p) on ints in [0, p), every body reducing mod p inline.

    ``pack`` bundles R rows, the widest of width w, column by column:
    column j is the int sum_l rows[l][j] 2^(S l), a row's entries past its
    end taken as zero, slot S = 2 bitlen(p - 1) + bitlen(w).
    ``dots`` then makes one ``sum(map(mul))`` for all R rows, the delayed
    reduction of FFLAS/FFPACK (Dumas, Giorgi and Pernet, ISSAC 2004): for
    entries in [0, p) each slot sums at most w products below (p - 1)^2,
    under 2^S, whichever columns ``at`` picks, so none carries into the
    next, and slot l read back mod p is row l's dot exactly.  S is read off
    the whole table, so ``dots`` takes the table and a column selector,
    never a slice of it.  Entries outside [0, p) are outside the class's
    domain and give wrong slots.
    """

    def __init__(self, p: int):
        super().__init__(p, 1, None)
        self._inv_table: list[int] | None = None  # built by the first inv below 2^16
        self._square_bits = 2 * (p - 1).bit_length()  # a slot's share for one product

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        table = self._inv_table
        if table is not None and a:
            return table[a]
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if p >= 1 << 16:
            return pow(a, -1, p)
        table = [0, 1]
        for v in range(2, p):  # 1/v = -(p // v) / (p mod v)
            table.append(-(p // v) * table[p % v] % p)
        self._inv_table = table
        return table[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return pow(a, e, self.p)

    def scalar(self, n: int) -> int:
        return n % self.p

    def dot(self, u, v) -> int:
        return sum(map(operator.mul, u, v)) % self.p

    def fma(self, dst: list, u, v) -> None:
        # p rides along in the zip, so the comprehension closes over nothing
        ps = itertools.repeat(self.p)
        dst[: min(len(u), len(v))] = [(d + a * b) % p for d, a, b, p in zip(dst, u, v, ps)]

    def axpy(self, dst: list, c: int, src, start: int = 0) -> None:
        if c:
            p = self.p
            for j, s in enumerate(src, start):
                if s:
                    dst[j] = (dst[j] + c * s) % p

    def pivot(self, rows: list[list], r: int, c: int) -> None:
        # inline loops: an axpy call per row costs more than the row itself
        # on the small systems linalg reduces, such as the square Vandermonde
        # systems of lrr._solve_diagonal
        prow = rows[r]
        inv = self.inv(prow[c])
        p, cols = self.p, range(c, len(prow))
        if inv != 1:
            for j in cols:
                prow[j] = prow[j] * inv % p
        for row in rows:
            f = row[c]
            if f and row is not prow:
                for j in cols:
                    if prow[j]:
                        row[j] = (row[j] - f * prow[j]) % p

    def powers(self, x: int, count: int) -> list[int]:
        out = [1] if count > 0 else []
        p = self.p
        for _ in range(count - 1):
            out.append(out[-1] * x % p)
        return out

    def horner(self, coeffs, x: int) -> int:
        p, acc = self.p, 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    def pack(self, rows) -> list[int]:
        # join neighbouring groups of rows pairwise, the lower group in the
        # lower slots, so each entry is shifted log2(R) times, not R times
        groups = [*map(list, rows)] or [[]]
        width = max(map(len, groups))
        for row in groups:
            row.extend(itertools.repeat(0, width - len(row)))
        shift = self._square_bits + width.bit_length()
        while len(groups) > 1:
            joined = []
            for lo, hi in zip(groups[::2], groups[1::2]):
                joined.append(list(map(operator.or_, lo,
                                       map(operator.lshift, hi, itertools.repeat(shift)))))
            groups[: 2 * len(joined)] = joined
            shift *= 2
        return groups[0]

    def dots(self, u, packed, count: int, at=None) -> list[int]:
        slot = self._square_bits + len(packed).bit_length()
        v = sum(map(operator.mul, u, packed if at is None else at(packed)))
        mask, p, out = (1 << slot) - 1, self.p, []
        for _ in range(count):
            out.append((v & mask) % p)
            v >>= slot
        return out


class TableField(FieldCtx):
    """GF(p^k) on exp/log/Zech tables of a generator g of the ring's units.

    The vector kernels work on logs.  ``pack`` maps each row to its logs,
    a zero to 2(q - 1), which indexes the zero padding of ``exp``.  ``kexp``
    is ``exp`` with each element in Kronecker form (D. Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution",
    J. Symb. Comput. 44, 2009): coefficient i moved into bits 64i onward of
    one int.  A row's dot is then one C-level ``sum`` of
    ``kexp[log u[i] + log v[i]]``, and its k 64-bit slots read back mod p.
    Each term adds at most p - 1 to a slot, and under the table cap k >= 2
    forces p <= 13, so no slot carries before 2^60 terms: no width check.
    ``kexp`` is built from the q - 1 distinct powers by the first ``dot``
    or ``dots``, write-once like a prime field's inverse table, so contexts
    that only read a file never pay for it.
    """

    def __init__(self, ring: FieldCtx, g: tuple[int, ...]):
        super().__init__(ring.p, ring.k, ring.modulus)
        n, p = self.size - 1, self.p
        exp = ring.powers(g, n)
        log = {a: i for i, a in enumerate(exp)}
        log[self.zero] = 2 * n  # a sum of logs with a zero among them indexes the padding
        # zech[i] = log(1 + g^i): bump the constant coefficient of g^i; a
        # negative difference of logs in (-n, 0) indexes it from the end
        self._zech = [log[((e[0] + 1) % p,) + e[1:]] for e in exp]
        self._exp = exp + exp + [self.zero] * (2 * n + 1)
        self._log = log
        self._zero_log = 2 * n
        self._half = 0 if p == 2 else n // 2  # log(-1): g^(n/2) = -1 for odd p
        self._slots = struct.Struct(f"<{self.k}Q")  # an int's k 64-bit slots, lowest first
        self._kexp: list[int] | None = None  # built by the first dot or dots

    def add(self, a: Fel, b: Fel) -> Fel:
        log = self._log
        la, lb = log[a], log[b]
        zero_log = self._zero_log
        if la == zero_log:
            return b
        if lb == zero_log:
            return a
        return self._exp[la + self._zech[lb - la]]

    def sub(self, a: Fel, b: Fel) -> Fel:
        return self.add(a, self.neg(b))

    def neg(self, a: Fel) -> Fel:
        return self._exp[self._log[a] + self._half]

    def mul(self, a: Fel, b: Fel) -> Fel:
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a: Fel) -> Fel:
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.size - 1 - self._log[a]]

    def pow(self, a: Fel, e: int) -> Fel:
        if a != self.zero:
            return self._exp[self._log[a] * e % (self.size - 1)]
        if e < 0:
            raise ZeroDivisionError("inverse of zero")
        return self.one if e == 0 else a

    def _build_kexp(self) -> list[int]:
        n = self.size - 1
        powers = [int.from_bytes(self._slots.pack(*e), "little") for e in self._exp[:n]]
        self._kexp = kexp = powers + powers + [0] * (2 * n + 1)
        return kexp

    def _from_slots(self, total: int) -> Fel:
        """The element whose Kronecker form, each slot unreduced, is total."""
        slots = self._slots
        return tuple(map(operator.mod, slots.unpack(total.to_bytes(slots.size, "little")),
                         itertools.repeat(self.p)))

    def dot(self, u, v) -> Fel:
        kexp, log = self._kexp or self._build_kexp(), self._log.__getitem__
        return self._from_slots(sum(map(kexp.__getitem__,
                                        map(operator.add, map(log, u), map(log, v)))))

    def pack(self, rows) -> list[list[int]]:
        return list(map(list, map(map, itertools.repeat(self._log.__getitem__), rows)))

    def dots(self, u, packed, count: int, at=None) -> list[Fel]:
        kexp = self._kexp or self._build_kexp()
        lu = list(map(self._log.__getitem__, u))  # u's logs, taken once for every row
        out = []
        for row in packed[:count] if at is None else map(at, packed[:count]):
            out.append(self._from_slots(sum(map(kexp.__getitem__, map(operator.add, lu, row)))))
        return out


def make_prime_field(p: int) -> PrimeField:
    """GF(p) for prime p."""
    if not _is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    return PrimeField(p)


def _digits(t: int, p: int, k: int) -> tuple[int, ...]:
    """The k base-p digits of t, most significant first."""
    return tuple([t // p**i % p for i in range(k - 1, -1, -1)])


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic f of degree k >= 2, run in GF(p)[x]/f.

    f is irreducible iff x^(p^k) = x mod f and, for every prime q | k,
    x^(p^(k/q)) - x is a unit mod f.  Once the first holds, f is squarefree
    and every factor's degree divides k, so the ring is a product of
    subfields of GF(p^k) and u is a unit iff u^(p^k - 1) = 1.
    """
    k = len(f) - 1
    ring = FieldCtx(p, k, f)
    x = (0, 1) + (0,) * (k - 2)
    frob = [x]  # frob[j] = x^(p^j) mod f
    for _ in range(k):
        frob.append(ring.pow(frob[-1], p))
    return frob[k] == x and all(
        ring.pow(ring.sub(frob[k // q], x), ring.size - 1) == ring.one
        for q in _factorize(k)
    )


def lexicographically_least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Least monic irreducible of degree k over GF(p), constant-term-major order.

    Candidate t is x^k plus element t of the canonical enumeration of
    GF(p^k); the scan starts at t = p^(k-1), the first element whose constant
    term is nonzero, since every earlier candidate is divisible by x.
    """
    for t in range(p ** (k - 1), p**k):
        f = (*_digits(t, p, k), 1)
        if _is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def make_extension(base: FieldCtx, k: int) -> FieldCtx:
    """GF(p^k) over a degree-1 base, on the canonical irreducible modulus."""
    if base.k != 1:
        raise ValueError("extension base must be a prime field")
    if k < 2:
        raise ValueError("extension degree must be >= 2")
    ring = FieldCtx(base.p, k, lexicographically_least_irreducible(base.p, k))
    if ring.size <= _TABLE_CAP:
        return TableField(ring, ring.element_of_order(ring.size - 1))
    return ring


def make_field(p: int, k: int) -> FieldCtx:
    """GF(p^k): GF(p) for k = 1, else its canonical extension (k >= 2)."""
    ctx = make_prime_field(p)
    return ctx if k == 1 else make_extension(ctx, k)


def embed_as_matrix(ctx: FieldCtx, a: Fel) -> list[list[int]]:
    """Matrix of x -> a*x over the base field, in the power basis.

    Column c holds the coefficients of ``a * x^c``, x times column c - 1:
    that column shifted up one degree, its x^k coefficient folded back in
    through x^k mod f (the first row of the reduction table).  The map is an
    algebra homomorphism: it turns field addition and multiplication into
    matrix addition and multiplication.
    """
    if ctx.k == 1:
        return [[a]]
    p, top = ctx.p, ctx._red[0]
    cols = [a]
    for _ in range(ctx.k - 1):
        shifted, hi = [0, *cols[-1][:-1]], cols[-1][-1]  # hi: the x^k coefficient
        cols.append([(c + hi * t) % p for c, t in zip(shifted, top)] if hi else shifted)
    return [list(row) for row in zip(*cols)]
