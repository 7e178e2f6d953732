"""Exact arithmetic in prime fields GF(p) and extensions GF(p^k).

GF(p) elements are ints in [0, p).  GF(p^k) elements, k >= 2, are
length-k tuples: the coefficients of the residue polynomial in the basis
1, x, ..., x^(k-1), constant term first; files and the benchmark read and
write them in that form.  All arithmetic goes through the context that
owns an element, whose class ``make_prime_field`` and ``make_extension``
pick once:

* ``PrimeField``, GF(p);
* ``TableField``, an extension of at most 2^8 elements, on discrete-log
  tables (Lidl and Niederreiter, *Finite Fields*, ch. 9) and Zech
  logarithms (K. Huber, "Some comments on Zech's logarithms", IEEE Trans.
  IT 36(4), 1990);
* ``FieldCtx``, the base of both: the ring GF(p)[x]/f of a monic f, in
  convolution arithmetic reduced mod f.  Larger extensions and the rings of
  the irreducibility test run on it.

The classes differ in speed, never in a value: a TableField equals, and
hashes as, the ring on its modulus, though its ``pack`` differs, so caches
of packed tables key on type(ctx) too.

Canonical enumeration: the nonzero elements in lexicographic order of
their coefficient tuples, constant term most significant (over GF(p): 1,
2, 3, ...).  An extension is built on the first candidate x^k + (element t)
that passes Rabin's test, the lexicographically least monic irreducible of
degree k, so every derived construction is byte-reproducible.
``element_of_order(b)`` returns the first enumerated element of
multiplicative order >= b, computed exactly from the factorization of
p^k - 1, one cyclotomic factor Phi_e(p), e | k, at a time.

Vector kernels, each with one body per class whose representation changes
it; linear algebra, Prony's method, recovery, measurement and encoding are
written once on top of them:

* ``dot(u, v)``: sum of u[i] * v[i];
* ``axpy(dst, c, src, start=0)``: dst[start + j] += c * src[j], in place;
* ``sum_products(us, vs)``: [sum_c us[c][t] * vs[c][t] for each t];
* ``pivot(rows, r, c)``: scale row r to a one in column c, then clear
  column c of every other row;
* ``powers(x, count)``: [1, x, ..., x^(count-1)];
* ``horner(coeffs, x)``: sum of coeffs[i] * x^i;
* ``pack(rows)`` and ``dots(u, packed, count, at=None)``: rows bundled
  once, then [dot(u, at(row)) for row in rows[:count]] in one call.

Contexts are immutable apart from write-once memos (order discoveries, a
prime field's inverse table, an extension's GF(p), a TableField's
``kexp``), so they may be shared across threads.
"""

import functools
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

    def sum_products(self, us, vs) -> list[Fel]:
        """[sum_c us[c][t] * vs[c][t] for each t], over at least one pair.

        The vectors of every pair share one length, the result's.
        """
        acc = [self.zero] * len(us[0])
        for u, v in zip(us, vs):
            acc = list(map(self.add, acc, map(self.mul, u, v)))
        return acc

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
        such as ``hitting.Cells.at_cols``); None reads the leading ones.  A
        row ends early only when at is None or a slice.  count must not
        exceed the rows packed; past them the classes differ.
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

    ``pack`` bundles R rows of width at most w column by column: column j
    is the int sum_l rows[l][j] 2^(S l), slot S = 2 bitlen(p - 1) +
    bitlen(w).  ``dots`` is then one ``sum(map(mul))`` for all R rows, the
    delayed reduction of FFLAS/FFPACK (Dumas, Giorgi and Pernet, ISSAC
    2004): a slot sums at most w products below (p - 1)^2, so none carries
    into the next.  S is read off the whole table, so ``dots`` takes the
    table and a column selector, never a slice of it.  Entries outside
    [0, p) give wrong slots.
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

    def sum_products(self, us, vs) -> list[int]:
        # each cell's products summed unreduced, then one reduction per cell
        acc = map(operator.mul, us[0], vs[0])
        for u, v in zip(us[1:], vs[1:]):
            acc = map(operator.add, acc, map(operator.mul, u, v))
        return list(map(operator.mod, acc, itertools.repeat(self.p)))

    def axpy(self, dst: list, c: int, src, start: int = 0) -> None:
        if c:
            p = self.p
            for j, s in enumerate(src, start):
                if s:
                    dst[j] = (dst[j] + c * s) % p

    def pivot(self, rows: list[list], r: int, c: int) -> None:
        # inline loops: an axpy call per row costs more than the row itself
        # on small systems, such as the k x k ones of FieldCtx.inv
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
        # join rows 2j and 2j + 1 (the lower in the lower slots) until one is left: log2(R)
        # shifts per entry, and, with R padded to a power of two, one map over all columns
        rows = list(rows) or [()]
        rows += [()] * ((1 << (len(rows) - 1).bit_length()) - len(rows))
        cols = list(itertools.zip_longest(*rows, fillvalue=0))
        flat = list(itertools.chain.from_iterable(cols))
        shift = self._square_bits + len(cols).bit_length()
        while len(flat) > len(cols):
            flat = list(map(operator.or_, flat[0::2],
                            map(operator.lshift, flat[1::2], itertools.repeat(shift))))
            shift *= 2
        return flat

    def dots(self, u, packed, count: int, at=None) -> list[int]:
        slot = self._square_bits + len(packed).bit_length()
        return self._unpack(sum(map(operator.mul, u, packed if at is None else at(packed))),
                           slot, count)

    def _unpack(self, v: int, slot: int, count: int) -> list[int]:
        # halves past 64 slots: O(R log R) slot widths, not R shifts of all of v
        if count > 64:
            half = count >> 1
            return (self._unpack(v & ((1 << half * slot) - 1), slot, half)
                    + self._unpack(v >> half * slot, slot, count - half))
        mask, p, out = (1 << slot) - 1, self.p, []
        for _ in range(count):
            out.append((v & mask) % p)
            v >>= slot
        return out


class TableField(FieldCtx):
    """GF(p^k) on exp/log/Zech tables of a generator g of the ring's units.

    ``exp`` lists g^0, ..., g^(q-2) twice, then zeros, and ``log`` maps zero
    to 2(q - 1), which indexes that padding, so a product is
    ``exp[log a + log b]`` with no branch.  ``pack`` maps rows to logs.
    ``kexp`` is ``exp`` in Kronecker form (D. Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", J. Symb. Comput.
    44, 2009), coefficient i in bits 64i onward of one int, so a dot is one
    C-level ``sum`` read back slot by slot mod p; under the table cap p <=
    13, so no slot carries before 2^60 terms.  The first ``dot`` or
    ``dots`` builds ``kexp``.
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

    def sum_products(self, us, vs) -> list[Fel]:
        exp, log = self._exp.__getitem__, self._log.__getitem__
        acc = None
        for u, v in zip(us, vs):
            terms = list(map(exp, map(operator.add, map(log, u), map(log, v))))
            acc = terms if acc is None else list(map(self.add, acc, terms))
        return acc

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


@functools.lru_cache(maxsize=32)
def make_field(p: int, k: int) -> FieldCtx:
    """GF(p^k): GF(p) for k = 1, else its canonical extension (k >= 2).
    One field per (p, k) per process, from a bounded cache."""
    ctx = make_prime_field(p)
    return ctx if k == 1 else make_extension(ctx, k)


def embed_as_matrix(ctx: FieldCtx, a: Fel) -> list[list[int]]:
    """Matrix of x -> a*x over the base field, in the power basis: column c
    holds the coefficients of ``a * x^c``.  The map is an algebra
    homomorphism into the k x k matrices over GF(p).
    """
    if ctx.k == 1:
        return [[a]]
    p, top = ctx.p, ctx._red[0]
    cols = [a]
    for _ in range(ctx.k - 1):
        shifted, hi = [0, *cols[-1][:-1]], cols[-1][-1]  # hi: the x^k coefficient
        cols.append([(c + hi * t) % p for c, t in zip(shifted, top)] if hi else shifted)
    return [list(row) for row in zip(*cols)]
