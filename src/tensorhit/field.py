"""Exact arithmetic in prime fields GF(p) and extensions GF(p^k).

Element representation
----------------------
GF(p) elements are plain ints in ``[0, p)``.  GF(p^k) elements with k >= 2
are length-k tuples of ints: the coefficients of the residue polynomial in
the power basis ``1, x, ..., x^(k-1)``, constant term first.  All arithmetic
goes through the :class:`FieldCtx` owning the element.

An extension with q = p^k <= 2^8 elements also carries discrete-log tables
(Lidl and Niederreiter, *Finite Fields*, ch. 9), which :func:`make_extension`
builds before it returns.  With g = ``element_of_order(q - 1)``, ``exp``
lists g^0, ..., g^(q-2) twice over and then zeros, and ``log`` maps each
tuple to its exponent, zero to 2(q - 1), which indexes the zero padding.  A
product is ``exp[log[a] + log[b]]`` with no branch, and ``inv`` and ``pow``
are index arithmetic.  Sums use Zech logarithms (K. Huber, "Some comments
on Zech's logarithms", IEEE Trans. IT 36(4), 1990): ``zech[i] = log(1 +
g^i)``, listed twice over, so a sum of nonzero a and b is
``exp[la + zech[lb - la]]``.  A difference shifts ``lb`` by ``half =
log(-1)``, which is 0 for p = 2 and (q - 1)/2 otherwise, and a negation is
``exp[log[a] + half]``; a zero operand of a sum or difference takes a
branch of its own.  The tables change speed, never a value.  The cap
keeps the build at a few milliseconds, which every command reading a file
pays; GF(2^8) is the largest extension the benchmark multiplies in.  Larger
extensions (GF(2^16), GF(13^3) and the larger GF(13^k) of tensor families,
extensions of large primes) and the rings GF(p)[x]/f of the irreducibility
test, which have no logarithm, add coefficient-wise, multiply by
coefficient convolution reduced mod the modulus and invert by extended
Euclid.

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
``find_element_of_order(ctx, b)`` returns the first enumerated element whose
multiplicative order is at least ``b``.  The order is computed exactly from
the factorization of ``p^k - 1`` (factored once per field), so certifying
costs a few exponentiations per candidate whatever the bound.

Vector kernels
--------------
Besides the element operations, a context offers a few vector kernels:

* ``dot(u, v)``: sum of u[i] * v[i];
* ``axpy(dst, c, src, start=0)``: dst[start + j] += c * src[j], in place;
* ``fma(dst, u, v)``: dst[i] += u[i] * v[i], in place;
* ``pivot(rows, r, c)``: scale row r so its column-c entry is one, then
  clear column c of every other row, touching columns c onward only;
* ``powers(x, count)``: [1, x, ..., x^(count-1)];
* ``horner(coeffs, x)``: sum of coeffs[i] * x^i.

Each has one body for ints and one for tuples, and together with the
element operations they are the only code that knows how elements are
stored: linear algebra, Prony's method, recovery, measurement and encoding
are written once, over any field, on top of them.  The int bodies reduce
mod p inline.  On a table-backed extension, ``dot`` sums the table products
of its nonzero pairs coefficient-wise and reduces mod p once; without
tables it sums unreduced coefficient convolutions and reduces once.  The
other tuple bodies fold the element operations, so they take their
products and sums from the tables wherever ``mul`` and ``add`` do.
``_reduce`` is the one reduction mod the modulus: the convolution ``mul``
and ``dot`` end in it, and everything else that multiplies extension
elements, ``embed_as_matrix`` included, goes through ``mul``.
Extension elements stay tuples because files, the benchmark's planted
inputs and its checks read and write them in that form.

Everything here is immutable after construction apart from memoized order
discoveries and the lazily built inverse table of a prime field below
2^16, which are write-once and race-benign.  An extension's exp/log/Zech
tables are complete before :func:`make_extension` returns and never change.
Contexts may be shared freely across threads and all element operations
are pure.
"""

import itertools
import operator

from .errors import CompositeCharacteristic, FieldTooSmall, OrderUnreachable

Fel = int | tuple[int, ...]

_TABLE_CAP = 1 << 8  # extensions with at most this many elements get exp/log/Zech tables


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases; deterministic below 3.3e24."""
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
    import math

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


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients as lists (constant term first)
# ---------------------------------------------------------------------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    _poly_trim(a)
    db, db_lead = len(b) - 1, b[-1]
    inv_lead = pow(db_lead, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        coeff = a[-1] * inv_lead % p
        q[shift] = coeff
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coeff * bi) % p
        _poly_trim(a)
    return q, a


def _poly_inv(a: tuple[int, ...], f: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Inverse of a nonzero a mod f, by extended Euclid; a unit mod f is assumed."""
    r0, r1 = list(f), _poly_trim(list(a))
    s0, s1 = [0], [1]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        qs = [0] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs[i + j] = (qs[i + j] + qi * sj) % p
        new_s = [(x - y) % p for x, y in itertools.zip_longest(s0, qs, fillvalue=0)]
        s0, s1 = s1, _poly_trim(new_s)
    lead_inv = pow(r1[0], p - 2, p)
    out = [c * lead_inv % p for c in s1]
    out += [0] * (len(a) - len(out))
    return tuple(out[: len(a)])


# coefficient-wise sum, difference and negation of extension elements: the
# comprehensions live out of the FieldCtx methods, whose every call (the int
# ones included) would otherwise make a closure cell for p on entry


def _coeff_add(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple([(x + y) % p for x, y in zip(a, b)])


def _coeff_sub(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple([(x - y) % p for x, y in zip(a, b)])


def _coeff_neg(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple([-x % p for x in a])


class FieldCtx:
    """A prime field GF(p) or extension GF(p^k) with exact arithmetic.

    Callers use :func:`make_prime_field` and :func:`make_extension`; the
    irreducibility test also builds the ring GF(p)[x]/f on a candidate
    modulus f, where every operation but ``inv`` is valid.  A context built
    directly has no exp/log tables and runs the convolution bodies.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.modulus = modulus  # monic, length k+1, None when k == 1
        self.size = p**k
        self.zero: Fel = 0 if k == 1 else (0,) * k
        self.one: Fel = 1 if k == 1 else (1,) + (0,) * (k - 1)
        self._order_memo: dict[int, Fel] = {}
        self._inv_table: list[int] | None = None
        self._group_factors: dict[int, int] | None = None
        self._exp: list[tuple[int, ...]] | None = None
        self._log: dict[tuple[int, ...], int] | None = None
        self._zech: list[int] | None = None
        self._zero_log = self._half = 0  # log of zero, log of -1
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

    def add(self, a: Fel, b: Fel) -> Fel:
        if self.k == 1:
            return (a + b) % self.p
        log = self._log
        if log is None:
            return _coeff_add(a, b, self.p)
        la, lb = log[a], log[b]
        zero_log = self._zero_log
        if la == zero_log:
            return b
        if lb == zero_log:
            return a
        return self._exp[la + self._zech[lb - la]]

    def sub(self, a: Fel, b: Fel) -> Fel:
        if self.k == 1:
            return (a - b) % self.p
        log = self._log
        if log is None:
            return _coeff_sub(a, b, self.p)
        la, lb = log[a], log[b]
        zero_log = self._zero_log
        if lb == zero_log:
            return a
        lb += self._half  # the log of -b
        if la == zero_log:
            return self._exp[lb]
        return self._exp[la + self._zech[lb - la]]

    def neg(self, a: Fel) -> Fel:
        if self.k == 1:
            return -a % self.p
        log = self._log
        if log is None:
            return _coeff_neg(a, self.p)
        return self._exp[log[a] + self._half]

    def mul(self, a: Fel, b: Fel) -> Fel:
        p = self.p
        if self.k == 1:
            return a * b % p
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
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
        table = self._inv_table
        if table is not None and a:  # a nonzero int of a small prime field
            return table[a]
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if self.k == 1:
            if p >= 1 << 16:
                return pow(a, -1, p)
            table = [0, 1]
            for v in range(2, p):  # 1/v = -(p // v) / (p mod v)
                table.append(-(p // v) * table[p % v] % p)
            self._inv_table = table
            return table[a]
        log = self._log
        if log is not None:
            return self._exp[self.size - 1 - log[a]]
        return _poly_inv(a, self.modulus, p)

    def pow(self, a: Fel, e: int) -> Fel:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if e == 0:
            return self.one
        log = self._log
        if log is not None:
            if a == self.zero:
                return self.zero
            return self._exp[log[a] * e % (self.size - 1)]
        result = a  # left-to-right square-and-multiply over the bits after the top one
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def scalar(self, n: int) -> Fel:
        """Image of the integer n in the field (n mod p, embedded)."""
        if self.k == 1:
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    # -- vector kernels -------------------------------------------------------

    def dot(self, u, v) -> Fel:
        """sum_i u[i] * v[i], over the shorter of the two vectors."""
        if self.k == 1:
            return sum(map(operator.mul, u, v)) % self.p
        if self._log is not None:
            return self._table_dot(u, v)
        zero = self.zero
        conv = [0] * (2 * self.k - 1)
        for a, b in zip(u, v):
            if a != zero and b != zero:
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b, i):
                            conv[j] += ai * bj
        return self._reduce(conv)

    def _table_dot(self, u, v) -> tuple[int, ...]:
        zero, exp, log = self.zero, self._exp, self._log
        prods = [zero]
        for a, b in zip(u, v):
            if a != zero and b != zero:
                prods.append(exp[log[a] + log[b]])
        return tuple(map(operator.mod, map(sum, zip(*prods)), itertools.repeat(self.p)))

    def fma(self, dst: list, u, v) -> None:
        """dst[i] += u[i] * v[i] over the shorter of u and v, in place.

        dst must be at least as long as that.
        """
        n = min(len(u), len(v))
        if self.k == 1:
            # p rides along in the zip, so the comprehension closes over nothing
            ps = itertools.repeat(self.p)
            dst[:n] = [(d + a * b) % p for d, a, b, p in zip(dst, u, v, ps)]
            return
        dst[:n] = map(self.add, dst, map(self.mul, u, v))

    def axpy(self, dst: list, c: Fel, src, start: int = 0) -> None:
        """dst[start + j] += c * src[j] for every j, in place."""
        if c == self.zero:
            return
        if self.k == 1:
            p = self.p
            for j, s in enumerate(src, start):
                if s:
                    dst[j] = (dst[j] + c * s) % p
            return
        zero, one = self.zero, self.one
        for j, s in enumerate(src, start):
            if s != zero:
                dst[j] = self.add(dst[j], s if c == one else self.mul(c, s))

    def pivot(self, rows: list[list], r: int, c: int) -> None:
        """Scale rows[r] to a one in column c, then clear column c elsewhere.

        Entries of rows[r] left of column c must be zero, so only columns c
        onward are updated, in place.
        """
        prow = rows[r]
        inv = self.inv(prow[c])
        if self.k == 1:
            # inline loops: an axpy call per row costs more than the row
            # itself on the tiny systems Prony's method solves
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
            return
        prow[c:] = tail = list(map(self.mul, itertools.repeat(inv), prow[c:]))
        for row in rows:
            if row[c] != self.zero and row is not prow:
                self.axpy(row, self.neg(row[c]), tail, c)

    def powers(self, x: Fel, count: int) -> list[Fel]:
        """[1, x, x^2, ..., x^(count-1)]."""
        out = [self.one] if count > 0 else []
        if self.k == 1:
            p = self.p
            for _ in range(count - 1):
                out.append(out[-1] * x % p)
            return out
        for _ in range(count - 1):  # the base first: mul skips its zero coefficients
            out.append(self.mul(x, out[-1]))
        return out

    def horner(self, coeffs, x: Fel) -> Fel:
        """sum_i coeffs[i] * x^i."""
        if self.k == 1:
            p, acc = self.p, 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % p
            return acc
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

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
        if self._group_factors is None:
            self._group_factors = _factorize(self.size - 1)
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


def make_prime_field(p: int) -> FieldCtx:
    """GF(p) for prime p."""
    if not _is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    return FieldCtx(p, 1, None)


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
    ctx = FieldCtx(base.p, k, lexicographically_least_irreducible(base.p, k))
    if ctx.size <= _TABLE_CAP:
        # exp[i] = g^i for i < 2n, then zeros; log maps zero to 2n, so a sum
        # of two logs with a zero among them lands in the zero padding
        n, p = ctx.size - 1, ctx.p
        exp = ctx.powers(ctx.element_of_order(n), n)
        log = {a: i for i, a in enumerate(exp)}
        log[ctx.zero] = 2 * n
        # zech[i] = log(1 + g^i): bump the constant coefficient of g^i;
        # twice over, so that differences of logs in (-n, n + n/2) index it
        zech = [log[((e[0] + 1) % p,) + e[1:]] for e in exp]
        ctx._exp = exp + exp + [ctx.zero] * (2 * n + 1)
        ctx._log = log
        ctx._zech = zech + zech
        ctx._zero_log = 2 * n
        ctx._half = 0 if p == 2 else n // 2  # g^(n/2) = -1 for odd p
    return ctx


def make_field(p: int, k: int) -> FieldCtx:
    """GF(p^k): GF(p) for k = 1, else its canonical extension (k >= 2)."""
    ctx = make_prime_field(p)
    return ctx if k == 1 else make_extension(ctx, k)


def find_element_of_order(ctx: FieldCtx, min_order: int) -> Fel:
    """First canonical element with multiplicative order >= min_order."""
    return ctx.element_of_order(min_order)


def embed_as_matrix(ctx: FieldCtx, a: Fel) -> list[list[int]]:
    """Matrix of x -> a*x over the base field, in the power basis.

    Column c holds the coefficients of ``a * x^c``, x times column c - 1.
    The map is an algebra homomorphism: it turns field addition and
    multiplication into matrix addition and multiplication.
    """
    if ctx.k == 1:
        return [[a]]
    x = (0, 1) + (0,) * (ctx.k - 2)
    cols = [a]
    for _ in range(ctx.k - 1):  # x first, as in powers: mul skips its zero coefficients
        cols.append(ctx.mul(x, cols[-1]))
    return [list(row) for row in zip(*cols)]
